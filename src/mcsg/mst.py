"""Euclidean MSTs per color class, minimum completions and the forced edges.

The EMST is the only edge source a minimum completion needs: with the edges
F of any pre-merged blocks added, an MST of G plus F uses only edges of F and
of MST(G), because every other pair is the longest edge on a cycle of MST(G)
edges.  So completing a class around already connected blocks is Kruskal
over its EMST edges in (length, a, b) order with the blocks pre-united as
groups.  Every (length, a, b) key is distinct, so that forest is the unique
minimum spanning forest of the class with each block contracted, and
``euclidean_mst`` builds it directly when given the blocks as initial
component labels: the dense Kruskal starts with them united, and Borůvka
starts its rounds from them instead of from single points.
``mst_completion`` takes that route unless it is given the class's EMST,
which the instance keeps once ``class_tree`` has built it, so that A1, A2,
the pairing and exact2 share one per class.  ``kruskal`` is the one Kruskal
loop: the dense EMST, ``mst_completion`` over a given tree and exact2's
block forests and world completions all run through it.  At every n, the
EMST here is the unique MST under that strict order.

The forced edges of color c are one such completion.  A maximal subset of
MST(S_c) in which no component contains two multichromatic points lies
inside some optimum solution, so every solver starts from it; it is the
completion of S_c with all its multichromatic points pre-merged into one
block (an edge is dropped exactly when it would join two components that
each hold a multichromatic point).  It is a forest with one component per
multichromatic point, or a spanning tree of a nonempty S_c that has none,
so its component count is |S_c| minus its edge count.
"""

from __future__ import annotations

import numpy as np

from .core import Instance, as_edges

# above it _boruvka_mst, whose tree (or forest, from initial labels) is the
# same, beats the dense Kruskal
DENSE_LIMIT = 80


def kruskal(n: int, items, groups=(), out: list[tuple[int, int]] | None = None) -> float:
    """Cost of Kruskal over vertices 0..n-1 with each group pre-united.

    ``items`` are ``(weight, a, b, x, y)`` in ascending order, read lazily
    and only until one set remains; an item that joins the sets of x and y
    adds its weight and, when ``out`` is given, appends ``(a, b)`` to it.
    ``groups`` holds ``(label, vertex)`` pairs, and the vertices of one label
    form a group.  A plain parent list, because exact2 runs this over a
    million times per solve and a method call per step would cost more than
    the walk.  The items' walks halve their paths: a long spine joined from
    its far end would otherwise make every later walk from it linear.
    """
    if n <= 1:
        return 0.0
    parent, left = list(range(n)), n - 1
    first: dict[int, int] = {}
    for g, x in groups:
        r = first.setdefault(g, x)
        while parent[r] != r:
            r = parent[r]
        while parent[x] != x:
            x = parent[x]
        if x != r:
            parent[x] = r
            left -= 1
    cost = 0.0
    if left == 0:
        return cost
    for w, a, b, x, y in items:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving: parent[x] is set before x
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x != y:
            parent[y] = x
            cost += w
            if out is not None:
                out.append((a, b))
            left -= 1
            if left == 0:
                break
    return cost


def component_labels(n: int, pairs) -> list[int]:
    """Component of each vertex 0..n-1 under the ``(a, b)`` pairs, numbered
    in order of each component's least vertex."""
    parent = list(range(n))
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        parent[max(a, b)] = min(a, b)
    # parent[v] <= v throughout, so each root is its component's least
    # vertex and a vertex's parent is labelled before it
    labels, count = [], 0
    for v, p in enumerate(parent):
        if p == v:
            labels.append(count)
            count += 1
        else:
            labels.append(labels[p])
    return labels


def _length(xy: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pair lengths sqrt(dx*dx + dy*dy), exact on integer ties where np.hypot is not."""
    x, y = xy.T  # gathers from 1-D views beat gathering rows of xy
    dx, dy = x[a] - x[b], y[a] - y[b]
    return np.sqrt(dx * dx + dy * dy)


def index_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All pairs i < j of range(n) in (i, j) order, as ``np.triu_indices(n, 1)``
    gives them but with a fraction of its per-call overhead."""
    r = np.arange(n)
    a, b = np.nonzero(r[:, None] < r)
    # np.nonzero returns strided views of one (pairs, 2) array; contiguous
    # copies let it go, though at n = DENSE_LIMIT (80) it holds only 50 KB
    return a.copy(), b.copy()


def _dense_mst(xy: np.ndarray, labels: np.ndarray | None = None) -> np.ndarray:
    n = xy.shape[0]
    a, b = index_pairs(n)
    length = _length(xy, a, b)
    order = np.lexsort((b, a, length))
    a, b, kept = a[order].tolist(), b[order].tolist(), []
    groups = () if labels is None else zip(labels.tolist(), range(n))
    kruskal(n, zip(length[order].tolist(), a, b, a, b), groups, kept)
    return as_edges(kept)


def _boruvka_mst(xy: np.ndarray, labels: np.ndarray | None = None) -> np.ndarray:
    """Borůvka on one kd-tree: each round every component takes its least
    outgoing pair under (length, a, b), so this is ``_dense_mst``'s tree, or
    its forest when the rounds start from the components of ``labels``.  The
    candidates a < b hold, per point p, every foreign point within kd distance
    ``reach[p]``; a point whose reach falls short of its component's best pair
    gets one wider k-NN row, then a ball search outside its component."""
    from scipy.spatial import cKDTree  # here, so import mcsg and small solves never load scipy

    n = xy.shape[0]
    lab = np.arange(n) if labels is None else np.unique(labels, return_inverse=True)[1]
    tree, reach, wide = cKDTree(xy), np.zeros(n), np.zeros(n, dtype=bool)
    a, b, length, kept = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0), []

    def add(i, j):
        nonlocal a, b, length
        a, b = np.concatenate([a, np.minimum(i, j)]), np.concatenate([b, np.maximum(i, j)])
        length = np.concatenate([length, _length(xy, i, j)])

    def rows(pts, k):
        kd, nbr = tree.query(xy[pts], k=min(k, n))
        reach[pts] = kd[:, -1] if k < n else np.inf
        i, j = np.repeat(pts, nbr.shape[1]), nbr.ravel()
        new = (i < j) | (i > j) & (kd.ravel() * (1 + 1e-9) >= reach[j])  # else j's row holds i
        add(i[new], j[new])

    rows(np.arange(n), 9)
    while (ncomp := lab.max() + 1) > 1:
        ca, cb = lab[a], lab[b]
        foreign = np.flatnonzero(ca != cb)  # pairs inside a component stay inside
        a, b, length, ca, cb = a[foreign], b[foreign], length[foreign], ca[foreign], cb[foreign]
        best = np.full(ncomp, np.inf)
        np.minimum.at(best, ca, length)
        np.minimum.at(best, cb, length)
        loose = reach <= best[lab] * (1 + 1e-9)  # kd distances need not equal _length
        # a component with no candidate yet: its rows of 48 must leave it if it is smaller
        fresh = np.flatnonzero(loose & ~wide & ((best[lab] < np.inf) | (np.bincount(lab)[lab] < 48)))
        if fresh.size:
            wide[fresh] = True
            rows(fresh, 48)
            continue
        for c in np.unique(lab[loose]):
            inside, outside = np.flatnonzero(loose & (lab == c)), np.flatnonzero(lab != c)
            far = cKDTree(xy[outside])
            r = best[c] if best[c] < np.inf else far.query(xy[inside[::64]])[0].min()  # a bound
            r = (1 + 2e-9) * min(r, far.query(xy[inside], distance_upper_bound=r * (1 + 2e-9))[0].min())
            hits = far.query_ball_point(xy[inside], r)  # every foreign point within r
            add(np.repeat(inside, [len(h) for h in hits]),
                outside[np.fromiter((q for h in hits for q in h), dtype=np.int64)])
            reach[inside] = np.maximum(reach[inside], np.nextafter(r, np.inf))
        if loose.any():
            continue
        key, pick = a * n + b, np.full(ncomp, n * n)
        for own in (ca, cb):
            tie = length == best[own]
            np.minimum.at(pick, own[tie], key[tie])
        kept.append(np.stack(np.divmod(pick, n), axis=1))
        ids = np.arange(ncomp)
        to = lab[kept[-1]].sum(axis=1) - ids  # the component each one joins
        to = np.where((to[to] == ids) & (ids < to), ids, to)  # two that pick each other: one root
        while (to[to] != to).any():
            to = to[to]
        lab = (np.cumsum(to == ids) - 1)[to][lab]
    return as_edges(np.concatenate(kept)) if kept else as_edges(())


def euclidean_mst(xy, labels=None) -> np.ndarray:
    """Spanning tree of the complete Euclidean graph on coordinates.

    Returns a canonical edge array over positions in the input.  Empty and
    singleton inputs yield no edges.  The tree is the EMST with ties broken
    lexicographically by (length, a, b), one tree at every n: up to
    ``DENSE_LIMIT`` points from ``_dense_mst``, above it from ``_boruvka_mst``.
    ``labels``, one integer per point, pre-connects the points that share a
    label; the result is then the minimum spanning forest that joins those
    components, the edges Kruskal over all pairs takes with them pre-united,
    and it has no edge when one label covers every point.
    """
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    n = xy.shape[0]
    if n <= 1:
        return as_edges(())
    if n <= DENSE_LIMIT:
        return _dense_mst(xy, labels)
    return _boruvka_mst(xy, labels)


def subset_mst(xy: np.ndarray, members) -> np.ndarray:
    """EMST of the points ``xy[members]`` as pairs of indices into ``xy``.

    Each pair has a < b, and the pairs come in ascending (length, a, b)
    order, the order ``kruskal`` takes them in.
    """
    members = np.asarray(members, dtype=np.int64)
    tree = members[euclidean_mst(xy[members])]
    tree.sort(axis=1)
    return tree[np.lexsort((tree[:, 1], tree[:, 0], _length(xy, *tree.T)))]


def class_tree(inst: Instance, c: int) -> np.ndarray:
    """``subset_mst`` of class c, read-only, built once and kept in ``inst._trees`` (only here)."""
    if (tree := inst._trees.get(c)) is None:
        tree = inst._trees[c] = subset_mst(inst.xy, inst.color_class(c))
        tree.setflags(write=False)
    return tree


# ---------------------------------------------------------------------------
# minimum completions and the forced edges


def mst_completion(inst: Instance, members, merged, tree: np.ndarray | None = None) -> np.ndarray:
    """Minimum edge set spanning ``members`` given pre-connected blocks.

    The blocks of ``merged`` (instance indices; points outside ``members``
    are ignored) count as already connected.  Returns the chosen pairs as a
    canonical edge array: the EMST of ``members`` with each block as one
    initial component (``euclidean_mst``'s ``labels``), which is ``kruskal``
    over the plain EMST with the blocks pre-united (see the module
    docstring).  ``tree`` is that plain EMST as ``subset_mst`` gives it, such
    as ``class_tree`` of a whole class; the Kruskal over it is then cheaper
    than a second EMST.
    """
    members = np.asarray(members, dtype=np.int64)
    pos = np.full(inst.n, -1, dtype=np.int64)
    pos[members] = np.arange(members.size)
    if tree is not None:
        groups = [(g, p) for g, block in enumerate(merged)
                  for p in pos[np.fromiter(block, np.int64)].tolist() if p >= 0]
        kept: list[tuple[int, int]] = []
        kruskal(members.size, ((0.0, a, b, a, b) for a, b in pos[tree].tolist()), groups, kept)
        return as_edges(members[np.array(kept, dtype=np.int64).reshape(-1, 2)])
    labels = np.arange(members.size)  # labels[v] is always a point r with labels[r] == r
    for block in merged:
        p = pos[np.fromiter(block, np.int64)]
        p = p[p >= 0]
        if p.size:
            hit = np.zeros(members.size, dtype=bool)
            hit[labels[p]] = True  # blocks that overlap merge into one
            labels[hit[labels]] = labels[p].min()
    return as_edges(members[euclidean_mst(inst.xy[members], labels)])


def forced_edges(inst: Instance, c: int) -> np.ndarray:
    """Forced edges of color c as a canonical edge array: the completion of
    S_c with its multichromatic points pre-merged (see the module docstring),
    one ``euclidean_mst`` call with those points under one label.  They form
    a forest whose component count is |S_c| minus their count."""
    members = inst.color_class(c)
    return mst_completion(inst, members, [members[inst.multichromatic()[members]]])
