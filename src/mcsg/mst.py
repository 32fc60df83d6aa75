"""Euclidean MSTs per color class, minimum completions and the forced edges.

The EMST is the only edge source a minimum completion needs: with the edges
F of any pre-merged blocks added, an MST of G plus F uses only edges of F and
of MST(G), because every other pair is the longest edge on a cycle of MST(G)
edges.  So completing a class around already connected blocks is ``kruskal``
over its EMST edges in (length, a, b) order with the blocks pre-united.

The forced edges of color c are one such completion.  A maximal subset of
MST(S_c) in which no component contains two multichromatic points lies
inside some optimum solution, so every solver starts from it; it is the
completion of S_c with all its multichromatic points pre-merged into one
block (an edge is dropped exactly when it would join two components that
each hold a multichromatic point).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree
from scipy.spatial import cKDTree

from .core import Instance, as_edges

# Above this size the dense O(n^2) edge list is replaced by a k-NN candidate
# graph with nearest-pair bridges between leftover components, whose tree can
# cost more than the EMST (see ``_sparse_mst``).
DENSE_LIMIT = 2048


class UnionFind:
    """Array union-find with path halving."""

    __slots__ = ("parent", "count")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.count = n

    def find(self, a: int) -> int:
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        self.count -= 1
        return True


def kruskal(n: int, pairs, blocks=()) -> list[tuple[int, int]]:
    """Kruskal over vertices 0..n-1 with the vertices of each block pre-united.

    ``pairs`` must come in ascending (length, a, b) order; it is read lazily
    and only until one set remains.  Returns the pairs that joined two sets.
    """
    uf = UnionFind(n)
    for block in blocks:
        for a, b in zip(block, block[1:]):
            uf.union(a, b)
    kept = []
    if uf.count > 1:
        for a, b in pairs:
            if uf.union(a, b):
                kept.append((a, b))
                if uf.count == 1:
                    break
    return kept


def _by_length(xy: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Indices that sort the pairs (a, b) by (length, a, b).  The length is
    sqrt(dx*dx + dy*dy), exact on integer ties, which np.hypot breaks by last-bit noise."""
    d = xy[a] - xy[b]
    return np.lexsort((b, a, np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])))


def index_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All pairs i < j of range(n) in (i, j) order, as ``np.triu_indices(n, 1)``
    gives them but with a fraction of its per-call overhead."""
    r = np.arange(n)
    a, b = np.nonzero(r[:, None] < r)
    # np.nonzero returns strided views of one (pairs, 2) array; contiguous
    # copies keep the dense EMST's peak memory at n = 2048 where it was
    return a.copy(), b.copy()


def _dense_mst(xy: np.ndarray) -> np.ndarray:
    n = xy.shape[0]
    a, b = index_pairs(n)
    return as_edges(kruskal(n, ((int(a[i]), int(b[i])) for i in _by_length(xy, a, b))))


def _knn_candidates(xy: np.ndarray, k: int) -> np.ndarray:
    tree = cKDTree(xy)
    k = min(k + 1, xy.shape[0])
    _, nbr = tree.query(xy, k=k)
    src = np.repeat(np.arange(xy.shape[0]), k - 1)
    dst = nbr[:, 1:].reshape(-1)
    return as_edges(np.stack([src, dst], axis=1))


def _sparse_mst(xy: np.ndarray) -> np.ndarray:
    """Spanning tree via k-NN candidates plus bridges between leftover components.

    The MST of the k-NN graph, after the nearest pair between each leftover
    component and the rest is added (Boruvka-style) until the candidate graph
    spans.  This tree is not always the EMST: an EMST edge that is in neither
    the k-NN graph nor a bridge is missed.  A crafted 2,181-point input costs
    166.695 against the EMST's 166.234, and 3 of 200 clustered inputs cost up
    to 0.71 % more.
    """
    n = xy.shape[0]
    cand = _knn_candidates(xy, k=8)
    while True:
        d = xy[cand[:, 0]] - xy[cand[:, 1]]
        w = np.hypot(d[:, 0], d[:, 1])
        g = coo_matrix((w, (cand[:, 0], cand[:, 1])), shape=(n, n))
        ncomp, labels = connected_components(g, directed=False)
        if ncomp == 1:
            mst = minimum_spanning_tree(g.tocsr())
            rows, cols = mst.nonzero()
            return as_edges(np.stack([rows, cols], axis=1))
        bridges = []
        comp_ids, counts = np.unique(labels, return_counts=True)
        order = comp_ids[np.argsort(counts, kind="stable")]
        seen = set()
        for cid in order:
            if cid in seen:
                continue
            inside = np.flatnonzero(labels == cid)
            outside = np.flatnonzero(labels != cid)
            tree = cKDTree(xy[outside])
            dist, j = tree.query(xy[inside], k=1)
            best = int(np.argmin(dist))
            a = int(inside[best])
            b = int(outside[j[best]])
            bridges.append((a, b))
            seen.add(cid)
            seen.add(int(labels[b]))
        cand = as_edges(np.concatenate([cand, np.array(bridges, dtype=np.int64)], axis=0))


def euclidean_mst(xy) -> np.ndarray:
    """Spanning tree of the complete Euclidean graph on coordinates.

    Returns a canonical edge array over positions in the input.  Empty and
    singleton inputs yield no edges.  Up to ``DENSE_LIMIT`` points the tree is
    the EMST, ties broken lexicographically by (length, a, b).  Above it the
    tree comes from ``_sparse_mst``: deterministic for a fixed input, with no
    lexicographic tie promise, and it can cost more than the EMST.
    """
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    n = xy.shape[0]
    if n <= 1:
        return as_edges(())
    if n <= DENSE_LIMIT:
        return _dense_mst(xy)
    return _sparse_mst(xy)


def subset_mst(xy: np.ndarray, members) -> np.ndarray:
    """EMST of the points ``xy[members]`` as pairs of indices into ``xy``.

    Each pair has a < b, and the pairs come in ascending (length, a, b)
    order, the order ``kruskal`` takes them in.
    """
    members = np.asarray(members, dtype=np.int64)
    tree = members[euclidean_mst(xy[members])]
    tree.sort(axis=1)
    return tree[_by_length(xy, tree[:, 0], tree[:, 1])]


def class_trees(inst: Instance, colors) -> dict[int, np.ndarray]:
    """``subset_mst`` of the color class of each of ``colors``, by color.

    A solve that needs a class's EMST in several places (pair solves, mono
    trees, completions) builds the trees once with this and passes them
    down; they live only as long as that call.
    """
    return {c: subset_mst(inst.xy, inst.color_class(c)) for c in colors}


# ---------------------------------------------------------------------------
# forced edges


@dataclass(frozen=True, eq=False)
class ColorForest:
    """Forced edges of one color class.

    ``points`` lists S_c as instance indices, ``edges`` the kept MST edges
    (instance indices), and ``components`` a component id per entry of
    ``points``.  When the class has multichromatic points, each component
    contains exactly one of them.
    """

    color: int
    points: np.ndarray
    edges: np.ndarray
    components: np.ndarray

    @property
    def n_components(self) -> int:
        return int(self.components.max()) + 1 if self.components.size else 0


def forced_edges(inst: Instance, c: int) -> ColorForest:
    """Forced edges for color c: the completion of S_c with its
    multichromatic points pre-merged (see the module docstring)."""
    members = inst.color_class(c)
    n = members.size
    local = np.searchsorted(members, subset_mst(inst.xy, members))
    active = np.flatnonzero(inst.multichromatic()[members]).tolist()
    kept = as_edges(kruskal(n, local.tolist(), [active]))
    graph = coo_matrix((np.ones(kept.shape[0]), (kept[:, 0], kept[:, 1])), shape=(n, n))
    _, labels = connected_components(graph, directed=False)  # labelled in vertex order
    return ColorForest(
        color=c, points=members, edges=members[kept], components=labels.astype(np.int64)
    )

