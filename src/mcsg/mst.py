"""Euclidean MSTs per color class and the forced monochromatic edges.

For each color c, a maximal subset of MST(S_c) in which no component contains
two multichromatic points is guaranteed to lie inside some optimum solution,
so every solver starts from these *forced edges*.  The pruning is realized as
a deterministic ascending-weight rebuild: an MST edge is kept unless it would
merge two components that each already hold a multichromatic point.

The EMST is also the only edge source a minimum completion needs: with the
edges F of any pre-merged blocks added, an MST of G plus F uses only edges of
F and of MST(G), because every other pair is the longest edge on a cycle of
MST(G) edges.  So completing a class around already connected blocks is
Kruskal over its EMST edges with the blocks pre-united
(``approx3.mst_completion`` and exact2's color worlds).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree
from scipy.spatial import cKDTree

from .core import Instance, as_edges

# Above this size the dense O(n^2) edge list is replaced by a k-NN candidate
# graph with exact nearest-pair completion between leftover components.
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


def _dense_mst(xy: np.ndarray) -> np.ndarray:
    n = xy.shape[0]
    a, b = np.triu_indices(n, k=1)
    d = xy[a] - xy[b]
    w = np.hypot(d[:, 0], d[:, 1])
    order = np.lexsort((b, a, w))  # ties broken by (weight, a, b)
    uf = UnionFind(n)
    out = []
    for idx in order:
        if uf.union(int(a[idx]), int(b[idx])):
            out.append((int(a[idx]), int(b[idx])))
            if uf.count == 1:
                break
    return as_edges(out)


def _knn_candidates(xy: np.ndarray, k: int) -> np.ndarray:
    tree = cKDTree(xy)
    k = min(k + 1, xy.shape[0])
    _, nbr = tree.query(xy, k=k)
    src = np.repeat(np.arange(xy.shape[0]), k - 1)
    dst = nbr[:, 1:].reshape(-1)
    return as_edges(np.stack([src, dst], axis=1))


def _sparse_mst(xy: np.ndarray) -> np.ndarray:
    """MST via k-NN candidates plus exact completion of leftover components.

    The k-NN graph already contains every locally short MST edge; whenever it
    leaves several components, the exact nearest pair between the current
    components is added (Boruvka-style) until the candidate graph spans.
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
    """Minimum spanning tree of the complete Euclidean graph on coordinates.

    Returns a canonical edge array over positions in the input.  Empty and
    singleton inputs yield no edges.  For small inputs ties are broken
    lexicographically by (length, a, b); the large-input path is deterministic
    for a fixed input but makes no lexicographic tie promise.
    """
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    n = xy.shape[0]
    if n <= 1:
        return as_edges(())
    if n <= DENSE_LIMIT:
        return _dense_mst(xy)
    return _sparse_mst(xy)


# ---------------------------------------------------------------------------
# forced edges (pruned per-color MSTs)


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


def prune_to_forest(
    edges: np.ndarray, weights: np.ndarray, n: int, is_active: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Keep a maximal subset of a forest with <= 1 active point per component.

    Edges are re-added in ascending (weight, a, b) order, skipping any edge
    that would merge two components each already holding an active point.
    Returns (kept edge indices into ``edges``, component label per vertex).
    """
    order = np.lexsort((edges[:, 1], edges[:, 0], weights)).tolist()
    ends = edges.tolist()
    uf = UnionFind(n)
    find, parent = uf.find, uf.parent
    has_active = is_active.tolist()
    kept = []
    for idx in order:
        a, b = ends[idx]
        ra, rb = find(a), find(b)
        if ra == rb or (has_active[ra] and has_active[rb]):
            continue
        parent[rb] = ra
        has_active[ra] = has_active[ra] or has_active[rb]
        kept.append(idx)
    roots: dict[int, int] = {}
    labels = [roots.setdefault(find(v), len(roots)) for v in range(n)]
    kept.sort()
    return np.array(kept, dtype=np.int64), np.array(labels, dtype=np.int64)


def forced_edges(inst: Instance, c: int) -> ColorForest:
    """Forced edges for color c: MST(S_c) pruned at multichromatic points.

    If S_c has no multichromatic point the whole MST is kept.
    """
    members = inst.color_class(c)
    if members.size <= 1:
        return ColorForest(
            color=c,
            points=members,
            edges=as_edges(()),
            components=np.zeros(members.size, dtype=np.int64),
        )
    local = euclidean_mst(inst.xy[members])
    active = inst.multichromatic()[members]
    if not active.any():
        uf = UnionFind(members.size)
        for a, b in local.tolist():
            uf.union(a, b)
        labels = np.array([uf.find(i) for i in range(members.size)])
        _, labels = np.unique(labels, return_inverse=True)
        kept = local
    else:
        d = inst.xy[members[local[:, 0]]] - inst.xy[members[local[:, 1]]]
        w = np.hypot(d[:, 0], d[:, 1])
        kept_idx, labels = prune_to_forest(local, w, members.size, active)
        kept = local[kept_idx]
    return ColorForest(
        color=c,
        points=members,
        edges=as_edges(members[kept]) if kept.size else as_edges(()),
        components=labels,
    )


def all_forced_edges(inst: Instance) -> np.ndarray:
    """Union of the forced edges over every color (instance indices)."""
    parts = [forced_edges(inst, c).edges for c in range(1, inst.k + 1)]
    parts = [p for p in parts if p.size]
    if not parts:
        return as_edges(())
    return as_edges(np.concatenate(parts, axis=0))

