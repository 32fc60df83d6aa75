"""Exact two-color solver via a search over partitions of the bichromatic points.

Call the bichromatic points *purple*.  Only a purple-purple edge can serve both
colors, so an optimum splits into: the forced monochromatic edges, a forest
on the purple points, and per color a minimum completion of that color's
world contracted by the forced edges, the ``group_merge`` blocks and the
forest.  A completion link joins two groups of the forest, while a forest
edge lies inside one; so for a fixed partition of the purple points into
groups, the cheapest forest is the MST of each block, and the completions
depend on the partition only.  The search therefore runs over set
partitions (Bell(m) of them) instead of labelled forests.

Purple points of one ``group_merge`` block are first contracted into one
*unit*; the distance between units is their cheapest point pair.
``solve_pair`` fills a table with the MST cost of every subset of the units
(the block forests) and scores each partition of the units as

    forced cost + the forests of its blocks + each world's Kruskal completion,

each completion being Kruskal with the forced edges, the ``group_merge``
blocks and the partition's blocks already merged.  Its only candidate links
are the world's EMST edges that the forced-edge pruning dropped, one fewer
than the purple points: with any blocks pre-merged, a minimum completion
needs no other pair (see ``mst``).  The forests and the completions run
through ``mst.kruskal``, the library's one Kruskal loop.  Every score is an upper bound on
the cost of the union of its edges, and the partition induced by the
purple-purple edges of an optimum scores at most that optimum, so the
winning partition's edges cost exactly the optimum.  Partitions are skipped
when forced cost, forests and both worlds' completions with every unit
merged (a lower bound on any partition's completions) already reach the
best score; ties keep the first partition in ``core.set_partitions`` order.
The search is exponential in the number m of purple units only, and is
certified against the brute-force oracle and, on collinear inputs at any
size, against the collinear DP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mst
from .core import (Instance, Solution, as_edges, costs_equal, is_csg, make_solution,
                   over_budget, set_partitions)

# The most purple units solve_pair accepts: the search visits up to Bell(m)
# partitions, 678,570 at m = 11.
M_LIMIT = 11


@dataclass(frozen=True, eq=False)
class PairProjection:
    """A 2-color restriction of an instance to S_c1 union S_c2.

    ``idx`` holds the participating base-instance indices; ``bits`` has bit 0
    set where the point carries c1 and bit 1 where it carries c2 (after
    projection every point has at least one bit).  ``group_merge`` blocks are
    treated as pre-connected in both colors.
    """

    base: Instance
    pair: tuple[int, int]
    idx: np.ndarray
    bits: np.ndarray
    group_merge: tuple[frozenset[int], ...] = ()

    @property
    def n(self) -> int:
        return int(self.idx.size)

    def purple(self) -> np.ndarray:
        """Positions (into idx) of the bichromatic points."""
        return np.flatnonzero(self.bits == 3)


def project_pair(
    base: Instance, c1: int, c2: int, group_merge: tuple[frozenset[int], ...] = ()
) -> PairProjection:
    if c1 == c2 or not (1 <= c1 <= base.k and 1 <= c2 <= base.k):
        raise ValueError(f"invalid color pair ({c1}, {c2})")
    b1 = np.uint32(1 << (c1 - 1))
    b2 = np.uint32(1 << (c2 - 1))
    sel = np.flatnonzero(base.masks & (b1 | b2))
    bits = ((base.masks[sel] & b1) != 0).astype(np.uint8)
    bits |= (((base.masks[sel] & b2) != 0) << 1).astype(np.uint8)
    seen: set[int] = set()
    for block in group_merge:
        if seen & set(block):
            raise ValueError("group_merge blocks must be disjoint")
        seen |= set(block)
    return PairProjection(base=base, pair=(c1, c2), idx=sel, bits=bits, group_merge=tuple(group_merge))


def _block_masks(code: tuple[int, ...]) -> list[int]:
    """Unit bitmask of each block of a restricted-growth string."""
    masks = [0] * (max(code, default=-1) + 1)
    for u, b in enumerate(code):
        masks[b] |= 1 << u
    return masks


def _units(proj: PairProjection) -> tuple[list[list[int]], list[list[int]]]:
    """The ``group_merge`` blocks and the purple units, as positions into idx.

    A unit is one purple point, or the purple points of one ``group_merge``
    block; units are listed in order of their first point.
    """
    pos_of = {int(g): i for i, g in enumerate(proj.idx)}
    merge_blocks = [sorted(pos_of[g] for g in block if int(g) in pos_of) for block in proj.group_merge]
    block_of = {p: bi for bi, block in enumerate(merge_blocks) for p in block}
    key_unit: dict[int, int] = {}
    units: list[list[int]] = []
    for p in proj.purple().tolist():
        u = key_unit.setdefault(block_of.get(p, -1 - p), len(units))
        if u == len(units):
            units.append([])
        units[u].append(p)
    return merge_blocks, units


def _world(proj: PairProjection, bit: int, merge_blocks, units, dist):
    """One color's forced edges, component count, completion links and the
    component of each unit.

    The color is ``proj.pair[bit - 1]``.  The forced edges are its class
    EMST's completion with the purple points pre-merged (see ``mst``); the
    links are the EMST edges that it dropped, one fewer than the purple
    points: with the forced edges and any blocks pre-merged, a minimum
    completion needs no other pair.
    """
    bits = proj.bits.tolist()
    members = [p for p in range(len(bits)) if bits[p] & bit]
    # the class tree at projection positions; idx is sorted, so the pairs
    # keep class_tree's ascending (length, a, b) order
    tree = np.searchsorted(proj.idx, mst.class_tree(proj.base, proj.pair[bit - 1])).tolist()
    forced: list[tuple[int, int]] = []
    mst.kruskal(len(bits), ((0.0, a, b, a, b) for a, b in tree),
                [(0, p) for p in members if bits[p] == 3], forced)
    forced.sort()  # (a, b) order: the forced cost sums them in this order
    pairs = list(forced)
    for block in merge_blocks:
        inside = [p for p in block if bits[p] & bit]
        pairs += zip(inside, inside[1:])
    labels = mst.component_labels(len(bits), pairs)
    roots: dict[int, int] = {}
    comp = {p: roots.setdefault(labels[p], len(roots)) for p in members}
    # EMST edges between components (the forced ones lie inside one)
    links = [(dist(a, b), a, b, comp[a], comp[b]) for a, b in tree if comp[a] != comp[b]]
    return forced, len(roots), links, [comp[unit[0]] for unit in units]


def solve_pair(proj: PairProjection) -> Solution:
    """Minimum-cost CSG of a 2-color projection, exact.

    Refuses when the number m of purple units (bichromatic points, those of
    one ``group_merge`` block counted once) exceeds ``M_LIMIT``.  The result
    contains the forced edges of both colors and carries ratio 1.0; edges are
    reported in base-instance indices.  Each color's class EMST comes from
    ``mst.class_tree``, so solves on one base instance share it.  Raises
    ``RuntimeError`` if the edges' cost differs from the search's best score.
    """
    merge_blocks, units = _units(proj)
    m = len(units)
    if m > M_LIMIT:
        raise over_budget("exact2", m, "purple units", M_LIMIT, "exact2.M_LIMIT")
    pts = proj.base.xy[proj.idx].tolist()

    def dist(a: int, b: int) -> float:
        (xa, ya), (xb, yb) = pts[a], pts[b]
        dx, dy = xa - xb, ya - yb
        return math.sqrt(dx * dx + dy * dy)  # mst's length rule, bit for bit

    w1, w2 = (_world(proj, bit, merge_blocks, units, dist) for bit in (1, 2))
    forced_edges = w1[0] + w2[0]
    forced_cost = sum(dist(a, b) for a, b in forced_edges)
    # cheapest point pair per unit pair, ascending by (weight, a, b)
    unit_pairs = sorted(
        min((dist(p, q), min(p, q), max(p, q)) for p in units[u] for q in units[v]) + (u, v)
        for u in range(m)
        for v in range(u + 1, m)
    )

    def inside(mask: int) -> list:
        return [item for item in unit_pairs if mask >> item[3] & 1 and mask >> item[4] & 1]

    def complete(world, code: tuple[int, ...], out=None) -> float:
        """The world's Kruskal completion cost with the blocks of ``code`` pre-merged."""
        _, n, links, unit_comp = world
        return mst.kruskal(n, links, zip(code, unit_comp), out)

    forest = [mst.kruskal(m, inside(mask)) for mask in range(1 << m)]
    floor = forced_cost + complete(w1, (0,) * m) + complete(w2, (0,) * m)
    best, best_code = math.inf, ()
    for code in set_partitions(m):
        forests = sum(forest[mask] for mask in _block_masks(code))
        if floor + forests >= best:
            continue
        total = forced_cost + forests + complete(w1, code) + complete(w2, code)
        if total < best:
            best, best_code = total, code
    edges = list(forced_edges)
    for mask in _block_masks(best_code):
        mst.kruskal(m, inside(mask), out=edges)
    complete(w1, best_code, edges)
    complete(w2, best_code, edges)
    base_edges = [(int(proj.idx[a]), int(proj.idx[b])) for a, b in edges]
    sol = make_solution(proj.base, base_edges, "exact2", ratio_bound=1.0)
    if not costs_equal(sol.cost, best):  # the winner's edges cost exactly its score
        raise RuntimeError("exact2 cost does not match its edge set")
    return sol


def spans_projection(proj: PairProjection, edges) -> bool:
    """Connectivity check for a pair solve: both projected colors span,
    with group_merge blocks treated as pre-connected."""
    if proj.n == 0:
        return True
    pos = np.full(proj.base.n, -1, dtype=np.int64)
    pos[proj.idx] = np.arange(proj.n)
    local = pos[as_edges(edges, proj.base.n)]
    chains = [local[(local >= 0).all(axis=1)]]
    for block in _units(proj)[0]:
        for bit in (1, 2):
            # the block's members of each color, chained as _world merges them
            inside = np.array([p for p in block if proj.bits[p] & bit], dtype=np.int64)
            chains.append(np.stack([inside[:-1], inside[1:]], axis=1))
    return is_csg(Instance.from_arrays(2, proj.base.xy[proj.idx], proj.bits),
                  np.concatenate(chains))
