"""Brute-force ground truth.

The oracle enumerates subsets of the candidate edges (pairs with a nonempty
shared color) with branch-and-bound and is the arbiter for every acceptance
test.  Its search state holds, for each color with two or more points, a
tuple of component labels over the points and the component count; including
an edge builds new tuples for the colors it joins, so backtracking undoes
nothing.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate
from typing import Iterable

import numpy as np

from .collinear import collinear_order
from .core import Instance, RefusalError, Solution, as_edges, make_solution, over_budget
from .mst import index_pairs

# The most candidate edges brute_force accepts: its branch-and-bound walks
# up to 2^m subsets of the m candidates.
MAX_CANDIDATE_EDGES = 22


def candidate_edges(inst: Instance, star_restricted: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Candidate pairs (nonempty shared color), ascending by (weight, a, b).

    With ``star_restricted`` an edge is dropped when a point between its
    endpoints (in ``collinear_order`` along the line) carries all the edge's
    shared colors; points off a line are refused.
    """
    n = inst.n
    a, b = index_pairs(n)
    shared = inst.masks[a] & inst.masks[b]
    keep = shared != 0
    a, b, shared = a[keep], b[keep], shared[keep]
    if star_restricted and a.size:
        order = collinear_order(inst)[0]
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        ok = np.ones(a.size, dtype=bool)
        for i in range(a.size):
            lo, hi = sorted((rank[a[i]], rank[b[i]]))
            between = order[lo + 1 : hi]
            if between.size and np.any((inst.masks[between] & shared[i]) == shared[i]):
                ok[i] = False
        a, b = a[ok], b[ok]
    if a.size == 0:
        return as_edges(()), np.zeros(0)
    d = inst.xy[a] - inst.xy[b]
    w = np.hypot(d[:, 0], d[:, 1])
    order = np.lexsort((b, a, w))
    edges = np.stack([a, b], axis=1)[order].astype(np.int64)
    return edges, w[order]


def brute_force(
    inst: Instance, *, star_restricted: bool = False, required: Iterable = ()
) -> Solution:
    """Exhaustive minimum-cost CSG search with branch-and-bound.

    ``required`` edges are forced into every considered subset.  Refuses the
    instance when the candidate-edge count exceeds ``MAX_CANDIDATE_EDGES``.
    """
    edges, weights = candidate_edges(inst, star_restricted)
    m = edges.shape[0]
    if m > MAX_CANDIDATE_EDGES:
        raise over_budget("oracle", m, "candidate edges", MAX_CANDIDATE_EDGES,
                          "oracle.MAX_CANDIDATE_EDGES")
    pairs = [(a, b) for a, b in edges.tolist()]
    w = weights.tolist()
    masks = inst.masks.tolist()
    # The colors with two or more points; for each, the candidate positions
    # carrying it (ascending weight) and their weights' prefix sums.
    sizes = {1 << (c - 1): inst.color_class(c).size for c in range(1, inst.k + 1)}
    bits = [bit for bit, size in sizes.items() if size >= 2]
    per_color_pos = [[i for i, (a, b) in enumerate(pairs) if masks[a] & masks[b] & bit]
                     for bit in bits]
    per_color_pref = [list(accumulate((w[i] for i in pos), initial=0.0)) for pos in per_color_pos]

    def join(state: tuple, a: int, b: int) -> tuple | None:
        """The per-color (labels, component count) after adding edge (a, b),
        or None when the edge joins two components in no color."""
        shared = masks[a] & masks[b]
        new = list(state)
        useful = False
        for ci, bit in enumerate(bits):
            labels, comps = state[ci]
            if shared & bit and labels[a] != labels[b]:
                old, to = labels[b], labels[a]
                new[ci] = (tuple(to if x == old else x for x in labels), comps - 1)
                useful = True
        return tuple(new) if useful else None

    # Seed the required edges once, up front; the search then walks the
    # other candidates, since the required ones are in every subset.
    req = {(int(a), int(b)) for a, b in as_edges(required, inst.n)}
    cand_index = {pair: i for i, pair in enumerate(pairs)}
    state = tuple((tuple(range(inst.n)), sizes[bit]) for bit in bits)
    base_cost = 0.0
    for pair in sorted(req):
        if pair not in cand_index:
            raise RefusalError(f"required edge {pair} is not a candidate edge")
        state = join(state, *pair) or state
        base_cost += w[cand_index[pair]]
    rest = [i for i, pair in enumerate(pairs) if pair not in req]

    best_cost = math.inf
    best_edges: tuple[tuple[int, int], ...] | None = None

    def dfs(k: int, partial: float, included: tuple, state: tuple) -> None:
        nonlocal best_cost, best_edges
        if all(comps == 1 for _, comps in state):
            key = tuple(sorted(included))
            if partial < best_cost or (partial == best_cost and (best_edges is None or key < best_edges)):
                best_cost, best_edges = partial, key
            return
        if k == len(rest):
            return
        idx = rest[k]
        # Bound: per color, the comps - 1 cheapest remaining candidates carrying it.
        extra = 0.0
        for (_, comps), pos, pref in zip(state, per_color_pos, per_color_pref):
            need = comps - 1
            if need > 0:
                j = bisect_left(pos, idx)
                if len(pos) - j < need:
                    extra = math.inf
                    break
                extra = max(extra, pref[j + need] - pref[j])
        if partial + extra > best_cost:
            return
        joined = join(state, *pairs[idx])
        if joined is not None:
            dfs(k + 1, partial + w[idx], included + (pairs[idx],), joined)
        dfs(k + 1, partial, included, state)

    dfs(0, base_cost, tuple(sorted(req)), state)

    if best_edges is None:
        raise RefusalError("no colored spanning graph exists over the candidate edges")
    return make_solution(inst, best_edges, "oracle", ratio_bound=1.0)
