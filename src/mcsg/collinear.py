"""Exact solver for collinear instances by dynamic programming over cuts.

On a line, a minimum solution exists in which no edge spans a point carrying
all of the edge's shared colors (the star normal form).  Under that form the
edges crossing any cut are determined by their shared-color sets, and the only
information a prefix needs about the suffix is, per color, which cut edges
attach to the same suffix component.  The DP state at cut i is therefore the
family of crossing color sets plus one partition per color; the table grows
linearly in n for fixed k.

Cuts are 1-based: cut i separates the first i points from the rest, and the
point between cuts i-1 and i has 0-based index i-1.  Each crossing edge is
charged once, at the step that consumes its right endpoint.  Internally the
per-color partitions live on the distinct right endpoints of the cut edges
(edges sharing a right endpoint always attach to the same suffix component),
which keeps the state space well below the Bell-number ceiling.

A transition between two cuts depends only on k and their relative shape, not
on the line, so each k's transition tables outlive the solve that built them
and serve the next one, up to a size of ``MAX_STATES_PER_CUT`` entries.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import combinations, product
from math import prod

import numpy as np

from .core import (Instance, RefusalError, Solution, costs_equal, make_solution, over_budget,
                   set_partitions)

# The most colors a line may have: the gamma-sets of a cut range over subsets
# of the 2^k - 1 color sets.
K_GUARD = 6
COLLINEAR_TOL = 1e-9


# ---------------------------------------------------------------------------
# geometry


def collinear_order(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Validate collinearity and return (order, projections along the line)."""
    xy = inst.xy
    n = inst.n
    if n == 1:
        return np.zeros(1, dtype=np.int64), np.zeros(1)
    p0 = xy[0]
    deltas = xy - p0
    norms = np.hypot(deltas[:, 0], deltas[:, 1])
    far = int(np.argmax(norms))
    scale = float(norms[far])
    if scale == 0.0:
        raise RefusalError("degenerate point set")
    d = deltas[far] / scale
    cross = np.abs(deltas[:, 0] * d[1] - deltas[:, 1] * d[0])
    if cross.max() > COLLINEAR_TOL * max(1.0, scale):
        raise RefusalError("points are not collinear within tolerance")
    t = deltas @ d
    order = np.argsort(t, kind="stable")
    t_sorted = t[order]
    if np.any(np.diff(t_sorted) <= 0):
        raise RefusalError("duplicate positions along the line")
    return order, t_sorted


# ---------------------------------------------------------------------------
# cut-edge machinery


class _Prep:
    """Sorted view of a collinear instance plus its table of cut edges."""

    def __init__(self, inst: Instance):
        if inst.k > K_GUARD:
            raise over_budget("collinear DP", inst.k, "colors", K_GUARD, "collinear.K_GUARD")
        self.k = inst.k
        order, t = collinear_order(inst)
        self.order = order
        self.t = t
        self.masks = inst.masks[order].astype(np.int64)
        self.n = inst.n
        n = self.n
        # edge_at[cut]: {g: (a, b)} for each color set g, ascending, whose
        # candidate edge at the 1-based cut exists: a is the last point
        # <= cut - 1 carrying all of g, b the first point >= cut, and the two
        # share exactly g.  Cuts 0 and n have no edges.
        self.edge_at: list[dict[int, tuple[int, int]]] = [{} for _ in range(n + 1)]
        idx = np.arange(n)
        for g in range(1, 1 << self.k):
            hasg = (self.masks & g) == g
            la = np.maximum.accumulate(np.where(hasg, idx, -1))
            ra = np.minimum.accumulate(np.where(hasg, idx, n)[::-1])[::-1]
            a, b = la[:-1], ra[1:]
            ok = (a >= 0) & (b < n)
            ok[ok] = (self.masks[a[ok]] & self.masks[b[ok]]) == g
            for cut0, ea, eb in zip(np.flatnonzero(ok).tolist(), a[ok].tolist(), b[ok].tolist()):
                self.edge_at[cut0 + 1][g] = (ea, eb)
        # seen[i]: colors among the first i points; split[i]: colors on both
        # sides of cut i, which a valid cut-edge set must cover.
        seen = np.zeros(n + 1, dtype=np.int64)
        np.bitwise_or.accumulate(self.masks, out=seen[1:])
        later = np.zeros(n + 1, dtype=np.int64)
        later[:n] = np.bitwise_or.accumulate(self.masks[::-1])[::-1]
        self.seen = seen.tolist()
        self.split = (seen & later).tolist()

    def weight(self, a: int, b: int) -> float:
        return float(self.t[b] - self.t[a])


# ---------------------------------------------------------------------------
# the DP

# Refuse a line as soon as one cut would hold more DP states than this, so a
# refused solve stays bounded in time and memory however fast the states grow
# (one state of a k = 4 line can fan out to over 100,000 at the next cut).
# The largest cut of the benchmark's lines holds 2,396 states; seed-7 lines
# peak at 11,968 for k = 3, n = 2000 and at 47,150 for k = 4, n = 80.
MAX_STATES_PER_CUT = 100_000


@dataclass
class DpStats:
    """Per-cut instrumentation for the state-space bound checks."""

    per_cut_states: list[int] = field(default_factory=list)
    per_cut_max_pi_per_color: list[int] = field(default_factory=list)

    @property
    def total_states(self) -> int:
        return sum(self.per_cut_states)


def _subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from combinations(items, r)


def _endpoint_bits(edges: dict[int, tuple[int, int]]) -> dict[int, int]:
    """One bit per cut edge: the rank of its right endpoint among the cut's
    distinct right endpoints, so edges sharing an endpoint share the bit."""
    rank = {b: j for j, b in enumerate(sorted({b for _a, b in edges.values()}))}
    return {g: 1 << rank[b] for g, (_a, b) in edges.items()}


def _color_masks(bits: dict[int, int], gs, k: int) -> list[int]:
    """Per color, the endpoint bits of the edges in ``gs`` that carry it."""
    masks = [0] * k
    for g in gs:
        bit = bits[g]
        for c in range(k):
            if g >> c & 1:
                masks[c] |= bit
    return masks


def _hat_key(key: int, width: int) -> tuple[tuple[int, ...], int, int, int]:
    """The relative shape of one color's transition from its mask key.

    ``key`` is ``(kept << width | new) << 2 | has_pt << 1 | d2``.  ``kept`` and
    ``new`` are the color's endpoint bits at the next cut (``_endpoint_bits``)
    reached by edges from left of p_i and from p_i, ``has_pt`` says a previous
    edge of the color ends at p_i, and ``d2`` that (d2) applies.  The shape is
    the previous endpoints (p_i first, then the kept ones) as positions among
    the next endpoints, with p_i as their number; that number; the starts
    mask; and the anchored mask, or -1 without (d2).
    """
    kept, new = key >> (width + 2), key >> 2 & ((1 << width) - 1)
    ends = kept | new
    size = ends.bit_count()
    prev_pos = [size] if key & 2 else []
    starts = anchored = 0
    j = 0
    while ends:
        low = ends & -ends
        if kept & low:
            prev_pos.append(j)
            anchored |= 1 << j
        if new & low:
            starts |= 1 << j
        ends ^= low
        j += 1
    return tuple(prev_pos), size, starts, anchored if key & 1 else -1


def _hat_b(prev_pos: tuple[int, ...], starts: int, anchored: int,
           rgs: tuple[int, ...]) -> tuple[int, ...] | None:
    """Endpoint-level hat: partition the previous cut's right endpoints.

    The next cut's endpoints are 0..s-1 in blocks ``rgs`` (s = len(rgs)), and
    p_i is s.  ``prev_pos`` names each previous endpoint among these, and bit
    j of ``starts`` is set if an edge from p_i reaches next endpoint j.  The
    blocks that an edge from p_i reaches join p_i's class, and every other
    block is a class of its own.  ``anchored`` is ``_hat_key``'s anchored
    mask: unless it is -1, (d2) needs one of those reached blocks to hold an
    anchored endpoint, and None says it does not.
    """
    reached = {r for j, r in enumerate(rgs) if starts >> j & 1}
    if anchored >= 0 and not any(anchored >> j & 1 and r in reached for j, r in enumerate(rgs)):
        return None
    size, remap = len(rgs), {}
    return tuple(remap.setdefault(-1 if p == size or rgs[p] in reached else rgs[p], len(remap))
                 for p in prev_pos)


class _Tables:
    """The DP's transition tables for one k, kept across solves.

    A transition depends only on k and the relative shape of two cuts, never
    on the line, so every table here is line-independent: the partitions per
    width, the hat maps per shape and per mask key (``_hat_key``), the ids of
    partitions and partition vectors, and the pull products.  Their ids
    therefore depend on the solves that built them; no visit order or tie
    depends on an id.  ``pulled`` counts the pull entries and the ids they
    hold; with the partition vectors and mask keys it bounds the memory held.
    """

    def __init__(self, k: int):
        self.budget = MAX_STATES_PER_CUT
        self.width = (1 << k) - 1  # a cut has at most one edge per color set
        self.pulled = 0
        self.partitions: dict[int, list[tuple[int, ...]]] = {}
        # A partition (restricted-growth string) is handled by its id in rgs_ids.
        self.rgs_ids: dict[tuple[int, ...], int] = {}
        # hat_list[id]: {hat partition id: next partition ids}, for one
        # color's shape from _hat_key, and hat_sizes[id] its number of next
        # endpoints; hat_ids holds the id by shape and hats by mask key, -1
        # when no partition is left.
        self.hat_list: list[dict[int, list[int]]] = []
        self.hat_sizes: list[int] = []
        self.hat_ids: dict[tuple, int] = {}
        self.hats: dict[int, int] = {}
        # A partition vector (one partition id per color) is handled by its id in pk_list.
        self.pk_ids: dict[tuple[int, ...], int] = {}
        self.pk_list: list[tuple[int, ...]] = []
        # pulls[map ids per color]: {previous pk id: next pk ids, empty if unreachable}
        self.pulls: dict[tuple[int, ...], dict[int, list[int]]] = {}

    def partitions_of(self, t: int) -> list[tuple[int, ...]]:
        got = self.partitions.get(t)
        if got is None:
            got = self.partitions[t] = list(set_partitions(t))
        return got

    def rgs_id(self, rgs: tuple[int, ...]) -> int:
        got = self.rgs_ids.get(rgs)
        if got is None:
            got = self.rgs_ids[rgs] = len(self.rgs_ids)
        return got

    def hat_map(self, key: int) -> int:
        shape = _hat_key(key, self.width)
        got = self.hat_ids.get(shape)
        if got is None:
            prev_pos, size, starts, anchored = shape
            mp: dict[int, list[int]] = {}
            for rgs in self.partitions_of(size):
                hat = _hat_b(prev_pos, starts, anchored, rgs)
                if hat is not None:
                    mp.setdefault(self.rgs_id(hat), []).append(self.rgs_id(rgs))
            got = -1
            if mp:
                got = len(self.hat_list)
                self.hat_list.append(mp)
                self.hat_sizes.append(size)
            self.hat_ids[shape] = got
        self.hats[key] = got
        return got

    def pk_id(self, pk: tuple[int, ...]) -> int:
        got = self.pk_ids.get(pk)
        if got is None:
            got = self.pk_ids[pk] = len(self.pk_list)
            self.pk_list.append(pk)
        return got


# Each k's tables between solves.  A solve takes them out and puts them back
# only when it succeeds, so two solves at once never share them and a refused
# solve leaves none behind.
_TABLES: dict[int, _Tables] = {}


def _dp(prep: _Prep, stats: DpStats):
    """Minimum cost and the edges of an optimum, by the DP over cuts.

    A state at a cut is a gamma-set (the crossing color sets, held as a bit
    mask over them) plus one partition per color of the cut's right
    endpoints.  The pull-back of a next-cut partition to the previous cut
    depends only on the relative shape of the two cuts.  Each cut edge gets
    one endpoint bit, so a color's shape is read from a small int key of
    endpoint masks (``_hat_key``).  The hat maps, by that key and by the shape
    it names, and the previous-partition -> next-partitions products, by the
    maps they combine, live in the k's ``_Tables``, which later solves reuse
    while they were built under the current ``MAX_STATES_PER_CUT`` and hold at
    most that many entries.  The traceback keeps one parent index and one
    dropped-edge id per state and cut.
    """
    n, k = prep.n, prep.k
    tables = _TABLES.pop(k, None)
    if tables is None or tables.budget != MAX_STATES_PER_CUT:
        tables = _Tables(k)
    width, partitions_of, hat_map, pk_id = (tables.width, tables.partitions_of, tables.hat_map,
                                            tables.pk_id)
    hat_list, hat_sizes, hats, pk_list, pulls = (tables.hat_list, tables.hat_sizes, tables.hats,
                                                 tables.pk_list, tables.pulls)

    # cut 0 has one state: no cut edges, every color's partition empty
    empty = (tables.rgs_id(()),) * k
    states: dict[int, dict[int, int]] = {0: {pk_id(empty): 0}}
    vals = [0.0]
    # trace[cut - 1]: (parent index per state, dropped-edge id per state, dropped edges)
    trace: list[tuple[array, array, list[tuple[tuple[int, int], ...]]]] = []

    for cut in range(1, n + 1):
        pt = cut - 1
        pt_mask = int(prep.masks[pt])
        split = prep.split[cut]
        prev_edges, cut_edges = prep.edge_at[pt], prep.edge_at[cut]
        bits = _endpoint_bits(cut_edges)
        # per subset of the edges from p_i: its gamma-set bits, its color
        # cover and each color's new-endpoint mask, shifted into the key
        subs = []
        for l_sub in _subsets(g for g, (a, _b) in cut_edges.items() if a == pt):
            sub_gs = cover = 0
            for g in l_sub:
                sub_gs |= 1 << g
                cover |= g
            subs.append((sub_gs, cover, [m << 2 for m in _color_masks(bits, l_sub, k)]))
        new_states: dict[int, dict[int, int]] = {}
        widths: dict[int, int] = {}  # per gamma-set, its widest color's endpoint count
        new_vals: list[float] = []
        new_par: list[int] = []
        new_drop: list[int] = []
        drops: list[tuple[tuple[int, int], ...]] = []
        for prev_gs, items in states.items():
            keep, d_edges, keep_gs, keep_cover, d_mask, charge = [], [], 0, 0, 0, 0.0
            for g, (a, b) in prev_edges.items():
                if prev_gs >> g & 1:
                    if b == pt:
                        d_edges.append((a, b))
                        d_mask |= g
                        charge += prep.weight(a, b)
                    else:
                        keep.append(g)
                        keep_gs |= 1 << g
                        keep_cover |= g
            drop_id = len(drops)
            drops.append(tuple(d_edges))
            need_d2 = pt_mask & prep.seen[pt] & ~d_mask
            base = [m << (width + 2) | (d_mask >> c & 1) << 1 | (need_d2 >> c & 1)
                    for c, m in enumerate(_color_masks(bits, keep, k))]
            for sub_gs, cover, new_keys in subs:
                if split & ~(keep_cover | cover):
                    continue
                # Per color, the partition choices grouped by the hat they
                # induce; (d2) is a per-color filter.
                ids = []
                for key in map(int.__or__, base, new_keys):
                    got = hats.get(key)
                    if got is None:
                        got = hat_map(key)
                    if got < 0:
                        break
                    ids.append(got)
                else:
                    memo = pulls.setdefault(tuple(ids), {})
                    next_gs = keep_gs | sub_gs
                    group = new_states.get(next_gs)
                    if group is None:
                        group = new_states[next_gs] = {}
                        widths[next_gs] = max(map(hat_sizes.__getitem__, ids))
                    for kappa, j in items.items():
                        pks = memo.get(kappa)
                        if pks is None:
                            opts = []
                            for hat, i in zip(pk_list[kappa], ids):
                                got = hat_list[i].get(hat)
                                if got is None:
                                    pks = memo[kappa] = []
                                    break
                                opts.append(got)
                            else:
                                # the products are distinct states of this cut
                                size = prod(map(len, opts))
                                if size > MAX_STATES_PER_CUT:
                                    raise over_budget(
                                        f"collinear DP: cut {cut} of {n}", size, "states",
                                        MAX_STATES_PER_CUT, "collinear.MAX_STATES_PER_CUT",
                                        at_least=True, per="cut")
                                pks = memo[kappa] = [pk_id(pk) for pk in product(*opts)]
                            tables.pulled += 1 + len(pks)
                        if not pks:
                            continue
                        cand = vals[j] + charge
                        for pk in pks:
                            idx = group.get(pk)
                            if idx is None:
                                if len(new_vals) == MAX_STATES_PER_CUT:
                                    raise over_budget(
                                        f"collinear DP: cut {cut} of {n}", len(new_vals) + 1,
                                        "states", MAX_STATES_PER_CUT,
                                        "collinear.MAX_STATES_PER_CUT", at_least=True, per="cut")
                                group[pk] = len(new_vals)
                                new_vals.append(cand)
                                new_par.append(j)
                                new_drop.append(drop_id)
                            elif cand < new_vals[idx]:
                                new_vals[idx] = cand
                                new_par[idx] = j
                                new_drop[idx] = drop_id
                    if not group:
                        del new_states[next_gs]
        if not new_vals:
            raise RuntimeError("collinear DP ran out of states (internal error)")
        states, vals = new_states, new_vals
        trace.append((array("i", new_par), array("i", new_drop), drops))
        stats.per_cut_states.append(len(vals))
        # the Bell numbers grow with the width, so the widest color has the most
        stats.per_cut_max_pi_per_color.append(len(partitions_of(max(map(widths.get, states)))))

    final = states.get(0, {}).get(tables.pk_ids.get(empty))
    if final is None:
        raise RuntimeError("collinear DP missed the terminal state (internal error)")
    if tables.pulled + len(pk_list) + len(hats) <= MAX_STATES_PER_CUT:
        _TABLES[k] = tables
    cost = vals[final]
    edges: list[tuple[int, int]] = []
    j = final
    for parents, drop_ids, drops in reversed(trace):
        edges.extend(drops[drop_ids[j]])
        j = parents[j]
    return cost, edges


def dp_solve(inst: Instance) -> Solution:
    """Exact minimum CSG for a collinear instance in time linear in n."""
    return dp_solve_with_stats(inst)[0]


def dp_solve_with_stats(inst: Instance) -> tuple[Solution, DpStats]:
    """``dp_solve`` plus the per-cut state counts."""
    prep = _Prep(inst)
    stats = DpStats()
    cost, local_edges = _dp(prep, stats)
    edges = [(int(prep.order[a]), int(prep.order[b])) for a, b in local_edges]
    sol = make_solution(inst, edges, "dp", ratio_bound=1.0)
    if not costs_equal(sol.cost, cost):  # its callers check the spanning property
        raise RuntimeError("collinear DP cost does not match its edge set")
    return sol, stats
