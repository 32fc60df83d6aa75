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
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import combinations, product
from math import prod

import numpy as np

from .core import Instance, RefusalError, Solution, as_edges, is_csg, make_solution, set_partitions

DEFAULT_K_GUARD = 6
COLLINEAR_TOL = 1e-9


# ---------------------------------------------------------------------------
# geometry


def collinear_order(inst: Instance, tol: float = COLLINEAR_TOL) -> tuple[np.ndarray, np.ndarray]:
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
    if cross.max() > tol * max(1.0, scale):
        raise RefusalError("points are not collinear within tolerance")
    t = deltas @ d
    order = np.argsort(t, kind="stable")
    t_sorted = t[order]
    if np.any(np.diff(t_sorted) <= 0):
        raise RefusalError("duplicate positions along the line")
    return order, t_sorted


# ---------------------------------------------------------------------------
# star normal form


def normalize_star(inst: Instance, edges) -> np.ndarray:
    """Subdivide edges until no interior point carries all shared colors.

    Requires the instance points to be sorted along the line (ascending x,
    ties broken by y).  Total cost and per-color connectivity are preserved;
    components only coarsen.
    """
    order = np.lexsort((inst.xy[:, 1], inst.xy[:, 0]))
    if not np.array_equal(order, np.arange(inst.n)):
        raise RefusalError("normalize_star expects points sorted along the line")
    masks = inst.masks
    pending = [(int(a), int(b)) for a, b in as_edges(edges, inst.n)]
    out: set[tuple[int, int]] = set()
    while pending:
        a, b = pending.pop()
        shared = int(masks[a] & masks[b])
        split_at = -1
        for r in range(a + 1, b):
            if (int(masks[r]) & shared) == shared:
                split_at = r
                break
        if split_at < 0:
            out.add((a, b))
        else:
            pending.append((a, split_at))
            pending.append((split_at, b))
    return as_edges(out)


# ---------------------------------------------------------------------------
# cut-edge machinery


@dataclass(frozen=True)
class CutEdgeSet:
    """The crossing edges of cut i, one per distinct shared-color set."""

    i: int
    gamma: tuple[int, ...]                      # color masks, ascending
    edges: tuple[tuple[int, int, int], ...]     # (mask, a, b) aligned with gamma


class _Prep:
    """Sorted view of a collinear instance plus its table of cut edges."""

    def __init__(self, inst: Instance, k_guard: int):
        if inst.k > k_guard:
            raise RefusalError(f"k={inst.k} exceeds the DP state-space guard of {k_guard}")
        self.inst = inst
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
        # share exactly g.  Cut n (and the unused slot 0) has no edges.
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

    def cut_edge(self, cut: int, g: int) -> tuple[int, int] | None:
        """Unique candidate edge for color set g at a 1-based cut, or None."""
        if not 1 <= cut <= self.n:
            raise ValueError(f"cut index out of range: {cut}")
        return self.edge_at[cut].get(g)

    def feasible(self, cut: int) -> list[int]:
        return list(self.edge_at[cut])

    def valid(self, cut: int, gs) -> bool:
        cover = 0
        for g in gs:
            cover |= g
        return not self.split[cut] & ~cover

    def weight(self, a: int, b: int) -> float:
        return float(self.t[b] - self.t[a])


def _as_mask(g, k: int) -> int:
    if isinstance(g, int):
        return g
    m = 0
    for c in g:
        m |= 1 << (int(c) - 1)
    return m


def cut_edges(inst: Instance, i: int, gamma, k_guard: int = DEFAULT_K_GUARD) -> CutEdgeSet | None:
    """Materialize the unique edge per color set at cut i; None if infeasible."""
    prep = _Prep(inst, k_guard)
    gs = tuple(sorted(_as_mask(g, inst.k) for g in gamma))
    edges = []
    for g in gs:
        e = prep.cut_edge(i, g)
        if e is None:
            return None
        edges.append((g, *e))
    return CutEdgeSet(i=i, gamma=gs, edges=tuple(edges))


def is_valid_cut(inst: Instance, cutset: CutEdgeSet, k_guard: int = DEFAULT_K_GUARD) -> bool:
    """A cut-edge set is valid iff every color split by the cut is covered."""
    prep = _Prep(inst, k_guard)
    return prep.valid(cutset.i, cutset.gamma)


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


class _CutShape:
    """Derived structure of one (cut, gamma-set): endpoint groups per color.

    Partitions are stored on the distinct right endpoints of each color's cut
    edges; edges sharing a right endpoint always attach to the same suffix
    component, so nothing finer can ever be realized.
    """

    __slots__ = ("edges", "bs", "starts", "anchored")

    def __init__(self, prep: _Prep, cut: int, gs: tuple[int, ...]):
        edge_at = prep.edge_at[cut]
        self.edges = tuple((g, *edge_at[g]) for g in gs)
        pt = cut - 1
        self.bs = []         # per color: sorted distinct right endpoints
        self.starts = []     # per color: bit j set if an edge from p_i reaches bs[j]
        self.anchored = []   # per color: bit j set if an edge from left of p_i reaches bs[j]
        for c in range(prep.k):
            bit = 1 << c
            ec = [(a, b) for g, a, b in self.edges if g & bit]
            bs = sorted({b for _, b in ec})
            starts = anchored = 0
            for a, b in ec:
                if a == pt:
                    starts |= 1 << bs.index(b)
                else:
                    anchored |= 1 << bs.index(b)
            self.bs.append(tuple(bs))
            self.starts.append(starts)
            self.anchored.append(anchored)


def _hat_b(
    prev_bs: tuple[int, ...],
    next_bs: tuple[int, ...],
    next_starts: frozenset[int],
    rgs: tuple[int, ...],
    pt: int,
) -> tuple[int, ...]:
    """Endpoint-level hat: partition the previous cut's right endpoints."""
    if len(prev_bs) <= 1:
        return (0,) * len(prev_bs)
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    blocks: dict[int, list[int]] = {}
    for j, b in enumerate(next_bs):
        blocks.setdefault(rgs[j], []).append(b)
    for blk in blocks.values():
        for b1, b2 in zip(blk, blk[1:]):
            union(b1, b2)
    for b in next_starts:
        union(pt, b)
    labels = [find(b) for b in prev_bs]
    remap: dict[int, int] = {}
    return tuple(remap.setdefault(lb, len(remap)) for lb in labels)


def _d2_color_ok(rgs: tuple[int, ...], starts: int, anchored: int) -> bool:
    """Per-color (d2) alternative: a p_i edge tied to an anchored suffix comp."""
    start_classes = {r for j, r in enumerate(rgs) if starts >> j & 1}
    return any(anchored >> j & 1 and r in start_classes for j, r in enumerate(rgs))


def _dp(prep: _Prep, stats: DpStats | None):
    """Minimum cost and the edges of an optimum, by the DP over cuts.

    A state at a cut is a gamma-set gs (the crossing color sets) plus one
    partition per color of the cut's right endpoints.  The pull-back of a
    next-cut partition to the previous cut depends only on the relative shape
    of the two cuts, so per solve the hat maps are cached by that shape and
    the previous-partition -> next-partitions products by the maps they
    combine.  The traceback keeps one parent index and one dropped-edge id
    per state and cut.
    """
    n, k = prep.n, prep.k
    if n == 1:
        return 0.0, []

    partitions: dict[int, list[tuple[int, ...]]] = {}

    def partitions_of(t: int) -> list[tuple[int, ...]]:
        got = partitions.get(t)
        if got is None:
            got = partitions[t] = list(set_partitions(t))
        return got

    # hat_maps[(previous endpoints as next positions or -1 for p_i, number of
    # next endpoints, starts mask, anchored mask or -1 without (d2))]:
    # (id, {hat partition: next partitions}), or None when no partition is left.
    hat_maps: dict[tuple, tuple[int, dict] | None] = {}

    def hat_map(key: tuple) -> tuple[int, dict] | None:
        if key in hat_maps:
            return hat_maps[key]
        prev_pos, size, starts, anchored = key
        ends = tuple(range(size))
        start_set = frozenset(j for j in ends if starts >> j & 1)
        mp: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for rgs in partitions_of(size):
            if anchored >= 0 and not _d2_color_ok(rgs, starts, anchored):
                continue
            mp.setdefault(_hat_b(prev_pos, ends, start_set, rgs, -1), []).append(rgs)
        got = hat_maps[key] = (len(hat_maps), mp) if mp else None
        return got

    # A partition vector (one RGS per color) is handled by its id in pk_list.
    pk_ids: dict[tuple, int] = {}
    pk_list: list[tuple] = []

    def pk_id(pk: tuple) -> int:
        got = pk_ids.get(pk)
        if got is None:
            got = pk_ids[pk] = len(pk_list)
            pk_list.append(pk)
        return got

    # pulls[map ids per color]: {previous pk id: next pk ids, empty if unreachable}
    pulls: dict[tuple[int, ...], dict[int, list[int]]] = {}

    def note_stats(states: dict, shapes: dict[tuple[int, ...], _CutShape], count: int) -> None:
        if stats is None:
            return
        stats.per_cut_states.append(count)
        biggest = 1
        for gs in states:
            for bs in shapes[gs].bs:
                biggest = max(biggest, len(partitions_of(len(bs))))
        stats.per_cut_max_pi_per_color.append(biggest)

    def over_budget(cut: int, at_least: int) -> RefusalError:
        return RefusalError(
            f"collinear DP: cut {cut} of {n} needs at least {at_least} states, "
            f"{at_least - MAX_STATES_PER_CUT} over the budget of {MAX_STATES_PER_CUT} states "
            f"per cut (MAX_STATES_PER_CUT)"
        )

    # cut 1: every valid cut-edge set with every partition vector costs 0
    states: dict[tuple[int, ...], dict[int, int]] = {}
    shapes: dict[tuple[int, ...], _CutShape] = {}
    count = 0
    for gs in _subsets(prep.feasible(1)):
        if not prep.valid(1, gs):
            continue
        sh = shapes[gs] = _CutShape(prep, 1, gs)
        group = states[gs] = {}
        opts = [partitions_of(len(bs)) for bs in sh.bs]
        count_after = count + prod(map(len, opts))
        if count_after > MAX_STATES_PER_CUT:
            raise over_budget(1, count_after)
        for pk in product(*opts):
            group[pk_id(pk)] = count
            count += 1
    vals = [0.0] * count
    note_stats(states, shapes, count)
    # trace[cut - 2]: (parent index per state, dropped-edge id per state, dropped edges)
    trace: list[tuple[array, array, list[tuple[tuple[int, int], ...]]]] = []

    for cut in range(2, n + 1):
        pt = cut - 1
        pt_mask = int(prep.masks[pt])
        prev_shapes, shapes = shapes, {}
        new_states: dict[tuple[int, ...], dict[int, int]] = {}
        new_vals: list[float] = []
        new_par: list[int] = []
        new_drop: list[int] = []
        drops: list[tuple[tuple[int, int], ...]] = []
        l_pool_all = [g for g, (a, _b) in prep.edge_at[cut].items() if a == pt]
        for prev_gs, items in states.items():
            prev_sh = prev_shapes[prev_gs]
            keep, d_edges, d_mask, charge = [], [], 0, 0.0
            for g, a, b in prev_sh.edges:
                if b == pt:
                    d_edges.append((a, b))
                    d_mask |= g
                    charge += prep.weight(a, b)
                else:
                    keep.append(g)
            drop_id = len(drops)
            drops.append(tuple(d_edges))
            need_d2 = pt_mask & prep.seen[pt] & ~d_mask
            l_pool = [g for g in l_pool_all if g not in keep]
            for l_sub in _subsets(l_pool):
                next_gs = tuple(sorted(keep + list(l_sub)))
                if not prep.valid(cut, next_gs):
                    continue
                sh = shapes.get(next_gs)
                if sh is None:
                    sh = shapes[next_gs] = _CutShape(prep, cut, next_gs)
                # Per color, the partition choices grouped by the hat they
                # induce; (d2) is a per-color filter.
                maps = []
                for c in range(k):
                    nb = sh.bs[c]
                    got = hat_map((
                        tuple(-1 if b == pt else nb.index(b) for b in prev_sh.bs[c]),
                        len(nb),
                        sh.starts[c],
                        sh.anchored[c] if need_d2 >> c & 1 else -1,
                    ))
                    if got is None:
                        break
                    maps.append(got)
                else:
                    memo = pulls.setdefault(tuple(i for i, _ in maps), {})
                    group = new_states.setdefault(next_gs, {})
                    for kappa, j in items.items():
                        pks = memo.get(kappa)
                        if pks is None:
                            prev_pk = pk_list[kappa]
                            opts = [mp.get(prev_pk[c]) for c, (_, mp) in enumerate(maps)]
                            if None in opts:
                                pks = memo[kappa] = []
                            else:
                                # the products are distinct states of this cut
                                size = prod(map(len, opts))
                                if size > MAX_STATES_PER_CUT:
                                    raise over_budget(cut, size)
                                pks = memo[kappa] = [pk_id(pk) for pk in product(*opts)]
                        if not pks:
                            continue
                        cand = vals[j] + charge
                        for pk in pks:
                            idx = group.get(pk)
                            if idx is None:
                                if len(new_vals) == MAX_STATES_PER_CUT:
                                    raise over_budget(cut, MAX_STATES_PER_CUT + 1)
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
        note_stats(states, shapes, len(vals))

    final = states.get((), {}).get(pk_ids.get(tuple(() for _ in range(k))))
    if final is None:
        raise RuntimeError("collinear DP missed the terminal state (internal error)")
    cost = vals[final]
    edges: list[tuple[int, int]] = []
    j = final
    for parents, drop_ids, drops in reversed(trace):
        edges.extend(drops[drop_ids[j]])
        j = parents[j]
    return cost, edges


def dp_solve(inst: Instance, k_guard: int = DEFAULT_K_GUARD) -> Solution:
    """Exact minimum CSG for a collinear instance in time linear in n."""
    sol, _ = dp_solve_with_stats(inst, k_guard=k_guard, collect_stats=False)
    return sol


def dp_solve_with_stats(
    inst: Instance, k_guard: int = DEFAULT_K_GUARD, collect_stats: bool = True
) -> tuple[Solution, DpStats | None]:
    prep = _Prep(inst, k_guard)
    stats = DpStats() if collect_stats else None
    cost, local_edges = _dp(prep, stats)
    edges = [(int(prep.order[a]), int(prep.order[b])) for a, b in local_edges]
    sol = make_solution(inst, edges, "dp", ratio_bound=1.0)
    if abs(sol.cost - cost) > 1e-9 * max(1.0, abs(cost)):
        raise RuntimeError("collinear DP cost does not match its edge set")
    if not is_csg(inst, sol.edges):
        raise RuntimeError("collinear DP produced a non-spanning edge set")
    return sol, stats
