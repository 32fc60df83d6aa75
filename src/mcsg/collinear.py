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

from dataclasses import dataclass, field
from itertools import combinations

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


@dataclass(frozen=True)
class PartitionVector:
    """Per color: a canonical restricted-growth partition of its cut edges."""

    parts: tuple[tuple[int, ...], ...]          # index c-1 -> RGS over the color's edges


class _Prep:
    """Sorted view of a collinear instance plus anchor tables per color set."""

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
        self.gammas = list(range(1, 1 << self.k))
        n = self.n
        # left_anchor[g][i]: largest j <= i carrying all of g, else -1;
        # right_anchor[g][i]: smallest j >= i carrying all of g, else n.
        self.left_anchor = {}
        self.right_anchor = {}
        for g in self.gammas:
            hasg = (self.masks & g) == g
            la = np.where(hasg, np.arange(n), -1)
            np.maximum.accumulate(la, out=la)
            ra = np.where(hasg, np.arange(n), n)
            self.right_anchor[g] = np.minimum.accumulate(ra[::-1])[::-1].copy()
            self.left_anchor[g] = la
        self.has_before = {}
        self.has_after = {}
        for c in range(1, self.k + 1):
            hasc = (self.masks & (1 << (c - 1))) != 0
            before = np.zeros(n + 1, dtype=bool)
            np.logical_or.accumulate(hasc, out=before[1:])
            after = np.zeros(n + 1, dtype=bool)
            after[:n] = np.logical_or.accumulate(hasc[::-1])[::-1]
            self.has_before[c] = before
            self.has_after[c] = after

    def cut_edge(self, cut: int, g: int) -> tuple[int, int] | None:
        """Unique candidate edge for color set g at a 1-based cut, or None."""
        if not 1 <= cut <= self.n:
            raise ValueError(f"cut index out of range: {cut}")
        if cut == self.n:
            return None
        a = int(self.left_anchor[g][cut - 1])
        b = int(self.right_anchor[g][cut])
        if a < 0 or b >= self.n:
            return None
        if int(self.masks[a] & self.masks[b]) != g:
            return None  # g is not realizable as a full shared-color set here
        return a, b

    def feasible(self, cut: int) -> list[int]:
        return [g for g in self.gammas if self.cut_edge(cut, g) is not None]

    def valid(self, cut: int, gs) -> bool:
        cover = 0
        for g in gs:
            cover |= g
        for c in range(1, self.k + 1):
            if self.has_before[c][cut] and self.has_after[c][cut]:
                if not (cover >> (c - 1)) & 1:
                    return False
        return True

    def weight(self, a: int, b: int) -> float:
        return float(self.t[b] - self.t[a])

    def make_cutset(self, cut: int, gs) -> CutEdgeSet | None:
        gs = tuple(sorted(int(g) for g in gs))
        edges = []
        for g in gs:
            e = self.cut_edge(cut, g)
            if e is None:
                return None
            edges.append((g, e[0], e[1]))
        return CutEdgeSet(i=cut, gamma=gs, edges=tuple(edges))


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
    return prep.make_cutset(i, gs)


def is_valid_cut(inst: Instance, cutset: CutEdgeSet, k_guard: int = DEFAULT_K_GUARD) -> bool:
    """A cut-edge set is valid iff every color split by the cut is covered."""
    prep = _Prep(inst, k_guard)
    return prep.valid(cutset.i, cutset.gamma)


def compatible(prev: CutEdgeSet, nxt: CutEdgeSet) -> bool:
    """Consecutive cut-edge sets must differ only in edges touching p_i."""
    if nxt.i != prev.i + 1:
        raise ValueError("cut indices must be consecutive")
    pt = nxt.i - 1  # 0-based index of the point between the cuts
    pa = {(a, b) for (_, a, b) in prev.edges}
    pb = {(a, b) for (_, a, b) in nxt.edges}
    return all(pt in e for e in pa.symmetric_difference(pb))


def _color_edges(edges: tuple[tuple[int, int, int], ...], c: int) -> list[tuple[int, int, int]]:
    bit = 1 << (c - 1)
    return [e for e in edges if e[0] & bit]


def _hat_color(
    prev_c: list[tuple[int, int, int]],
    next_c: list[tuple[int, int, int]],
    rgs: tuple[int, ...],
    pt: int,
) -> tuple[int, ...]:
    """Relate prev-cut edges via the suffix components implied by (next, pi)."""
    if len(prev_c) <= 1:
        return (0,) * len(prev_c)
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    blocks: dict[int, list[int]] = {}
    for j in range(len(next_c)):
        blocks.setdefault(rgs[j], []).append(j)
    for blk in blocks.values():
        for j1, j2 in zip(blk, blk[1:]):
            union(("b", next_c[j1][2]), ("b", next_c[j2][2]))
    for _, a, b in next_c:
        if a == pt:
            union(("p",), ("b", b))
    labels = [find(("p",) if b == pt else ("b", b)) for _, _, b in prev_c]
    remap: dict = {}
    return tuple(remap.setdefault(lb, len(remap)) for lb in labels)


def hat_pi(prev: CutEdgeSet, nxt: CutEdgeSet, pi_next: PartitionVector) -> PartitionVector:
    """Pull a suffix partition vector at cut i back to cut i-1."""
    if not compatible(prev, nxt):
        raise ValueError("cut-edge sets are not compatible")
    pt = nxt.i - 1
    parts = []
    for c in range(1, len(pi_next.parts) + 1):
        prev_c = _color_edges(prev.edges, c)
        next_c = _color_edges(nxt.edges, c)
        parts.append(_hat_color(prev_c, next_c, pi_next.parts[c - 1], pt))
    return PartitionVector(parts=tuple(parts))


# ---------------------------------------------------------------------------
# the DP


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


def _bell(t: int) -> int:
    table = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    return table[t] if t < len(table) else sum(1 for _ in set_partitions(t))


_PARTITIONS_CACHE: dict[int, list[tuple[int, ...]]] = {}


def _partitions_of(t: int) -> list[tuple[int, ...]]:
    got = _PARTITIONS_CACHE.get(t)
    if got is None:
        got = list(set_partitions(t))
        _PARTITIONS_CACHE[t] = got
    return got


class _CutShape:
    """Derived structure of one (cut, gamma-set): endpoint groups per color.

    Partitions are stored on the distinct right endpoints of each color's cut
    edges; edges sharing a right endpoint always attach to the same suffix
    component, so nothing finer can ever be realized.
    """

    __slots__ = ("cut", "gs", "edges", "bs", "starts_at_pt", "anchored_bs")

    def __init__(self, prep: _Prep, cut: int, gs: tuple[int, ...]):
        self.cut = cut
        self.gs = gs
        cs = prep.make_cutset(cut, gs)
        self.edges = cs.edges
        pt = cut - 1
        k = prep.k
        self.bs = []             # per color: sorted distinct right endpoints
        self.starts_at_pt = []   # per color: b's reached by an edge with a == pt
        self.anchored_bs = []    # per color: b's reached by an edge with a < pt
        for c in range(1, k + 1):
            ec = _color_edges(self.edges, c)
            self.bs.append(tuple(sorted({e[2] for e in ec})))
            self.starts_at_pt.append(frozenset(e[2] for e in ec if e[1] == pt))
            self.anchored_bs.append(frozenset(e[2] for e in ec if e[1] < pt))

    def pi_vectors(self) -> list[tuple]:
        options: list[tuple] = [()]
        for c in range(len(self.bs)):
            options = [pre + (p,) for pre in options for p in _partitions_of(len(self.bs[c]))]
        return options


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


def _d2_color_ok(shape: _CutShape, c0: int, rgs: tuple[int, ...]) -> bool:
    """Per-color (d2) alternative: a p_i edge tied to an anchored suffix comp."""
    bs = shape.bs[c0]
    idx = {b: j for j, b in enumerate(bs)}
    start_classes = {rgs[idx[b]] for b in shape.starts_at_pt[c0]}
    if not start_classes:
        return False
    anchored = {rgs[idx[b]] for b in shape.anchored_bs[c0]}
    return bool(start_classes & anchored)


def _dp(prep: _Prep, stats: DpStats | None):
    n, k = prep.n, prep.k
    empty_pi = tuple(() for _ in range(k))
    if n == 1:
        return 0.0, []

    shapes: dict[tuple[int, tuple[int, ...]], _CutShape] = {}

    def shape_of(cut: int, gs: tuple[int, ...]) -> _CutShape:
        key = (cut, gs)
        got = shapes.get(key)
        if got is None:
            got = _CutShape(prep, cut, gs)
            shapes[key] = got
        return got

    def note_stats(cut: int, cut_states: dict) -> None:
        if stats is None:
            return
        stats.per_cut_states.append(len(cut_states))
        biggest = 1
        for gs in {gs for gs, _pk in cut_states}:
            sh = shape_of(cut, gs)
            for c in range(k):
                biggest = max(biggest, _bell(len(sh.bs[c])))
        stats.per_cut_max_pi_per_color.append(biggest)

    # cut 1: every valid cut-edge set with every partition vector costs 0
    states: dict = {}
    for gs in _subsets(prep.feasible(1)):
        if not prep.valid(1, gs):
            continue
        for pk in shape_of(1, gs).pi_vectors():
            states[(gs, pk)] = (0.0, None, ())
    history = [states]
    note_stats(1, states)

    for cut in range(2, n + 1):
        pt = cut - 1
        pt_mask = int(prep.masks[pt])
        new_states: dict = {}
        l_pool_all = [g for g in prep.feasible(cut) if prep.cut_edge(cut, g)[0] == pt]
        by_gs: dict[tuple[int, ...], list[tuple[tuple, float]]] = {}
        for (gs, pk), (value, _p, _d) in states.items():
            by_gs.setdefault(gs, []).append((pk, value))
        for prev_gs, items in by_gs.items():
            prev_sh = shape_of(cut - 1, prev_gs)
            keep, d_edges, d_mask, charge = [], [], 0, 0.0
            for g, a, b in prev_sh.edges:
                if b == pt:
                    d_edges.append((a, b))
                    d_mask |= g
                    charge += prep.weight(a, b)
                else:
                    keep.append(g)
            d_edges = tuple(d_edges)
            l_pool = [g for g in l_pool_all if g not in keep]
            for l_sub in _subsets(l_pool):
                next_gs = tuple(sorted(keep + list(l_sub)))
                if not prep.valid(cut, next_gs):
                    continue
                sh = shape_of(cut, next_gs)
                # Per color, group the partition choices by the hat key they
                # induce; (d2) is a per-color filter.
                maps: list[dict[tuple[int, ...], list[tuple[int, ...]]]] = []
                dead = False
                for c in range(k):
                    bit = 1 << c
                    need_d2 = (
                        (pt_mask & bit)
                        and prep.has_before[c + 1][pt]
                        and not (d_mask & bit)
                    )
                    mp: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
                    for rgs in _partitions_of(len(sh.bs[c])):
                        if need_d2 and not _d2_color_ok(sh, c, rgs):
                            continue
                        h = _hat_b(prev_sh.bs[c], sh.bs[c], sh.starts_at_pt[c], rgs, pt)
                        mp.setdefault(h, []).append(rgs)
                    if not mp:
                        dead = True
                        break
                    maps.append(mp)
                if dead:
                    continue
                for kappa, value in items:
                    opts = [maps[c].get(kappa[c]) for c in range(k)]
                    if any(o is None for o in opts):
                        continue
                    cand = value + charge
                    stack = [()]
                    for c in range(k):
                        stack = [pre + (rgs,) for pre in stack for rgs in opts[c]]
                    for pk in stack:
                        key = (next_gs, pk)
                        cur = new_states.get(key)
                        if cur is None or cand < cur[0]:
                            new_states[key] = (cand, (prev_gs, kappa), d_edges)
        if not new_states:
            raise RuntimeError("collinear DP ran out of states (internal error)")
        states = new_states
        history.append(states)
        note_stats(cut, states)

    final_key = ((), empty_pi)
    if final_key not in states:
        raise RuntimeError("collinear DP missed the terminal state (internal error)")
    cost = states[final_key][0]
    edges: list[tuple[int, int]] = []
    key = final_key
    for cut in range(n, 1, -1):
        _, parent, d_edges = history[cut - 1][key]
        edges.extend(d_edges)
        key = parent
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
