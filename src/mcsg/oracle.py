"""Brute-force ground truth and the approximation-ratio benchmark harness.

The oracle enumerates subsets of the candidate edges (pairs with a nonempty
shared color) with branch-and-bound and is the arbiter for every acceptance
test.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np

from . import approx3, exact2
from .core import (
    FormatError,
    Instance,
    RefusalError,
    Solution,
    as_edges,
    generate_all_black,
    generate_collinear,
    generate_random,
    make_solution,
    over_budget,
)
from .mst import index_pairs

# The most candidate edges brute_force accepts: its branch-and-bound walks
# up to 2^m subsets of the m candidates.
MAX_CANDIDATE_EDGES = 22


def _line_order(inst: Instance) -> np.ndarray:
    return np.lexsort((inst.xy[:, 1], inst.xy[:, 0]))


def candidate_edges(inst: Instance, star_restricted: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Candidate pairs (nonempty shared color), ascending by (weight, a, b).

    With ``star_restricted`` an edge is dropped when a point between its
    endpoints (in order along the line) carries all the edge's shared colors;
    only meaningful for collinear instances.
    """
    n = inst.n
    a, b = index_pairs(n)
    shared = inst.masks[a] & inst.masks[b]
    keep = shared != 0
    a, b, shared = a[keep], b[keep], shared[keep]
    if star_restricted and a.size:
        order = _line_order(inst)
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


class _ColorState:
    """Undoable union-find for one color class (no path compression)."""

    __slots__ = ("bit", "pos", "parent", "rank", "comps", "trail")

    def __init__(self, inst: Instance, c: int):
        members = inst.color_class(c)
        self.bit = 1 << (c - 1)
        self.pos = {int(p): i for i, p in enumerate(members)}
        self.parent = list(range(members.size))
        self.rank = [0] * members.size
        self.comps = members.size
        self.trail: list[tuple[int, int]] = []

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(self.pos[a]), self.find(self.pos[b])
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
            self.trail.append((rb, -ra - 1))
        else:
            self.trail.append((rb, ra))
        self.comps -= 1
        return True

    def mark(self) -> int:
        return len(self.trail)

    def undo(self, mark: int) -> None:
        while len(self.trail) > mark:
            child, info = self.trail.pop()
            self.parent[child] = child
            if info < 0:
                self.rank[-info - 1] -= 1
            self.comps += 1


def _split_colors(inst: Instance) -> list[_ColorState]:
    return [_ColorState(inst, c) for c in range(1, inst.k + 1) if inst.color_class(c).size >= 2]


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
    colors = _split_colors(inst)
    req = {(int(a), int(b)) for a, b in as_edges(required, inst.n)}

    # Per color: candidate positions carrying it (ascending weight) + prefix sums.
    per_color_pos: list[list[int]] = []
    per_color_pref: list[list[float]] = []
    for st in colors:
        pos = [i for i in range(m) if st.pos.get(int(edges[i, 0])) is not None
               and st.pos.get(int(edges[i, 1])) is not None]
        pref = [0.0]
        for i in pos:
            pref.append(pref[-1] + float(weights[i]))
        per_color_pos.append(pos)
        per_color_pref.append(pref)

    best_cost = math.inf
    best_edges: tuple[tuple[int, int], ...] | None = None

    def connected() -> bool:
        return all(st.comps == 1 for st in colors)

    def lower_bound(idx: int, partial: float) -> float:
        lb_extra = 0.0
        for ci, st in enumerate(colors):
            need = st.comps - 1
            if need <= 0:
                continue
            pos = per_color_pos[ci]
            j = bisect_left(pos, idx)
            if len(pos) - j < need:
                return math.inf
            pref = per_color_pref[ci]
            lb_extra = max(lb_extra, pref[j + need] - pref[j])
        return partial + lb_extra

    def record(partial: float, included: list[tuple[int, int]]) -> None:
        nonlocal best_cost, best_edges
        key = tuple(sorted(included))
        if partial < best_cost or (partial == best_cost and (best_edges is None or key < best_edges)):
            best_cost = partial
            best_edges = key

    # Seed the required edges once, up front; the search then walks the
    # other candidates, since the required ones are in every subset.
    base_included: list[tuple[int, int]] = []
    base_cost = 0.0
    cand_index = {(int(edges[i, 0]), int(edges[i, 1])): i for i in range(m)}
    for pair in sorted(req):
        if pair not in cand_index:
            raise RefusalError(f"required edge {pair} is not a candidate edge")
        for st in colors:
            if pair[0] in st.pos and pair[1] in st.pos:
                st.union(*pair)
        base_included.append(pair)
        base_cost += float(weights[cand_index[pair]])
    rest = [i for i in range(m) if (int(edges[i, 0]), int(edges[i, 1])) not in req]

    def dfs(k: int, partial: float, included: list[tuple[int, int]]) -> None:
        if connected():
            record(partial, included)
            return
        if k == len(rest):
            return
        idx = rest[k]
        if lower_bound(idx, partial) > best_cost:
            return
        a, b = int(edges[idx, 0]), int(edges[idx, 1])
        marks = [st.mark() for st in colors]
        useful = False
        for st in colors:
            if a in st.pos and b in st.pos and st.union(a, b):
                useful = True
        if useful:
            included.append((a, b))
            dfs(k + 1, partial + float(weights[idx]), included)
            included.pop()
        for st, mk in zip(colors, marks):
            st.undo(mk)
        dfs(k + 1, partial, included)

    dfs(0, base_cost, base_included)

    if best_edges is None:
        raise RefusalError("no colored spanning graph exists over the candidate edges")
    return make_solution(inst, best_edges, "oracle", ratio_bound=1.0)


# ---------------------------------------------------------------------------
# benchmark harness


@dataclass(frozen=True)
class BenchRow:
    seed: int
    n: int
    k: int
    opt: float
    algo: str
    cost: float
    ratio: float


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)
    failures: list[tuple[int, str, str]] = field(default_factory=list)
    bounds: dict[str, float] = field(default_factory=dict)

    def max_ratio(self, algo: str) -> float:
        vals = [r.ratio for r in self.rows if r.algo == algo]
        return max(vals) if vals else math.nan

    def mean_ratio(self, algo: str) -> float:
        vals = [r.ratio for r in self.rows if r.algo == algo]
        return sum(vals) / len(vals) if vals else math.nan

    def violations(self) -> list[BenchRow]:
        return [r for r in self.rows if r.ratio > self.bounds.get(r.algo, math.inf) + 1e-9]

    def write_csv(self, target: str | IO) -> None:
        fh = open(target, "w", newline="", encoding="utf-8") if isinstance(target, str) else target
        try:
            w = csv.writer(fh)
            w.writerow(["seed", "n", "k", "opt", "algo", "cost", "ratio"])
            for r in self.rows:
                w.writerow([r.seed, r.n, r.k, repr(r.opt), r.algo, repr(r.cost), repr(r.ratio)])
        finally:
            if isinstance(target, str):
                fh.close()


def _make_family(family: str, seed: int, n_max: int, k: int, fraction: float) -> Instance:
    n = 3 + seed % (n_max - 2)
    if family == "random":
        return generate_random(n, k, fraction, seed)
    if family == "collinear":
        return generate_collinear(n, k, fraction, seed)
    if family == "allblack":
        return generate_all_black(n, seed)
    raise ValueError(f"unknown family: {family}")


def ratio_bench(
    family: str,
    algorithms: list[str],
    seeds: int,
    *,
    n_max: int = 6,
    k: int = 3,
    fraction: float = 0.5,
) -> BenchReport:
    """Compare algorithms against the brute-force optimum over seeded instances.

    Instance sizes cycle through 3..``n_max`` (FormatError below 3); each
    algorithm's bound is its solutions' certified ``ratio_bound``.  A refusal
    on one seed is recorded and the run continues; a bad parameter raises
    (FormatError from the generators, or for an ``allblack`` k other than 3).
    """
    if n_max < 3:
        raise FormatError(f"n_max must be at least 3, got {n_max}")
    if family == "allblack" and k != 3:
        raise FormatError(f"the allblack family has k = 3, got k = {k}")
    report = BenchReport()

    def run_algo(name: str, inst: Instance) -> Solution:
        if name == "a1":
            return approx3.approx_a1(inst)
        if name == "a2":
            return approx3.approx_a2(inst)
        if name == "exact2":
            return exact2.solve_pair(exact2.project_pair(inst, 1, 2))
        raise ValueError(f"unknown algorithm: {name}")

    for seed in range(seeds):
        try:
            inst = _make_family(family, seed, n_max, k, fraction)
            opt = brute_force(inst).cost
        except RefusalError as exc:
            report.failures.append((seed, "oracle", str(exc)))
            continue
        for name in algorithms:
            try:
                sol = run_algo(name, inst)
            except RefusalError as exc:
                report.failures.append((seed, name, str(exc)))
                continue
            report.bounds[name] = sol.ratio_bound
            if opt <= 0:
                ratio = 1.0 if sol.cost <= 0 else math.inf
            else:
                ratio = sol.cost / opt
            report.rows.append(
                BenchRow(seed=seed, n=inst.n, k=inst.k, opt=opt, algo=name, cost=sol.cost, ratio=ratio)
            )
    return report
