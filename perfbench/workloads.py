"""The benchmark's workloads: inputs made from a seed, one op, and its checks.

Ops go through mcsg's public surface only: ``mcsg.cli.main`` on instance
files written at set-up, or public library functions where the command line
has no per-instance command.  Checks run outside the op's timing and use
public functions of mcsg, numpy and scipy only.  A check returns ``None`` when the op's output is
correct and a short reason otherwise.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import re
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial import Delaunay

from mcsg import approx3, cli, collinear, core, gadgets, oracle


def _valid_solution(inst: core.Instance, sol: core.Solution) -> str | None:
    if not core.is_csg(inst, sol.edges):
        return "not a colored spanning graph"
    if not core.costs_equal(core.solution_cost(inst, sol.edges), sol.cost):
        return "reported cost disagrees with its edges"
    return None


class Workload:
    """Inputs from a seed (``make_inputs``), one op (``run``) and its check.

    ``trace_ops`` is the fixed number of ops a traced run makes, so that its
    counts repeat exactly.
    """

    name = ""
    warmup = True
    trace_ops = 1

    def __init__(self, seed: int, work: Path):
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.work = work

    def make_inputs(self) -> list:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, out) -> str | None:
        raise NotImplementedError


def _spread(i: int, lo: int, hi: int) -> int:
    """The i-th of a sequence of sizes that spreads evenly over lo..hi in
    every prefix (golden-ratio steps), so that every seed draws the same mix
    of sizes, also in a partial pass over the pool."""
    return lo + int((i * 0.6180339887498949) % 1.0 * (hi - lo + 1))


class CliSolve(Workload):
    """``mcsg solve`` (auto mode) on one instance file per op; ``pool_size``
    instances are generated."""

    def instance(self, i: int) -> core.Instance:
        raise NotImplementedError

    def make_inputs(self) -> list:
        items = []
        for i in range(self.pool_size):
            inst = self.instance(i)
            path = self.work / f"inst-{i}.json"
            path.write_text(core.instance_to_json(inst), encoding="utf-8")
            items.append((inst, path))
        return items

    def run(self, item) -> int:
        _, path = item
        return cli.main(["solve", "--input", str(path), "--output", str(path) + ".sol"])

    def reference(self, inst: core.Instance) -> float | None:
        """Cost of an independent exact solve, where one is in reach."""
        return None

    def check(self, item, rc: int) -> str | None:
        inst, path = item
        if rc != 0:
            return f"exit code {rc}"
        with open(str(path) + ".sol", encoding="utf-8") as fh:
            sol = core.solution_from_json(fh)
        bad = _valid_solution(inst, sol)
        if bad:
            return bad
        ref = self.reference(inst)
        if ref is not None and not core.costs_equal(sol.cost, ref):
            return "cost differs from the exact reference"
        return None


def _on_a_line(inst: core.Instance) -> bool:
    return bool(np.all(inst.xy[:, 1] == inst.xy[0, 1]))


class PairExact(CliSolve):
    """k = 2, n spread over 14..30, exactly M_PURPLE bichromatic points; even
    inputs are planar, odd inputs collinear.  Auto mode runs exact2."""

    name = "pair-exact"
    pool_size = 320
    trace_ops = 100
    M_PURPLE = 6

    def instance(self, i):
        n = _spread(i // 2, 14, 30)
        gen = core.generate_collinear if i % 2 else core.generate_random
        return gen(n, 2, (self.M_PURPLE + 0.5) / n, int(self.rng.integers(2**31)))

    def reference(self, inst):
        # The collinear DP is exact at any n for k = 2.  The planar ops are
        # beyond the oracle's reach (n >= 14) and have no exact reference.
        return collinear.dp_solve(inst).cost if _on_a_line(inst) else None


class TriApprox(CliSolve):
    """k = 3 planar, n spread over 200..300, 3 multichromatic points
    (1-1.5 %), so no pair projection comes near exact2's m_limit.  Auto mode
    runs A2."""

    name = "tri-approx"
    pool_size = 60
    trace_ops = 40

    def instance(self, i):
        n = _spread(i, 200, 300)
        return core.generate_random(n, 3, 3.5 / n, int(self.rng.integers(2**31)))


class CollinearDp(CliSolve):
    """Collinear lines; four inputs in five are k = 3 with n spread over
    60..80 and every point multichromatic, every fifth is k = 4 with n = 18
    and 20 % of its points multichromatic.  Auto mode runs the DP after
    ``collinear_order``."""

    name = "collinear-dp"
    pool_size = 200
    trace_ops = 40

    def instance(self, i):
        s = int(self.rng.integers(2**31))
        if i % 5 == 4:
            return core.generate_collinear(18, 4, 0.2, s)
        return core.generate_collinear(_spread(i, 60, 80), 3, 1.0, s)

    @staticmethod
    def dp_states(items) -> dict[str, int]:
        """State counts of the DP from its public stats call."""
        total = peak = 0
        for inst, _ in items:
            _, stats = collinear.dp_solve_with_stats(inst)
            total += stats.total_states
            peak = max(peak, max(stats.per_cut_states, default=0))
        return {"collinear.states_total": total, "collinear.peak_states": peak}


class RatioBench(Workload):
    """k = 3 planar, n in 3..7, half the points multichromatic: one op runs
    the oracle, A1 and A2 on one instance (the regime of ``mcsg bench``)."""

    name = "ratio-bench"
    pool_size = 1000
    trace_ops = 500
    CONFIG = approx3.ApproxConfig()

    def make_inputs(self):
        return [core.generate_random(3 + i % 5, 3, 0.5, int(self.rng.integers(2**31)))
                for i in range(self.pool_size)]

    def run(self, inst):
        return (oracle.brute_force(inst), approx3.approx_a1(inst, config=self.CONFIG),
                approx3.approx_a2(inst, config=self.CONFIG))

    def check(self, inst, sols):
        for sol in sols:
            bad = _valid_solution(inst, sol)
            if bad:
                return f"{sol.algorithm}: {bad}"
        opt, a1, a2 = (s.cost for s in sols)
        tol = 1.0 + core.COST_RTOL
        if a1 < opt / tol or a2 < opt / tol:
            return "an approximation beat the oracle"
        if a1 > self.CONFIG.ratio_a1(3) * opt * tol:
            return "A1 ratio above its certified bound"
        if a2 > self.CONFIG.ratio_a2 * opt * tol:
            return "A2 ratio above its certified bound"
        return None


def _plan_error(cnf: gadgets.MonotoneCnf, g: gadgets.GadgetInstance) -> str | None:
    """Check a gadget plan against the paper's parameters: r literal
    occurrences, 13 r active points, epsilon = 1/(500 r^2), delta = 1/(10 r),
    and W = (chain steps) * epsilon + the switch terms, without materialising
    the point set."""
    r, m = cnf.n_edges, len(cnf.clauses)
    if (g.r, g.m_clauses) != (r, m):
        return "plan has the wrong r or clause count"
    if not np.array_equal(g.active_points, np.arange(13 * r)):
        return "plan does not have 13 r active points"
    if not (math.isclose(g.epsilon, 1 / (500 * r * r)) and math.isclose(g.delta, 1 / (10 * r))):
        return "epsilon or delta differs from the paper's"
    sqrt2 = math.sqrt(2.0)
    switches = r * (1 + g.delta) * (2 + 2 * sqrt2) + m * g.delta * (2 * sqrt2 - 2)
    steps = (g.W - switches) / g.epsilon
    if steps < 1 or abs(steps - round(steps)) > 1e-3:
        return "W is not whole chain steps plus the switch terms"
    return None


def _forced_reference(inst: core.Instance, c: int) -> set[tuple[int, int]]:
    """Forced edges of color c computed with scipy: the Euclidean MST of S_c
    (over its Delaunay edges), then the minimum spanning forest of the tree
    edges with every multichromatic point of S_c contracted into one vertex.
    Needs at least three points of S_c in general position."""
    members = inst.color_class(c)
    pts = inst.xy[members]
    n = members.size
    tri = Delaunay(pts).simplices
    pairs = np.sort(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [0, 2]]]), axis=1)
    pairs = np.unique(pairs, axis=0)
    d = pts[pairs[:, 0]] - pts[pairs[:, 1]]
    tree = minimum_spanning_tree(coo_matrix((np.hypot(d[:, 0], d[:, 1]), tuple(pairs.T)),
                                            shape=(n, n))).tocoo()
    # Kruskal over the tree edges, all multichromatic points starting in one set.
    parent = np.arange(n + 1)
    parent[:n][inst.multichromatic()[members]] = n

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    kept = set()
    for i in np.argsort(tree.data):
        a, b = int(tree.row[i]), int(tree.col[i])
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            a, b = sorted((int(members[a]), int(members[b])))
            kept.add((a, b))
    return kept


class GadgetPrune(CliSolve):
    """The scheduled stand-in for ``gadget-w``.  One op builds the reduction's
    plan for a monotone CNF on 2..4 variables (r 4..8; the point set is not
    materialised) and runs ``mcsg prune`` on a k = 2 planar instance with n
    spread over 4400..4800, 1 % multichromatic, so every color class is above
    ``mst.DENSE_LIMIT`` and its EMST takes the sparse path, as ``compute_w``'s
    forced edges do at scale.  A few color classes get a sparse EMST that is
    not minimal (ROADMAP item 3), so inputs with such a class fail their
    check (0 or 1 of the 48 on most seeds)."""

    name = "gadget-prune"
    pool_size = 48
    trace_ops = 20

    def instance(self, i):
        n = _spread(i, 4400, 4800)
        return core.generate_random(n, 2, 0.01, int(self.rng.integers(2**31)))

    def _cnf_text(self, i: int) -> str:
        """Variables 1..v (v = 2, 3, 4 in turn) cut into consecutive clauses of
        two or three, once per side, so the clauses of a side are disjoint
        (hence laminar)."""
        n_vars = 2 + i % 3
        lines = []
        for sign in "+-":
            first = 1
            while first <= n_vars:
                left = n_vars - first + 1
                size = left if left <= 3 else 2 if left == 4 else int(self.rng.integers(2, 4))
                lines.append(f"{sign} " + " ".join(map(str, range(first, first + size))))
                first += size
        return f"p mcnf {n_vars} {len(lines)}\n" + "\n".join(lines) + "\n"

    def make_inputs(self):
        return [(self._cnf_text(i), *item) for i, item in enumerate(super().make_inputs())]

    def run(self, item):
        cnf_text, _, path = item
        plan = gadgets.build_gadget(gadgets.parse_cnf(cnf_text))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = cli.main(["prune", "--input", str(path)])
        return plan, rc, out.getvalue()

    def check(self, item, out):
        cnf_text, inst, _ = item
        plan, rc, text = out
        bad = _plan_error(gadgets.parse_cnf(cnf_text), plan)
        if bad:
            return bad
        if rc != 0:
            return f"prune exit code {rc}"
        lines = text.splitlines()
        if len(lines) != inst.k:
            return f"prune printed {len(lines)} lines for {inst.k} colors"
        for c, line in enumerate(lines, start=1):
            got = {tuple(sorted(map(int, p))) for p in re.findall(r"\((\d+),(\d+)\)", line)}
            if got != _forced_reference(inst, c):
                return f"color {c}: forced edges differ from the reference"
        return None


class GadgetW(Workload):
    """The smallest reduction: one clause on two variables (r = 2, 917,258
    points), polarity and satisfying assignment from the seed.  One op is
    ``mcsg gen gadget --witness`` followed by ``gadgets.compute_w``."""

    name = "gadget-w"
    warmup = False

    def make_inputs(self):
        cnf_text = f"p mcnf 2 1\n{'+-'[int(self.rng.integers(2))]} 1 2\n"
        cnf = gadgets.parse_cnf(cnf_text)
        sat = [bits for bits in itertools.product((0, 1), repeat=2) if cnf.satisfies(bits)]
        bits = sat[int(self.rng.integers(len(sat)))]
        (self.work / "clause.cnf").write_text(cnf_text, encoding="utf-8")
        (self.work / "assign.txt").write_text(" ".join(map(str, bits)), encoding="utf-8")
        self.plan = gadgets.build_gadget(cnf)
        return [cnf_text]

    def run(self, cnf_text):
        w = self.work
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["gen", "gadget", "--cnf", str(w / "clause.cnf"),
                           "--out", str(w / "gadget.json"), "--witness", str(w / "assign.txt"),
                           "--witness-out", str(w / "witness.json")])
        return rc, gadgets.compute_w(gadgets.build_gadget(gadgets.parse_cnf(cnf_text)))

    def check(self, cnf_text, out):
        rc, w_value = out
        if rc != 0:
            return f"exit code {rc}"
        target = self.plan.W
        if not core.costs_equal(w_value, target):
            return "compute_w differs from W"
        with open(self.work / "witness.json", encoding="utf-8") as fh:
            sol = core.solution_from_json(fh)
        bad = _valid_solution(self.plan.instance, sol)
        if bad:
            return f"witness: {bad}"
        if not core.costs_equal(sol.cost, target):
            return "witness cost differs from W"
        return None


WORKLOADS = {w.name: w for w in (PairExact, TriApprox, CollinearDp, RatioBench, GadgetPrune,
                                 GadgetW)}
