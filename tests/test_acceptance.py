"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are fixed here and match the library-wide 1e-9 relative
cost tolerance.
"""

import itertools
import math
import time

import pytest

from mcsg import approx3, collinear, core, exact2, gadgets, mst, oracle
from mcsg.render import render_svg

RTOL = 1e-9
BUDGET = 28  # oracle.MAX_CANDIDATE_EDGES in this suite: a line of 8 points has 28 candidates


@pytest.fixture(autouse=True)
def oracle_budget(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_CANDIDATE_EDGES", BUDGET)


def close(a, b, rtol=RTOL):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


def test_criterion_1_exact2_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    for seed in range(67):
        for frac in (0.2, 0.5, 1.0):
            inst = core.generate_random(2 + seed % 6, 2, frac, seed * 3 + int(frac * 10))
            opt = oracle.brute_force(inst).cost
            got = exact2.solve_pair(exact2.project_pair(inst, 1, 2)).cost
            worst = max(worst, abs(got - opt) / max(1.0, opt))
            assert close(got, opt), (seed, frac, got, opt)
            checked += 1
    dt = time.perf_counter() - t0
    report(1, checked >= 200 and dt < 120,
           f"exact2 = oracle on {checked} instances, max rel dev {worst:.2e}, {dt:.1f}s")


def test_criterion_2_collinear_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for seed in range(100):
        k = 2 + seed % 2
        n = 3 + seed % 6
        inst = core.generate_collinear(n, k, (0.2, 0.5, 1.0)[seed % 3], seed)
        plain = oracle.brute_force(inst).cost
        star = oracle.brute_force(inst, star_restricted=True).cost
        assert close(plain, star), ("star modes disagree", seed, plain, star)
        got = collinear.dp_solve(inst).cost
        assert close(got, plain), (seed, got, plain)
        checked += 1
    for seed in range(100, 200):
        inst = core.generate_collinear(4 + seed % 5, 3, 0.5, seed)
        plain = oracle.brute_force(inst).cost
        got = collinear.dp_solve(inst).cost
        assert close(got, plain), (seed, got, plain)
        checked += 1
    dt = time.perf_counter() - t0
    report(2, checked >= 200 and dt < 300,
           f"dp = oracle (both star modes) on {checked} collinear instances, {dt:.1f}s")


def test_criterion_3_ratio_bounds():
    bound_a2 = 2 - 1 / (3 + 2 * 1.21)
    worst_a1 = worst_a2 = 0.0
    for seed in range(200):
        inst = core.generate_random(3 + seed % 4, 3, (0.2, 0.5, 1.0)[seed % 3], seed)
        opt = oracle.brute_force(inst).cost
        a1 = approx3.approx_a1(inst)
        bundle = approx3.approx_a2_bundle(inst)
        a2 = bundle.best
        assert a1.cost <= 2 * opt + 1e-9, (seed, a1.cost, opt)
        assert a2.cost <= bound_a2 * opt + 1e-9, (seed, a2.cost, opt)
        g123 = min(g.cost for g in bundle.graphs[:3])
        assert a2.cost <= g123 + 1e-12 and g123 <= a1.cost + 1e-9, seed
        if opt > 0:
            worst_a1 = max(worst_a1, a1.cost / opt)
            worst_a2 = max(worst_a2, a2.cost / opt)
    report(3, True,
           f"200 seeds: max a1 ratio {worst_a1:.4f} <= 2, "
           f"max a2 ratio {worst_a2:.4f} <= {bound_a2:.4f} (= 1.8155 < 1.816)")


def test_criterion_4_forced_edge_safety():
    for seed in range(100):
        inst = core.generate_random(2 + seed % 6, 2 + seed % 2, 0.5, seed)
        required = core.merge_edges(*(mst.forced_edges(inst, c)
                                      for c in range(1, inst.k + 1)))
        free = oracle.brute_force(inst).cost
        constrained = oracle.brute_force(inst, required=required).cost
        assert close(free, constrained), (seed, free, constrained)
    report(4, True, "forced-edge-constrained optimum = unconstrained on 100 instances")


def test_criterion_5_gadget_identity():
    corpus = [
        ("p mcnf 2 1\n+ 1 2\n", None),
        ("p mcnf 2 1\n- 1 2\n", None),
        ("p mcnf 3 1\n+ 1 2 3\n", None),
    ]
    total_witnesses = 0
    for text, _ in corpus:
        cnf = gadgets.parse_cnf(text)
        g = gadgets.build_gadget(cnf)
        assert g.active_points.size == 13 * g.r, "active point count"
        inst = g.instance
        assert int(inst.multichromatic().sum()) == 13 * g.r
        w_recomputed = gadgets.compute_w(g)
        assert close(w_recomputed, g.W), (text, w_recomputed, g.W)
        for bits in itertools.product([False, True], repeat=cnf.n_vars):
            if not cnf.satisfies(bits):
                with pytest.raises(core.FormatError):
                    gadgets.build_witness(g, bits)
                continue
            sol = gadgets.build_witness(g, bits)
            assert core.is_csg(inst, sol.edges), (text, bits)
            assert close(sol.cost, g.W), (text, bits, sol.cost, g.W)
            total_witnesses += 1
    fig2 = gadgets.build_gadget(gadgets.parse_cnf(gadgets.FIG2_CNF))
    assert fig2.r == 8 and fig2.active_points.size == 104
    report(5, total_witnesses >= 10,
           f"{total_witnesses} witnesses cost W exactly and span; "
           f"Fig.2 formula: r = 8, active points = 104")


def test_criterion_6_dp_state_bound_and_linearity():
    inst = core.generate_collinear(300, 3, 0.3, 7)
    _, stats = collinear.dp_solve_with_stats(inst)
    bell = max(stats.per_cut_max_pi_per_color)
    assert bell <= 15, bell  # B(4) = 15 for k = 3

    # best-of-5 process CPU time, the two sizes interleaved, so that a burst
    # of load on a shared machine cannot land on one size only; the state
    # count ratio does not depend on load at all
    insts = {n: core.generate_collinear(n, 3, 0.3, 7) for n in (1000, 2000)}
    best = dict.fromkeys(insts, math.inf)
    states = {}
    for _ in range(5):
        for n, ri in insts.items():
            t0 = time.process_time()
            _, run_stats = collinear.dp_solve_with_stats(ri)
            best[n] = min(best[n], time.process_time() - t0)
            states[n] = run_stats.total_states
    ratio, state_ratio = best[2000] / best[1000], states[2000] / states[1000]
    assert state_ratio <= 2.5, state_ratio
    report(6, ratio <= 2.5,
           f"per-color partitions <= {bell} <= B(4) = 15; "
           f"runtime n=2000/n=1000 ratio {ratio:.2f} <= 2.5, states ratio {state_ratio:.2f}")


def test_criterion_7_determinism():
    inst = core.generate_random(6, 3, 0.5, 42)
    assert core.generate_random(6, 3, 0.5, 42) == inst
    pairs = [
        core.solution_to_json(approx3.approx_a1(inst)),
        core.solution_to_json(approx3.approx_a2(inst)),
        core.solution_to_json(oracle.brute_force(inst)),
    ]
    again = [
        core.solution_to_json(approx3.approx_a1(inst)),
        core.solution_to_json(approx3.approx_a2(inst)),
        core.solution_to_json(oracle.brute_force(inst)),
    ]
    assert pairs == again
    two = core.generate_random(12, 2, 0.3, 9)
    assert core.solution_to_json(exact2.solve_pair(exact2.project_pair(two, 1, 2))) == \
        core.solution_to_json(exact2.solve_pair(exact2.project_pair(two, 1, 2)))
    coll = core.generate_collinear(40, 3, 0.4, 5)
    assert core.solution_to_json(collinear.dp_solve(coll)) == \
        core.solution_to_json(collinear.dp_solve(coll))
    sol = approx3.approx_a2(inst)
    assert render_svg(inst, sol) == render_svg(inst, sol)
    report(7, True, "solvers, seeded generators, and rendering are byte-identical across runs")
