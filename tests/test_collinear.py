import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mcsg import collinear, core, oracle
from mcsg.collinear import _hat_b, cut_edges


def line(colored, spacing=None):
    xs = spacing or list(range(len(colored)))
    return core.Instance(max(c for s in colored for c in s), [(x, 0, s) for x, s in zip(xs, colored)])


def test_normalize_star_examples():
    keep = line([{1}, {2}, {1}])
    assert collinear.normalize_star(keep, [(0, 2)]).tolist() == [[0, 2]]
    split = line([{1}, {1, 2}, {1}])
    assert collinear.normalize_star(split, [(0, 2)]).tolist() == [[0, 1], [1, 2]]
    assert collinear.normalize_star(split, []).shape == (0, 2)


def test_normalize_star_preserves_cost_and_csg():
    # subdividing can merge coincident subedges of an arbitrary edge set, so
    # in general cost only stays or drops; it is exact when no merge happens
    # (minimum solutions in particular), and connectivity never degrades
    for seed in range(20):
        inst = core.generate_collinear(7, 3, 0.5, seed)
        rng = np.random.default_rng(seed)
        pairs = [(a, b) for a in range(7) for b in range(a + 1, 7)
                 if inst.masks[a] & inst.masks[b]]
        chosen = [p for p in pairs if rng.random() < 0.6]
        norm = collinear.normalize_star(inst, chosen)
        assert core.solution_cost(inst, norm) <= core.solution_cost(inst, chosen) + 1e-9
        if core.is_csg(inst, chosen):
            assert core.is_csg(inst, norm)


def test_normalize_star_exact_on_disjoint_edges():
    inst = core.Instance(2, [(0, 0, {1}), (1, 0, {1, 2}), (2, 0, {1}), (3, 0, {2})])
    norm = collinear.normalize_star(inst, [(0, 2), (1, 3)])
    assert core.solution_cost(inst, norm) == pytest.approx(
        core.solution_cost(inst, [(0, 2), (1, 3)]), rel=1e-12
    )
    assert norm.tolist() == [[0, 1], [1, 2], [1, 3]]


def test_cut_edges_examples():
    inst = line([{1}, {2}, {1}])
    cs = cut_edges(inst, 1, [{1}])
    assert cs.edges == ((1, 0, 2),)
    assert cut_edges(inst, 1, [{1, 2}]) is None
    empty = cut_edges(inst, 1, [])
    assert empty.edges == ()


def test_is_valid_cut_examples():
    two_r = line([{1}, {1}])
    assert not collinear.is_valid_cut(two_r, cut_edges(two_r, 1, []))
    rb = line([{1}, {2}])
    assert collinear.is_valid_cut(rb, cut_edges(rb, 1, []))
    assert collinear.is_valid_cut(two_r, cut_edges(two_r, 1, [{1}]))


def test_edge_table_matches_anchor_definition():
    # reference: the last point <= cut - 1 and the first point >= cut that
    # carry all of g, kept only when the two share exactly g
    for seed in range(30):
        k = 2 + seed % 3
        inst = core.generate_collinear(3 + seed % 12, k, (0.2, 0.5, 1.0)[seed % 3], seed)
        prep = collinear._Prep(inst, collinear.DEFAULT_K_GUARD)
        masks = prep.masks.tolist()
        for cut in range(1, inst.n + 1):
            want = {}
            for g in range(1, 1 << k):
                left = [j for j in range(cut) if masks[j] & g == g]
                right = [j for j in range(cut, inst.n) if masks[j] & g == g]
                if left and right and masks[left[-1]] & masks[right[0]] == g:
                    want[g] = (left[-1], right[0])
            assert prep.edge_at[cut] == want
            assert prep.feasible(cut) == sorted(want)
            assert all(prep.cut_edge(cut, g) == want.get(g) for g in range(1, 1 << k))


def _ends(cutset, c):
    """Sorted distinct right endpoints of the cut edges carrying color c."""
    return tuple(sorted({b for g, _a, b in cutset.edges if g >> (c - 1) & 1}))


def _starts(cutset, pt):
    return frozenset(b for _g, a, b in cutset.edges if a == pt)


def test_hat_b_trivial_and_shared_endpoint():
    inst = line([{1}, {1, 2}, {1}, {1, 2}])
    prev = cut_edges(inst, 1, [{1}])
    nxt = cut_edges(inst, 2, [{1}])
    assert _hat_b(_ends(prev, 1), _ends(nxt, 1), _starts(nxt, 1), (0,), 1) == (0,)


def test_hat_b_two_enders_related():
    # both previous-cut edges end at p_i: rule (1) relates them
    inst = core.Instance(
        2, [(0, 0, {1}), (1, 0, {2}), (2, 0, {1, 2}), (3, 0, {1}), (4, 0, {2})]
    )
    prev = cut_edges(inst, 2, [{1}, {2}])
    assert {e[2] for e in prev.edges} == {2}
    nxt = cut_edges(inst, 3, [{1}, {2}])
    # single edge per color at the previous cut: trivial partitions
    for c in (1, 2):
        assert _hat_b(_ends(prev, c), _ends(nxt, c), _starts(nxt, 2), (0,), 2) == (0,)


def test_hat_b_relates_through_p_i_and_next_blocks():
    # previous endpoints p_i = 2 and 5; at the next cut an edge from p_i
    # reaches 3, and 5 is kept: they are related iff 3 and 5 share a block.
    # Kept endpoints with no p_i edge follow the next cut's blocks alone.
    assert _hat_b((2, 5), (3, 5), frozenset({3}), (0, 0), 2) == (0, 0)
    assert _hat_b((2, 5), (3, 5), frozenset({3}), (0, 1), 2) == (0, 1)
    assert _hat_b((5, 6), (3, 5, 6), frozenset(), (0, 1, 0), 2) == (0, 1)


def test_dp_examples():
    rbr = line([{1}, {2}, {1}])
    sol = collinear.dp_solve(rbr)
    assert sol.cost == pytest.approx(2.0)
    assert sol.edge_set() == {(0, 2)}

    mono = line([{1}] * 5, spacing=[0, 1, 2.5, 4, 4.5])
    assert collinear.dp_solve(mono).cost == pytest.approx(4.5)

    tricky = core.Instance(2, [(0, 0, {1, 2}), (1, 0, {1}), (3, 0, {1, 2})])
    sol3 = collinear.dp_solve(tricky)
    assert sol3.cost == pytest.approx(oracle.brute_force(tricky).cost, rel=1e-9)


def test_dp_single_point_and_k_guard():
    single = core.Instance(3, [(0, 0, {2})])
    assert collinear.dp_solve(single).cost == 0.0
    inst = line([{1}, {2}])
    with pytest.raises(core.RefusalError):
        collinear.dp_solve(inst, k_guard=1)


def test_dp_rejects_non_collinear():
    inst = core.Instance(2, [(0, 0, {1}), (1, 1, {2}), (2, 0, {1})])
    with pytest.raises(core.RefusalError, match="not collinear"):
        collinear.dp_solve(inst)


def test_dp_accepts_any_line_and_original_indices():
    # diagonal line, scrambled input order
    pts = [(3, 3, {1}), (0, 0, {1, 2}), (1, 1, {2}), (2, 2, {1})]
    inst = core.Instance(2, pts)
    sol = collinear.dp_solve(inst)
    assert core.is_csg(inst, sol.edges)
    opt = oracle.brute_force(inst)
    assert sol.cost == pytest.approx(opt.cost, rel=1e-9)


@pytest.mark.parametrize("seed", range(100))
def test_dp_matches_oracle(seed):
    # seeds 60..99: k = 4, where edges sharing several colors make the most
    # distinct transition shapes
    k, n = (4, 3 + seed % 5) if seed >= 60 else (2 + seed % 2, 3 + seed % 6)
    inst = core.generate_collinear(n, k, (0.2, 0.5, 1.0)[seed % 3], seed)
    sol = collinear.dp_solve(inst)
    opt = oracle.brute_force(inst, oracle.OracleBudget(max_candidate_edges=28))
    assert sol.cost == pytest.approx(opt.cost, rel=1e-9)
    # output satisfies the star property
    norm = collinear.normalize_star(inst, sol.edges)
    assert {tuple(e) for e in norm.tolist()} == sol.edge_set()


def test_dp_k2_matches_exact2():
    from mcsg import exact2

    for seed in range(20):
        inst = core.generate_collinear(7, 2, 0.5, seed)
        a = collinear.dp_solve(inst).cost
        b = exact2.solve_pair(exact2.project_pair(inst, 1, 2)).cost
        assert a == pytest.approx(b, rel=1e-9)


def test_partition_enumeration_bound():
    assert sum(1 for _ in core.set_partitions(4)) == 15
    assert sum(1 for _ in core.set_partitions(0)) == 1


def test_stats_reported():
    inst = core.generate_collinear(40, 3, 0.4, 2)
    sol, stats = collinear.dp_solve_with_stats(inst)
    assert len(stats.per_cut_states) == 40
    assert max(stats.per_cut_max_pi_per_color) <= 15
    assert stats.total_states >= 40


# (n, k, multichromatic fraction, seed, cost, edge digest), recorded before the
# DP cached its transitions: lines shaped like the benchmark's plus k = 2
PINNED = [
    (60, 3, 1.0, 0, 41.07148303022899, "85f63c586e1d8705"),
    (73, 3, 1.0, 1, 55.838617076911696, "c442d6278ae1f6ce"),
    (65, 3, 1.0, 2, 50.132957626073484, "0f2ebac1293a3a60"),
    (78, 3, 1.0, 3, 60.23083758696032, "b6973628ad88b00b"),
    (70, 3, 1.0, 4, 60.65530998812126, "28c4ba1bd6729404"),
    (62, 3, 1.0, 5, 45.588157220452985, "b92dba43662c4026"),
    (75, 3, 1.0, 6, 49.59269741805245, "5e67969441fdc558"),
    (67, 3, 1.0, 7, 45.833302912898716, "88941c1de99246bd"),
    (80, 3, 1.0, 8, 49.38445552094356, "3eead92573d6becb"),
    (72, 3, 1.0, 9, 48.51659283161799, "17dbd9c6448444b5"),
    (64, 3, 1.0, 10, 52.32138031049549, "63054048af82fb44"),
    (77, 3, 1.0, 11, 44.82645986594153, "d0839b65a12a5e95"),
    (18, 4, 0.2, 0, 27.080889226678256, "eef4c35ca506b27a"),
    (18, 4, 0.2, 1, 25.335185804695563, "ed149ab7584bec4a"),
    (18, 4, 0.2, 2, 21.96166442917733, "02ee181a784123be"),
    (18, 4, 0.2, 3, 27.19259152772904, "c0cecf27d40c06b4"),
    (18, 4, 0.2, 4, 31.54228933935516, "8b9760dda9ce015e"),
    (40, 2, 0.5, 0, 28.74053989280621, "015e1215f9521316"),
    (40, 2, 0.5, 1, 26.26332289165638, "17d86b2ade819bb8"),
    (40, 2, 0.5, 2, 28.10741253012202, "7c2e497596f97d64"),
]


def _digest(edges) -> str:
    return hashlib.sha256(json.dumps(edges.tolist()).encode()).hexdigest()[:16]


def test_dp_outputs_pinned():
    for n, k, frac, seed, cost, digest in PINNED:
        sol = collinear.dp_solve(core.generate_collinear(n, k, frac, seed))
        assert (sol.cost, _digest(sol.edges)) == (cost, digest), (n, k, frac, seed)


def test_state_budget_boundary(monkeypatch):
    # k = 4, n = 20: its largest cut holds 148 states
    inst = core.generate_collinear(20, 4, 0.3, 7)
    monkeypatch.setattr(collinear, "MAX_STATES_PER_CUT", 148)
    _, stats = collinear.dp_solve_with_stats(inst)
    assert max(stats.per_cut_states) == 148
    monkeypatch.setattr(collinear, "MAX_STATES_PER_CUT", 147)
    with pytest.raises(core.RefusalError, match=r"needs at least 148 states, 1 over the budget of 147"):
        collinear.dp_solve(inst)


def test_state_budget_refuses_large_k4_line(tmp_path):
    # Without the budget this line grows to about a million states in one cut
    # and was killed for memory.  Run the CLI as the benchmark's worker does,
    # under an address-space limit, so a runaway solve fails instead of
    # exhausting the machine.
    path = tmp_path / "line.json"
    path.write_text(core.instance_to_json(core.generate_collinear(200, 4, 0.3, 7)))
    limit = 1 << 30
    code = (f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
            "from mcsg import cli; sys.exit(cli.main(['solve', '--input', sys.argv[1]]))")
    env = dict(os.environ, PYTHONPATH=str(Path(collinear.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert f"over the budget of {collinear.MAX_STATES_PER_CUT} states per cut" in proc.stderr
