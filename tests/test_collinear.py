import numpy as np
import pytest

from mcsg import collinear, core, oracle
from mcsg.collinear import PartitionVector, cut_edges, compatible, hat_pi


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


def test_compatible_examples():
    inst = line([{1}, {1}, {1}, {1}])
    prev = cut_edges(inst, 1, [{1}])
    nxt = cut_edges(inst, 2, [{1}])
    # (0,1) vs (1,2): difference touches p_i = point index 1
    assert compatible(prev, nxt)
    far = line([{1}, {2}, {2}, {1}])
    prev2 = cut_edges(far, 1, [{1}])      # edge (0, 3)
    nxt2 = cut_edges(far, 2, [{1}])       # same edge (0, 3)
    assert compatible(prev2, nxt2)
    # dropping an edge that does not touch p_i is incompatible
    nxt3 = collinear.CutEdgeSet(i=2, gamma=(), edges=())
    assert not compatible(prev2, nxt3)


def test_hat_pi_trivial_and_shared_endpoint():
    inst = line([{1}, {1, 2}, {1}, {1, 2}])
    prev = cut_edges(inst, 1, [{1}])
    nxt = cut_edges(inst, 2, [{1}])
    pv = hat_pi(prev, nxt, PartitionVector(parts=((0,), ())))
    assert pv.parts[0] == (0,)


def test_hat_pi_two_enders_related():
    # both previous-cut edges end at p_i: rule (1) relates them
    inst = core.Instance(
        2, [(0, 0, {1}), (1, 0, {2}), (2, 0, {1, 2}), (3, 0, {1}), (4, 0, {2})]
    )
    prev = cut_edges(inst, 2, [{1}, {2}])
    assert {e[2] for e in prev.edges} == {2}
    nxt = cut_edges(inst, 3, [{1}, {2}])
    pv = hat_pi(prev, nxt, PartitionVector(parts=((0,), (0,))))
    # single edge per color at the previous cut: trivial partitions
    assert pv.parts == ((0,), (0,))


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


@pytest.mark.parametrize("seed", range(60))
def test_dp_matches_oracle(seed):
    k = 2 + seed % 2
    n = 3 + seed % 6
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
