import math

import numpy as np
import pytest

from mcsg import core, exact2, mst, oracle


def naive_optimum(inst: core.Instance) -> float:
    """The cheapest colored spanning graph's cost over every subset of the
    candidate edges, unpruned: the reference for the branch-and-bound."""
    edges, weights = oracle.candidate_edges(inst)
    pairs = [tuple(e) for e in edges.tolist()]
    classes = [set(inst.color_class(c).tolist()) for c in range(1, inst.k + 1)]

    def spans(members, chosen):
        parent = list(range(inst.n))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        for a, b in chosen:
            if a in members and b in members:
                parent[find(a)] = find(b)
        return len({find(p) for p in members}) <= 1

    best = math.inf
    for subset in range(1 << len(pairs)):
        chosen = [i for i in range(len(pairs)) if subset >> i & 1]
        cost = float(sum(weights[i] for i in chosen))
        if cost < best and all(spans(members, [pairs[i] for i in chosen]) for members in classes):
            best = cost
    return best


def forced_union(inst: core.Instance) -> np.ndarray:
    """The forced edges of every color, in one edge set."""
    return core.merge_edges(*(mst.forced_edges(inst, c) for c in range(1, inst.k + 1)))


def test_single_point_and_forced_pair():
    single = core.Instance(2, [(0, 0, {1, 2})])
    sol = oracle.brute_force(single)
    assert sol.cost == 0.0 and sol.edges.shape == (0, 2)
    pair = core.Instance(1, [(0, 0, {1}), (1, 1, {1})])
    sol = oracle.brute_force(pair)
    assert sol.edge_set() == {(0, 1)}


def test_square_example():
    inst = core.Instance(2, [(0, 0, {1, 2}), (1, 0, {1, 2}), (0, 1, {1}), (1, 1, {2})])
    assert oracle.brute_force(inst).cost == pytest.approx(3.0)
    assert naive_optimum(inst) == pytest.approx(3.0)


def test_budget_refusal_names_count():
    inst = core.generate_random(12, 2, 1.0, 1)
    with pytest.raises(core.RefusalError, match="66 candidate edges"):
        oracle.brute_force(inst)


@pytest.mark.parametrize("seed", range(30))
def test_pruned_matches_naive(seed):
    inst = core.generate_random(3 + seed % 4, 2 + seed % 2, 0.4, seed)
    assert oracle.brute_force(inst).cost == pytest.approx(naive_optimum(inst), rel=1e-12)


def test_star_restriction_drops_spanned_edges():
    inst = core.Instance(2, [(0, 0, {1}), (1, 0, {1, 2}), (2, 0, {1})])
    edges, _ = oracle.candidate_edges(inst, star_restricted=False)
    star, _ = oracle.candidate_edges(inst, star_restricted=True)
    assert (0, 2) in {tuple(e) for e in edges.tolist()}
    assert (0, 2) not in {tuple(e) for e in star.tolist()}


@pytest.mark.parametrize("seed", range(15))
def test_star_modes_agree_on_collinear(seed):
    inst = core.generate_collinear(3 + seed % 5, 2 + seed % 2, 0.5, seed)
    a = oracle.brute_force(inst)
    b = oracle.brute_force(inst, star_restricted=True)
    assert a.cost == pytest.approx(b.cost, rel=1e-9)


def test_color_shrink_changes_constraints_both_ways():
    # shrinking a point's color set is not monotone: removing a hub from a
    # class can force a longer detour for that class while the point still
    # needs attaching through its remaining color
    before = core.Instance(2, [(-1, 0, {1, 2}), (0, 0, {1, 2}), (1, 0, {1, 2})])
    after = core.Instance(2, [(-1, 0, {1, 2}), (0, 0, {1}), (1, 0, {1, 2})])
    assert oracle.brute_force(before).cost == pytest.approx(2.0)
    assert oracle.brute_force(after).cost == pytest.approx(3.0)
    # shrinking remains feasible, and often does reduce cost
    for seed in range(12):
        inst = core.generate_random(6, 2, 0.6, seed)
        multi = np.flatnonzero(inst.multichromatic())
        if multi.size == 0:
            continue
        masks = inst.masks.copy()
        masks[multi[0]] = 1
        smaller = core.Instance.from_arrays(2, inst.xy, masks)
        oracle.brute_force(smaller)  # must stay solvable


def test_forced_edges_do_not_change_optimum():
    for seed in range(12):
        inst = core.generate_random(6, 2, 0.5, seed)
        required = forced_union(inst)
        free = oracle.brute_force(inst)
        constrained = oracle.brute_force(inst, required=required)
        assert constrained.cost == pytest.approx(free.cost, rel=1e-9)


def test_ratio_bench_families():
    # on all-black instances both halves of a1 collapse to one MST
    report = oracle.ratio_bench("allblack", ["a1"], 6)
    assert report.max_ratio("a1") == pytest.approx(1.0, abs=1e-9)
    report = oracle.ratio_bench("random", ["a2"], 8, k=3, fraction=0.5)
    assert report.max_ratio("a2") <= 2 - 1 / (3 + 2 * 1.21) + 1e-9
    report = oracle.ratio_bench("random", ["exact2"], 8, k=2, fraction=0.5)
    assert report.max_ratio("exact2") == pytest.approx(1.0, abs=1e-9)
    assert not report.violations()


def test_ratio_bench_bounds_come_from_the_solutions():
    report = oracle.ratio_bench("random", ["a1", "a2"], 4, k=3)
    assert report.bounds == {"a1": 2.0, "a2": 2 - 1 / (3 + 2 * 1.21)}
    assert {r.n for r in oracle.ratio_bench("random", ["a1"], 4, n_max=3).rows} == {3}
    for n_max in (2, 0, -5):
        with pytest.raises(core.FormatError, match="n_max must be at least 3"):
            oracle.ratio_bench("random", ["a1"], 4, n_max=n_max)


def test_ratio_bench_records_failures_and_csv(tmp_path, monkeypatch):
    monkeypatch.setattr(exact2, "M_LIMIT", 2)
    report = oracle.ratio_bench("random", ["exact2"], 5, n_max=6, k=2, fraction=1.0)
    assert report.failures  # M_LIMIT refusals recorded, run continued
    out = tmp_path / "r.csv"
    report.write_csv(str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "seed,n,k,opt,algo,cost,ratio"
