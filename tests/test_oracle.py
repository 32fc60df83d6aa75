import hashlib
import math

import numpy as np
import pytest

from mcsg import cli, collinear, core, mst, oracle


def naive_optimum(inst: core.Instance, required=()) -> float:
    """The cheapest colored spanning graph's cost over every subset of the
    candidate edges that holds the ``required`` ones, unpruned: the reference
    for the branch-and-bound."""
    edges, weights = oracle.candidate_edges(inst)
    pairs = [tuple(e) for e in edges.tolist()]
    need = sum({1 << pairs.index(tuple(e)) for e in core.as_edges(required, inst.n).tolist()})
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
        if subset & need != need:
            continue
        chosen = [i for i in range(len(pairs)) if subset >> i & 1]
        cost = float(sum(weights[i] for i in chosen))
        if cost < best and all(spans(members, [pairs[i] for i in chosen]) for members in classes):
            best = cost
    return best


def forced_union(inst: core.Instance) -> np.ndarray:
    """The forced edges of every color, in one edge set."""
    return core.merge_edges(*(mst.forced_edges(inst, c) for c in range(1, inst.k + 1)))


def lattice(n: int, seed: int) -> core.Instance:
    """n distinct points of the 3 x 3 integer grid, k = 2: many equal lengths."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(9, size=n, replace=False)
    masks = rng.integers(1, 4, size=n)
    masks[:2] = (1, 2)  # both colors present
    return core.Instance.from_arrays(2, np.stack([cells % 3, cells // 3], axis=1), masks)


def digest_corpus():
    """(instance, keyword arguments) pairs whose oracle solutions are pinned."""
    fractions = (0.2, 0.5, 0.8)
    for seed in range(120):
        yield core.generate_random(3 + seed % 5, 2 + seed % 2, fractions[seed % 3], seed), {}
    for seed in range(90):  # k = 4 lines of all-multichromatic points have exact cost ties
        yield core.generate_collinear(3 + seed % 5, 2 + seed % 3, (0.2, 0.5, 1.0)[seed % 3], seed), {}
    for seed in range(60):
        yield lattice(3 + seed % 5, seed), {}
    for seed in range(40):
        line = core.generate_collinear(3 + seed % 5, 2 + seed % 2, fractions[seed % 3], 100 + seed)
        yield line, {"star_restricted": True}
        yield line, {"required": forced_union(line)}


# sha256 over the solution_to_json of every digest_corpus solve, one per line;
# recorded before the search state was rewritten without an undo log
ORACLE_DIGEST = "492652ebdcf7fc6227f7e4d511365931ee46d40f638860f8d531ed3db5b2fc5a"


def test_oracle_outputs_pinned():
    text = "\n".join(core.solution_to_json(oracle.brute_force(inst, **kw))
                     for inst, kw in digest_corpus())
    assert hashlib.sha256(text.encode()).hexdigest() == ORACLE_DIGEST


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


@pytest.mark.parametrize("seed", range(16))
def test_required_matches_naive(seed):
    # the forced edges, and on odd seeds also the longest candidate, which
    # raises the optimum on each of those seeds
    make = core.generate_collinear if seed % 4 >= 2 else core.generate_random
    inst = make(3 + seed % 4, 2 + seed % 2, 0.5, seed)
    required = forced_union(inst)
    if seed % 2:
        edges, _ = oracle.candidate_edges(inst)
        required = core.merge_edges(required, edges[-1:])
    got = oracle.brute_force(inst, required=required)
    assert got.cost == pytest.approx(naive_optimum(inst, required), rel=1e-12)
    assert {tuple(e) for e in required.tolist()} <= got.edge_set()


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


def test_star_filter_follows_near_vertical_lines():
    # x carries jitter far inside collinear.COLLINEAR_TOL; ordering by x
    # once made the star filter drop the path's own edges (13.0)
    xy = [(1 + (-1) ** i * 1e-12, i) for i in range(6)]
    inst = core.Instance.from_arrays(2, xy, [1, 3, 1, 3, 1, 3])
    assert oracle.brute_force(inst, star_restricted=True).cost == pytest.approx(7.0)
    assert oracle.brute_force(inst).cost == pytest.approx(7.0)
    assert collinear.dp_solve(inst).cost == pytest.approx(7.0)


def test_star_filter_refuses_points_off_a_line():
    inst = core.Instance(1, [(0, 0, {1}), (1, 0, {1}), (0, 1, {1})])
    with pytest.raises(core.RefusalError, match="not collinear"):
        oracle.candidate_edges(inst, star_restricted=True)


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


@pytest.mark.parametrize("algorithms, seeds, message", [
    (["a1"], 0, "seeds must be at least 1, got 0"),
    (["a1"], -3, "seeds must be at least 1, got -3"),
    (["a1", "foo"], 4, "unknown algorithm: foo"),
    ([], 4, "no algorithm to compare; choose from auto, exact2, a1, a2, dp, pairing, oracle"),
    (["a1", "a2", "a1"], 4, "algorithm named twice: a1"),
])
def test_ratio_bench_checks_parameters_before_any_solve(monkeypatch, algorithms, seeds, message):
    def no_solve(*_, **__):
        raise AssertionError("solved before the parameter checks")

    monkeypatch.setattr(oracle, "brute_force", no_solve)
    monkeypatch.setattr(cli, "solve_dispatch", no_solve)
    with pytest.raises(core.FormatError, match=message):
        cli.ratio_bench("random", algorithms, seeds)
