import math

import numpy as np
import pytest

from mcsg import approx3, core, oracle


def test_config_ratios():
    cfg = approx3.ApproxConfig()
    assert cfg.steiner_ratio_bound == 1.21
    assert cfg.ratio_a2 == pytest.approx(2 - 1 / (3 + 2 * 1.21))
    assert cfg.ratio_a2 < 2
    assert cfg.ratio_a1(3) == 2
    assert cfg.ratio_a1(5) == 3
    with pytest.raises(ValueError):
        approx3.ApproxConfig(steiner_ratio_bound=2.5)


def test_a1_all_black_is_a_shared_mst():
    # both halves of the union degenerate to the same spanning tree, so the
    # edge-set cost is one MST (the paper's 2*OPT accounting is an upper
    # bound on the sum of the halves)
    inst = core.generate_all_black(6, 3)
    sol = approx3.approx_a1(inst)
    opt = oracle.brute_force(inst).cost
    assert sol.cost == pytest.approx(opt, rel=1e-9)
    assert sol.cost <= 2 * opt + 1e-9
    assert sol.ratio_bound == 2.0


def test_a1_no_yellow_is_exact():
    inst = core.Instance(3, [(0, 0, {1}), (1, 0, {1, 2}), (2, 0, {2})])
    sol = approx3.approx_a1(inst)
    assert sol.cost == pytest.approx(oracle.brute_force(inst).cost, rel=1e-9)


def test_a2_all_black_is_optimal():
    inst = core.generate_all_black(6, 5)
    sol = approx3.approx_a2(inst)
    opt = oracle.brute_force(inst).cost
    assert sol.cost == pytest.approx(opt, rel=1e-9)
    assert sol.ratio_bound == pytest.approx(2 - 1 / (3 + 2 * 1.21))


def test_a2_without_black_points_reduces_to_first_three():
    inst = core.Instance(3, [(0, 0, {1, 2}), (1, 0, {2, 3}), (2, 0, {1}), (1, 1, {3})])
    bundle = approx3.approx_a2_bundle(inst)
    for i in range(3):
        assert bundle.graphs[i + 3].cost == pytest.approx(bundle.graphs[i].cost, rel=1e-9)


@pytest.mark.parametrize("seed", range(25))
def test_ratio_bounds_and_ordering(seed):
    inst = core.generate_random(3 + seed % 4, 3, 0.5, seed)
    opt = oracle.brute_force(inst).cost
    a1 = approx3.approx_a1(inst)
    bundle = approx3.approx_a2_bundle(inst)
    a2 = approx3.approx_a2(inst)
    assert core.is_csg(inst, a1.edges)
    for g in bundle.graphs:
        assert core.is_csg(inst, g.edges)
    assert a1.cost <= 2 * opt + 1e-9
    assert a2.cost <= (2 - 1 / (3 + 2 * 1.21)) * opt + 1e-9
    g123 = min(g.cost for g in bundle.graphs[:3])
    assert a2.cost <= g123 + 1e-12 <= a1.cost + 1e-9


def test_pairing_partition_validation():
    inst = core.generate_random(5, 4, 0.25, 3)
    with pytest.raises(ValueError):
        approx3.approx_pairing(inst, [(1, 2)])
    with pytest.raises(ValueError):
        approx3.approx_pairing(inst, [(1, 2, 3), (4,)])


def test_pairing_k1_is_mst():
    inst = core.Instance(1, [(0, 0, {1}), (1, 0, {1}), (3, 0, {1})])
    sol = approx3.approx_pairing(inst, [(1,)])
    assert sol.cost == pytest.approx(3.0)
    assert sol.ratio_bound == 1


def test_pairing_k3_matches_a1():
    inst = core.generate_random(6, 3, 0.5, 17)
    a1 = approx3.approx_a1(inst)
    pairing = approx3.approx_pairing(inst, [(1, 2), (3,)])
    assert pairing.cost == pytest.approx(a1.cost, rel=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_pairing_k4_within_bound(seed):
    inst = core.generate_random(5, 4, 0.4, seed)
    sol = approx3.approx_pairing(inst, [(1, 2), (3, 4)])
    opt = oracle.brute_force(inst).cost
    assert sol.cost <= 2 * opt + 1e-9
    assert core.is_csg(inst, sol.edges)


def test_rigid_motion_invariance():
    inst = core.generate_random(6, 3, 0.5, 23)
    theta = 0.7
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    moved = core.Instance.from_arrays(3, inst.xy @ rot.T + np.array([3.0, -1.0]), inst.masks)
    for fn in (approx3.approx_a1, approx3.approx_a2):
        assert fn(inst).cost == pytest.approx(fn(moved).cost, rel=1e-9)


def test_mst_completion_examples():
    inst = core.Instance(1, [(0, 0, {1}), (1, 0, {1}), (3, 0, {1})])
    members = inst.color_class(1)
    assert approx3.mst_completion(inst, members, [set(range(3))]).shape == (0, 2)
    free = approx3.mst_completion(inst, members, [])
    assert free.tolist() == [[0, 1], [1, 2]]
    merged = approx3.mst_completion(inst, members, [{0, 1}])
    assert merged.tolist() == [[1, 2]]


def brute_completion(inst, members, merged):
    """Reference completion: cheapest pair per block pair over all member
    pairs, then Prim on the contracted blocks, ties by (w, a, b)."""
    members = [int(p) for p in members]
    comp = {p: p for p in members}
    for block in merged:
        inside = [p for p in members if p in block]
        for p in inside:
            comp[p] = inside[0]
    best = {}
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            ca, cb = comp[a], comp[b]
            if ca != cb:
                key = (min(ca, cb), max(ca, cb))
                cand = (float(np.hypot(*(inst.xy[a] - inst.xy[b]))), min(a, b), max(a, b))
                best[key] = min(best.get(key, cand), cand)
    groups = sorted(set(comp.values()))
    tree, out = {groups[0]}, []
    while len(tree) < len(groups):
        w, a, b = min(cand for (ca, cb), cand in best.items() if (ca in tree) != (cb in tree))
        tree |= {comp[a], comp[b]}
        out.append((a, b))
    return core.as_edges(out)


@pytest.mark.parametrize("seed", range(60))
def test_mst_completion_matches_brute_reference(seed):
    rng = np.random.default_rng(seed)
    n = 2 + seed % 59
    gen = core.generate_collinear if seed % 2 else core.generate_random
    inst = gen(n + 4, 1, 0.0, seed)
    members = rng.permutation(inst.n)[:n]  # n members in no particular order
    # random disjoint blocks over all points, some outside the class
    labels = rng.integers(0, max(1, inst.n // 3), size=inst.n)
    merged = [frozenset(np.flatnonzero(labels == b).tolist()) for b in range(labels.max() + 1)]
    merged = [b for b in merged if len(b) > 1 and rng.random() < 0.6]
    got = approx3.mst_completion(inst, members, merged)
    want = brute_completion(inst, members, merged)
    assert np.array_equal(got, want)
    assert core.solution_cost(inst, got) == pytest.approx(core.solution_cost(inst, want), rel=1e-12)
