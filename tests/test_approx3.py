import hashlib
import json
import math

import numpy as np
import pytest

from mcsg import approx3, cli, core, exact2, mst, oracle


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
    # A1 and A2's G1 are both the k = 3 pairing (1, 2), (3,): same edges, same cost bits
    cases = [(n, k, frac, seed) for n, k, frac, seed, *_ in PINNED_A3]
    cases += [(3 + s % 9, 3, (0.5, 0.9)[s % 2], 1000 + s) for s in range(100)]
    for n, k, frac, seed in cases:
        inst = core.generate_random(n, k, frac, seed)
        a1 = approx3.approx_a1(inst)
        for other in (approx3.approx_a2_bundle(inst).graphs[0],
                      approx3.approx_pairing(inst, [(1, 2), (3,)])):
            assert np.array_equal(other.edges, a1.edges), seed
            assert other.cost == a1.cost, seed


def test_pairing_bound_is_a_float_and_round_trips():
    sol = approx3.approx_pairing(core.generate_random(6, 4, 0.5, 1), [(1, 2), (3, 4)])
    assert type(sol.ratio_bound) is float and sol.ratio_bound == 2.0
    text = core.solution_to_json(sol)
    assert core.solution_to_json(core.solution_from_json(text)) == text


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
    assert approx3.mst_completion is mst.mst_completion  # the one completion, bound in both
    inst = core.Instance(1, [(0, 0, {1}), (1, 0, {1}), (3, 0, {1})])
    members = inst.color_class(1)
    assert mst.mst_completion(inst, members, [set(range(3))]).shape == (0, 2)
    free = mst.mst_completion(inst, members, [])
    assert free.tolist() == [[0, 1], [1, 2]]
    merged = mst.mst_completion(inst, members, [{0, 1}])
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
    got = mst.mst_completion(inst, members, merged)
    want = brute_completion(inst, members, merged)
    assert np.array_equal(got, want)
    assert core.solution_cost(inst, got) == pytest.approx(core.solution_cost(inst, want), rel=1e-12)


# (n, k, fraction, seed, A1 digest, digest of the six A2 candidates and
# approx_a2, chosen candidate) of generate_random instances; 27 of them have
# points carrying all three colors, so G4..G6 complete around a nonempty H
PINNED_A3 = [
    (3, 3, 0.5, 0, "e7b0ebd267fb1c97", "30de6fc6206cb06e", 0),
    (4, 3, 0.9, 1, "46229885a85fdf5d", "7bdf54cf4237194b", 0),
    (5, 3, 0.5, 2, "a8d330dff4632e5f", "a00cf2cc88752444", 0),
    (6, 3, 0.9, 3, "5418ee585905f81d", "803f45e5a6234eae", 3),
    (7, 3, 0.5, 4, "90e071f0735a5c14", "35ac4e7c96ae1380", 2),
    (8, 3, 0.9, 5, "aa6775e7c694a0ed", "fd2f8d602ea3ffa3", 1),
    (9, 3, 0.5, 6, "e9e3b717c360f51d", "8ab5c569f7f6bad9", 1),
    (10, 3, 0.9, 7, "41738941c1356b64", "446913703f1746cf", 3),
    (11, 3, 0.5, 8, "e84e4248b03f1150", "2f37d03e91e52384", 0),
    (3, 3, 0.9, 9, "6b84f91ebfb5e06c", "c28b139384f1aac9", 0),
    (4, 3, 0.5, 10, "9ead2a56b473bc2f", "c947f1ee1bfd9332", 0),
    (5, 3, 0.9, 11, "8ecf201726c8245a", "83e1e4c4b2dce168", 2),
    (6, 3, 0.5, 12, "07744f5fb6df0e82", "bffbf37d3474f323", 0),
    (7, 3, 0.9, 13, "495bd2dce8aa64bb", "2645c4815af6c4d0", 5),
    (8, 3, 0.5, 14, "3e8f899399c6f876", "0929dec097a864cd", 1),
    (9, 3, 0.9, 15, "93fa4696378d67a5", "80a02543e6a04f4b", 3),
    (10, 3, 0.5, 16, "8843c6d88cd2840a", "37677b901ab942c7", 5),
    (11, 3, 0.9, 17, "50e66872df7b7d8a", "43303e9317f86e4d", 3),
    (3, 3, 0.5, 18, "3cfea34d5a845061", "e9bac7e2b642b8ce", 0),
    (4, 3, 0.9, 19, "c01a1af28bcdf5a9", "0058ab7001c4345f", 1),
    (5, 3, 0.5, 20, "24a6147f40e3468d", "8cc49c3da902ff5a", 0),
    (6, 3, 0.9, 21, "2d9d021774b25fe1", "c201b57947fc34c6", 2),
    (7, 3, 0.5, 22, "c5c55d702d591c9f", "58465777c14dfa10", 3),
    (8, 3, 0.9, 23, "3c35f611ea99757e", "d7b8eae622818e62", 1),
    (9, 3, 0.5, 24, "8f5c3a2a79f0e3d2", "070083e097f13190", 0),
    (10, 3, 0.9, 25, "d1d3547af9ffcf6c", "bdf6c05032e8c9b8", 4),
    (11, 3, 0.5, 26, "d633c4ecd799626e", "664f8231cda0bf79", 1),
    (3, 3, 0.9, 27, "efb8b8f27e03671b", "7b6e3c43e7f4d648", 0),
    (4, 3, 0.5, 28, "7fd523da33f75738", "4b104c6cb13414ef", 1),
    (5, 3, 0.9, 29, "945afc64aeab55ee", "4d05c5980486bea4", 0),
]
# (n, k, fraction, seed, digest) of approx_pairing with pairs (1, 2), (3, 4) and (5,);
# each digest covers the float ratio bound (2.0 or 3.0)
PINNED_PAIRING = [
    (5, 4, 0.6, 100, "a3b90760156125f0"),
    (6, 5, 0.6, 101, "ada3bacbbba8d51a"),
    (7, 4, 0.6, 102, "22cbf99c48777d43"),
    (8, 5, 0.6, 103, "81921c56b75232ad"),
    (9, 4, 0.6, 104, "1e37f604965839b1"),
    (5, 5, 0.6, 105, "72590d602827964f"),
    (6, 4, 0.6, 106, "79de8cde4160f1d8"),
    (7, 5, 0.6, 107, "a1cc66f8c4894438"),
    (8, 4, 0.6, 108, "7042c96200d7c4fe"),
    (9, 5, 0.6, 109, "435c4e6d1e773453"),
]


def _digest(*sols) -> str:
    data = [[s.algorithm, s.cost, s.edges.tolist(), s.ratio_bound] for s in sols]
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()[:16]


def test_approx_outputs_pinned():
    for n, k, frac, seed, a1, a2, chosen in PINNED_A3:
        inst = core.generate_random(n, k, frac, seed)
        bundle = approx3.approx_a2_bundle(inst)
        assert _digest(approx3.approx_a1(inst)) == a1, seed
        assert _digest(*bundle.graphs, approx3.approx_a2(inst)) == a2, seed
        assert bundle.chosen == chosen, seed
    for n, k, frac, seed, digest in PINNED_PAIRING:
        inst = core.generate_random(n, k, frac, seed)
        blocks = [(c,) if c + 1 > k else (c, c + 1) for c in range(1, k + 1, 2)]
        assert _digest(approx3.approx_pairing(inst, blocks)) == digest, seed


def test_a2_builds_one_emst_per_point_set(monkeypatch):
    # four point sets: the three color classes and H, the points carrying all three
    inst = core.generate_random(7, 3, 0.9, 3)
    assert int(np.count_nonzero(inst.masks == 0b111)) == 4
    calls = []
    emst = mst.euclidean_mst
    monkeypatch.setattr(mst, "euclidean_mst", lambda xy: calls.append(len(xy)) or emst(xy))
    approx3.approx_a2_bundle(inst)
    assert len(calls) <= 4, calls
    # every solver in turn on a fresh instance: each class tree is built once
    # and then kept; H is not kept, so each A2 run builds it once
    inst = core.generate_random(7, 3, 0.9, 3)
    built = []
    monkeypatch.setattr(mst, "euclidean_mst", lambda xy: built.append(xy.tobytes()) or emst(xy))
    approx3.approx_a1(inst)
    approx3.approx_a2(inst)
    approx3.approx_pairing(inst, [(1, 2), (3,)])
    cli.solve_dispatch(inst, "a2")
    classes = [inst.xy[inst.color_class(c)].tobytes() for c in (1, 2, 3)]
    black = inst.xy[inst.masks == 0b111].tobytes()
    assert sorted(built) == sorted(classes + [black, black])
    for c in (1, 2, 3):  # a kept tree is read-only, and a second call returns it
        tree = mst.class_tree(inst, c)
        assert not tree.flags.writeable
        with pytest.raises(ValueError):
            tree[0, 0] = 0
        assert mst.class_tree(inst, c) is tree
        assert np.array_equal(tree, mst.subset_mst(inst.xy, inst.color_class(c)))
    # the forced-edge route takes the labelled EMST and keeps no class tree
    monkeypatch.undo()
    fresh = core.generate_random(7, 3, 0.9, 3)
    for c in (1, 2, 3):
        mst.forced_edges(fresh, c)
    assert fresh._trees == {}


def reference_a2_bundle(inst):
    """A2's six candidates and the chosen index, with G4..G6 always built
    around H by their own pair solves and completions, whatever |H|."""
    graphs = [core.make_solution(inst, approx3._pair_plus_trees(inst, ((c1, c2), (mono,))),
                                 f"a2/G{i + 1}")
              for i, (c1, c2, mono) in enumerate(approx3._A2_SPLITS)]
    black = np.flatnonzero(inst.masks == 0b111)
    h_edges = mst.subset_mst(inst.xy, black)
    merged = (frozenset(int(p) for p in black),) if black.size else ()
    for i, (c1, c2, mono) in enumerate(approx3._A2_SPLITS):
        pair_sol = exact2.solve_pair(exact2.project_pair(inst, c1, c2, group_merge=merged))
        mono_edges = mst.mst_completion(inst, inst.color_class(mono), merged,
                                        mst.class_tree(inst, mono))
        edges = core.merge_edges(h_edges, pair_sol.edges, mono_edges)
        graphs.append(core.make_solution(inst, edges, f"a2/G{i + 4}"))
    chosen = min(range(6), key=lambda i: (graphs[i].cost, i))  # the first cheapest
    return graphs, chosen


def _lattice(n, seed):
    """n distinct points of a 4 x 4 integer grid, so that many lengths tie,
    with random color sets; None when a color is missing."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(16, size=n, replace=False)
    masks = rng.choice([1, 2, 4, 3, 5, 6, 7, 7], size=n)
    if np.bitwise_or.reduce(masks) != 0b111:
        return None
    return core.Instance.from_arrays(3, np.stack([cells % 4, cells // 4], axis=1), masks)


def _a2_cases():
    for s in range(120):
        yield core.generate_random(3 + s % 10, 3, round(0.3 + 0.1 * (s % 7), 1), s)
    for s in range(60):
        inst = _lattice(4 + s % 7, s)
        if inst is not None:
            yield inst
    for n in range(1, 7):
        yield core.generate_all_black(n, n)


def test_a2_bundle_matches_reference():
    black_counts = set()
    for inst in _a2_cases():
        want, want_chosen = reference_a2_bundle(inst)
        bundle = approx3.approx_a2_bundle(inst)
        got = [(g.algorithm, g.cost.hex(), g.edges.tolist()) for g in bundle.graphs]
        assert got == [(g.algorithm, g.cost.hex(), g.edges.tolist()) for g in want]
        assert bundle.chosen == want_chosen
        a2 = approx3.approx_a2(inst)
        assert (a2.cost.hex(), a2.edges.tolist()) == got[want_chosen][1:]
        black_counts.add(min(int(np.count_nonzero(inst.masks == 0b111)), 3))
    assert black_counts == {0, 1, 2, 3}


@pytest.mark.parametrize("inst, black, solves, completions", [
    (core.generate_random(5, 3, 0.5, 1), 0, 3, 0),
    (core.generate_random(5, 3, 0.5, 0), 1, 3, 0),
    (core.generate_random(6, 3, 0.9, 0), 2, 6, 3),
    (core.generate_random(7, 3, 0.9, 3), 4, 6, 3),
    (core.generate_all_black(6, 5), 6, 6, 3),
], ids=["H0", "H1", "H2", "H4", "all-black"])
def test_a2_builds_g4_to_g6_only_around_two_or_more_black_points(
        monkeypatch, inst, black, solves, completions):
    assert int(np.count_nonzero(inst.masks == 0b111)) == black
    calls = {"solve_pair": 0, "mst_completion": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(approx3, name, counted(name, getattr(approx3, name)))
    approx3.approx_a2(inst)
    assert calls == {"solve_pair": solves, "mst_completion": completions}
