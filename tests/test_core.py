import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcsg import core, mst


def inst2(points):
    return core.Instance(2, points)


def test_load_single_point():
    inst = core.load_instance('{"k":2,"points":[{"x":0,"y":0,"colors":[1,2]}]}')
    assert inst.n == 1 and inst.k == 2
    assert core.colors_of(int(inst.masks[0])) == frozenset({1, 2})


def test_load_color_out_of_range():
    with pytest.raises(core.FormatError, match="out of range"):
        core.load_instance('{"k":2,"points":[{"x":0,"y":0,"colors":[3]}]}')


def test_load_rejects_bad_documents():
    with pytest.raises(core.FormatError):
        core.load_instance("not json at all")
    with pytest.raises(core.FormatError):
        core.load_instance('{"k":0,"points":[{"x":0,"y":0,"colors":[1]}]}')
    with pytest.raises(core.FormatError):
        core.load_instance('{"k":1,"points":[{"x":0,"y":0,"colors":[]}]}')
    with pytest.raises(core.FormatError, match="coincident"):
        core.load_instance(
            '{"k":1,"points":[{"x":1,"y":2,"colors":[1]},{"x":1,"y":2,"colors":[1]}]}'
        )
    # k above MAX_COLORS: color 33 does not fit a uint32 mask
    for k in (17, 33, 64):
        with pytest.raises(core.FormatError, match="k must be"):
            core.load_instance(f'{{"k":{k},"points":[{{"x":0,"y":0,"colors":[{k}]}}]}}')
    for k in ("true", "2.0", '"2"'):
        with pytest.raises(core.FormatError, match="k must be"):
            core.load_instance(f'{{"k":{k},"points":[{{"x":0,"y":0,"colors":[1]}}]}}')
    # colors must be JSON integers: no booleans, floats, strings or nulls
    for color in ("true", "false", "2.7", "2.0", '"1"', "null", "[1]"):
        with pytest.raises(core.FormatError, match="color must be an integer"):
            core.load_instance(f'{{"k":3,"points":[{{"x":0,"y":0,"colors":[1,{color}]}}]}}')
    for colors in ('"12"', "1", "null"):
        with pytest.raises(core.FormatError):
            core.load_instance(f'{{"k":2,"points":[{{"x":0,"y":0,"colors":{colors}}}]}}')
    # coordinates must be JSON numbers: no booleans, numeric strings or nulls
    for x in ("true", "false", '"2"', '"1e3"', '"1.5"', "null", "[1]", "{}"):
        with pytest.raises(core.FormatError, match="must be JSON numbers"):
            core.load_instance('{"k":1,"points":[{"x":0,"y":1,"colors":[1]},'
                               '{"x":%s,"y":2,"colors":[1]}]}' % x)
        with pytest.raises(core.FormatError, match="must be JSON numbers"):
            core.load_instance(f'{{"k":1,"points":[{{"x":0,"y":{x},"colors":[1]}}]}}')
    with pytest.raises(core.FormatError, match="out of range"):
        core.load_instance('{"k":1,"points":[{"x":1%s,"y":0,"colors":[1]}]}' % ("0" * 400))
    for doc in ('{"k":1,"points":5}', '{"k":1,"points":{"x":0}}', '{"k":1,"points":[[0,0,[1]]]}',
                '{"k":1,"points":[{"x":0,"colors":[1]}]}', '{"k":1,"points":[]}',
                '{"k":1,"points":[{"x":"a","y":0,"colors":[1]}]}'):
        with pytest.raises(core.FormatError):
            core.load_instance(doc)


def test_tuple_constructor_checks_colors_like_load_instance():
    # int() would read 1.5, 2.0 and True as colors instead of refusing them
    for colors in ({1.5}, {True, 2}, {2.0}, {np.bool_(True)}, {"1"}, {None}):
        with pytest.raises(core.FormatError, match="color must be an integer"):
            core.Instance(2, [(0, 0, colors), (1, 0, {1})])
    for colors in (1, None):
        with pytest.raises(core.FormatError, match="color set must be a collection"):
            core.Instance(2, [(0, 0, colors)])
        doc = {"k": 2, "points": [{"x": 0, "y": 0, "colors": colors}]}
        with pytest.raises(core.FormatError, match="color set must be a collection"):
            core.load_instance(json.dumps(doc))
    inst = core.Instance(3, [(0, 0, [np.int64(1), np.uint8(3)]), (1, 0, (2,))])
    assert inst.masks.tolist() == [5, 2]


def test_load_keeps_order_and_duplicate_colors():
    inst = core.load_instance(
        '{"k":3,"points":[{"x":2.5,"y":-1,"colors":[3,1,3]},{"x":1.5,"y":0,"colors":[2]}]}'
    )
    assert inst.xy.tolist() == [[2.5, -1.0], [1.5, 0.0]]
    assert inst.masks.tolist() == [0b101, 0b010]


# sha256 of instance_to_json, recorded before the encoder was vectorised
JSON_DIGESTS = {
    ("random", 1, 1, 0.0, 0): "27285f4cb8cbb992f8436ec105562d6ab7d309c1667ab766fa21fdba19a9f661",
    ("random", 30, 3, 0.5, 1): "9183a28d2b382bc040a0c961d4841ef9fdd977d9bb6986d7afd8d1a832d03fcf",
    ("random", 200, 4, 0.3, 2): "e0c84341680c3f2e0586c4761123756c1354e7db2ebbe928684cf0a7a4f91a63",
    ("random", 4600, 2, 0.01, 3): "256254e9642ba0aaab07d14054424d6b5e520487f1ce179d38700d296a15205c",
    ("collinear", 25, 2, 0.4, 4): "b4598e3eff00cafa1ae4cea4b5f0e2d51f37b9c81af28e6fd61b39f269a6b4ec",
    ("collinear", 70, 3, 1.0, 5): "73f45acb77add209f7c4e9ce15987d3a576f24944756696944cb03eb4ffa43f4",
}


def test_instance_json_bytes_pinned():
    gens = {"random": core.generate_random, "collinear": core.generate_collinear}
    for (family, *args), digest in JSON_DIGESTS.items():
        text = core.instance_to_json(gens[family](*args))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (family, args)
        assert core.instance_to_json(core.load_instance(text)) == text
    black = core.instance_to_json(core.generate_all_black(12, 6))
    assert hashlib.sha256(black.encode()).hexdigest() == (
        "0eda12328d70e1f11c8b554bda73d526617c3af18c97fc4842a2af129b4ec62c"
    )


def test_gen_cli_writes_pinned_bytes(tmp_path):
    # `mcsg gen` end to end: argument parsing, the generator and save_instance
    env = dict(os.environ, PYTHONPATH=str(Path(core.__file__).parents[1]))
    for (family, n, k, fraction, seed), digest in JSON_DIGESTS.items():
        out = tmp_path / f"{family}-{n}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "mcsg.cli", "gen", family, "--n", str(n), "--k", str(k),
             "--fraction", str(fraction), "--seed", str(seed), "--output", str(out)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (family, n)


# sha256 of xy.tobytes() + masks.tobytes() over the grid of
# test_generators_pinned, recorded before the color draws were batched
GENERATOR_DIGESTS = {
    "random": "8f99e93a98ddcf1d2b2234a95e6d9a4cab0216ce014c87eeab783b13ba20d704",
    "collinear": "cdabeb8a97abb9fd46d51a7b9899f5bfce278e3c6c5a1bd5a364ff9bbad8ac04",
}


def test_generators_pinned():
    gens = {"random": core.generate_random, "collinear": core.generate_collinear}
    for family, digest in GENERATOR_DIGESTS.items():
        h = hashlib.sha256()
        for n, k, fraction, seed in itertools.product(
                (1, 2, 3, 7, 30, 200, 4600), (1, 2, 3, 16), (0.0, 0.01, 0.5, 1.0), (0, 1)):
            if k == 1 and math.floor(fraction * n):
                with pytest.raises(core.FormatError) as err:
                    gens[family](n, k, fraction, seed)
                assert str(err.value) == "multichromatic points require k >= 2"
                continue
            inst = gens[family](n, k, fraction, seed)
            h.update(inst.xy.tobytes() + inst.masks.tobytes())
        assert h.hexdigest() == digest, family


def _reference_colors(rng, k, multi, anchor):
    if multi:
        size = int(rng.integers(2, k + 1))
        pool = [c for c in range(1, k + 1) if c != anchor]
        take = size - 1 if anchor is not None else size
        chosen = list(rng.choice(pool, size=take, replace=False)) if take else []
        if anchor is not None:
            chosen.append(anchor)
        return chosen
    if anchor is not None:
        return [anchor]
    return [int(rng.integers(1, k + 1))]


def _reference_masks(rng, n, k, fraction):
    """The generators' colors as first written: one call and scalar draws per
    point, in index order, and every color set validated by color_masks."""
    perm = rng.permutation(n)
    is_multi = np.zeros(n, dtype=bool)
    is_multi[perm[:math.floor(fraction * n)]] = True
    anchor_of = {}
    if n >= k:
        order = rng.permutation(n)
        for c in range(1, k + 1):
            anchor_of[int(order[c - 1])] = c
    sets = [_reference_colors(rng, k, bool(is_multi[i]), anchor_of.get(i)) for i in range(n)]
    return np.array(core.color_masks(sets, k), dtype=np.uint32)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(1, 16), st.floats(0, 1), st.integers(0, 2**32))
def test_assign_colors_matches_per_point_reference(n, k, fraction, seed):
    if k == 1:
        fraction = 0.0
    got = core._assign_colors(np.random.default_rng(seed), n, k, fraction)
    want = _reference_masks(np.random.default_rng(seed), n, k, fraction)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def _json_reference(inst):
    """The per-point dict document that instance_to_json's bytes must match."""
    return json.dumps({"k": inst.k, "points": [
        {"x": x, "y": y, "colors": sorted(core.colors_of(m))}
        for (x, y), m in zip(inst.xy.tolist(), inst.masks.tolist())]})


def test_instance_json_matches_json_dumps():
    coords = (-0.0, 5e-324, 1e300, 0.1, 1e16, -2.5)
    color_sets = ({16}, {1, 16}, set(range(1, 17)), {3, 5, 7}, {2}, {15, 16})
    points = [(x, y, color_sets[i % len(color_sets)])
              for i, (x, y) in enumerate(itertools.product(coords, repeat=2))]
    for inst in (core.Instance(16, points), core.Instance(16, points[:1]),
                 core.generate_random(300, 16, 0.5, 1)):
        text = core.instance_to_json(inst)
        assert text == _json_reference(inst)
        again = core.load_instance(text)
        assert again.k == inst.k and again.masks.tobytes() == inst.masks.tobytes()
        assert again.xy.tobytes() == inst.xy.tobytes()  # keeps the sign of -0.0
        assert core.instance_to_json(again) == text


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 20), st.integers(1, 4))
def test_round_trip(seed, n, k):
    inst = core.generate_random(n, k, 0.5 if k >= 2 else 0.0, seed)
    again = core.load_instance(core.instance_to_json(inst))
    assert again == inst


def test_is_csg_examples():
    single = core.Instance(1, [(0, 0, {1})])
    assert core.is_csg(single, [])
    line = core.Instance(2, [(0, 0, {1}), (1, 0, {2}), (2, 0, {1})])
    assert core.is_csg(line, [(0, 2)])
    # both edges have an empty shared color, so color 1 stays disconnected
    assert not core.is_csg(line, [(0, 1), (1, 2)])


def test_is_csg_complete_candidate_graph_feasible():
    inst = core.generate_random(8, 3, 0.4, 11)
    pairs = [
        (a, b)
        for a in range(8)
        for b in range(a + 1, 8)
        if inst.masks[a] & inst.masks[b]
    ]
    assert core.is_csg(inst, pairs)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_is_csg_monotone(seed):
    inst = core.generate_random(6, 2, 0.5, seed)
    rng = np.random.default_rng(seed)
    pairs = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    chosen = [p for p in pairs if rng.random() < 0.5]
    if core.is_csg(inst, chosen):
        extra = chosen + [pairs[int(rng.integers(len(pairs)))]]
        assert core.is_csg(inst, extra)


def _scipy_components(n, edges):
    """Reference labels: per vertex, the least vertex of its component, from
    scipy's ``connected_components``."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    g = coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n))
    _, lab = connected_components(g, directed=False)
    least = np.full(n, n)
    np.minimum.at(least, lab, np.arange(n))
    return least[lab]


def _scipy_is_csg(inst, edges):
    """Reference ``is_csg``: every class of two or more points is one
    ``_scipy_components`` component under the edges that share its color."""
    e = core.as_edges(edges, inst.n)
    for c in range(1, inst.k + 1):
        members = inst.color_class(c)
        if members.size <= 1:
            continue
        bit = np.uint32(1 << (c - 1))
        ec = e[(inst.masks[e[:, 0]] & inst.masks[e[:, 1]] & bit) != 0]
        pos = np.full(inst.n, -1, dtype=np.int64)
        pos[members] = np.arange(members.size)
        if _scipy_components(members.size, pos[ec]).any():
            return False
    return True


def _csg_cases():
    """name -> (instance, edges): one-color graphs of several shapes, and
    instances whose classes are singletons, empty or share points."""
    rng = np.random.default_rng(17)

    def tree(n):  # vertex i hangs from a random earlier vertex
        return [(int(rng.integers(i)), i) for i in range(1, n)]

    def relabel(n, edges):
        p = rng.permutation(n)
        return [(int(p[a]), int(p[b])) for a, b in edges]

    def one_color(n, edges):
        xy = np.stack([np.arange(n), np.zeros(n)], axis=1)
        return core.Instance.from_arrays(1, xy, np.ones(n)), edges

    t = tree(40)
    mixed = core.generate_random(30, 3, 0.4, 5)
    # a tree per class, plus pairs that share no color and so count for none
    mixed_edges = [tuple(e) for c in (1, 2, 3)
                   for e in mst.subset_mst(mixed.xy, mixed.color_class(c)).tolist()]
    mixed_edges += [(a, b) for a in range(30) for b in range(a + 1, 30)
                    if not mixed.masks[a] & mixed.masks[b] and rng.random() < 0.1]
    classes = core.Instance(4, [(0, 0, {1, 2}), (1, 0, {1}), (2, 0, {1, 4}), (3, 0, {1, 4}),
                                (4, 0, {1})])
    return {
        "forest": one_color(30, relabel(30, [e for e in tree(30) if rng.random() < 0.8])),
        "tree": one_color(40, relabel(40, t)),
        "path": one_color(40, relabel(40, [(i, i + 1) for i in range(39)])),
        "star": one_color(20, [(7, i) for i in range(20) if i != 7]),
        "cycle": one_color(25, relabel(25, [(i, (i + 1) % 25) for i in range(25)])),
        "duplicates": one_color(40, relabel(40, t + [(b, a) for a, b in t[::3]])),
        "union": one_color(30, tree(15) + [(a + 15, b + 15) for a, b in tree(15)]),
        "no-edges": one_color(5, []),
        "single-point": one_color(1, []),
        "mixed-colors": (mixed, mixed_edges),
        "singleton-and-empty-classes": (classes, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    }


_CSG_CASES = _csg_cases()


@pytest.mark.parametrize("deleted", range(4))
@pytest.mark.parametrize("name", sorted(_CSG_CASES))
def test_is_csg_matches_scipy_reference(name, deleted):
    inst, edges = _CSG_CASES[name]
    e = np.array(edges, dtype=np.int64).reshape(-1, 2)  # as built: repeats and b < a stay
    rng = np.random.default_rng(deleted)
    e = np.delete(e, rng.choice(len(e), min(deleted, len(e)), replace=False), axis=0)
    assert core.is_csg(inst, e) == _scipy_is_csg(inst, e)
    if inst.k == 1:
        lab, _ = core._hook_labels(inst.n, e[:, 0], e[:, 1])
        assert lab.tolist() == _scipy_components(inst.n, e).tolist()


@pytest.mark.parametrize("shape", ["path", "tree"])
def test_hook_rounds_on_relabelled_graphs(shape):
    # Relabelled at random, 10^5-point paths took 10-11 hook rounds and
    # random trees 6 (13-14 and 6-7 at 10^6); a linear number would mean the
    # hooking stalls.
    n = 100_000
    rng = np.random.default_rng(3)
    p = rng.permutation(n)
    a, b = (p[:-1], p[1:]) if shape == "path" else (p[1:], p[rng.integers(np.arange(1, n))])
    lab, rounds = core._hook_labels(n, a, b)
    assert not lab.any()
    assert rounds <= 17  # ceil(log2(n))


def test_solution_cost():
    inst = core.Instance(1, [(0, 0, {1}), (3, 4, {1}), (1, 0, {1}), (2, 0, {1})])
    assert core.solution_cost(inst, []) == 0.0
    assert core.solution_cost(inst, [(0, 1)]) == pytest.approx(5.0)
    path = core.Instance(1, [(0, 0, {1}), (1, 0, {1}), (2, 0, {1})])
    assert core.solution_cost(path, [(0, 1), (1, 2)]) == pytest.approx(2.0)


def test_solution_cost_order_invariant():
    inst = core.generate_random(7, 2, 0.5, 5)
    e = [(0, 1), (2, 3), (4, 5)]
    assert core.solution_cost(inst, e) == core.solution_cost(inst, list(reversed(e)))
    a = core.solution_cost(inst, [(0, 1)]) + core.solution_cost(inst, [(2, 3)])
    assert core.solution_cost(inst, [(0, 1), (2, 3)]) == pytest.approx(a)


def test_generate_random_contract():
    mono = core.generate_random(5, 3, 0.0, 1)
    assert all(len(core.colors_of(int(m))) == 1 for m in mono.masks)
    multi = core.generate_random(7, 2, 1.0, 2)
    assert all(core.colors_of(int(m)) == {1, 2} for m in multi.masks)
    assert core.generate_random(9, 4, 0.5, 3) == core.generate_random(9, 4, 0.5, 3)
    # every color class populated when n >= k
    inst = core.generate_random(6, 6, 0.0, 4)
    for c in range(1, 7):
        assert inst.color_class(c).size >= 1


def test_generate_random_validation():
    with pytest.raises(core.FormatError, match=r"^invalid parameters n=0, k=2$"):
        core.generate_random(0, 2, 0.5, 1)
    with pytest.raises(core.FormatError,
                       match=r"^multichromatic fraction must be in \[0, 1\], got 1.5$"):
        core.generate_random(5, 2, 1.5, 1)
    with pytest.raises(core.FormatError, match=r"^multichromatic points require k >= 2$"):
        core.generate_random(5, 1, 0.5, 1)


def test_solution_json_round_trip():
    inst = core.generate_random(5, 2, 0.5, 8)
    sol = core.make_solution(inst, [(0, 1), (2, 3)], "test", ratio_bound=2.0)
    doc = json.loads(core.solution_to_json(sol))
    assert set(doc) == {"algorithm", "cost", "edges", "ratio_bound"}
    again = core.solution_from_json(core.solution_to_json(sol))
    assert again.algorithm == "test"
    assert again.cost == sol.cost
    assert np.array_equal(again.edges, sol.edges)


def test_json_readers_reject_undecodable_documents():
    for read, what in ((core.load_instance, "instance"), (core.solution_from_json, "solution")):
        for doc in (b"\xff{}", b"{", "{", io.BytesIO(b'{"k": \xe9}'),
                    io.TextIOWrapper(io.BytesIO(b'{"k": \xe9}'), encoding="utf-8")):
            with pytest.raises(core.FormatError, match=f"malformed {what} document"):
                read(doc)


def test_solution_from_json_rejects_non_integer_endpoints_and_odd_costs():
    good = {"algorithm": "x", "cost": 1, "edges": [[0, 1], [1, 2]], "ratio_bound": None}
    assert core.solution_from_json(json.dumps(good)).edge_set() == {(0, 1), (1, 2)}
    assert core.solution_from_json(json.dumps(dict(good, edges=[]))).edges.shape == (0, 2)
    for edges in ([[0.7, 1], [1, 2]], [[True, 2]], [["0", 1]], [[0, None]], [1, 2],
                  [[0, 1, 2, 3]], [[]], [[0, 1, 2]], [[0, 1], []], {"0": [0, 1]}, "01"):
        with pytest.raises(core.FormatError):
            core.solution_from_json(json.dumps(dict(good, edges=edges)))
    for cost in (True, "2", None, [1.0], 10**400):
        with pytest.raises(core.FormatError):
            core.solution_from_json(json.dumps(dict(good, cost=cost)))
    for algorithm in (5, None, True, ["x"]):
        with pytest.raises(core.FormatError):
            core.solution_from_json(json.dumps(dict(good, algorithm=algorithm)))
    for bound in ("2", True, "abc", [1.0], 10**400):
        with pytest.raises(core.FormatError):
            core.solution_from_json(json.dumps(dict(good, ratio_bound=bound)))
    assert core.solution_from_json(json.dumps(dict(good, ratio_bound=2))).ratio_bound == 2.0


def test_save_instance_to_stream():
    inst = core.generate_random(4, 2, 0.5, 9)
    buf = io.StringIO()
    core.save_instance(inst, buf)
    assert core.load_instance(buf.getvalue()) == inst


def test_set_partitions_are_restricted_growth_strings_in_order():
    for n, bell in enumerate((1, 1, 2, 5, 15, 52, 203, 877)):
        codes = list(core.set_partitions(n))
        assert len(codes) == bell
        assert codes == sorted(set(codes))
        for code in codes:
            assert all(c <= max(code[:i], default=-1) + 1 for i, c in enumerate(code))
    assert list(core.set_partitions(3)) == [
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)
    ]


def test_coincident_points_found_in_any_order():
    with pytest.raises(core.FormatError, match="coincident"):
        core.Instance(1, [(1, 2, {1}), (1, 3, {1}), (0, 0, {1}), (1, 2, {1})])
    # equal x or equal y alone is not a coincidence
    assert core.Instance(1, [(1, 2, {1}), (1, 3, {1}), (2, 2, {1})]).n == 3
    # -0.0 and 0.0 are one coordinate
    with pytest.raises(core.FormatError, match="coincident"):
        core.Instance(1, [(0.0, 1.0, {1}), (5, 5, {1}), (-0.0, 1.0, {1})])
    with pytest.raises(core.FormatError, match="coincident"):
        core.Instance(1, [(1.0, -0.0, {1}), (5, 5, {1}), (1.0, 0.0, {1})])
    # a Fortran-ordered input, whose rows are not contiguous
    xy = np.asfortranarray([[3.0, 1.0], [1.0, 3.0], [2.0, 2.0], [1.0, 3.0]])
    with pytest.raises(core.FormatError, match="coincident"):
        core.Instance.from_arrays(1, xy, np.ones(4, dtype=np.uint32))
    inst = core.Instance.from_arrays(1, xy[:3], np.ones(3, dtype=np.uint32))
    assert inst.xy.tolist() == [[3.0, 1.0], [1.0, 3.0], [2.0, 2.0]]


def test_as_edges_orients_sorts_and_dedupes():
    got = core.as_edges([(3, 1), (1, 3), (0, 2), (2, 0), (5, 4), (0, 1)])
    assert got.dtype == np.int64
    assert got.tolist() == [[0, 1], [0, 2], [1, 3], [4, 5]]
    assert core.as_edges(np.array([[2, 1], [1, 2]], dtype=np.int32)).tolist() == [[1, 2]]


def test_as_edges_empty():
    for empty in ((), [], set(), iter(()), [[]], np.zeros((0, 2), dtype=np.int64), np.zeros(0)):
        got = core.as_edges(empty, 5)
        assert got.shape == (0, 2) and got.dtype == np.int64 and not got.flags.writeable


def test_as_edges_rejects_self_loops_and_out_of_range():
    with pytest.raises(core.FormatError, match="self-loop"):
        core.as_edges([(0, 1), (2, 2)])
    with pytest.raises(core.FormatError, match="out of range"):
        core.as_edges([(0, 5)], 5)
    with pytest.raises(core.FormatError, match="out of range"):
        core.as_edges([(-1, 2)], 5)
    assert core.as_edges([(0, 4)], 5).tolist() == [[0, 4]]


def test_as_edges_large_indices():
    big = 10**6
    got = core.as_edges([(big, 0), (big - 1, big), (0, big), (3, big - 1)], big + 1)
    assert got.tolist() == [[0, big], [3, big - 1], [big - 1, big]]
    rng = np.random.default_rng(0)
    raw = rng.integers(0, big + 1, size=(500, 2))
    raw = raw[raw[:, 0] != raw[:, 1]]
    want = np.unique(np.sort(raw, axis=1), axis=0)
    assert np.array_equal(core.as_edges(raw, big + 1), want)
