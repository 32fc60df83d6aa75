import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree
from scipy.spatial import Delaunay

from mcsg import core, mst
from union_find import find, union


def brute_mst_cost(xy):
    """Minimum spanning tree cost by enumerating all spanning trees."""
    n = len(xy)
    pairs = list(itertools.combinations(range(n), 2))
    best = None
    for subset in itertools.combinations(pairs, n - 1):
        parent = list(range(n))
        if all(union(parent, a, b) for a, b in subset):
            cost = sum(np.hypot(*(np.array(xy[a]) - np.array(xy[b]))) for a, b in subset)
            best = cost if best is None else min(best, cost)
    return best


def test_empty_and_singleton():
    assert mst.euclidean_mst(np.zeros((0, 2))).shape == (0, 2)
    assert mst.euclidean_mst([(1.0, 2.0)]).shape == (0, 2)


def test_index_pairs_match_triu_indices():
    for n in range(10):
        a, b = mst.index_pairs(n)
        want = np.triu_indices(n, k=1)
        assert np.array_equal(a, want[0]) and np.array_equal(b, want[1]), n
        assert a.dtype == want[0].dtype


def test_collinear_three_points():
    edges = mst.euclidean_mst([(0, 0), (1, 0), (3, 0)])
    assert edges.tolist() == [[0, 1], [1, 2]]
    assert brute_mst_cost([(0, 0), (1, 0), (3, 0)]) == pytest.approx(3.0)


def test_unit_square_tie_break():
    xy = [(0, 0), (1, 0), (0, 1), (1, 1)]
    edges = mst.euclidean_mst(xy)
    assert edges.tolist() == [[0, 1], [0, 2], [1, 3]]
    d = np.array(xy)
    cost = sum(np.hypot(*(d[a] - d[b])) for a, b in edges)
    assert cost == pytest.approx(brute_mst_cost(xy)) == pytest.approx(3.0)


def test_integer_length_tie_break():
    # (0, 1) and (0, 2) both have length sqrt(2993); np.hypot rounds the
    # second one ulp lower, which used to put (0, 2) first
    xy = [(0, 0), (17, 52), (28, 47)]
    assert mst.euclidean_mst(xy).tolist() == [[0, 1], [1, 2]]
    assert mst.subset_mst(np.array(xy, dtype=float), [0, 1, 2]).tolist() == [[1, 2], [0, 1]]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000), st.integers(2, 7))
def test_matches_spanning_tree_enumeration(seed, n):
    rng = np.random.default_rng(seed)
    xy = rng.random((n, 2))
    edges = mst.euclidean_mst(xy)
    cost = float(np.sum(np.hypot(*(xy[edges[:, 0]] - xy[edges[:, 1]]).T)))
    assert cost == pytest.approx(brute_mst_cost(xy))


def clustered(seed, lo, hi, box):
    """lo..hi-1 clusters of 10 to 40 points, each 0.3 wide, in a box x box square."""
    rng = np.random.default_rng(seed)
    nc = rng.integers(lo, hi)
    return np.concatenate([rng.random((rng.integers(10, 41), 2)) * 0.3 + rng.random(2) * box
                           for _ in range(nc)])


def _exactness_inputs():
    for seed in range(200):  # the k-NN tree this path replaced over-cost seeds 7, 61 and 161
        yield clustered(seed, 3, 8, 3)
    grid = np.stack(np.meshgrid(np.arange(30), np.arange(20)), axis=-1).reshape(-1, 2)
    yield grid.astype(float)
    yield grid[np.random.default_rng(1).permutation(len(grid))].astype(float)
    yield np.stack([np.arange(300.0), np.zeros(300)], axis=1)
    yield np.stack([np.arange(300.0), 2.0 * np.arange(300.0)], axis=1)
    for n in range(2, 20):
        yield np.random.default_rng(n).random((n, 2))


def test_boruvka_path_equals_dense(monkeypatch):
    monkeypatch.setattr(mst, "DENSE_LIMIT", 4)
    for xy in _exactness_inputs():
        assert np.array_equal(mst.euclidean_mst(xy), mst._dense_mst(xy)), len(xy)


def test_sparse_path_agrees_with_dense(monkeypatch):
    xy = np.random.default_rng(7).random((300, 2))
    monkeypatch.setattr(mst, "DENSE_LIMIT", 10)
    assert np.array_equal(mst.euclidean_mst(xy), mst._dense_mst(xy))


def test_sparse_path_with_far_cluster(monkeypatch):
    rng = np.random.default_rng(13)  # two far clusters: the search outside a component runs
    xy = np.concatenate([rng.random((150, 2)), rng.random((150, 2)) + 50.0])
    monkeypatch.setattr(mst, "DENSE_LIMIT", 10)
    assert np.array_equal(mst.euclidean_mst(xy), mst._dense_mst(xy))


def delaunay_mst_cost(xy):
    """EMST cost as the MST of the Delaunay graph, which contains every EMST edge."""
    s = Delaunay(xy).simplices
    e = np.unique(np.sort(np.concatenate([s[:, [0, 1]], s[:, [1, 2]], s[:, [0, 2]]]), axis=1), axis=0)
    w = np.hypot(*(xy[e[:, 0]] - xy[e[:, 1]]).T)
    return float(minimum_spanning_tree(coo_matrix((w, (e[:, 0], e[:, 1])), shape=(len(xy),) * 2)).sum())


@pytest.mark.parametrize("seed", [7, 28, 31, 33])
def test_large_emst_cost_matches_delaunay_reference(seed):
    xy = clustered(seed, 80, 140, 30)  # n 2,899-3,198, above DENSE_LIMIT
    assert len(xy) > mst.DENSE_LIMIT
    edges = mst.euclidean_mst(xy)
    assert edges.shape == (len(xy) - 1, 2)
    cost = float(np.sum(np.hypot(*(xy[edges[:, 0]] - xy[edges[:, 1]]).T)))
    assert cost == pytest.approx(delaunay_mst_cost(xy), rel=1e-12)


def forest_components(inst, c, edges):
    """S_c and a component id per point of it under ``edges`` (instance
    indices), labelled in vertex order."""
    members = inst.color_class(c)
    local = np.searchsorted(members, edges)
    graph = coo_matrix((np.ones(len(local)), (local[:, 0], local[:, 1])), shape=(members.size,) * 2)
    return members, connected_components(graph, directed=False)[1].astype(np.int64)


def test_forced_edges_drops_longest_between_multichromatic():
    inst = core.Instance(2, [(0, 0, {1, 2}), (1, 0, {1}), (3, 0, {1, 2})])
    edges = mst.forced_edges(inst, 1)
    assert edges.tolist() == [[0, 1]]
    assert forest_components(inst, 1, edges)[1].tolist() == [0, 0, 1]


def test_forced_edges_keeps_whole_mst_when_monochromatic():
    inst = core.Instance(2, [(0, 0, {1}), (1, 0, {1}), (3, 0, {1}), (0.5, 9, {2})])
    edges = mst.forced_edges(inst, 1)
    assert edges.shape[0] == 2
    assert forest_components(inst, 1, edges)[1].tolist() == [0, 0, 0]


def test_forced_edges_singleton_class():
    inst = core.Instance(2, [(0, 0, {1}), (1, 0, {2})])
    edges = mst.forced_edges(inst, 2)
    assert edges.shape == (0, 2)
    assert forest_components(inst, 2, edges)[1].tolist() == [0]


def test_forced_edges_subset_of_mst_and_component_count():
    for seed in range(30):
        inst = core.generate_random(7, 2, 0.5, seed)
        for c in (1, 2):
            edges = mst.forced_edges(inst, c)
            members, labels = forest_components(inst, c, edges)
            if members.size <= 1:
                continue
            full = {tuple(sorted((int(members[a]), int(members[b]))))
                    for a, b in mst.euclidean_mst(inst.xy[members])}
            kept = {tuple(e) for e in edges.tolist()}
            assert kept <= full
            n_components = int(labels.max()) + 1
            assert n_components == members.size - len(edges)  # a forest
            actives = int(inst.multichromatic()[members].sum())
            if actives:
                assert n_components == actives
                # each component holds exactly one multichromatic point
                for comp in range(n_components):
                    pts = members[labels == comp]
                    assert int(inst.multichromatic()[pts].sum()) == 1


def test_kruskal_groups_early_stop_out_and_cost():
    # the 4-cycle 0-1-2-3 and its chord 1-3, weights 1..5 in item order
    items = [(1.0, 0, 1, 0, 1), (2.0, 1, 2, 1, 2), (3.0, 2, 3, 2, 3), (4.0, 0, 3, 0, 3),
             (5.0, 1, 3, 1, 3)]
    out = []
    assert mst.kruskal(4, items, out=out) == 6.0 and out == [(0, 1), (1, 2), (2, 3)]
    assert mst.kruskal(4, items) == 6.0  # without out, the cost alone
    out = []
    assert mst.kruskal(4, items, [(7, 0), (7, 2)], out) == 4.0 and out == [(0, 1), (2, 3)]
    # two labels make two groups, {0, 2} and {1, 3}
    out = []
    assert mst.kruskal(4, items, [(0, 0), (1, 1), (0, 2), (1, 3)], out) == 1.0 and out == [(0, 1)]
    # items are read only until one set remains, and not at all when the
    # groups already make one set or there is at most one vertex
    it = iter(items)
    assert mst.kruskal(4, it, [(0, 2), (0, 3)]) == 3.0
    assert next(it) == items[2]
    for n, groups in ((4, [(0, v) for v in range(4)]), (1, ()), (0, ())):
        it = iter(items)
        assert mst.kruskal(n, it, groups) == 0.0
        assert next(it) == items[0]
    # (a, b) is what out records, (x, y) the sets an item joins
    out = []
    assert mst.kruskal(2, [(2.5, 10, 11, 0, 1)], out=out) == 2.5 and out == [(10, 11)]


def test_kruskal_equal_lengths_on_a_lattice():
    # a 4 x 4 unit lattice: every EMST edge has length 1, and the first
    # (length, a, b) pairs that join two sets win each tie
    xy = np.array([(x, y) for y in range(4) for x in range(4)], dtype=float)
    a, b = mst.index_pairs(16)
    length = np.hypot(*(xy[a] - xy[b]).T)
    order = np.lexsort((b, a, length))
    want = [(0, 1), (0, 4), (1, 2), (1, 5), (2, 3), (2, 6), (3, 7), (4, 8), (5, 9), (6, 10),
            (7, 11), (8, 12), (9, 13), (10, 14), (11, 15)]
    items = [(float(length[i]), int(a[i]), int(b[i]), int(a[i]), int(b[i])) for i in order]
    out = []
    assert mst.kruskal(16, items, out=out) == 15.0
    assert out == want
    assert core.as_edges(out).tolist() == mst.euclidean_mst(xy).tolist()
    # with the left column pre-united, its three links drop out and the
    # other twelve edges are kept in the same order
    out = []
    assert mst.kruskal(16, items, [(0, v) for v in (0, 4, 8, 12)], out) == 12.0
    assert out == [e for e in want if e not in {(0, 4), (4, 8), (8, 12)}]


def test_component_labels():
    assert mst.component_labels(0, []) == []
    assert mst.component_labels(3, []) == [0, 1, 2]
    # numbered in order of least vertex, whatever order the pairs come in
    assert mst.component_labels(6, [(5, 3), (4, 1), (3, 0)]) == [0, 1, 2, 0, 1, 0]
    assert mst.component_labels(4, [(3, 2), (2, 1), (1, 0), (0, 3)]) == [0, 0, 0, 0]
    rng = np.random.default_rng(0)
    for n in range(1, 40):
        pairs = rng.integers(0, n, size=(n // 2, 2)).tolist()
        parent = list(range(n))
        for a, b in pairs:
            union(parent, a, b)
        roots = {}
        want = [roots.setdefault(find(parent, v), len(roots)) for v in range(n)]
        assert mst.component_labels(n, pairs) == want, n


def veto_forest(inst, c):
    """The forced-edge rule as a veto: add MST(S_c) edges in ascending
    (length, a, b) order, skipping an edge that joins two components each
    holding a multichromatic point.  Returns (edges, component labels in
    vertex order)."""
    members = inst.color_class(c)
    local = mst.euclidean_mst(inst.xy[members])
    d = inst.xy[members[local[:, 0]]] - inst.xy[members[local[:, 1]]]
    order = np.lexsort((local[:, 1], local[:, 0], np.hypot(d[:, 0], d[:, 1])))
    active = inst.multichromatic()[members].tolist()
    parent = list(range(members.size))
    kept = []
    for i in order:
        ra, rb = find(parent, int(local[i, 0])), find(parent, int(local[i, 1]))
        if ra == rb or (active[ra] and active[rb]):
            continue
        union(parent, ra, rb)
        active[ra] = active[ra] or active[rb]
        kept.append(i)
    roots = {}
    labels = [roots.setdefault(find(parent, v), len(roots)) for v in range(members.size)]
    return core.as_edges(members[local[sorted(kept)]]), labels


def grid_instance(n, k, fraction, seed, side):
    """n distinct integer-grid points: many equal-length EMST edges."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(side * side, size=n, replace=False)
    xy = np.stack([cells % side, cells // side], axis=1)
    masks = 1 << rng.integers(0, k, size=n)
    multi = rng.random(n) < fraction
    masks[multi] |= 1 << ((np.log2(masks[multi]).astype(int) + 1) % k)
    masks[:k] |= 1 << np.arange(k)  # every color present
    return core.Instance.from_arrays(k, xy, masks)


def _forced_cases():
    for seed in range(12):
        n = 6 + 3 * seed
        for fraction in (0.0, 1.0 / n, 0.5):  # 0, 1 and many multichromatic points
            yield core.generate_random(n, 3, fraction, seed)
            yield core.generate_collinear(n, 3, fraction, seed)
        yield grid_instance(n, 2, 0.3, seed, 7)


@pytest.mark.parametrize("sparse", [False, True])
def test_forced_edges_match_veto_rule(sparse, monkeypatch):
    if sparse:
        monkeypatch.setattr(mst, "DENSE_LIMIT", 4)
    classes = 0
    active_counts = set()
    for inst in _forced_cases():
        for c in range(1, inst.k + 1):
            got = mst.forced_edges(inst, c)
            edges, labels = veto_forest(inst, c)
            assert np.array_equal(got, edges)
            members, components = forest_components(inst, c, got)
            assert components.tolist() == labels
            classes += 1
            active_counts.add(min(2, int(inst.multichromatic()[members].sum())))
    assert classes >= 100 and active_counts == {0, 1, 2}


# sha256 of the forced edges' bytes and their component labels' (vertex
# order, int64) on the three color classes of the r = 2 gadget, recorded
# with the veto rule
SMALL_GADGET_FORCED = {
    1: "97eced63cbc365bc04353835a12517dcff2b93cbec375a45408cdbd49783a524",
    2: "605c313fc01320bf0bf63688a470c6d3a90cdf16c3919403f3bd411e3c4f7d61",
    3: "537675c0a347c624663ee91802a9f5997a4a920d7cc75f174a8c510d77d0d1a0",
}


def test_small_gadget_forced_edges_pinned(small_gadget):
    for c, digest in SMALL_GADGET_FORCED.items():
        edges = mst.forced_edges(small_gadget.instance, c)
        data = edges.tobytes() + forest_components(small_gadget.instance, c, edges)[1].tobytes()
        assert hashlib.sha256(data).hexdigest() == digest, c


def kruskal_over_emst(inst, members, merged):
    """The completion by its first route: ``kruskal`` over the plain EMST of
    ``members`` (``subset_mst``) with the blocks of ``merged`` pre-united."""
    members = np.asarray(members, dtype=np.int64)
    pos = np.full(inst.n, -1, dtype=np.int64)
    pos[members] = np.arange(members.size)
    groups = [(g, p) for g, block in enumerate(merged)
              for p in pos[np.fromiter(block, np.int64)].tolist() if p >= 0]
    tree = mst.subset_mst(inst.xy, members)
    kept = []
    mst.kruskal(members.size, ((0.0, a, b, a, b) for a, b in pos[tree].tolist()), groups, kept)
    return core.as_edges(members[np.array(kept, dtype=np.int64).reshape(-1, 2)])


def _labelled_point_sets():
    rng = np.random.default_rng(5)
    for n in (2, 3, 9, 60, 300):
        yield rng.random((n, 2))
    yield np.stack([np.arange(200.0), np.zeros(200)], axis=1)  # collinear
    yield np.stack([np.arange(70.0), 3.0 * np.arange(70.0)], axis=1)
    for n, side in ((40, 8), (250, 20)):  # integer lattice: many tied lengths
        cells = rng.choice(side * side, size=n, replace=False)
        yield np.stack([cells % side, cells // side], axis=1).astype(float)
    yield clustered(3, 80, 140, 30)


@pytest.mark.parametrize("dense_limit", [None, 4])
def test_forced_edges_match_kruskal_over_emst(dense_limit, monkeypatch):
    if dense_limit is not None:
        monkeypatch.setattr(mst, "DENSE_LIMIT", dense_limit)
    rng = np.random.default_rng(11)
    sizes = set()
    for xy in _labelled_point_sets():
        n = len(xy)
        for multi in (0, 1, max(1, n // 100), n // 5, n):  # 0, one point, 1 %, 20 %, all
            masks = np.ones(n, dtype=np.uint32)
            masks[rng.choice(n, size=multi, replace=False)] = 3
            inst = core.Instance.from_arrays(2, xy, masks)
            for c in (1, 2):
                members = inst.color_class(c)
                merged = [members[inst.multichromatic()[members]]]
                got = mst.forced_edges(inst, c)
                assert np.array_equal(got, kruskal_over_emst(inst, members, merged)), (n, multi, c)
                if members.size:  # one component per multichromatic point, or one
                    assert members.size - len(got) == max(1, len(merged[0])), (n, multi, c)
            sizes.add(n > mst.DENSE_LIMIT)
    assert sizes == {False, True}  # both sides of DENSE_LIMIT


def test_mst_completion_with_and_without_tree_on_a2_blocks():
    cases = [core.generate_random(3 + s % 10, 3, round(0.3 + 0.1 * (s % 7), 1), s) for s in range(60)]
    cases += [core.generate_random(n, 3, 0.05, n) for n in (150, 400)]
    cases += [grid_instance(n, 3, 0.8, n, 6) for n in (8, 20, 30)]
    sizes = set()
    for inst in cases:
        black = np.flatnonzero(inst.masks == 0b111)
        merged = (frozenset(black.tolist()),) if black.size else ()
        for mono in (1, 2, 3):
            members = inst.color_class(mono)
            got = mst.mst_completion(inst, members, merged)
            tree = mst.class_tree(inst, mono)
            assert np.array_equal(got, mst.mst_completion(inst, members, merged, tree))
            assert np.array_equal(got, kruskal_over_emst(inst, members, merged))
            sizes.add(members.size > mst.DENSE_LIMIT)
    assert sizes == {False, True}


def test_mst_completion_merges_overlapping_blocks():
    # blocks {0, 1}, {2, 3} and {1, 3} make one component of 0..3 on a line
    inst = core.Instance(1, [(float(x), 0.0, {1}) for x in range(6)])
    members = inst.color_class(1)
    for merged in ([{0, 1}, {2, 3}, {1, 3}], [{1, 3}, {0, 1}, {2, 3}]):
        assert mst.mst_completion(inst, members, merged).tolist() == [[3, 4], [4, 5]]
        tree = mst.subset_mst(inst.xy, members)
        assert mst.mst_completion(inst, members, merged, tree).tolist() == [[3, 4], [4, 5]]


@pytest.mark.parametrize("dense_limit", [None, 200])
def test_forced_edges_when_every_point_is_multichromatic(dense_limit, monkeypatch):
    # one label covers the whole class: Borůvka (100 > DENSE_LIMIT) runs no
    # round and the dense Kruskal reads no pair; both return no edge
    if dense_limit is not None:
        monkeypatch.setattr(mst, "DENSE_LIMIT", dense_limit)
    xy = np.random.default_rng(2).random((100, 2))
    inst = core.Instance.from_arrays(2, xy, np.full(100, 3))
    for c in (1, 2):
        edges = mst.forced_edges(inst, c)
        assert edges.shape == (0, 2) and edges.dtype == np.int64
    assert mst.euclidean_mst(xy, np.full(100, 7)).shape == (0, 2)


def test_euclidean_mst_labels_are_any_integers(monkeypatch):
    rng = np.random.default_rng(4)
    xy = rng.random((150, 2))
    labels = rng.integers(0, 40, size=150)
    for limit in (80, 4):
        monkeypatch.setattr(mst, "DENSE_LIMIT", limit)
        want = mst.euclidean_mst(xy, labels)
        assert np.array_equal(mst.euclidean_mst(xy, 1000 - 3 * labels), want)
        assert np.array_equal(mst._dense_mst(xy, labels), want)
        assert want.shape == (np.unique(labels).size - 1, 2)
    assert np.array_equal(mst.euclidean_mst(xy, np.arange(150)), mst.euclidean_mst(xy))
