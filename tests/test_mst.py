import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcsg import core, mst


def brute_mst_cost(xy):
    """Minimum spanning tree cost by enumerating all spanning trees."""
    n = len(xy)
    pairs = list(itertools.combinations(range(n), 2))
    best = None
    for subset in itertools.combinations(pairs, n - 1):
        uf = mst.UnionFind(n)
        if all(uf.union(a, b) for a, b in subset):
            cost = sum(np.hypot(*(np.array(xy[a]) - np.array(xy[b]))) for a, b in subset)
            best = cost if best is None else min(best, cost)
    return best


def test_empty_and_singleton():
    assert mst.euclidean_mst(np.zeros((0, 2))).shape == (0, 2)
    assert mst.euclidean_mst([(1.0, 2.0)]).shape == (0, 2)


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


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000), st.integers(2, 7))
def test_matches_spanning_tree_enumeration(seed, n):
    rng = np.random.default_rng(seed)
    xy = rng.random((n, 2))
    edges = mst.euclidean_mst(xy)
    cost = float(np.sum(np.hypot(*(xy[edges[:, 0]] - xy[edges[:, 1]]).T)))
    assert cost == pytest.approx(brute_mst_cost(xy))


def test_sparse_path_agrees_with_dense():
    rng = np.random.default_rng(7)
    xy = rng.random((300, 2))
    dense = mst.euclidean_mst(xy)
    old = mst.DENSE_LIMIT
    mst.DENSE_LIMIT = 10
    try:
        sparse = mst.euclidean_mst(xy)
    finally:
        mst.DENSE_LIMIT = old
    dcost = float(np.sum(np.hypot(*(xy[dense[:, 0]] - xy[dense[:, 1]]).T)))
    scost = float(np.sum(np.hypot(*(xy[sparse[:, 0]] - xy[sparse[:, 1]]).T)))
    assert scost == pytest.approx(dcost, rel=1e-12)


def test_sparse_path_with_far_cluster():
    rng = np.random.default_rng(13)
    xy = np.concatenate([rng.random((150, 2)), rng.random((150, 2)) + 50.0])
    dense = mst.euclidean_mst(xy)
    old = mst.DENSE_LIMIT
    mst.DENSE_LIMIT = 10
    try:
        sparse = mst.euclidean_mst(xy)
    finally:
        mst.DENSE_LIMIT = old
    dcost = float(np.sum(np.hypot(*(xy[dense[:, 0]] - xy[dense[:, 1]]).T)))
    scost = float(np.sum(np.hypot(*(xy[sparse[:, 0]] - xy[sparse[:, 1]]).T)))
    assert scost == pytest.approx(dcost, rel=1e-12)


def test_forced_edges_drops_longest_between_multichromatic():
    inst = core.Instance(2, [(0, 0, {1, 2}), (1, 0, {1}), (3, 0, {1, 2})])
    forest = mst.forced_edges(inst, 1)
    assert forest.edges.tolist() == [[0, 1]]
    assert forest.n_components == 2


def test_forced_edges_keeps_whole_mst_when_monochromatic():
    inst = core.Instance(2, [(0, 0, {1}), (1, 0, {1}), (3, 0, {1}), (0.5, 9, {2})])
    forest = mst.forced_edges(inst, 1)
    assert forest.edges.shape[0] == 2
    assert forest.n_components == 1


def test_forced_edges_singleton_class():
    inst = core.Instance(2, [(0, 0, {1}), (1, 0, {2})])
    forest = mst.forced_edges(inst, 2)
    assert forest.edges.shape[0] == 0
    assert forest.n_components == 1


def test_forced_edges_subset_of_mst_and_component_count():
    for seed in range(30):
        inst = core.generate_random(7, 2, 0.5, seed)
        for c in (1, 2):
            forest = mst.forced_edges(inst, c)
            members = inst.color_class(c)
            if members.size <= 1:
                continue
            full = {tuple(sorted((int(members[a]), int(members[b]))))
                    for a, b in mst.euclidean_mst(inst.xy[members])}
            kept = {tuple(e) for e in forest.edges.tolist()}
            assert kept <= full
            actives = int(inst.multichromatic()[members].sum())
            if actives:
                assert forest.n_components == actives
                # each component holds exactly one multichromatic point
                for comp in range(forest.n_components):
                    pts = forest.points[forest.components == comp]
                    assert int(inst.multichromatic()[pts].sum()) == 1

