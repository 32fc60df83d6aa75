import hashlib

import numpy as np
import pytest

from mcsg import collinear, core, exact2, mst, oracle
from union_find import find, union

SQUARE = core.Instance(2, [(0, 0, {1, 2}), (1, 0, {1, 2}), (0, 1, {1}), (1, 1, {2})])


def proj(inst, merge=()):
    return exact2.project_pair(inst, 1, 2, merge)


def test_square_example():
    sol = exact2.solve_pair(proj(SQUARE))
    assert sol.cost == pytest.approx(3.0)
    assert sol.edge_set() == {(0, 1), (0, 2), (1, 3)}
    assert core.is_csg(SQUARE, sol.edges)


def test_collinear_example():
    inst = core.Instance(2, [(0, 0, {1}), (1, 0, {1, 2}), (2, 0, {2})])
    sol = exact2.solve_pair(proj(inst))
    assert sol.cost == pytest.approx(2.0)
    assert sol.edge_set() == {(0, 1), (1, 2)}


def test_single_color_degenerates_to_mst():
    inst = core.Instance(2, [(0, 0, {1}), (1, 0, {1}), (3, 0, {1})])
    sol = exact2.solve_pair(proj(inst))
    assert sol.cost == pytest.approx(3.0)


def test_m_limit_refusal(monkeypatch):
    over = core.generate_random(exact2.M_LIMIT + 1, 2, 1.0, 0)
    with pytest.raises(core.RefusalError, match=rf"budget of {exact2.M_LIMIT} purple units"):
        exact2.solve_pair(proj(over))
    # the limit counts units: one group_merge block of 12 purple points is one
    one_unit = proj(core.generate_random(12, 2, 1.0, 0), (frozenset(range(12)),))
    assert exact2.solve_pair(one_unit).cost == 0.0
    monkeypatch.setattr(exact2, "M_LIMIT", 9)
    with pytest.raises(core.RefusalError, match="needs 11 purple units, 2 over the budget of 9"):
        exact2.solve_pair(proj(core.generate_random(11, 2, 1.0, 0)))
    monkeypatch.setattr(exact2, "M_LIMIT", 4)
    with pytest.raises(core.RefusalError, match="needs 6 purple units, 2 over the budget of 4"):
        exact2.solve_pair(proj(core.generate_random(6, 2, 1.0, 0)))


def test_solve_pair_checks_its_edges_against_its_score(monkeypatch):
    # every solve compares the cost of the edges it returns with the best
    # partition's score; an edge set missing one edge must not get through
    p = proj(core.generate_random(10, 2, 0.4, 1))
    assert len(exact2.solve_pair(p).edges) > 1
    make = exact2.make_solution
    monkeypatch.setattr(exact2, "make_solution",
                        lambda inst, edges, *a, **kw: make(inst, edges[1:], *a, **kw))
    with pytest.raises(RuntimeError, match="exact2 cost does not match its edge set"):
        exact2.solve_pair(p)


def test_solve_pair_relabel_invariant():
    for n, frac, seed in ((6, 0.6, 21), (20, 0.35, 5)):
        inst = core.generate_random(n, 2, frac, seed)
        order = np.random.default_rng(seed).permutation(n)
        relabeled = core.Instance.from_arrays(2, inst.xy[order], inst.masks[order])
        a = exact2.solve_pair(proj(inst)).cost
        b = exact2.solve_pair(proj(relabeled)).cost
        assert a == pytest.approx(b, rel=1e-9)


def lattice(n, rows, cols, m, seed):
    """n distinct points of a rows x cols integer grid, k = 2, m of them
    purple: many pairs of exactly equal length."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(rows * cols, size=n, replace=False)
    masks = 1 + rng.integers(0, 2, size=n)
    masks[:2] = (1, 2)  # both colors present
    masks[rng.permutation(n)[:m]] = 3
    return core.Instance.from_arrays(2, np.stack([cells % cols, cells // cols], axis=1), masks)


@pytest.mark.parametrize("seed", range(40))
def test_matches_oracle(seed):
    n, fraction = 3 + seed % 5, (0.2, 0.5, 1.0)[seed % 3]
    # random points, then integer-lattice points whose length ties exact2 must
    # order as the class trees do
    for inst in (core.generate_random(n, 2, fraction, seed),
                 lattice(n, 3, 3, round(fraction * n), seed)):
        sol = exact2.solve_pair(proj(inst))
        opt = oracle.brute_force(inst)
        assert sol.cost == pytest.approx(opt.cost, rel=1e-9)
        assert core.is_csg(inst, sol.edges)


def test_contains_forced_edges():
    for seed in range(15):
        inst = core.generate_random(6, 2, 0.5, seed)
        sol = exact2.solve_pair(proj(inst))
        got = sol.edge_set()
        for c in (1, 2):
            for a, b in mst.forced_edges(inst, c):
                assert (int(a), int(b)) in got


def test_group_merge_only_helps():
    for seed in range(15):
        inst = core.generate_random(6, 2, 0.7, seed)
        plain = exact2.solve_pair(proj(inst))
        purple = [int(i) for i in np.flatnonzero(inst.masks == 3)]
        merged = exact2.solve_pair(proj(inst, (frozenset(purple),))) if purple else plain
        assert merged.cost <= plain.cost + 1e-9


def test_projection_of_three_color_instance():
    inst = core.Instance(3, [(0, 0, {1, 3}), (1, 0, {2}), (2, 0, {3})])
    p = exact2.project_pair(inst, 1, 2)
    assert p.idx.tolist() == [0, 1]
    assert p.bits.tolist() == [1, 2]
    assert p.purple().size == 0


@pytest.mark.parametrize("seed", range(48))
def test_matches_collinear_dp(seed):
    # The cut DP is exact at any n for k = 2, so it arbitrates far beyond the
    # oracle's reach.
    n, m = 14 + seed % 17, 5 + seed % 3
    for inst in (core.generate_collinear(n, 2, (m + 0.5) / n, seed),
                 lattice(n, 1, 2 * n, m, seed)):  # integer gaps: equal lengths
        sol = exact2.solve_pair(proj(inst))
        assert sol.cost == pytest.approx(collinear.dp_solve(inst).cost, rel=1e-9)
        assert core.is_csg(inst, sol.edges)


def test_skipped_forest_regression():
    # A backtracking search over forests once returned 4.7141 here.
    inst = core.generate_random(30, 2, 0.3, 4)
    sol = exact2.solve_pair(proj(inst))
    assert sol.cost == pytest.approx(4.6401, abs=5e-5)
    assert core.is_csg(inst, sol.edges)


def test_units_built_once_per_solve(monkeypatch):
    calls = []
    units = exact2._units
    monkeypatch.setattr(exact2, "_units", lambda p: calls.append(p) or units(p))
    inst = core.generate_random(7, 3, 0.6, 2)
    for c1, c2 in ((1, 2), (1, 3), (2, 3)):
        exact2.solve_pair(exact2.project_pair(inst, c1, c2))
    assert len(calls) == 3


def _spans_by_walk(proj, edges):
    """The union-find walk spans_projection replaced, kept as its reference."""
    pos = {int(g): i for i, g in enumerate(proj.idx)}
    arr = core.as_edges(edges, proj.base.n)
    for which in (0, 1):
        bit = 1 << which
        members = [i for i in range(proj.n) if int(proj.bits[i]) & bit]
        if len(members) <= 1:
            continue
        parent = list(range(proj.n))
        for block in proj.group_merge:
            inside = sorted(pos[int(p)] for p in block if int(p) in pos)
            for a, b in zip(inside, inside[1:]):
                union(parent, a, b)
        for a, b in arr:
            pa, pb = pos.get(int(a)), pos.get(int(b))
            if pa is None or pb is None:
                continue
            if int(proj.bits[pa]) & bit and int(proj.bits[pb]) & bit:
                union(parent, pa, pb)
        root = find(parent, members[0])
        if any(find(parent, m) != root for m in members[1:]):
            return False
    return True


def test_spans_projection_matches_union_find_walk():
    verdicts = []
    for seed in range(120):
        rng = np.random.default_rng(seed)
        n = 4 + seed % 6
        inst = core.generate_random(n, 3, 0.4, seed)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        for c1, c2 in ((1, 2), (1, 3), (2, 3)):
            merge = ()
            if seed % 2:  # a random block of two or three points, any colors
                merge = (frozenset(rng.choice(n, size=2 + seed % 3 // 2, replace=False).tolist()),)
            p = exact2.project_pair(inst, c1, c2, merge)
            edge_sets = [exact2.solve_pair(p).edges, []]
            edge_sets += [[e for e in pairs if rng.random() < q] for q in (0.2, 0.4, 0.6)]
            for edges in edge_sets:
                got = exact2.spans_projection(p, edges)
                assert got == _spans_by_walk(p, edges), (seed, c1, c2, merge, edges)
                verdicts.append(got)
    assert 200 < sum(verdicts) < len(verdicts) - 200
    # a pair no point carries projects to nothing, which spans
    lone = core.Instance(3, [(0, 0, {1}), (1, 0, {1})])
    assert exact2.spans_projection(exact2.project_pair(lone, 2, 3), [])


def _digest_corpus():
    """Seeded pair projections: k = 2 random and collinear instances with
    m = 0..8 purple points, 4 x 4 integer lattices (exact length ties), and the
    three pairs of k = 3 instances with no block, with A2's black block and
    with a random block of 2-4 points of any colors."""
    for seed in range(90):
        m = seed % 9
        n = m + 2 + seed % 7
        for gen in (core.generate_random, core.generate_collinear):
            yield proj(gen(n, 2, (m + 0.5) / n, seed))
        yield proj(lattice(min(n, 16), 4, 4, min(m, n, 16), seed))
    for seed in range(40):
        inst = core.generate_random(4 + seed % 7, 3, 0.5, seed)
        black = np.flatnonzero(inst.masks == 7).tolist()
        rng = np.random.default_rng(seed)
        block = rng.choice(inst.n, size=2 + seed % 3, replace=False).tolist()
        for c1, c2 in ((1, 2), (1, 3), (2, 3)):
            for merge in ((), (frozenset(black),) if black else (), (frozenset(block),)):
                yield exact2.project_pair(inst, c1, c2, merge)


def test_outputs_pinned():
    # 630 solves; the digest of their JSON pins edges, edge order and the
    # float summation order of every cost
    digest = hashlib.sha256()
    for p in _digest_corpus():
        digest.update(core.solution_to_json(exact2.solve_pair(p)).encode() + b"\n")
    assert digest.hexdigest() == "4fa50b3e240f72e7790905aeb0626f889abe07197d887a7d19775ee766d7442c"
