import hashlib
import itertools
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from mcsg import collinear, core, oracle
from mcsg.collinear import _color_masks, _endpoint_bits, _hat_b, _hat_key, _Prep
from union_find import find, union


def line(colored, spacing=None):
    xs = spacing or list(range(len(colored)))
    return core.Instance(max(c for s in colored for c in s), [(x, 0, s) for x, s in zip(xs, colored)])


class _Shape:
    """Reference for one (cut, gamma-set): per color, the sorted distinct
    right endpoints of its cut edges, with bit j of ``starts`` set if an edge
    from p_i reaches endpoint j and of ``anchored`` if one from left of p_i
    does.  The DP reads the same from endpoint bit masks."""

    def __init__(self, prep, cut, gs):
        self.edges = tuple((g, *prep.edge_at[cut][g]) for g in gs)
        self.bs, self.starts, self.anchored = [], [], []
        for c in range(prep.k):
            ec = [(a, b) for g, a, b in self.edges if g >> c & 1]
            bs = sorted({b for _, b in ec})
            starts = anchored = 0
            for a, b in ec:
                if a == cut - 1:
                    starts |= 1 << bs.index(b)
                else:
                    anchored |= 1 << bs.index(b)
            self.bs.append(tuple(bs))
            self.starts.append(starts)
            self.anchored.append(anchored)


def _valid(prep, cut, gs):
    # a cut-edge set must cover every color found on both sides of the cut
    cover = 0
    for g in gs:
        cover |= g
    return not prep.split[cut] & ~cover


def test_cut_edges_examples():
    prep = _Prep(line([{1}, {2}, {1}]))
    assert prep.edge_at[1] == {0b01: (0, 2)}  # no edge for {1, 2}
    assert _Shape(prep, 1, (0b01,)).edges == ((1, 0, 2),)
    assert _Shape(prep, 1, ()).edges == ()


def test_is_valid_cut_examples():
    two_r = _Prep(line([{1}, {1}]))
    assert not _valid(two_r, 1, ())
    assert _valid(_Prep(line([{1}, {2}])), 1, ())
    assert _valid(two_r, 1, (0b01,))


def test_edge_table_matches_anchor_definition():
    # reference: the last point <= cut - 1 and the first point >= cut that
    # carry all of g, kept only when the two share exactly g
    for seed in range(30):
        k = 2 + seed % 3
        inst = core.generate_collinear(3 + seed % 12, k, (0.2, 0.5, 1.0)[seed % 3], seed)
        prep = collinear._Prep(inst)
        masks = prep.masks.tolist()
        for cut in range(1, inst.n + 1):
            want = {}
            for g in range(1, 1 << k):
                left = [j for j in range(cut) if masks[j] & g == g]
                right = [j for j in range(cut, inst.n) if masks[j] & g == g]
                if left and right and masks[left[-1]] & masks[right[0]] == g:
                    want[g] = (left[-1], right[0])
            assert prep.edge_at[cut] == want
            assert list(prep.edge_at[cut]) == sorted(want)  # the DP's subset order


def _hat_args(inst, cut, prev_gs, next_gs, c):
    """The endpoints of color c at cuts cut - 1 and cut, and the previous
    endpoints and starts mask that the DP hands to ``_hat_b``."""
    prep = _Prep(inst)
    prev, nxt = _Shape(prep, cut - 1, prev_gs), _Shape(prep, cut, next_gs)
    nb = nxt.bs[c - 1]
    prev_pos = tuple(len(nb) if b == cut - 1 else nb.index(b) for b in prev.bs[c - 1])
    return prev.bs[c - 1], nb, prev_pos, nxt.starts[c - 1]


def _transitions(prep):
    """Every (cut, previous gamma-set, kept and new color sets) the DP's
    gamma-set rules allow, partitions aside: a superset of its transitions."""
    reach = {()}
    for cut in range(1, prep.n + 1):
        pt, nxt = cut - 1, set()
        new = [g for g, (a, _b) in prep.edge_at[cut].items() if a == pt]
        for prev_gs in sorted(reach):
            keep = [g for g in prev_gs if prep.edge_at[pt][g][1] != pt]
            for r in range(len(new) + 1):
                for l_sub in itertools.combinations(new, r):
                    if _valid(prep, cut, keep + list(l_sub)):
                        yield cut, prev_gs, keep, list(l_sub)
                        nxt.add(tuple(sorted(keep + list(l_sub))))
        reach = nxt


@pytest.mark.parametrize("k", range(2, 7))
def test_hat_key_matches_endpoint_lists(k):
    # The DP reads each color's transition shape from endpoint bit masks; the
    # reference reads it from the sorted endpoint lists of both cuts.
    width = (1 << k) - 1
    for seed in range(12):
        n = (14, 11, 9, 10, 10)[k - 2] - seed % 3
        prep = _Prep(core.generate_collinear(n, k, (0.2, 0.5, 1.0)[seed % 3], seed))
        masks = prep.masks.tolist()
        for cut, prev_gs, keep, l_sub in _transitions(prep):
            pt = cut - 1
            prev = _Shape(prep, pt, prev_gs)
            nxt = _Shape(prep, cut, tuple(sorted(keep + l_sub)))
            d_mask = 0
            for g, _a, b in prev.edges:
                if b == pt:
                    d_mask |= g
            need_d2 = masks[pt] & prep.seen[pt] & ~d_mask
            bits = _endpoint_bits(prep.edge_at[cut])
            kept, new = _color_masks(bits, keep, k), _color_masks(bits, l_sub, k)
            for c in range(k):
                nb = nxt.bs[c]
                want = (tuple(len(nb) if b == pt else nb.index(b) for b in prev.bs[c]),
                        len(nb), nxt.starts[c], nxt.anchored[c] if need_d2 >> c & 1 else -1)
                key = (kept[c] << width | new[c]) << 2 | (d_mask >> c & 1) << 1 | need_d2 >> c & 1
                assert _hat_key(key, width) == want, (seed, cut, prev_gs, keep, l_sub, c)


def test_hat_b_trivial_and_shared_endpoint():
    inst = line([{1}, {1, 2}, {1}, {1, 2}])
    prev_bs, _, prev_pos, starts = _hat_args(inst, 2, (0b01,), (0b01,), 1)
    assert prev_bs == (1,)
    assert _hat_b(prev_pos, starts, -1, (0,)) == (0,)


def test_hat_b_two_enders_related():
    # both previous-cut edges end at p_i: rule (1) relates them
    inst = core.Instance(
        2, [(0, 0, {1}), (1, 0, {2}), (2, 0, {1, 2}), (3, 0, {1}), (4, 0, {2})]
    )
    assert {b for _g, _a, b in _Shape(_Prep(inst), 2, (0b01, 0b10)).edges} == {2}
    # single edge per color at the previous cut: trivial partitions
    for c in (1, 2):
        _, _, prev_pos, starts = _hat_args(inst, 3, (0b01, 0b10), (0b01, 0b10), c)
        assert _hat_b(prev_pos, starts, -1, (0,)) == (0,)


def test_hat_b_relates_through_p_i_and_next_blocks():
    # previous endpoints p_i = 1 and 3; at the next cut an edge from p_i
    # reaches 2, and 3 is kept: they are related iff 2 and 3 share a block
    inst = line([{1, 2}, {1}, {1}, {1, 2}])
    prev_bs, nb, prev_pos, starts = _hat_args(inst, 2, (0b01, 0b11), (0b01, 0b11), 1)
    assert (prev_bs, nb, prev_pos, starts) == ((1, 3), (2, 3), (2, 1), 0b1)
    assert _hat_b(prev_pos, starts, -1, (0, 0)) == (0, 0)
    assert _hat_b(prev_pos, starts, -1, (0, 1)) == (0, 1)
    # kept endpoints 3 and 4 follow the next cut's blocks: p_i = 1 reaches 2,
    # which shares a block with 4 but not with 3
    inst = line([{1, 2, 3}, {1}, {1}, {1, 2}, {1, 3}])
    prev_bs, nb, prev_pos, starts = _hat_args(inst, 2, (0b011, 0b101), (0b001, 0b011, 0b101), 1)
    assert (prev_bs, nb, prev_pos, starts) == ((3, 4), (2, 3, 4), (1, 2), 0b1)
    assert _hat_b(prev_pos, starts, -1, (0, 1, 0)) == (0, 1)


def _hat_b_reference(prev_pos, starts, anchored, rgs):
    """``_hat_b`` by union-find: each next endpoint joins its block's first
    one, and p_i (at len(rgs)) every endpoint that an edge from it reaches;
    with (d2), one reached block must hold an anchored endpoint."""
    size = len(rgs)
    start_classes = {r for j, r in enumerate(rgs) if starts >> j & 1}
    if anchored >= 0 and not any(anchored >> j & 1 and r in start_classes
                                 for j, r in enumerate(rgs)):
        return None
    parent, first = list(range(size + 1)), {}
    for j, block in enumerate(rgs):
        union(parent, first.setdefault(block, j), j)
        if starts >> j & 1:
            union(parent, size, j)
    remap = {}
    return tuple(remap.setdefault(find(parent, p), len(remap)) for p in prev_pos)


def test_hat_b_matches_union_find_reference():
    # every partition of up to 5 next endpoints, every starts mask and every
    # previous-endpoint list _hat_key can give (p_i or not, then kept
    # endpoints in order); every anchored mask on the longest list
    cases = 0
    for size in range(6):
        lists = [(size,) * with_pt + kept for with_pt in (0, 1)
                 for r in range(size + 1) for kept in itertools.combinations(range(size), r)]
        for rgs in core.set_partitions(size):
            for starts in range(1 << size):
                for prev_pos in lists:
                    want = _hat_b_reference(prev_pos, starts, -1, rgs)
                    assert _hat_b(prev_pos, starts, -1, rgs) == want, (prev_pos, starts, rgs)
                    cases += 1
                for anchored in range(1 << size):
                    want = _hat_b_reference(lists[-1], starts, anchored, rgs)
                    assert _hat_b(lists[-1], starts, anchored, rgs) == want, (starts, anchored, rgs)
    assert cases == sum(len(list(core.set_partitions(s))) * 4**s * 2 for s in range(6))


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


def test_dp_single_point_and_k_guard(monkeypatch):
    single = core.Instance(3, [(0, 0, {2})])
    sol, stats = collinear.dp_solve_with_stats(single)
    assert sol.cost == 0.0 and sol.edges.shape == (0, 2)
    assert stats.per_cut_states == [1]  # one cut per point, as on every line
    inst = line([{1}, {2}])
    monkeypatch.setattr(collinear, "K_GUARD", 1)
    with pytest.raises(core.RefusalError):
        collinear.dp_solve(inst)


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


@pytest.mark.parametrize("seed", range(140))
def test_dp_matches_oracle(seed, monkeypatch):
    # seeds 60..99: k = 4, where edges sharing several colors make the most
    # distinct transition shapes; seeds 100..139: k = 5 and 6, up to
    # collinear.K_GUARD, where the endpoint masks are widest
    if seed >= 100:
        k, n = 5 + (seed >= 120), 3 + seed % 5
    else:
        k, n = (4, 3 + seed % 5) if seed >= 60 else (2 + seed % 2, 3 + seed % 6)
    inst = core.generate_collinear(n, k, (0.2, 0.5, 1.0)[seed % 3], seed)
    sol = collinear.dp_solve(inst)
    monkeypatch.setattr(oracle, "MAX_CANDIDATE_EDGES", 28)  # a line of 8 points has 28 candidates
    opt = oracle.brute_force(inst)
    assert sol.cost == pytest.approx(opt.cost, rel=1e-9)
    # output is in star normal form: no edge spans a point carrying all its shared colors
    star, _ = oracle.candidate_edges(inst, star_restricted=True)
    assert sol.edge_set() <= {tuple(e) for e in star.tolist()}


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


# per-cut DP stats of the PINNED lines, recorded before the DP read its hat
# maps from endpoint masks: total states, peak states, the most partitions of
# one color at a cut, and a digest of (per_cut_states, per_cut_max_pi_per_color)
PINNED_STATS = [
    (534, 69, 5, "2af7c122a450319d"),
    (1797, 468, 5, "75cb32e3111026e8"),
    (7046, 1086, 5, "9ebca3ff35b0141a"),
    (2823, 468, 5, "0f45b38f5417f61e"),
    (2604, 468, 5, "222913b4300d5dc0"),
    (4472, 1034, 5, "e83f299ee03f6888"),
    (738, 69, 5, "f8e0932d1daefad9"),
    (3878, 1086, 5, "307cfb8c1786168e"),
    (3186, 342, 5, "5b3cfb960a5026cf"),
    (475, 69, 5, "80d7126a4c700de6"),
    (5025, 1034, 5, "b2819c4016bf35f3"),
    (1292, 342, 5, "e119964d03e77243"),
    (324, 82, 5, "5d9f4ab931bca9de"),
    (43, 16, 2, "d06eae13bd663f09"),
    (67, 18, 2, "bd2f216b10485ec0"),
    (121, 10, 2, "00abf3156d6e7351"),
    (51, 10, 2, "10d777fa5fdd1331"),
    (150, 10, 2, "7a43abc7e47b22c9"),
    (112, 10, 2, "ca2fb20e980a9619"),
    (172, 10, 2, "c449e5cd5d3c60bf"),
]


def _digest(edges) -> str:
    return _json_digest(edges.tolist())


def _json_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def _pinned_result(n, k, frac, seed):
    sol, stats = collinear.dp_solve_with_stats(core.generate_collinear(n, k, frac, seed))
    return ((sol.cost, _digest(sol.edges)),
            (stats.total_states, max(stats.per_cut_states), max(stats.per_cut_max_pi_per_color),
             _json_digest([stats.per_cut_states, stats.per_cut_max_pi_per_color])))


def _pinned_want(i):
    n, k, frac, seed, cost, digest = PINNED[i]
    return (cost, digest), PINNED_STATS[i]


def test_dp_outputs_pinned():
    for n, k, frac, seed, cost, digest in PINNED:
        sol = collinear.dp_solve(core.generate_collinear(n, k, frac, seed))
        assert (sol.cost, _digest(sol.edges)) == (cost, digest), (n, k, frac, seed)


def test_dp_stats_pinned():
    # perfbench reads these counts; the other tests check only their bounds
    for (n, k, frac, seed, _, _), want in zip(PINNED, PINNED_STATS, strict=True):
        assert _pinned_result(n, k, frac, seed)[1] == want, (n, k, frac, seed)


def test_shared_tables_never_change_output(monkeypatch):
    # Each k's transition tables outlive a solve, and their ids depend on
    # the solves before; no output may.  Reverse the pinned order, and put a
    # k = 4 line, a k = 2 line and a line the budget refuses between the
    # pinned ones, so every pinned line meets tables that other lines built.
    monkeypatch.setattr(collinear, "_TABLES", {})
    others = [(18, 4, 0.2, 9), (40, 2, 0.5, 9)]
    refused = core.generate_collinear(24, 4, 1.0, 1)
    for i in reversed(range(len(PINNED))):
        assert _pinned_result(*PINNED[i][:4]) == _pinned_want(i), PINNED[i][:4]
        collinear.dp_solve(core.generate_collinear(*others[i % 2]))
        if i % 5 == 0:
            assert 4 in collinear._TABLES
            with pytest.raises(core.RefusalError, match="cut 10 of 24 needs at least 202800 states"):
                collinear.dp_solve(refused)
            assert 4 not in collinear._TABLES  # a refused solve keeps no tables
    assert {2, 3} <= collinear._TABLES.keys()


def test_shared_tables_under_threads(monkeypatch):
    # Solves at once each take a k's tables out or build their own.  More
    # threads than cores and a short switch interval make them interleave
    # within a solve.
    monkeypatch.setattr(collinear, "_TABLES", {})
    orders = [list(range(len(PINNED)))[r:] + list(range(len(PINNED)))[:r] for r in (0, 5, 10, 15)]
    orders[1].reverse()
    got: dict[int, list] = {}

    def run(t):
        got[t] = [_pinned_result(*PINNED[i][:4]) for i in orders[t]]

    threads = [threading.Thread(target=run, args=(t,)) for t in range(len(orders))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for t, order in enumerate(orders):
        assert got[t] == [_pinned_want(i) for i in order], t
    # a table that two solves wrote at once could lose an id or a count
    for tables in collinear._TABLES.values():
        assert all(tables.pk_ids[pk] == i for i, pk in enumerate(tables.pk_list))
        assert tables.pulled == sum(1 + len(v) for m in tables.pulls.values() for v in m.values())


def test_state_budget_boundary(monkeypatch):
    # k = 4, n = 20: its largest cut holds 148 states.  The tables are warm
    # from a solve under the default budget, so the refusal must not depend
    # on them.
    inst = core.generate_collinear(20, 4, 0.3, 7)
    collinear.dp_solve(inst)
    monkeypatch.setattr(collinear, "MAX_STATES_PER_CUT", 148)
    _, stats = collinear.dp_solve_with_stats(inst)
    assert max(stats.per_cut_states) == 148
    monkeypatch.setattr(collinear, "MAX_STATES_PER_CUT", 147)
    with pytest.raises(core.RefusalError, match=r"needs at least 148 states, 1 over the budget of 147"):
        collinear.dp_solve(inst)


def test_refusal_after_warm_tables_matches_cold(monkeypatch):
    # Cold, cut 2 of this line refuses on one pull product of 50 states,
    # before any state is made.  A warm pull entry must not skip that check
    # once the budget is lowered.
    inst = core.generate_collinear(12, 4, 0.6, 0)
    want = r"cut 2 of 12 needs at least 50 states, 25 over the budget of 25 "
    monkeypatch.setattr(collinear, "_TABLES", {})
    monkeypatch.setattr(collinear, "MAX_STATES_PER_CUT", 25)
    with pytest.raises(core.RefusalError, match=want):
        collinear.dp_solve(inst)
    monkeypatch.setattr(collinear, "MAX_STATES_PER_CUT", 100_000)
    collinear.dp_solve(inst)
    assert 4 in collinear._TABLES
    monkeypatch.setattr(collinear, "MAX_STATES_PER_CUT", 25)
    with pytest.raises(core.RefusalError, match=want):
        collinear.dp_solve(inst)


def test_tables_over_the_cap_are_not_kept(monkeypatch):
    # With the budget at the line's largest cut, the solve succeeds but its
    # tables hold more entries than the budget, so none are kept.
    inst = core.generate_collinear(20, 4, 0.3, 7)
    monkeypatch.setattr(collinear, "_TABLES", {})
    collinear.dp_solve(inst)
    assert collinear._TABLES[4].pulled > 148
    monkeypatch.setattr(collinear, "MAX_STATES_PER_CUT", 148)
    collinear.dp_solve(inst)
    assert collinear._TABLES == {}


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
