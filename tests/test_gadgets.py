import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from mcsg import core, gadgets, mst

SQRT2 = math.sqrt(2)


def test_parse_and_validate():
    cnf = gadgets.parse_cnf("c comment\np mcnf 3 2\n+ 1 2 3\n- 1 3\n")
    assert cnf.n_vars == 3 and len(cnf.clauses) == 2
    assert cnf.n_edges == 5
    assert cnf.clauses[0].positive and not cnf.clauses[1].positive


def test_size_budget_refuses_every_materialising_call(monkeypatch):
    g = gadgets.build_gadget(gadgets.parse_cnf("p mcnf 2 1\n+ 1 2\n"))
    monkeypatch.setattr(gadgets, "MAX_CHAIN_STEPS", g.n_chain_edges - 1)
    for call in (lambda: g.instance, g.chain_edges, lambda: gadgets.compute_w(g),
                 lambda: gadgets.build_witness(g, [True, False])):
        with pytest.raises(core.RefusalError, match=r"\(gadgets\.MAX_CHAIN_STEPS\)$"):
            call()
    assert g._instance is None and g._chain_edges is None  # nothing materialised


def test_parse_errors():
    with pytest.raises(core.FormatError):
        gadgets.parse_cnf("+ 1 2\n")
    with pytest.raises(core.FormatError):
        gadgets.parse_cnf("p mcnf 2 1\n+ 1\n")
    with pytest.raises(core.FormatError):
        gadgets.parse_cnf("p mcnf 2 1\n+ 1 1\n")
    with pytest.raises(core.FormatError):
        gadgets.parse_cnf("p mcnf 2 2\n+ 1 2\n")
    with pytest.raises(core.FormatError, match="laminar"):
        gadgets.parse_cnf("p mcnf 4 2\n+ 1 3\n+ 2 4\n")
    with pytest.raises(core.FormatError, match="lies inside"):
        gadgets.parse_cnf("p mcnf 5 2\n+ 1 3 5\n+ 2 4\n")
    # '+-' is not a clause marker, and one header only
    with pytest.raises(core.FormatError, match="must start with"):
        gadgets.parse_cnf("p mcnf 2 1\n+- 1 2\n")
    with pytest.raises(core.FormatError, match="second header"):
        gadgets.parse_cnf("p mcnf 5 1\n+ 4 5\np mcnf 2 1\n")
    # two clauses of one side over the same first and last variable
    for text, pair in (("p mcnf 2 2\n+ 1 2\n+ 1 2\n", "0 and 1"),
                       ("p mcnf 3 2\n+ 1 3\n+ 1 2 3\n", "0 and 1"),
                       ("p mcnf 3 3\n- 1 3\n+ 1 3\n- 1 2 3\n", "0 and 2")):
        with pytest.raises(core.FormatError, match=f"clauses {pair} share the span x1"):
            gadgets.parse_cnf(text)
    # the same span on opposite sides is fine
    assert len(gadgets.parse_cnf("p mcnf 3 2\n+ 1 3\n- 1 2 3\n").clauses) == 2
    # no clauses (r = 0 would divide by zero in the layout), or no variables
    for text in ("p mcnf 3 0\n", "p mcnf 1 0\n", "p mcnf 0 0\n", "p mcnf -2 0\n"):
        with pytest.raises(core.FormatError, match="at least 1"):
            gadgets.parse_cnf(text)


def test_monotone_cnf_checks_itself():
    # a formula built without parse_cnf gets the same checks
    C = gadgets.Clause
    for n_vars, clauses, message in (
        (5, (C(True, (1, 3, 5)), C(True, (2, 4))), "lies inside"),
        (10, tuple(C(True, (1 + i, 10 - i)) for i in range(5)), "depth"),
        (3, (C(True, (3, 1)),), "ascending"),
        (3, (C(True, (1, 2)), C(True, (1, 2))), "share the span"),
        (4, (C(True, (1, 3)), C(True, (2, 4))), "laminar"),
        (2, (C(True, (1, 3)),), "out of range"),
        (2, (C(False, (0, 1)),), "out of range"),
        (3, (C(True, (1, 1)),), "distinct"),
        (3, (C(True, (1,)),), "2 or 3"),
        (2, (), "at least 1 clause"),
    ):
        with pytest.raises(core.FormatError, match=message):
            gadgets.MonotoneCnf(n_vars, clauses)


def test_satisfies_semantics():
    cnf = gadgets.parse_cnf("p mcnf 2 2\n+ 1 2\n- 1 2\n")
    assert cnf.satisfies([True, False])
    assert cnf.satisfies([False, True])
    assert not cnf.satisfies([True, True])   # negative clause unsatisfied
    assert not cnf.satisfies([False, False])  # positive clause unsatisfied


def test_fig2_counts():
    cnf = gadgets.parse_cnf(gadgets.FIG2_CNF)
    g = gadgets.build_gadget(cnf)
    assert g.r == 8
    assert g.active_points.size == 104
    assert g.epsilon == pytest.approx(1 / 32000)
    assert g.delta == pytest.approx(1 / 80)


def test_single_clause_parameters(small_gadget):
    g = small_gadget
    assert g.r == 2 and g.m_clauses == 1
    assert g.epsilon == pytest.approx(1 / 2000)
    assert g.delta == pytest.approx(1 / 20)
    assert g.active_points.size == 26


def test_only_actives_multichromatic(small_gadget):
    inst = small_gadget.instance
    multi = np.flatnonzero(inst.multichromatic())
    assert np.array_equal(multi, small_gadget.active_points)


def test_chain_spacing_exact(small_gadget):
    g = small_gadget
    chain = g.chain_edges()
    inst = g.instance
    d = inst.xy[chain[:, 0]] - inst.xy[chain[:, 1]]
    lengths = np.hypot(d[:, 0], d[:, 1])
    assert np.allclose(lengths, g.epsilon, rtol=1e-9, atol=0)


def test_switch_candidate_lengths(small_gadget):
    g = small_gadget
    inst = g.instance
    slot = g.slots[0]
    names = slot.names
    for trio, scale in ((("T1", "T2", "T3"), 1.0), (("t1", "t2", "t3"), g.delta)):
        a, b, c = (names[t] for t in trio)
        d_ab = float(np.hypot(*(inst.xy[a] - inst.xy[b])))
        d_ac = float(np.hypot(*(inst.xy[a] - inst.xy[c])))
        d_bc = float(np.hypot(*(inst.xy[b] - inst.xy[c])))
        assert d_ab == pytest.approx(2 * scale)
        assert d_ac == pytest.approx(SQRT2 * scale)
        assert d_bc == pytest.approx(SQRT2 * scale)
    cl, t1, t2, t3 = (names[t] for t in ("CL", "t1", "t2", "t3"))
    assert float(np.hypot(*(inst.xy[cl] - inst.xy[t1]))) == pytest.approx(2 * g.delta)
    assert float(np.hypot(*(inst.xy[cl] - inst.xy[t3]))) == pytest.approx(SQRT2 * g.delta)
    assert float(np.hypot(*(inst.xy[cl] - inst.xy[t2]))) == pytest.approx(2 * SQRT2 * g.delta)


def test_switch_separation_exceeds_six(small_gadget):
    inst = small_gadget.instance
    groups = []
    for slot in small_gadget.slots:
        n = slot.names
        groups.append([n["T1"], n["T2"], n["T3"]])
        groups.append([n["B1"], n["B2"], n["B3"]])
        groups.append([n["t1"], n["t2"], n["t3"], n["CL"]])
        groups.append([n["b1"], n["b2"], n["b3"]])
    for i, ga in enumerate(groups):
        for gb in groups[i + 1:]:
            for a in ga:
                for b in gb:
                    assert float(np.hypot(*(inst.xy[a] - inst.xy[b]))) > 6.0


def test_witness_cost_and_validity(small_gadget):
    g = small_gadget
    inst = g.instance
    for bits in ([True, False], [False, True], [True, True]):
        sol = gadgets.build_witness(g, bits)
        assert abs(sol.cost - g.W) <= 1e-9 * g.W
        assert core.is_csg(inst, sol.edges)
    with pytest.raises(core.FormatError, match="does not satisfy"):
        gadgets.build_witness(g, [False, False])


@pytest.fixture(scope="module")
def small_gadget_w(small_gadget):
    """compute_w of the session gadget and the forced edges it computed on
    the way, so the r = 2 forced edges are computed once per module."""
    forced = []

    def spy(inst, c):
        forced.append(real(inst, c))
        return forced[-1]

    real = mst.forced_edges
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mst, "forced_edges", spy)
        w = gadgets.compute_w(small_gadget)
    assert len(forced) == 3
    return w, np.concatenate(forced)


def test_witness_contains_forced_edges(small_gadget, small_gadget_w):
    g = small_gadget
    sol = gadgets.build_witness(g, [True, False])
    forced = small_gadget_w[1]
    n = g.instance.n
    assert np.isin(forced @ [n, 1], sol.edges @ [n, 1]).all()  # each pair (a, b) as a * n + b


def test_unsatisfied_clause_disconnects(small_gadget):
    # without the 4-edge state, the clause's arc floats: wiring the switches
    # for an unsatisfying assignment must not span
    g = small_gadget
    values = [False, False]
    edges = core.merge_edges(g.chain_edges(), g.pattern_edges(values, {}))
    assert not core.is_csg(g.instance, edges)


def test_w_formula_terms(small_gadget):
    g = small_gadget
    r, m, eps, delta = g.r, g.m_clauses, g.epsilon, g.delta
    chains = g.n_chain_edges * eps
    expected = chains + r * (2 + 2 * SQRT2) + r * delta * (2 + 2 * SQRT2) + m * delta * (2 * SQRT2 - 2)
    assert g.W == pytest.approx(expected, rel=1e-12)
    # the switch accounting identity from the reduction
    assert r * (2 + 2 * SQRT2) + r * delta * (2 + 2 * SQRT2) + m * delta * (2 * SQRT2 - 2) == pytest.approx(
        2 * r * (1 + SQRT2) + 4 * m * delta * SQRT2 + 2 * (r - m) * delta * (1 + SQRT2), rel=1e-12
    )


def test_compute_w_matches(small_gadget, small_gadget_w):
    g = small_gadget
    assert abs(small_gadget_w[0] - g.W) <= 1e-9 * g.W


def test_no_same_color_pair_below_epsilon(small_gadget):
    from scipy.spatial import cKDTree

    inst = small_gadget.instance
    for c in (1, 2, 3):
        members = inst.color_class(c)
        tree = cKDTree(inst.xy[members])
        assert not tree.query_pairs(r=small_gadget.epsilon * 0.999999)


def test_nesting_depth_guard():
    deep = "p mcnf 10 5\n" + "".join(
        f"+ {1 + i} {10 - i}\n" for i in range(5)
    )
    with pytest.raises(core.FormatError, match="depth"):
        gadgets.parse_cnf(deep)


def test_nested_clauses_build():
    cnf = gadgets.parse_cnf("p mcnf 4 2\n- 1 4\n- 2 3\n")
    g = gadgets.build_gadget(cnf)
    assert g.r == 4
    assert g.active_points.size == 52


def _anchor_graph_reference(plan, color):
    """The quadratic segment scan: every registered point against every wire
    segment.  Kept to check the indexed scan of ``GadgetInstance._anchor_graph``."""
    wires = [w for w in plan.wires if w.color == color]
    registered = {p for w in wires for p in w.pts}
    for aid, m in enumerate(plan.active_mask):
        if m & color:
            registered.add(plan.active_xy[aid])
    verts, n_edges, parent = set(), 0, {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for w in wires:
        stops = [w.pts[0]]
        for (x0, y0), (x1, y1) in zip(w.pts, w.pts[1:]):
            hits = []
            if y0 == y1 and x0 != x1:
                lo, hi = sorted((x0, x1))
                hits = [(px, py) for (px, py) in registered
                        if py == y0 and lo < px < hi and (px - x0) % 5 == 0]
                hits.sort(key=lambda p: p[0], reverse=x1 < x0)
            elif x0 == x1 and y0 != y1:
                lo, hi = sorted((y0, y1))
                hits = [(px, py) for (px, py) in registered
                        if px == x0 and lo < py < hi and (py - y0) % 5 == 0]
                hits.sort(key=lambda p: p[1], reverse=y1 < y0)
            stops.extend(hits)
            stops.append((x1, y1))
        anchors = [stops[0]]
        for p in stops[1:]:
            if p in registered and p != anchors[-1]:
                anchors.append(p)
        if anchors[-1] != w.pts[-1]:
            anchors.append(w.pts[-1])
        for p, q in zip(anchors, anchors[1:]):
            verts.update((p, q))
            rp, rq = find(p), find(q)
            if rp != rq:
                parent[rq] = rp
            n_edges += 1
    comps = {}
    for v in verts:
        comps.setdefault(find(v), set()).add(v)
    for aid, m in enumerate(plan.active_mask):
        if m & color and plan.active_xy[aid] not in verts:
            comps[plan.active_xy[aid]] = {plan.active_xy[aid]}
    return len(verts), n_edges, len(comps), {frozenset(c) for c in comps.values()}


def _anchor_graph_summary(plan, color):
    """Vertex, edge and component counts and the components of
    ``GadgetInstance._anchor_graph``, in the reference's form."""
    n_v, n_e, comps = gadgets.GadgetInstance._anchor_graph(plan, color)
    return n_v, n_e, len(comps), {frozenset(c) for c in comps}


ANCHOR_CNFS = (
    gadgets.FIG2_CNF,
    "p mcnf 2 1\n+ 1 2\n",
    "p mcnf 2 1\n- 1 2\n",
    "p mcnf 2 2\n+ 1 2\n- 1 2\n",
    "p mcnf 3 2\n+ 1 2 3\n- 1 3\n",
    "p mcnf 4 2\n- 1 4\n- 2 3\n",
    "p mcnf 4 2\n+ 1 4\n+ 2 3\n",
    "p mcnf 8 5\n+ 1 8\n+ 2 7\n+ 3 6\n+ 4 5\n- 1 2 3\n",
    "p mcnf 6 5\n- 1 6\n- 2 3\n- 4 5\n+ 1 2 3\n+ 4 5 6\n",
)


def test_anchor_graph_matches_quadratic_scan():
    for text in ANCHOR_CNFS:
        plan = gadgets.build_gadget(gadgets.parse_cnf(text))
        for color in (gadgets.R_BIT, gadgets.B_BIT, gadgets.Y_BIT):
            assert _anchor_graph_summary(plan, color) == _anchor_graph_reference(plan, color), \
                (text, color)


def test_anchor_graph_matches_quadratic_scan_on_random_wires():
    # The gadget layouts never cross a registered point on a westward or
    # southward run, so random lattice wires cover that order and the
    # multiple-of-5 filter.
    rng = np.random.default_rng(5)
    for trial in range(40):
        wires = []
        for _ in range(int(rng.integers(2, 9))):
            x, y = (int(v) for v in rng.integers(0, 12, size=2) * 5 + rng.integers(0, 3, size=2))
            pts = [(x, y)]
            for _ in range(int(rng.integers(1, 6))):
                step = 5 * int(rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 4, 6]))
                x, y = (x + step, y) if rng.random() < 0.5 else (x, y + step)
                pts.append((x, y))
            wires.append(SimpleNamespace(color=int(rng.choice([1, 2])), pts=tuple(pts)))
        actives = [tuple(int(v) for v in p) for p in rng.integers(0, 60, size=(3, 2))]
        plan = SimpleNamespace(wires=wires, active_xy=actives,
                               active_mask=[int(m) for m in rng.integers(1, 4, size=3)])
        for color in (1, 2):
            assert _anchor_graph_summary(plan, color) == _anchor_graph_reference(plan, color), trial


PLAN_DIGESTS = (
    "f234290f52bb4cab487929b5a3ac25c502e69f711ea67b123d2fbbdd3f593c7b",
    "b570e1b0046fb527033435bce24691880f3cd01a237fb5cd8ca9d95656dab60d",
    "bd91d0cee5b9c8578e22576c613abe98bc116aaf4f8a091a5004f3c720ebf626",
    "4d5b52ed73a710dbdf2800de658be0de84824f2136abfde4bf5d405eba171c1d",
    "e300643298dba622cf5c012d2ea0277c75de9f1f8f699cfdff3314019d441179",
    "fd831c4548f211f043a5520adc5d84b145013ae4439a5e0b371ced9d4e340c14",
    "4185a7cf9f38fc3a6fc2bf6f5ee6875df036cfdbe3202118d854e26260cbf754",
    "cba7225d1494ff08507bc9b804a6d0fb1daf55d766b9c8cfb21c908749a5f9be",
    "f7c5a02a87f6ba61b86bd69d0411b9049fe50f675d2c981d3d6c8493b51ab8d7",
)


def test_plan_pinned():
    # sha256 of repr(W), the chain step count, the actives and every wire's
    # color and waypoints, per ANCHOR_CNFS entry (r 2-12), recorded before
    # the layout and the gadget object became one class
    for text, want in zip(ANCHOR_CNFS, PLAN_DIGESTS, strict=True):
        g = gadgets.build_gadget(gadgets.parse_cnf(text))
        h = hashlib.sha256()
        for part in (g.W, g.n_chain_edges, g.active_xy, g.active_mask):
            h.update(repr(part).encode())
        for w in g.wires:
            h.update(repr((w.color, w.pts)).encode())
        assert h.hexdigest() == want, text


def test_small_gadget_bytes_pinned(small_gadget):
    # sha256 of instance_to_json, recorded before materialisation and the
    # encoder stopped using np.unique and per-point Python
    text = core.instance_to_json(small_gadget.instance)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "61b68785591f97ab1faeb6084b9c682de64f8a46580995ce8e5fbde3dc15fc10"
    )


def test_materialised_wires_match_per_wire_loop(small_gadget):
    # The per-wire loop that colored the chain points and listed the chain
    # pairs before one array pass did both, kept as the reference; the chain
    # edges' sha256 was recorded with the loop
    g = small_gadget
    inst = g.instance
    lattice = np.rint(inst.xy / (g.epsilon / 5)).astype(np.int64).tolist()
    index = {(x, y): i for i, (x, y) in enumerate(lattice)}
    n_active = len(g.active_xy)
    masks = np.zeros(inst.n, dtype=np.uint32)
    pairs = []
    for w in g.wires:
        ids = [index[x, y] for x, y in gadgets._expand_wire(w).tolist()]
        for i in ids:
            if i >= n_active:
                assert masks[i] in (0, w.color), i
                masks[i] = w.color
        pairs += zip(ids, ids[1:])
    masks[:n_active] = g.active_mask
    assert np.array_equal(masks, inst.masks)
    chain = g.chain_edges()
    assert np.array_equal(chain, core.as_edges(pairs))
    assert hashlib.sha256(chain.tobytes()).hexdigest() == (
        "62712239794564f8aea5d52212255ff6cd66a775bdec97eda7bc5ed84685c201"
    )


def test_materialise_rejects_wires_of_two_colors_on_one_point():
    g = gadgets.build_gadget(gadgets.parse_cnf("p mcnf 2 1\n+ 1 2\n"))
    w = g.wires[5]
    other = gadgets.B_BIT if w.color == gadgets.R_BIT else gadgets.R_BIT
    g.wires.append(SimpleNamespace(color=other, pts=w.pts))
    with pytest.raises(AssertionError, match="wires of different colors collide"):
        g.instance
    assert g._instance is None and g._chain_edges is None
