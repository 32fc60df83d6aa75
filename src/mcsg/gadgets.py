"""Hardness-gadget generation: monotone planar CNF -> 3-color instance.

The construction follows the reduction layout: a spine of trunks, per-edge
sections holding a 2-switch pair and a 2delta-switch pair joined by vertical
rib chains, clause active points 2delta above (below) their rib active, and
clause arcs whose only connection to the rest of the instance runs through
the 4-edge switch state of a satisfied literal.  Every chain has consecutive
spacing exactly epsilon.

Geometry lives on an integer lattice in units of epsilon/5, so one chain step
is 5 units and the 3-4-5 right triangle provides exact-length diagonal steps.
Crossings of different colors are kept point-disjoint by giving each
horizontal lane a color-specific sub-epsilon phase (0, 0.2eps, 0.4eps for the
trunk family; 0.6eps/0.8eps for arcs) and shifting each vertical run onto the
matching phase with short diagonal adapters.

The decision threshold obeys the counting identity

    sum_c (|S'_c| - kappa_c + mu_c) = 39 r

(active incidences minus chain components plus chain cycles), which makes the
witness cost land exactly on W; the identity is asserted for every build on
the wire layout, and the mst-module recomputation cross-checks it on test
corpora.

One class, ``GadgetInstance``, holds a build: its constructor lays out the
actives and wires on the lattice, checks the identity and sets W, all without
emitting a point.  A wire is the ``_Walker`` that laid it out, which carries
its color, its waypoints and its count of chain steps.  The ``instance``
property materializes the point set (and the chain edges) on first use.
``build_gadget``, ``build_witness`` and ``compute_w`` are the module-level
entry points.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partialmethod

import numpy as np

from . import mst
from .core import (FormatError, Instance, Solution, as_edges, first_of_runs, make_solution,
                   merge_edges, over_budget, solution_cost)

SQRT2 = math.sqrt(2.0)

FIG2_CNF = "p mcnf 5 3\n+ 1 3 5\n- 1 5\n- 2 3 4\n"

MAX_NESTING_DEPTH = 3

# The most chain steps a gadget may materialise.  The point set holds about
# one point per step, 115,000 r^3 of them; materialising takes about 190
# bytes per step at its peak (0.6 GB for the 3.2 million steps of r = 3) and
# compute_w about 2.5 times that.
MAX_CHAIN_STEPS = 4_000_000


# ---------------------------------------------------------------------------
# CNF input


@dataclass(frozen=True)
class Clause:
    positive: bool
    vars: tuple[int, ...]


@dataclass(frozen=True)
class MonotoneCnf:
    """A planar monotone formula: positive clauses above, negative below.
    Construction raises FormatError for a formula the layout cannot embed."""

    n_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if not self.clauses:
            raise FormatError("the formula needs at least 1 clause")
        for i, vs in enumerate(c.vars for c in self.clauses):
            if len(vs) not in (2, 3) or any(a >= b for a, b in zip(vs, vs[1:])):
                raise FormatError(f"clauses need 2 or 3 distinct variables in ascending "
                                  f"order: clause {i} has {vs}")
            if vs[0] < 1 or vs[-1] > self.n_vars:
                raise FormatError(f"variable out of range in clause {i}: {vs}")
        _validate_embedding(self)

    @property
    def n_edges(self) -> int:
        return sum(len(c.vars) for c in self.clauses)

    def satisfies(self, assignment) -> bool:
        values = list(assignment)
        if len(values) != self.n_vars:
            raise FormatError(f"assignment needs {self.n_vars} values")
        return all(any(bool(values[v - 1]) == c.positive for v in c.vars)
                   for c in self.clauses)


def parse_cnf(text: str) -> MonotoneCnf:
    """Parse the gadget CNF format: 'p mcnf <vars> <clauses>' plus clause lines.

    Clause lines start with '+' (positive, embedded above the variable axis)
    or '-' (negative, below) followed by 2 or 3 distinct variable indices.
    """
    n_vars = None
    n_clauses = None
    clauses: list[Clause] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "mcnf":
                raise FormatError(f"bad header: {line!r}")
            if n_vars is not None:
                raise FormatError(f"a second header: {line!r}")
            n_vars, n_clauses = _ints(parts[2:], line)
            if n_vars < 1:
                raise FormatError(f"the header needs at least 1 variable: {line!r}")
            continue
        if parts[0] not in ("+", "-"):
            raise FormatError(f"clause lines must start with '+' or '-': {line!r}")
        if n_vars is None:
            raise FormatError("clause line before header")
        vs = tuple(sorted(_ints(parts[1:], line)))
        clauses.append(Clause(positive=(parts[0] == "+"), vars=vs))
    if n_vars is None:
        raise FormatError("missing 'p mcnf' header")
    if n_clauses is not None and n_clauses != len(clauses):
        raise FormatError(f"header announced {n_clauses} clauses, found {len(clauses)}")
    return MonotoneCnf(n_vars=n_vars, clauses=tuple(clauses))


def _ints(tokens: list[str], line: str) -> list[int]:
    """The tokens as ints; FormatError naming the line if one is not an integer."""
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise FormatError(f"not an integer in {line!r}") from None


def _validate_embedding(cnf: MonotoneCnf) -> None:
    """Check laminar nesting per side and the arc depths the layout can realize."""
    for side in (True, False):
        idx = [i for i, c in enumerate(cnf.clauses) if c.positive == side]
        spans = {i: (cnf.clauses[i].vars[0], cnf.clauses[i].vars[-1]) for i in idx}
        for i in idx:
            for j in idx:
                if i >= j:
                    continue
                a, b = spans[i], spans[j]
                lo, hi = max(a[0], b[0]), min(a[1], b[1])
                if lo > hi:
                    continue  # disjoint
                if a == b:  # the layout would give both arcs the same lanes
                    raise FormatError(f"clauses {i} and {j} share the span x{a[0]}..x{a[1]}")
                if not (a[0] <= b[0] and b[1] <= a[1]) and not (b[0] <= a[0] and a[1] <= b[1]):
                    raise FormatError(
                        f"clauses {i} and {j} overlap without nesting (not laminar)"
                    )
                inner, outer = (j, i) if a[0] <= b[0] and b[1] <= a[1] else (i, j)
                for v in cnf.clauses[outer].vars:
                    if spans[inner][0] < v < spans[inner][1]:
                        raise FormatError(
                            f"literal x{v} of clause {outer} lies inside nested clause {inner}"
                        )
        for i in idx:
            if _clause_depth(cnf, i) > MAX_NESTING_DEPTH:
                raise FormatError(
                    f"clause nesting depth exceeds the layout limit of {MAX_NESTING_DEPTH}"
                )


def _clause_depth(cnf: MonotoneCnf, ci: int) -> int:
    me = cnf.clauses[ci]
    span = (me.vars[0], me.vars[-1])
    depth = 0
    for j, other in enumerate(cnf.clauses):
        if j == ci or other.positive != me.positive:
            continue
        o = (other.vars[0], other.vars[-1])
        if o[0] <= span[0] and span[1] <= o[1]:
            depth += 1
    return depth


# ---------------------------------------------------------------------------
# integer-lattice wires

R_BIT, B_BIT, Y_BIT = 1, 2, 4
BLACK = R_BIT | B_BIT | Y_BIT
PURPLE = R_BIT | B_BIT

# Phase-adapter recipes, indexed by the phase shift (mod 5) a run needs in
# its direction of travel: which diagonal pairs to emit.  A "6"-pair advances
# 6 units along the axis (two steps with axis-component 3), an "8"-pair 8.
_COMBOS = ((), (6,), (6, 6), (8,), (8, 6))


class _Walker:
    """One chain wire: lays out its polyline, every step exactly 5 lattice
    units, and counts the steps; ``GadgetInstance._add`` gives it its color
    and freezes its waypoints."""

    __slots__ = ("color", "pts", "steps")

    def __init__(self, start: tuple[int, int]):
        self.pts = [start]
        self.steps = 0

    @property
    def cur(self) -> tuple[int, int]:
        return self.pts[-1]

    def _step(self, axis: int, along: int, across: int) -> None:
        p = list(self.cur)
        p[axis] += along
        p[1 - axis] += across
        self.pts.append(tuple(p))
        self.steps += 1 if across else abs(along) // 5   # one diagonal or a straight run

    def _run(self, axis: int, to: int) -> "_Walker":
        """Run along axis 0 (x) or 1 (y) to coordinate ``to``, first shifting
        the phase with diagonal adapter pairs."""
        start = self.cur[axis]
        if to == start:
            return self
        sign = 1 if to > start else -1
        pairs = _COMBOS[abs(to - start) % 5]
        if pairs:
            # keep the diagonal points clear of whatever this run starts at
            self._step(axis, sign * 10, 0)
        for pair in pairs:
            half = pair // 2          # 3 for a 6-pair, 4 for an 8-pair
            off = 7 - half            # matching off-axis component (3-4-5)
            self._step(axis, sign * half, off)
            self._step(axis, sign * half, -off)
        rest = to - self.cur[axis]
        if rest % 5 != 0 or (rest != 0 and (rest > 0) != (sign > 0)):
            raise AssertionError(f"run along axis {axis} misaligned: {start}->{to} "
                                 f"via {self.cur[axis]}")
        if rest:
            self._step(axis, rest, 0)
        return self

    h_to = partialmethod(_run, 0)
    v_to = partialmethod(_run, 1)

    def diag(self, dx: int, dy: int) -> "_Walker":
        if sorted((abs(dx), abs(dy))) != [3, 4]:
            raise AssertionError(f"bad diagonal step ({dx}, {dy})")
        self._step(0, dx, dy)
        return self


# ---------------------------------------------------------------------------
# the gadget


@dataclass
class _SlotIds:
    """Active-point ids of one variable-clause section."""

    var: int
    clause: int
    positive: bool
    names: dict[str, int] = field(default_factory=dict)


class GadgetInstance:
    """A compiled reduction instance: the symbolic layout (actives plus chain
    wires on the eps/5 lattice), its decision threshold W, and the point set.

    Every switch pair uses one template: three through-verticals carrying one
    color each from the trunks past the bottom anchors to the top anchors and
    on to per-column reach rails, plus short riser+let wires giving every
    anchor its two remaining colors.  Clause actives hang off the small
    switch's first anchor and connect only to their clause's arc pair.

    The point set can be very large (chains have spacing epsilon), so it is
    materialized lazily, and refused when the layout has more than
    ``MAX_CHAIN_STEPS`` chain steps; counts, W, and the active ids come from
    the layout.
    """

    def __init__(self, cnf: MonotoneCnf):
        self.cnf = cnf
        self.r = r = cnf.n_edges
        self.m_clauses = len(cnf.clauses)
        self.epsilon = 1.0 / (500.0 * r * r)
        self.delta = 1.0 / (10.0 * r)
        self.unit = 2500 * r * r          # lattice units per coordinate unit
        self.d5 = 250 * r                 # delta in lattice units
        self.active_xy: list[tuple[int, int]] = []
        self.active_mask: list[int] = []
        self.wires: list[_Walker] = []
        self.slots: list[_SlotIds] = []
        self.clause_slots: dict[int, list[int]] = {}
        self.trunk_taps = {R_BIT: [], B_BIT: [], Y_BIT: []}
        self._build()
        self.n_chain_edges = sum(w.steps for w in self.wires)
        self._check_identity()
        # W = sum(E') + 39 r eps + switch terms; by the counting identity the
        # forced edges are exactly the chain edges minus 39r of them
        self.W = _plus_switch_terms(self.n_chain_edges * self.epsilon, r, self.m_clauses,
                                    self.delta)
        self.active_points = np.arange(13 * r, dtype=np.int64)
        self._instance: Instance | None = None
        self._chain_edges: np.ndarray | None = None

    # -- helpers ----------------------------------------------------------

    def U(self, twentieths: int) -> int:
        # layout constants are multiples of 0.05 coordinate units
        return twentieths * self.unit // 20

    def _active(self, x: int, y: int, mask: int) -> int:
        self.active_xy.append((x, y))
        self.active_mask.append(mask)
        return len(self.active_xy) - 1

    def _add(self, color: int, walker: _Walker) -> None:
        walker.color = color
        walker.pts = tuple(walker.pts)
        self.wires.append(walker)

    # -- construction -----------------------------------------------------

    def _build(self) -> None:
        cnf = self.cnf
        U, d5 = self.U, self.d5
        self.L = L = 2 * d5 // 5           # riser lane offset: 2*delta/5
        self.ROW = ROW = U(65)             # switch anchor rows at +-3.25
        self.APEX = U(85)                  # unit-size switch apex at 4.25
        self.REACH_B = U(104) + 1          # blue reach rails at +-5.2 (+0.2eps)
        self.REACH_Y = U(109) + 2          # yellow rails at +-5.45 (+0.4eps)
        self.REACH_B_NEG = -U(104) + 1     # mirrored rails keep the same phase
        self.REACH_Y_NEG = -U(109) + 2
        self.TRUNK_R = -U(120)             # trunks at -6.0 / -6.5 / -7.0
        self.TRUNK_B = -U(130) + 1
        self.TRUNK_Y = -U(140) + 2
        PITCH, COLGAP = U(330), U(165)     # 16.5 between sections, 8.25 inside

        # slot assignment: variable-major, clauses in input order
        slot_of: list[tuple[int, int]] = []
        for v in range(1, cnf.n_vars + 1):
            for ci, c in enumerate(cnf.clauses):
                if v in c.vars:
                    slot_of.append((v, ci))
        assert len(slot_of) == self.r

        for s, (v, ci) in enumerate(slot_of):
            positive = cnf.clauses[ci].positive
            a = s * PITCH
            ids = _SlotIds(var=v, clause=ci, positive=positive)
            self.slots.append(ids)
            self.clause_slots.setdefault(ci, []).append(s)
            self._column(ids, a, width=U(40), apex=self.APEX, big=True, positive=positive)
            self._column(ids, a + COLGAP, width=2 * d5, apex=ROW + d5, big=False,
                         positive=positive)

        # clause arcs, joined to the rest only through a satisfied literal's
        # switch state
        for ci, c in enumerate(cnf.clauses):
            self._arcs(ci, c, PITCH, COLGAP)

        # trunks span every tap; eyelets supply the cycle budget
        eyelets = {
            R_BIT: [-U(60)] + [s * PITCH + U(80) for s in range(self.r)],
            B_BIT: [-U(100)] + [self.clause_slots[ci][0] * PITCH + U(110)
                                for ci in range(self.m_clauses)],
            Y_BIT: [-U(140)] + [self.clause_slots[ci][0] * PITCH + U(140)
                                for ci in range(self.m_clauses)],
        }
        for color, trunk_y in ((R_BIT, self.TRUNK_R), (B_BIT, self.TRUNK_B),
                               (Y_BIT, self.TRUNK_Y)):
            taps = self.trunk_taps[color]
            lo = min(taps + eyelets[color])
            hi = max(taps + [x + U(20) for x in eyelets[color]])
            self._add(color, _Walker((lo, trunk_y)).h_to(hi))
            for x in eyelets[color]:
                self._add(color, _Walker((x, trunk_y)).v_to(trunk_y + U(5))
                          .h_to(x + U(20)).v_to(trunk_y))

    def _column(self, ids: _SlotIds, x0: int, width: int, apex: int, big: bool,
                positive: bool) -> None:
        U, d5, L = self.U, self.d5, self.L
        ROW = self.ROW
        half = width // 2
        names = ("T1", "T2", "T3", "B1", "B2", "B3") if big else \
                ("t1", "t2", "t3", "b1", "b2", "b3")
        a1 = self._active(x0, ROW, BLACK)
        a2 = self._active(x0 + width, ROW, BLACK)
        a3 = self._active(x0 + half, apex, BLACK)
        b1 = self._active(x0, -ROW, BLACK)
        b2 = self._active(x0 + width, -ROW, BLACK)
        b3 = self._active(x0 + half, -apex, BLACK)
        for name, aid in zip(names, (a1, a2, a3, b1, b2, b3)):
            ids.names[name] = aid
        cl_blocks_south = False
        if not big:
            sgn = 1 if positive else -1
            ids.names["CL"] = self._active(x0, sgn * (ROW + 2 * d5), PURPLE)
            cl_blocks_south = not positive

        # red through-vertical: trunk -> bottom anchor 1 -> top anchor 1;
        # with a clause active right below b1 the trunk link detours west and
        # enters b1 with one diagonal step
        if not cl_blocks_south:
            self.trunk_taps[R_BIT].append(x0)
            w = _Walker((x0, self.TRUNK_R)).v_to(-ROW).v_to(ROW)
        else:
            self.trunk_taps[R_BIT].append(x0 - 2 * L)
            w = (_Walker((x0 - 2 * L, self.TRUNK_R)).v_to(-ROW - 4)
                 .h_to(x0 - 3).diag(3, 4).v_to(ROW))
        self._add(R_BIT, w)

        # blue and yellow through-verticals run trunk -> under rail -> anchors
        # -> top rail; their rails live per column
        self.trunk_taps[B_BIT].append(x0 + width)
        # the waypoint at 5.1 keeps the vertical on the neutral phase through
        # the arc bands; it shifts to the rail phase just below the rail
        self._add(B_BIT, _Walker((x0 + width, self.TRUNK_B)).v_to(self.REACH_B_NEG)
                  .v_to(-ROW).v_to(ROW).v_to(self.U(102)).v_to(self.REACH_B))
        self.trunk_taps[Y_BIT].append(x0 + half)
        self._add(Y_BIT, _Walker((x0 + half, self.TRUNK_Y)).v_to(self.REACH_Y_NEG)
                  .v_to(-apex).v_to(apex).v_to(self.REACH_Y))

        # reach rails: the under rail spans the column, the top rail only its
        # eastern half so clause risers have a clear corridor above anchor 1
        self._add(B_BIT, _Walker((x0 + half - L, self.REACH_B)).h_to(x0 + width))
        self._add(B_BIT, _Walker((x0 - L, self.REACH_B_NEG)).h_to(x0 + width))
        self._add(Y_BIT, _Walker((x0 + L, self.REACH_Y)).h_to(x0 + width - L))
        self._add(Y_BIT, _Walker((x0 + L, self.REACH_Y_NEG)).h_to(x0 + width + L))

        # blue risers: both first anchors hang off one chained pair of wires
        # rising from the under rail; the apexes use the rails directly
        self._add(B_BIT, _Walker((x0 - L, self.REACH_B_NEG)).v_to(-ROW).h_to(x0))
        self._add(B_BIT, _Walker((x0 - L, -ROW)).v_to(ROW).h_to(x0))
        self._add(B_BIT, _Walker((x0 + half - L, self.REACH_B)).v_to(apex).h_to(x0 + half))
        self._add(B_BIT, _Walker((x0 + half - L, self.REACH_B_NEG)).v_to(-apex).h_to(x0 + half))

        # yellow risers: first and second anchors
        self._add(Y_BIT, _Walker((x0 + L, self.REACH_Y)).v_to(ROW).h_to(x0))
        self._add(Y_BIT, _Walker((x0 + L, self.REACH_Y_NEG)).v_to(-ROW).h_to(x0))
        self._add(Y_BIT, _Walker((x0 + width - L, self.REACH_Y)).v_to(ROW).h_to(x0 + width))
        self._add(Y_BIT, _Walker((x0 + width + L, self.REACH_Y_NEG)).v_to(-ROW).h_to(x0 + width))

        # red risers from the trunk: a shared one tapping both apexes, plus
        # one per second anchor
        self.trunk_taps[R_BIT].append(x0 + half + L)
        self._add(R_BIT, _Walker((x0 + half + L, self.TRUNK_R)).v_to(apex).h_to(x0 + half))
        self._add(R_BIT, _Walker((x0 + half, -apex)).h_to(x0 + half + L))
        self.trunk_taps[R_BIT].append(x0 + width - L)
        self._add(R_BIT, _Walker((x0 + width - L, self.TRUNK_R)).v_to(-ROW).h_to(x0 + width))
        self.trunk_taps[R_BIT].append(x0 + width + 2 * L)
        self._add(R_BIT, _Walker((x0 + width + 2 * L, self.TRUNK_R)).v_to(ROW).h_to(x0 + width))

    def _arcs(self, ci: int, c: Clause, PITCH: int, COLGAP: int) -> None:
        U, d5 = self.U, self.d5
        half_d = d5 // 2
        depth = _clause_depth(self.cnf, ci)
        # positive and negative clauses use disjoint lane bands (and phases),
        # all above the switch rows, so the two sides can never meet
        if c.positive:
            red_y = U(101) - depth * U(2) + 3      # 5.05 - 0.10 depth
            blue_y = U(120) - depth * U(3) + 4     # 6.00 - 0.15 depth
        else:
            red_y = U(94) - depth * U(2) + 1       # 4.70 - 0.10 depth
            blue_y = U(129) - depth * U(2) + 2     # 6.45 - 0.10 depth
        split_y = U(110) + 4                       # clears both reach rails
        red_off = half_d + d5 // 25        # a clear lane east of the blue one
        red_xs, blue_xs = [], []
        for s in self.clause_slots[ci]:
            u = s * PITCH + COLGAP
            clx, cly = self.active_xy[self.slots[s].names["CL"]]
            if c.positive:
                self._add(R_BIT, _Walker((clx, cly)).v_to(red_y))
                red_xs.append(u)
            else:
                w = _Walker((clx, cly)).diag(3, 4).h_to(u + red_off)
                self._add(R_BIT, w.v_to(red_y))
                red_xs.append(u + red_off)
            w = _Walker((clx, cly)).diag(4, 3).h_to(u + half_d)
            if not c.positive:
                w.v_to(split_y)
            self._add(B_BIT, w.v_to(blue_y))
            blue_xs.append(u + half_d)
        if len(red_xs) > 1:
            self._add(R_BIT, _Walker((red_xs[0], red_y)).h_to(red_xs[-1]))
            self._add(B_BIT, _Walker((blue_xs[0], blue_y)).h_to(blue_xs[-1]))

    # -- structural checks --------------------------------------------------

    def _anchor_graph(self, color: int):
        """Vertex count, edge count and components (vertex sets, isolated
        actives included) of one color's chain graph at wire level.

        Interior points subdivide segments and change neither the component
        count nor the cycle count, so both are computed on the graph whose
        vertices are wire endpoints, actives, and junction coordinates.
        """
        wires = [w for w in self.wires if w.color == color]
        # junctions happen where coordinates coincide, which is always at a
        # polyline waypoint of at least one of the wires involved
        registered = {p for w in wires for p in w.pts}
        for aid, m in enumerate(self.active_mask):
            if m & color:
                registered.add(self.active_xy[aid])
        # registered points by row and by column, sorted, so that the hits
        # inside one segment are a bisected slice
        by_row: dict[int, list[int]] = {}
        by_col: dict[int, list[int]] = {}
        for px, py in registered:
            by_row.setdefault(py, []).append(px)
            by_col.setdefault(px, []).append(py)
        for line in (*by_row.values(), *by_col.values()):
            line.sort()
        ids = {p: i for i, p in enumerate(registered)}
        verts: set[tuple[int, int]] = set()
        pairs: list[tuple[int, int]] = []

        def inside(line: list[int], a: int, b: int) -> list[int]:
            """Entries of a sorted line strictly between a and b, a multiple
            of 5 from a, in order from a to b."""
            lo, hi = (a, b) if a < b else (b, a)
            got = [v for v in line[bisect_right(line, lo):bisect_left(line, hi)]
                   if (v - a) % 5 == 0]
            return got if a < b else got[::-1]

        for w in wires:
            stops = [w.pts[0]]
            for (x0, y0), (x1, y1) in zip(w.pts, w.pts[1:]):
                if y0 == y1 and x0 != x1:
                    stops.extend((px, y0) for px in inside(by_row[y0], x0, x1))
                elif x0 == x1 and y0 != y1:
                    stops.extend((x0, py) for py in inside(by_col[x0], y0, y1))
                stops.append((x1, y1))
            anchors = [stops[0]]
            for p in stops[1:]:
                if p in registered and p != anchors[-1]:
                    anchors.append(p)
            if anchors[-1] != w.pts[-1]:
                anchors.append(w.pts[-1])
            for p, q in zip(anchors, anchors[1:]):
                verts.add(p)
                verts.add(q)
                pairs.append((ids[p], ids[q]))
        labels = mst.component_labels(len(ids), pairs)
        comps: dict[int, set[tuple[int, int]]] = {}
        for v in verts:
            comps.setdefault(labels[ids[v]], set()).add(v)
        # isolated colored actives (none by construction, but count honestly)
        isolated = {self.active_xy[aid] for aid, m in enumerate(self.active_mask)
                    if m & color and self.active_xy[aid] not in verts}
        return len(verts), len(pairs), [*comps.values(), *({p} for p in isolated)]

    def _check_identity(self) -> None:
        total = 0
        for color in (R_BIT, B_BIT, Y_BIT):
            n_v, n_e, comps = self._anchor_graph(color)
            kappa = len(comps)
            mu = n_e - n_v + kappa
            s_active = sum(1 for m in self.active_mask if m & color)
            total += s_active - kappa + mu
            # every chain component must hold an active point, otherwise the
            # forced-edge pruning would keep a long bridge
            actives = {self.active_xy[aid] for aid, m in enumerate(self.active_mask) if m & color}
            if any(actives.isdisjoint(comp) for comp in comps):
                raise AssertionError(f"chain component without an active (color {color})")
        if total != 39 * self.r:
            raise AssertionError(
                f"cost identity violated: sum(|S'_c| - kappa_c + mu_c) = {total}, "
                f"expected {39 * self.r}"
            )


    # -- materialization ----------------------------------------------------

    @property
    def instance(self) -> Instance:
        if self._instance is None:
            self._instance, self._chain_edges = self._materialize()
        return self._instance

    def chain_edges(self) -> np.ndarray:
        """Every consecutive chain pair, as point indices (materializes)."""
        self.instance
        return self._chain_edges

    def _materialize(self) -> tuple[Instance, np.ndarray]:
        if self.n_chain_edges > MAX_CHAIN_STEPS:
            raise over_budget("gadget", self.n_chain_edges, "chain steps", MAX_CHAIN_STEPS,
                              "gadgets.MAX_CHAIN_STEPS")
        per_wire = [_expand_wire(w) for w in self.wires]
        active_arr = np.array(self.active_xy, dtype=np.int64).reshape(-1, 2)
        coords = np.concatenate([active_arr] + per_wire, axis=0)
        uniq, inv = _unique_rows(coords)
        n_active = active_arr.shape[0]
        n_unique = uniq.shape[0]
        # ids: actives first (in declaration order), then the rest by lattice order
        new_id = np.full(n_unique, -1, dtype=np.int64)
        new_id[inv[:n_active]] = np.arange(n_active)
        if np.unique(inv[:n_active]).size != n_active:
            raise AssertionError("two active points collided")
        rest = np.flatnonzero(new_id < 0)
        new_id[rest] = n_active + np.arange(rest.size)
        ids = new_id[inv]
        xy5 = np.empty_like(uniq)
        xy5[new_id] = uniq

        # masks: chain points carry their wire's color, actives as declared.
        # A chain coordinate shared between wires must agree on the color, so
        # it must read back the color that each of its wires wrote
        sizes = [pts.shape[0] for pts in per_wire]
        wire_ids = ids[n_active:]
        colors = np.repeat(np.array([w.color for w in self.wires], dtype=np.uint32), sizes)
        masks = np.zeros(n_unique, dtype=np.uint32)
        masks[wire_ids] = colors
        clash = (masks[wire_ids] != colors) & (wire_ids >= n_active)
        if clash.any():
            bad = wire_ids[np.argmax(clash)]
            raise AssertionError(f"wires of different colors collide at point {xy5[bad]}")
        masks[ids[:n_active]] = np.array(self.active_mask, dtype=np.uint32)

        # chain edges: consecutive pairs, except across a wire boundary
        inner = np.ones(wire_ids.size - 1, dtype=bool)
        inner[np.cumsum(sizes)[:-1] - 1] = False
        chain = as_edges(np.stack([wire_ids[:-1][inner], wire_ids[1:][inner]], axis=1))

        scale = self.epsilon / 5.0
        inst = Instance.from_arrays(3, xy5.astype(np.float64) * scale, masks)
        # chain steps must all have length exactly epsilon
        lengths = np.hypot(
            inst.xy[chain[:, 0], 0] - inst.xy[chain[:, 1], 0],
            inst.xy[chain[:, 0], 1] - inst.xy[chain[:, 1], 1],
        )
        if not np.allclose(lengths, self.epsilon, rtol=1e-9, atol=0.0):
            raise AssertionError("a chain step deviates from epsilon")
        return inst, chain

    # -- switch states ------------------------------------------------------

    def pattern_edges(self, assignment, chosen: dict[int, int]) -> list[tuple[int, int]]:
        """Switch edges of the standard solution for a satisfying assignment.

        ``chosen`` maps clause index -> slot index of the satisfying literal
        wired in the 4-edge state.
        """
        values = [bool(v) for v in assignment]
        out: list[tuple[int, int]] = []
        for s, ids in enumerate(self.slots):
            up = values[ids.var - 1]
            n = ids.names
            big = ("T1", "T2", "T3") if up else ("B1", "B2", "B3")
            out += [(n[big[0]], n[big[1]]), (n[big[0]], n[big[2]]), (n[big[1]], n[big[2]])]
            if chosen.get(ids.clause) == s:
                same = ("t1", "t3") if ids.positive else ("b1", "b3")
                other = ("b1", "b3", "b2") if ids.positive else ("t1", "t3", "t2")
                out += [
                    (n["CL"], n[same[1]]),
                    (n[same[0]], n[same[1]]),
                    (n[other[0]], n[other[1]]),
                    (n[other[2]], n[other[1]]),
                ]
            else:
                small = ("t1", "t2", "t3") if up else ("b1", "b2", "b3")
                out += [
                    (n[small[0]], n[small[1]]),
                    (n[small[0]], n[small[2]]),
                    (n[small[1]], n[small[2]]),
                ]
        return out


# ---------------------------------------------------------------------------
# materialization and the public surface


def _expand_wire(w: _Walker) -> np.ndarray:
    """All lattice points of one wire, endpoints included, in chain order."""
    chunks = []
    for (x0, y0), (x1, y1) in zip(w.pts, w.pts[1:]):
        dx, dy = x1 - x0, y1 - y0
        if dx and dy:
            chunks.append(np.array([[x0, y0]], dtype=np.int64))
            continue
        steps = (abs(dx) + abs(dy)) // 5
        t = np.arange(steps, dtype=np.int64)
        xs = x0 + t * (5 if dx > 0 else -5 if dx < 0 else 0)
        ys = y0 + t * (5 if dy > 0 else -5 if dy < 0 else 0)
        chunks.append(np.stack([xs, ys], axis=1))
    chunks.append(np.array([w.pts[-1]], dtype=np.int64))
    return np.concatenate(chunks, axis=0)


def _unique_rows(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(coords, axis=0, return_inverse=True)`` for lattice points,
    through one int64 key per point that sorts like the (x, y) row."""
    lo = coords.min(axis=0)
    span = coords.max(axis=0) - lo + 1
    if int(span[0]) * int(span[1]) >= 2**63:
        raise AssertionError("lattice too large for one int64 key per point")
    key = (coords[:, 0] - lo[0]) * span[1] + (coords[:, 1] - lo[1])
    order = np.argsort(key)
    sorted_key = key[order]
    first = first_of_runs(sorted_key)
    inv = np.empty(key.size, dtype=np.int64)
    inv[order] = np.cumsum(first) - 1
    return coords[order[first]], inv


def _plus_switch_terms(base: float, r: int, m: int, delta: float) -> float:
    """base + r(2+2√2) + rδ(2+2√2) + mδ(2√2−2), added left to right."""
    return (
        base
        + r * (2.0 + 2.0 * SQRT2)
        + r * delta * (2.0 + 2.0 * SQRT2)
        + m * delta * (2.0 * SQRT2 - 2.0)
    )


def build_gadget(cnf: MonotoneCnf) -> GadgetInstance:
    """Compile a monotone planar CNF into a 3-color gadget instance."""
    return GadgetInstance(cnf)


def build_witness(g: GadgetInstance, assignment) -> Solution:
    """Standard solution for a satisfying assignment; costs exactly W.

    Connects every chain, orients each variable's unit-size switches by its
    truth value, wires one satisfied literal per clause in the 4-edge state
    and the remaining small switches minimally.
    """
    values = [bool(v) for v in assignment]
    if not g.cnf.satisfies(values):
        raise FormatError("assignment does not satisfy the formula")
    chosen: dict[int, int] = {}
    for ci, c in enumerate(g.cnf.clauses):
        for s in g.clause_slots[ci]:
            if values[g.slots[s].var - 1] == c.positive:
                chosen[ci] = s
                break
    edges = merge_edges(g.chain_edges(), g.pattern_edges(values, chosen))
    return make_solution(g.instance, edges, "gadget-witness", ratio_bound=None)


def compute_w(g: GadgetInstance) -> float:
    """Recompute the threshold from the emitted points via the forced edges."""
    inst = g.instance
    total = sum(solution_cost(inst, mst.forced_edges(inst, c)) for c in (1, 2, 3))
    return _plus_switch_terms(total + 39.0 * g.r * g.epsilon, g.r, g.m_clauses, g.delta)
