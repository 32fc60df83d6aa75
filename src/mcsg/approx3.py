"""Approximation algorithms for three primary colors.

A1 solves one color pair exactly and spans the third color with its MST,
giving a 2-approximation; the same idea pairs up any number of colors for a
ceil(k/2) ratio.  A2 builds six candidate solutions: the three pair+mono
unions G1..G3, and G4..G6, which start from an MST H of the points carrying
all three colors and complete each world around H.  G(i+3) is G(i) when H has
at most one point: H has no edge and a one-point block merges nothing.  Its
certified ratio is 2 - 1/(3 + 2*rho), where rho bounds the Steiner ratio.
All of them read the one EMST per class the instance keeps (``mst.class_tree``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import mst
from .core import Instance, Solution, make_solution, merge_edges
from .exact2 import project_pair, solve_pair
from .mst import mst_completion  # also bound here: perfbench traces it as approx3.mst_completion


@dataclass(frozen=True)
class ApproxConfig:
    """Analysis constants; only the certified ratios are used at runtime."""

    steiner_ratio_bound: float = 1.21

    def __post_init__(self) -> None:
        if not 1.0 <= self.steiner_ratio_bound <= 2.0:
            raise ValueError("steiner ratio bound must lie in [1, 2]")

    @property
    def ratio_a2(self) -> float:
        return 2.0 - 1.0 / (3.0 + 2.0 * self.steiner_ratio_bound)

    def ratio_a1(self, k: int = 3) -> float:
        return float(math.ceil(k / 2))


@dataclass(frozen=True, eq=False)
class CandidateBundle:
    """The six A2 candidates (labels G1..G6) and the index of the cheapest."""

    graphs: tuple[Solution, ...]
    chosen: int

    @property
    def best(self) -> Solution:
        return self.graphs[self.chosen]


def _pair_plus_trees(inst: Instance, blocks) -> np.ndarray:
    """The merged edges of an exact ``solve_pair`` per two-color block and the
    class tree (``mst.class_tree``) per one-color block."""
    return merge_edges(*(solve_pair(project_pair(inst, *b)).edges if len(b) == 2
                         else mst.class_tree(inst, b[0]) for b in blocks))


def approx_a1(inst: Instance, config: ApproxConfig | None = None) -> Solution:
    """2-approximation for three colors: exact red-blue pair plus yellow MST,
    the k = 3 case of ``approx_pairing``."""
    if inst.k != 3:
        raise ValueError("approx_a1 requires k == 3")
    edges = _pair_plus_trees(inst, ((1, 2), (3,)))
    return make_solution(inst, edges, "a1", ratio_bound=2.0)


def approx_pairing(inst: Instance, pairing) -> Solution:
    """ceil(k/2)-approximation: exact solve per color pair, MST per singleton."""
    blocks = [tuple(sorted(int(c) for c in b)) for b in pairing]
    flat = [c for b in blocks for c in b]
    if sorted(flat) != list(range(1, inst.k + 1)) or any(len(b) not in (1, 2) for b in blocks):
        raise ValueError(f"pairing must partition 1..{inst.k} into blocks of size <= 2")
    edges = _pair_plus_trees(inst, blocks)
    return make_solution(inst, edges, "pairing", ratio_bound=float(math.ceil(inst.k / 2)))


_A2_SPLITS = ((1, 2, 3), (1, 3, 2), (2, 3, 1))


def approx_a2_bundle(inst: Instance) -> CandidateBundle:
    """All six A2 candidates: G1..G3 pair+mono, G4..G6 completions around H,
    or G1..G3 relabelled, without solving again, when H has under two points."""
    if inst.k != 3:
        raise ValueError("approx_a2 requires k == 3")
    graphs: list[Solution] = []
    for i, (c1, c2, mono) in enumerate(_A2_SPLITS):
        edges = _pair_plus_trees(inst, ((c1, c2), (mono,)))
        graphs.append(make_solution(inst, edges, f"a2/G{i + 1}", ratio_bound=None))
    black = np.flatnonzero(inst.masks == np.uint32(0b111))
    if black.size < 2:
        graphs += [replace(g, algorithm=f"a2/G{i + 4}") for i, g in enumerate(graphs)]
    else:
        h_edges = mst.subset_mst(inst.xy, black)
        merged = (frozenset(black.tolist()),)
        for i, (c1, c2, mono) in enumerate(_A2_SPLITS):
            pair_sol = solve_pair(project_pair(inst, c1, c2, group_merge=merged))
            mono_edges = mst_completion(inst, inst.color_class(mono), merged, mst.class_tree(inst, mono))
            edges = merge_edges(h_edges, pair_sol.edges, mono_edges)
            graphs.append(make_solution(inst, edges, f"a2/G{i + 4}", ratio_bound=None))
    chosen = 0
    for i in range(1, 6):
        if graphs[i].cost < graphs[chosen].cost:
            chosen = i
    return CandidateBundle(graphs=tuple(graphs), chosen=chosen)


def approx_a2(inst: Instance, config: ApproxConfig | None = None) -> Solution:
    """(2 - 1/(3+2*rho))-approximation for three colors via six candidates."""
    config = config or ApproxConfig()
    bundle = approx_a2_bundle(inst)
    best = bundle.best
    return Solution(
        algorithm="a2", cost=best.cost, edges=best.edges, ratio_bound=config.ratio_a2
    )
