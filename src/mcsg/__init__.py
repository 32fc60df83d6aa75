"""Minimum colored spanning graphs: exact solvers, approximations, gadgets.

Given planar points each carrying a nonempty set of primary colors, a
colored spanning graph induces a connected subgraph on every color class.
This package provides the domain model and validity checker (``core``),
per-color MSTs with forced-edge pruning (``mst``), an exact 2-color solver
(``exact2``), 2- and 1.816-approximations for 3 colors (``approx3``), a
linear-time exact DP for collinear points (``collinear``), a brute-force
oracle (``oracle``), NP-hardness gadget generation (``gadgets``), SVG
rendering (``render``), and a command line with the ratio benchmark (``cli``).
"""

from . import approx3, collinear, exact2, gadgets, mst, oracle, render
from .core import (
    FormatError,
    Instance,
    RefusalError,
    Solution,
    generate_all_black,
    generate_collinear,
    generate_random,
    instance_to_json,
    is_csg,
    load_instance,
    make_solution,
    save_instance,
    solution_cost,
    solution_from_json,
    solution_to_json,
)

__all__ = [
    "approx3",
    "collinear",
    "exact2",
    "gadgets",
    "mst",
    "oracle",
    "render",
    "FormatError",
    "Instance",
    "RefusalError",
    "Solution",
    "generate_all_black",
    "generate_collinear",
    "generate_random",
    "instance_to_json",
    "is_csg",
    "load_instance",
    "make_solution",
    "save_instance",
    "solution_cost",
    "solution_from_json",
    "solution_to_json",
]

__version__ = "0.1.0"
