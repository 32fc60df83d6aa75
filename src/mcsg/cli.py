"""Command-line front end: solving, generation, benchmarking, rendering.

``solve --mode`` runs one solver of ``MODES`` through ``solve_dispatch``, the
one table from mode name to solver: ``auto`` dispatches, ``a1`` and ``a2``
are the k = 3 approximations and ``oracle`` is the brute-force ground truth.
``exact2`` solves one color pair, ``collinear`` runs the line DP and prints
its per-cut state counts on ``--stats``.  ``bench`` scores the same modes
against the oracle (``ratio_bench``) and names each refusal on stderr.

Exit codes: 0 success, 1 usage error, 2 solver refusal, 3 internal
invariant violation.  Every solution is validated against the spanning
check before it is written or scored.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from typing import IO

from . import approx3, collinear, exact2, gadgets, mst, oracle
from .core import (
    FormatError,
    Instance,
    RefusalError,
    Solution,
    _read_json,
    is_csg,
    load_instance,
    make_solution,
    generate_all_black,
    generate_collinear,
    generate_random,
    instance_to_json,
    save_instance,
    solution_from_json,
    solution_to_json,
)
from .render import render_svg

EXIT_OK, EXIT_USAGE, EXIT_REFUSED, EXIT_INVARIANT = 0, 1, 2, 3

# The modes solve_dispatch knows: `solve --mode`'s choices and the names
# `bench --algos` accepts.
MODES = ("auto", "exact2", "a1", "a2", "dp", "pairing", "oracle")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        raise FormatError(message)


def _read_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return load_instance(fh)


def _is_collinear(inst: Instance) -> bool:
    try:
        collinear.collinear_order(inst)
        return True
    except RefusalError:
        return False


def solve_dispatch(inst: Instance, mode: str = "auto") -> Solution:
    """Pick a solver: the DP for collinear inputs with 2 <= k <= K_GUARD,
    otherwise exact2 for k <= 2, A2 for k = 3 and the pairing approximation;
    a line the DP refuses goes to the one of those its k picks."""
    if mode == "auto":
        mode = "exact2" if inst.k <= 2 else "a2" if inst.k == 3 else "pairing"
        if 2 <= inst.k <= collinear.K_GUARD and _is_collinear(inst):
            try:
                return collinear.dp_solve(inst)
            except RefusalError as dp_refusal:  # over its state budget: approximate instead
                try:
                    return solve_dispatch(inst, mode)
                except RefusalError as exc:  # name both budgets that ran out
                    raise RefusalError(f"{dp_refusal}; {mode}: {exc}") from exc
    if mode == "exact2":
        if inst.k == 1:
            return make_solution(inst, mst.class_tree(inst, 1), "exact2", ratio_bound=1.0)
        if inst.k != 2:
            raise FormatError("mode exact2 needs k <= 2 (use 'exact2' subcommand with --pair)")
        return exact2.solve_pair(exact2.project_pair(inst, 1, 2))
    if mode == "dp":
        return collinear.dp_solve(inst)
    if mode == "a1":
        return approx3.approx_a1(inst)
    if mode == "a2":
        return approx3.approx_a2(inst)
    if mode == "pairing":
        blocks = [(c,) if c + 1 > inst.k else (c, c + 1) for c in range(1, inst.k + 1, 2)]
        return approx3.approx_pairing(inst, blocks)
    if mode == "oracle":
        return oracle.brute_force(inst)
    raise FormatError(f"unknown mode: {mode}")


def _check_spanning(inst: Instance, sol: Solution) -> None:
    if not is_csg(inst, sol.edges):
        raise RuntimeError("produced edge set is not a colored spanning graph")


def _emit_solution(inst: Instance, sol: Solution, output: str | None,
                   svg: str | None = None) -> None:
    _check_spanning(inst, sol)
    _write(solution_to_json(sol), output)
    if svg:
        with open(svg, "wb") as fh:
            fh.write(render_svg(inst, sol))


def _write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text)


@functools.cache  # parse_args leaves the parser unchanged, so one per process serves
def _build_parser() -> _Parser:
    p = _Parser(prog="mcsg", description="Minimum colored spanning graph toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="dispatch to the best applicable solver")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output")
    sp.add_argument("--mode", default="auto", choices=MODES)
    sp.add_argument("--svg", help="also write a rendering of the solution")

    sp = sub.add_parser("exact2", help="exact solver for one color pair")
    sp.add_argument("--input", required=True)
    sp.add_argument("--pair", default="1,2")
    sp.add_argument("--merge-groups")
    sp.add_argument("--output")

    sp = sub.add_parser("collinear", help="exact DP for collinear instances")
    sp.add_argument("--input", required=True)
    sp.add_argument("--stats", action="store_true",
                    help="print per-cut state counts")
    sp.add_argument("--output")
    sp.add_argument("--svg", help="also write a rendering of the solution")

    sp = sub.add_parser("prune", help="print the forced edges per color")
    sp.add_argument("--input", required=True)

    sp = sub.add_parser("gen", help="instance generators")
    gen_sub = sp.add_subparsers(dest="family", required=True)
    for fam in ("random", "collinear"):
        gp = gen_sub.add_parser(fam)
        gp.add_argument("--n", type=int, required=True)
        gp.add_argument("--k", type=int, default=3)
        gp.add_argument("--fraction", type=float, default=0.5)
        gp.add_argument("--seed", type=int, default=0)
        gp.add_argument("--output", required=True)
    gp = gen_sub.add_parser("gadget")
    gp.add_argument("--cnf", required=True)
    gp.add_argument("--out", required=True)
    gp.add_argument("--witness", help="file with one 0/1 per variable")
    gp.add_argument("--witness-out")

    sp = sub.add_parser("bench", help="ratio benchmark against the oracle")
    sp.add_argument("--family", default="random", choices=["random", "collinear", "allblack"])
    sp.add_argument("--algos", default="a1,a2")
    sp.add_argument("--seeds", type=int, default=50)
    sp.add_argument("--n-max", type=int, default=6)
    sp.add_argument("--k", type=int, default=3)
    sp.add_argument("--fraction", type=float, default=0.5)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("render", help="draw an instance (and solution) as SVG")
    sp.add_argument("--input", required=True)
    sp.add_argument("--solution")
    sp.add_argument("--output", required=True)
    return p


def _cmd_solve(args) -> int:
    inst = _read_instance(args.input)
    sol = solve_dispatch(inst, args.mode)
    _emit_solution(inst, sol, args.output, args.svg)
    return EXIT_OK


def _read_merge_groups(path: str, n: int) -> tuple[frozenset[int], ...]:
    """A JSON list of lists of point indices in 0..n-1."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = _read_json(fh, "--merge-groups")
    if not (isinstance(doc, list) and all(
            isinstance(grp, list) and all(type(i) is int and 0 <= i < n for i in grp)
            for grp in doc)):
        raise FormatError(f"--merge-groups needs a list of lists of point indices in 0..{n - 1}")
    return tuple(frozenset(grp) for grp in doc)


def _cmd_exact2(args) -> int:
    inst = _read_instance(args.input)
    try:
        c1, c2 = (int(x) for x in args.pair.split(","))
    except ValueError:  # a count other than two, or a color that is not an integer
        raise FormatError(f"--pair needs two colors, as c1,c2; got {args.pair!r}") from None
    merge = _read_merge_groups(args.merge_groups, inst.n) if args.merge_groups else ()
    proj = exact2.project_pair(inst, c1, c2, merge)
    sol = exact2.solve_pair(proj)
    if not exact2.spans_projection(proj, sol.edges):
        raise RuntimeError("pair solution does not span its projection")
    _write(solution_to_json(sol), args.output)
    return EXIT_OK


def _cmd_collinear(args) -> int:
    inst = _read_instance(args.input)
    sol, stats = collinear.dp_solve_with_stats(inst)
    if args.stats:
        for i, (n_states, max_pi) in enumerate(
            zip(stats.per_cut_states, stats.per_cut_max_pi_per_color), start=1
        ):
            print(f"cut {i}: states={n_states} max_partitions_per_color={max_pi}",
                  file=sys.stderr)
    _emit_solution(inst, sol, args.output, args.svg)
    return EXIT_OK


def _cmd_prune(args) -> int:
    inst = _read_instance(args.input)
    for c in range(1, inst.k + 1):
        edges = mst.forced_edges(inst, c)
        pairs = "".join(f" ({a},{b})" for a, b in edges.tolist())
        components = inst.color_class(c).size - len(edges)  # the forced edges form a forest
        edge_noun = "edge" if len(edges) == 1 else "edges"
        noun = "component" if components == 1 else "components"
        print(f"color {c}: {len(edges)} forced {edge_noun} ({components} {noun}){pairs}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.family == "random":
        inst = generate_random(args.n, args.k, args.fraction, args.seed)
    elif args.family == "collinear":
        inst = generate_collinear(args.n, args.k, args.fraction, args.seed)
    else:
        return _cmd_gen_gadget(args)
    save_instance(inst, args.output)
    return EXIT_OK


def _cmd_gen_gadget(args) -> int:
    with open(args.cnf, "r", encoding="utf-8") as fh:
        cnf = gadgets.parse_cnf(fh.read())
    bits = None
    if args.witness:  # read before the gadget materialises, so a bad file fails fast
        with open(args.witness, "r", encoding="utf-8") as fh:
            tokens = fh.read().split()
        if not set(tokens) <= {"0", "1", "false", "true", "False", "True"}:
            raise FormatError("witness values must be 0, 1, true, false, True or False")
        bits = [tok in ("1", "true", "True") for tok in tokens]
        if not cnf.satisfies(bits):  # also checks that there is one value per variable
            raise FormatError("the witness does not satisfy the formula")
    g = gadgets.build_gadget(cnf)
    text = instance_to_json(g.instance)  # refuses over the size budget before --out is opened
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(json.dumps({"r": g.r, "active_points": int(g.active_points.size),
                      "epsilon": g.epsilon, "delta": g.delta, "W": g.W}))
    if bits is not None:
        sol = gadgets.build_witness(g, bits)
        if not is_csg(g.instance, sol.edges):
            raise RuntimeError("witness is not a colored spanning graph")
        with open(args.witness_out or "witness.json", "w", encoding="utf-8") as fh:
            fh.write(solution_to_json(sol))
    return EXIT_OK


# ---------------------------------------------------------------------------
# ratio benchmark


@dataclass(frozen=True)
class BenchRow:
    seed: int
    n: int
    k: int
    opt: float
    algo: str
    cost: float
    ratio: float
    bound: float  # the ratio_bound of the solution scored here


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)
    failures: list[tuple[int, str, str]] = field(default_factory=list)

    def max_ratio(self, algo: str) -> float:
        return max((r.ratio for r in self.rows if r.algo == algo), default=math.nan)

    def mean_ratio(self, algo: str) -> float:
        vals = [r.ratio for r in self.rows if r.algo == algo]
        return sum(vals) / len(vals) if vals else math.nan

    def bound(self, algo: str) -> float | None:
        """The loosest bound certified on the algorithm's rows."""
        return max((r.bound for r in self.rows if r.algo == algo), default=None)

    def violations(self) -> list[BenchRow]:
        return [r for r in self.rows if r.ratio > r.bound + 1e-9]

    def write_csv(self, target: str | IO) -> None:
        fh = open(target, "w", newline="", encoding="utf-8") if isinstance(target, str) else target
        try:
            w = csv.writer(fh)
            w.writerow(["seed", "n", "k", "opt", "algo", "cost", "ratio"])
            for r in self.rows:
                w.writerow([r.seed, r.n, r.k, repr(r.opt), r.algo, repr(r.cost), repr(r.ratio)])
        finally:
            if isinstance(target, str):
                fh.close()


def _make_family(family: str, seed: int, n_max: int, k: int, fraction: float) -> Instance:
    n = 3 + seed % (n_max - 2)
    if family == "random":
        return generate_random(n, k, fraction, seed)
    if family == "collinear":
        return generate_collinear(n, k, fraction, seed)
    if family == "allblack":
        return generate_all_black(n, seed)
    raise ValueError(f"unknown family: {family}")


def ratio_bench(
    family: str,
    algorithms: list[str],
    seeds: int,
    *,
    n_max: int = 6,
    k: int = 3,
    fraction: float = 0.5,
) -> BenchReport:
    """Compare ``solve`` modes against the brute-force optimum over seeded instances.

    Instance sizes cycle through 3..``n_max``; each row keeps the certified
    ``ratio_bound`` of the solution it scores.  A refusal on one seed is
    recorded and the run continues; a bad parameter raises FormatError before
    any solve (``seeds`` below 1, ``n_max`` below 3, no algorithm, one not in
    ``MODES`` or a repeated one, an ``allblack`` k other than 3, or a
    generator's own check), and a mode that does not take the family's k
    raises FormatError from ``solve_dispatch``.
    """
    if seeds < 1:
        raise FormatError(f"seeds must be at least 1, got {seeds}")
    if n_max < 3:
        raise FormatError(f"n_max must be at least 3, got {n_max}")
    if not algorithms:
        raise FormatError(f"no algorithm to compare; choose from {', '.join(MODES)}")
    for i, name in enumerate(algorithms):
        if name not in MODES:
            raise FormatError(f"unknown algorithm: {name}")
        if name in algorithms[:i]:
            raise FormatError(f"algorithm named twice: {name}")
    if family == "allblack" and k != 3:
        raise FormatError(f"the allblack family has k = 3, got k = {k}")
    report = BenchReport()

    for seed in range(seeds):
        try:
            inst = _make_family(family, seed, n_max, k, fraction)
            opt = oracle.brute_force(inst).cost
        except RefusalError as exc:
            report.failures.append((seed, "oracle", str(exc)))
            continue
        for name in algorithms:
            try:
                sol = solve_dispatch(inst, name)
            except RefusalError as exc:
                report.failures.append((seed, name, str(exc)))
                continue
            _check_spanning(inst, sol)
            if opt <= 0:
                ratio = 1.0 if sol.cost <= 0 else math.inf
            else:
                ratio = sol.cost / opt
            report.rows.append(BenchRow(seed=seed, n=inst.n, k=inst.k, opt=opt, algo=name,
                                        cost=sol.cost, ratio=ratio, bound=sol.ratio_bound))
    return report


def _cmd_bench(args) -> int:
    report = ratio_bench(
        args.family,
        [a.strip() for a in args.algos.split(",") if a.strip()],
        args.seeds,
        n_max=args.n_max,
        k=args.k,
        fraction=args.fraction,
    )
    report.write_csv(args.out)
    for algo in sorted({r.algo for r in report.rows}):
        print(f"{algo}: max ratio {report.max_ratio(algo):.6f} "
              f"mean {report.mean_ratio(algo):.6f} bound {report.bound(algo)}")
    for seed, name, message in report.failures:
        print(f"seed {seed}: {name} refused: {message}", file=sys.stderr)
    bad = report.violations()
    if bad:
        print(f"{len(bad)} bound violations", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_render(args) -> int:
    inst = _read_instance(args.input)
    sol = None
    if args.solution:
        with open(args.solution, "r", encoding="utf-8") as fh:
            sol = solution_from_json(fh)
    data = render_svg(inst, sol)
    with open(args.output, "wb") as fh:
        fh.write(data)
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "exact2": _cmd_exact2,
    "collinear": _cmd_collinear,
    "prune": _cmd_prune,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (FormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RefusalError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (AssertionError, RuntimeError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    raise SystemExit(main())
