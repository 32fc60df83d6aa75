import dataclasses
import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mcsg import cli, collinear, core, exact2, mst, oracle
from mcsg.render import render_svg


@pytest.fixture
def inst_file(tmp_path):
    inst = core.generate_random(6, 2, 0.5, 3)
    path = tmp_path / "inst.json"
    path.write_text(core.instance_to_json(inst))
    return str(path), inst


def run(*args):
    return cli.main(list(args))


def test_solve_auto_exact2(inst_file, tmp_path, capsys):
    path, inst = inst_file
    out = tmp_path / "sol.json"
    assert run("solve", "--input", path, "--output", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["algorithm"] == "exact2"
    assert doc["ratio_bound"] == 1.0
    assert doc["cost"] == pytest.approx(oracle.brute_force(inst).cost, rel=1e-9)


def test_solve_auto_collinear(tmp_path):
    inst = core.generate_collinear(7, 3, 0.4, 1)
    path = tmp_path / "c.json"
    path.write_text(core.instance_to_json(inst))
    out = tmp_path / "sol.json"
    assert run("solve", "--input", str(path), "--output", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["algorithm"] == "dp"
    assert doc["ratio_bound"] == 1.0


def test_solve_auto_a2_for_planar_k3(tmp_path):
    inst = core.generate_random(6, 3, 0.5, 4)
    path = tmp_path / "p.json"
    path.write_text(core.instance_to_json(inst))
    out = tmp_path / "sol.json"
    assert run("solve", "--input", str(path), "--output", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["algorithm"] == "a2"
    assert doc["ratio_bound"] == pytest.approx(2 - 1 / (3 + 2 * 1.21))


@pytest.mark.parametrize("mode", ["auto", "exact2"])
def test_solve_single_color_is_the_class_emst(tmp_path, mode):
    inst = core.generate_random(7, 1, 0.0, 5)
    path = tmp_path / "one.json"
    path.write_text(core.instance_to_json(inst))
    out = tmp_path / "sol.json"
    assert run("solve", "--input", str(path), "--output", str(out), "--mode", mode) == 0
    sol = core.solution_from_json(out.read_text())
    want = core.as_edges(mst.subset_mst(inst.xy, inst.color_class(1)))
    assert (sol.algorithm, sol.ratio_bound, sol.edges.tolist()) == ("exact2", 1.0, want.tolist())
    assert len(want) == inst.n - 1
    assert sol.cost == pytest.approx(oracle.brute_force(inst).cost, rel=1e-9)


def test_solve_svg_and_render_write_render_svg_bytes(tmp_path):
    inst = core.generate_random(6, 3, 0.5, 4)
    path, out, svg = tmp_path / "p.json", tmp_path / "sol.json", tmp_path / "sol.svg"
    path.write_text(core.instance_to_json(inst))
    assert run("solve", "--input", str(path), "--output", str(out), "--svg", str(svg)) == 0
    sol = core.solution_from_json(out.read_text())
    assert svg.read_bytes() == render_svg(inst, sol) == render_svg(inst, cli.solve_dispatch(inst))
    assert b"<line" in svg.read_bytes()
    again = tmp_path / "again.svg"
    assert run("render", "--input", str(path), "--solution", str(out), "--output", str(again)) == 0
    assert again.read_bytes() == svg.read_bytes()


def test_solve_auto_falls_back_where_the_dp_refuses(tmp_path, capsys):
    # a k = 6 line whose second cut is over collinear.MAX_STATES_PER_CUT
    inst = core.generate_collinear(7, 6, 1.0, 1164)
    with pytest.raises(core.RefusalError):
        collinear.dp_solve(inst)
    path = tmp_path / "line.json"
    path.write_text(core.instance_to_json(inst))
    out = tmp_path / "sol.json"
    assert run("solve", "--input", str(path), "--output", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["algorithm"] == "pairing"
    assert doc["cost"] == 8.559139868592156
    # where the pairing refuses too, the message names both budgets
    path.write_text(core.instance_to_json(core.generate_collinear(200, 4, 0.3, 7)))
    capsys.readouterr()
    assert run("solve", "--input", str(path)) == 2
    err = capsys.readouterr().err
    assert "(collinear.MAX_STATES_PER_CUT); pairing: exact2 needs" in err
    assert err.rstrip().endswith("(exact2.M_LIMIT)")


@pytest.mark.parametrize("n, fraction, seed", [(60, 0.3, 1), (40, 0.5, 2), (200, 0.1, 3)])
def test_solve_auto_k2_line_goes_to_the_dp(tmp_path, capsys, n, fraction, seed):
    # 18-20 purple units, over exact2.M_LIMIT: auto mode once sent these to exact2
    inst = core.generate_collinear(n, 2, fraction, seed)
    path = tmp_path / "line.json"
    path.write_text(core.instance_to_json(inst))
    out = tmp_path / "sol.json"
    assert run("solve", "--input", str(path), "--output", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["algorithm"] == "dp"
    assert doc["cost"] == collinear.dp_solve(inst).cost
    capsys.readouterr()
    assert run("solve", "--input", str(path), "--mode", "exact2") == 2
    assert "purple units" in capsys.readouterr().err


def test_exit_codes(tmp_path):
    big = core.generate_random(12, 2, 1.0, 0)
    path = tmp_path / "big.json"
    path.write_text(core.instance_to_json(big))
    assert run("solve", "--input", str(path), "--mode", "exact2") == 2
    assert run("solve", "--input", str(tmp_path / "missing.json")) == 1
    assert run("nonsense") == 1
    for i, doc in enumerate(('{"k":33,"points":[{"x":0,"y":0,"colors":[33]}]}',
                             '{"k":2,"points":[{"x":0,"y":0,"colors":[true]}]}',
                             '{"k":2,"points":[{"x":0,"y":0,"colors":[2.7]}]}',
                             '{"k":2,"points":5}',
                             '{"k":2,"points":[{"x":true,"y":"2","colors":[1, 2]}]}')):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(doc)
        assert run("solve", "--input", str(bad)) == 1


def test_collinear_stats_lines_only_when_asked(tmp_path, capsys):
    inst = core.generate_collinear(12, 3, 0.4, 2)
    path = tmp_path / "line.json"
    path.write_text(core.instance_to_json(inst))
    _, stats = collinear.dp_solve_with_stats(inst)
    want = [f"cut {i}: states={s} max_partitions_per_color={m}" for i, (s, m) in
            enumerate(zip(stats.per_cut_states, stats.per_cut_max_pi_per_color), start=1)]
    assert len(want) == inst.n
    capsys.readouterr()
    assert run("collinear", "--input", str(path), "--stats") == 0
    with_stats = capsys.readouterr()
    assert with_stats.err.splitlines() == want
    assert run("collinear", "--input", str(path)) == 0
    without = capsys.readouterr()
    assert without.err == ""
    assert without.out == with_stats.out


def test_readme_command_lines_parse():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("mcsg ")]
    for words in commands:
        cli._build_parser().parse_args(words[1:])  # raises on an unknown command or flag
    assert {words[1] for words in commands} == set(cli._COMMANDS)


def test_gen_and_bench(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert run("gen", "random", "--n", "5", "--k", "3", "--fraction", "0.4",
               "--seed", "7", "--output", str(out)) == 0
    inst = core.load_instance(out.read_text())
    assert inst.n == 5 and inst.k == 3
    csv_out = tmp_path / "bench.csv"
    assert run("bench", "--family", "random", "--algos", "a1", "--seeds", "5",
               "--out", str(csv_out)) == 0
    header = csv_out.read_text().splitlines()[0]
    assert header == "seed,n,k,opt,algo,cost,ratio"
    capsys.readouterr()
    for n_max in ("2", "0"):
        assert run("bench", "--n-max", n_max, "--seeds", "2", "--out", str(csv_out)) == 1
        assert "n_max must be at least 3" in capsys.readouterr().err
    for algos in ("", " , "):
        assert run("bench", "--algos", algos, "--seeds", "2", "--out", str(csv_out)) == 1
        assert "no algorithm to compare" in capsys.readouterr().err
    # a rejected run leaves the CSV of the run above as it was
    before = csv_out.read_text()
    for seeds in ("0", "-3"):
        assert run("bench", "--seeds", seeds, "--out", str(csv_out)) == 1
        assert "seeds must be at least 1" in capsys.readouterr().err
    assert run("bench", "--algos", "a1,foo", "--seeds", "2", "--out", str(csv_out)) == 1
    assert "unknown algorithm: foo" in capsys.readouterr().err
    # a repeated algorithm would write each of its rows twice
    assert run("bench", "--algos", "a1, a1", "--seeds", "2", "--out", str(csv_out)) == 1
    assert "algorithm named twice: a1" in capsys.readouterr().err
    assert csv_out.read_text() == before


@pytest.mark.parametrize("flags, message", [
    (("--fraction", "2"), "multichromatic fraction must be in [0, 1]"),
    (("--k", "17"), "invalid parameters"),
    (("--family", "allblack", "--k", "4"), "the allblack family has k = 3"),
])
def test_bench_rejects_bad_parameters(tmp_path, capsys, flags, message):
    # a parameter error is a usage error, not a failure of every seed
    csv_out = tmp_path / "bench.csv"
    assert run("bench", *flags, "--seeds", "2", "--out", str(csv_out)) == 1
    assert message in capsys.readouterr().err
    assert not csv_out.exists()


def test_ratio_bench_families():
    # on all-black instances both halves of a1 collapse to one MST
    report = cli.ratio_bench("allblack", ["a1"], 6)
    assert report.max_ratio("a1") == pytest.approx(1.0, abs=1e-9)
    report = cli.ratio_bench("random", ["a2"], 8, k=3, fraction=0.5)
    assert report.max_ratio("a2") <= 2 - 1 / (3 + 2 * 1.21) + 1e-9
    report = cli.ratio_bench("random", ["exact2"], 8, k=2, fraction=0.5)
    assert report.max_ratio("exact2") == pytest.approx(1.0, abs=1e-9)
    assert not report.violations()


def test_ratio_bench_bounds_come_from_the_solutions():
    report = cli.ratio_bench("random", ["a1", "a2"], 4, k=3)
    a2_bound = 2 - 1 / (3 + 2 * 1.21)
    assert {(r.algo, r.bound) for r in report.rows} == {("a1", 2.0), ("a2", a2_bound)}
    assert (report.bound("a1"), report.bound("a2"), report.bound("dp")) == (2.0, a2_bound, None)
    assert {r.n for r in cli.ratio_bench("random", ["a1"], 4, n_max=3).rows} == {3}
    for n_max in (2, 0, -5):
        with pytest.raises(core.FormatError, match="n_max must be at least 3"):
            cli.ratio_bench("random", ["a1"], 4, n_max=n_max)
    # each row is judged by its own bound
    row = cli.BenchRow(seed=0, n=3, k=3, opt=1.0, algo="auto", cost=1.5, ratio=1.5, bound=2.0)
    report = cli.BenchReport(rows=[row, dataclasses.replace(row, seed=1, bound=1.0)])
    assert [r.seed for r in report.violations()] == [1]


def test_ratio_bench_records_failures_and_csv(tmp_path, monkeypatch):
    monkeypatch.setattr(exact2, "M_LIMIT", 2)
    report = cli.ratio_bench("random", ["exact2"], 5, n_max=6, k=2, fraction=1.0)
    assert report.failures  # M_LIMIT refusals recorded, run continued
    out = tmp_path / "r.csv"
    report.write_csv(str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "seed,n,k,opt,algo,cost,ratio"


@pytest.mark.parametrize("family, k, algos", [
    ("collinear", 3, ["dp", "auto", "oracle"]),
    ("collinear", 2, ["dp", "auto", "exact2"]),
    ("random", 3, ["auto", "a1", "a2"]),
    ("random", 4, ["pairing", "auto", "oracle"]),
])
def test_ratio_bench_runs_every_solve_mode(family, k, algos):
    report = cli.ratio_bench(family, algos, 6, k=k)
    assert not report.failures and not report.violations()
    assert [r.algo for r in report.rows] == algos * 6
    for r in report.rows:
        if r.algo in ("dp", "oracle", "exact2") or (r.algo == "auto" and family == "collinear"):
            assert r.ratio == pytest.approx(1.0) and r.bound == 1.0
    if "pairing" in algos:
        assert {r.bound for r in report.rows if r.algo == "pairing"} == {2}


def test_bench_accepts_every_solve_mode(tmp_path, capsys):
    # exact2 takes k <= 2 only; the pinned bench runs below run it at k = 2
    modes = [m for m in cli.MODES if m != "exact2"]
    csv_out = tmp_path / "bench.csv"
    assert run("bench", "--family", "collinear", "--algos", ",".join(modes), "--n-max", "5",
               "--seeds", "3", "--out", str(csv_out)) == 0
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == sorted(modes)
    assert len(csv_out.read_text().splitlines()) == 1 + 3 * len(modes)


def test_bench_exact2_needs_two_colors_as_solve_does(tmp_path, capsys):
    # the bench once scored exact2 on colors 1 and 2 of a k = 3 instance
    csv_out = tmp_path / "bench.csv"
    assert run("bench", "--algos", "exact2", "--k", "3", "--seeds", "10",
               "--out", str(csv_out)) == 1
    assert "mode exact2 needs k <= 2" in capsys.readouterr().err
    assert not csv_out.exists()


def test_bench_auto_keeps_the_fallback_bound(tmp_path, capsys, monkeypatch):
    # a budget of two states per cut refuses the longer lines, which go to A2
    monkeypatch.setattr(collinear, "MAX_STATES_PER_CUT", 2)
    a2_bound = 2 - 1 / (3 + 2 * 1.21)
    report = cli.ratio_bench("collinear", ["auto"], 8, k=3)
    want = []
    for seed in range(8):
        try:
            collinear.dp_solve(cli._make_family("collinear", seed, 6, 3, 0.5))
            want.append(1.0)
        except core.RefusalError:
            want.append(a2_bound)
    assert [r.bound for r in report.rows] == want
    assert set(want) == {1.0, a2_bound}
    assert not report.violations()
    csv_out = tmp_path / "bench.csv"
    assert run("bench", "--family", "collinear", "--algos", "auto", "--seeds", "8",
               "--out", str(csv_out)) == 0
    assert capsys.readouterr().out.rstrip().endswith(f"bound {a2_bound}")


def test_bench_reports_refusals_on_stderr(tmp_path, capsys):
    # seeds 6-9 have 9-12 points, too many candidate edges for the oracle
    csv_out = tmp_path / "bench.csv"
    assert run("bench", "--seeds", "12", "--n-max", "12", "--out", str(csv_out)) == 0
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"seed {s}" for s in range(6, 10)]
    assert all(" oracle refused: oracle needs " in line for line in lines)
    assert "(oracle.MAX_CANDIDATE_EDGES)" in lines[0]
    assert captured.out.splitlines()[0] == "a1: max ratio 1.228383 mean 1.066230 bound 2.0"
    assert {int(line.split(",")[0]) for line in csv_out.read_text().splitlines()[1:]} == \
        set(range(6)) | {10, 11}


# sha256 of the CSV and of stdout of `mcsg bench --algos ALGOS --k K --seeds 8`,
# recorded before the bench ran its modes through solve_dispatch.
BENCH_DIGESTS = {
    ("random", "a1", "3"): ("42c262c2b998ec683839d5ed15d770e1d9ce40c0fb549841f8ca41444555fc1c",
                            "f2e39f5c11ceca661c915d4f2b9aec964bc5e3917e5ffacb34183db3f137db95"),
    ("random", "a2", "3"): ("afd3e552127643eb09f0b6dd7917620eca92d0281c98f1a5023d7ba024c63dd0",
                            "bed2bc92413d89a661355712dcf1c64cda1374e3472415696f0f074ae692e6c7"),
    ("random", "a1,a2", "3"): ("c7ea54ab2f41c4bd5e5872bb9e0d4825acf6d8be62e714a71cc8d2491f25e379",
                               "dcbdb25198f4c6aa8f7937b70f0064b96ec390b1f56dace354128e6ff01e923d"),
    ("random", "exact2", "2"): ("fb795fea4daa0076d97c79e4df1ea37b8e57bbdc5e864b34bccbff46d1176003",
                                "94afd359c9a0bf95bd092577f7ee1c46a0216aba8b9f4ebaaebcf4becf919af0"),
    ("allblack", "a1", "3"): ("cb531cf787958d8f8cede6337c77b0949d21df2adc7991cc68ad370f1cce8a0c",
                              "96f459147a085dbfba08d65b3454bbe299e68a88af9504c1a30e0d8bf5c49ed8"),
}


@pytest.mark.parametrize("family, algos, k", list(BENCH_DIGESTS))
def test_bench_outputs_pinned(tmp_path, capsys, family, algos, k):
    csv_out = tmp_path / "bench.csv"
    capsys.readouterr()
    assert run("bench", "--family", family, "--algos", algos, "--k", k, "--seeds", "8",
               "--out", str(csv_out)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    digests = (hashlib.sha256(csv_out.read_bytes()).hexdigest(),
               hashlib.sha256(captured.out.encode()).hexdigest())
    assert digests == BENCH_DIGESTS[family, algos, k]


def test_spanning_check_catches_a_bad_dp_answer(tmp_path, capsys, monkeypatch):
    # a DP answer whose cost matches its edges but that leaves a class split
    real_dp = collinear._dp

    def drop_last_edge(prep, stats):
        cost, edges = real_dp(prep, stats)
        return cost - prep.weight(*edges[-1]), edges[:-1]

    monkeypatch.setattr(collinear, "_dp", drop_last_edge)
    path = tmp_path / "line.json"
    path.write_text(core.instance_to_json(core.generate_collinear(7, 3, 0.4, 1)))
    capsys.readouterr()
    for words in (("solve",), ("solve", "--mode", "dp"), ("collinear",)):
        assert run(*words, "--input", str(path)) == 3
        assert "not a colored spanning graph" in capsys.readouterr().err
    with pytest.raises(RuntimeError, match="not a colored spanning graph"):
        cli.ratio_bench("collinear", ["dp"], 3)


def test_gen_gadget_with_witness(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p mcnf 2 1\n+ 1 2\n")
    assign = tmp_path / "a.txt"
    assign.write_text("1 0\n")
    inst_out = tmp_path / "gadget.json"
    wit_out = tmp_path / "wit.json"
    assert run("gen", "gadget", "--cnf", str(cnf), "--out", str(inst_out),
               "--witness", str(assign), "--witness-out", str(wit_out)) == 0
    meta = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert meta["r"] == 2 and meta["active_points"] == 26
    wit = core.solution_from_json(wit_out.read_text())
    assert wit.cost == pytest.approx(meta["W"], rel=1e-9)


def test_gen_gadget_rejects_formula_without_clauses_or_variables(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    inst_out = tmp_path / "gadget.json"
    for text in ("p mcnf 3 0\n", "p mcnf -2 0\n"):
        cnf.write_text(text)
        capsys.readouterr()
        assert run("gen", "gadget", "--cnf", str(cnf), "--out", str(inst_out)) == 1, text
        assert "at least 1" in capsys.readouterr().err, text
        assert not inst_out.exists(), text


def test_gen_gadget_rejects_bad_formulas(tmp_path, capsys):
    # a '+-' marker, a second header, and two clauses of one side over one
    # span, whose arcs the layout would put in the same lanes
    cnf = tmp_path / "f.cnf"
    inst_out = tmp_path / "gadget.json"
    for text, message in (("p mcnf 2 1\n+- 1 2\n", "must start with '+' or '-'"),
                          ("p mcnf 5 1\n+ 4 5\np mcnf 2 1\n", "second header"),
                          ("p mcnf 2 2\n+ 1 2\n+ 1 2\n", "clauses 0 and 1 share the span"),
                          ("p mcnf 3 2\n+ 1 3\n+ 1 2 3\n", "clauses 0 and 1 share the span"),
                          ("p mcnf 3 2\n- 1 3\n- 1 2 3\n", "clauses 0 and 1 share the span")):
        cnf.write_text(text)
        capsys.readouterr()
        assert run("gen", "gadget", "--cnf", str(cnf), "--out", str(inst_out)) == 1, text
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, (text, err)
        assert not inst_out.exists(), text


def test_gen_gadget_rejects_non_integer_tokens(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    inst_out = tmp_path / "gadget.json"
    for text, bad in (("p mcnf x 1\n+ 1 2\n", "p mcnf x 1"), ("p mcnf 2 1\n+ 1 a\n", "+ 1 a"),
                      ("p mcnf 2 1\n+ 1 2 # note\n", "+ 1 2 # note")):
        cnf.write_text(text)
        capsys.readouterr()
        assert run("gen", "gadget", "--cnf", str(cnf), "--out", str(inst_out)) == 1, text
        assert capsys.readouterr().err == f"error: not an integer in {bad!r}\n", text
        assert not inst_out.exists(), text


def test_gen_gadget_refuses_over_size_budget(tmp_path, capsys):
    # six two-variable clauses, r = 12: 199,432,260 chain steps would take
    # tens of GB to materialise
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p mcnf 12 6\n" + "".join(f"+ {v} {v + 1}\n" for v in range(1, 12, 2)))
    inst_out = tmp_path / "gadget.json"
    assert run("gen", "gadget", "--cnf", str(cnf), "--out", str(inst_out)) == 2
    assert "needs 199432260 chain steps" in capsys.readouterr().err
    assert not inst_out.exists()


def test_gen_gadget_rejects_bad_witness_before_materialising(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p mcnf 2 1\n+ 1 2\n")
    inst_out = tmp_path / "gadget.json"
    assign = tmp_path / "a.txt"
    # not a truth value, not one value per variable, not satisfying
    for text in ("yes 1", "2 0", "1", "1 0 1", "0 false"):
        assign.write_text(text)
        assert run("gen", "gadget", "--cnf", str(cnf), "--out", str(inst_out),
                   "--witness", str(assign)) == 1, text
        assert not inst_out.exists(), text


def test_render_rejects_non_integer_solution_endpoints(tmp_path):
    inst = tmp_path / "i.json"
    inst.write_text(core.instance_to_json(core.generate_random(3, 2, 0.5, 1)))
    sol = tmp_path / "s.json"
    sol.write_text(json.dumps({"algorithm": "x", "cost": 1.0, "edges": [[0.7, 1], [True, 2]],
                               "ratio_bound": None}))
    assert run("render", "--input", str(inst), "--solution", str(sol),
               "--output", str(tmp_path / "o.svg")) == 1


def test_exact2_with_merge_groups(tmp_path):
    inst = core.generate_random(6, 3, 0.6, 9)
    path = tmp_path / "i.json"
    path.write_text(core.instance_to_json(inst))
    groups = tmp_path / "g.json"
    groups.write_text(json.dumps([[0, 1]]))
    out = tmp_path / "s.json"
    assert run("exact2", "--input", str(path), "--pair", "1,3",
               "--merge-groups", str(groups), "--output", str(out)) == 0


def test_exact2_rejects_bad_merge_groups(tmp_path, capsys):
    path = tmp_path / "i.json"
    path.write_text(core.instance_to_json(core.generate_random(6, 3, 0.6, 9)))
    groups = tmp_path / "g.json"
    # not a list of lists, indices outside 0..5, non-integer indices
    for doc in ("[0, 1]", "{}", "5", "[[0, 99]]", "[[0, 6]]", "[[0, -1]]", "[[0, 1.5]]",
                "[[true, 1]]", '[["0", 1]]', "[[0, null]]", "[[0, 1], 2]"):
        groups.write_text(doc)
        capsys.readouterr()
        assert run("exact2", "--input", str(path), "--pair", "1,3",
                   "--merge-groups", str(groups)) == 1, doc
        assert "--merge-groups needs" in capsys.readouterr().err, doc


def test_malformed_side_documents_are_named(tmp_path, capsys):
    # a truncated --merge-groups list, and files that are not UTF-8 given
    # as the instance or the solution
    inst = tmp_path / "i.json"
    inst.write_text(core.instance_to_json(core.generate_random(6, 3, 0.6, 9)))
    groups, bad = tmp_path / "g.json", tmp_path / "bad.json"
    groups.write_text("[[0,1")
    bad.write_bytes(b'{"k": \xe9}')
    for args, what in ((("exact2", "--input", inst, "--pair", "1,3", "--merge-groups", groups),
                        "--merge-groups"),
                       (("render", "--input", bad, "--output", tmp_path / "o.svg"), "instance"),
                       (("render", "--input", inst, "--solution", bad,
                         "--output", tmp_path / "o.svg"), "solution")):
        capsys.readouterr()
        assert run(*map(str, args)) == 1, what
        assert capsys.readouterr().err.startswith(f"error: malformed {what} document: "), what
    assert not (tmp_path / "o.svg").exists()


def test_exact2_rejects_bad_pair(tmp_path, capsys):
    path = tmp_path / "i.json"
    path.write_text(core.instance_to_json(core.generate_random(6, 3, 0.6, 9)))
    for pair in ("1", "1,2,3", "a,b", "1.5,2", ""):
        capsys.readouterr()
        assert run("exact2", "--input", str(path), "--pair", pair) == 1, pair
        assert "--pair needs two colors, as c1,c2" in capsys.readouterr().err, pair


def test_render_deterministic_and_colors(tmp_path):
    inst = core.Instance(3, [(0, 0, {1, 2}), (1, 0, {1, 2}), (2, 0, {3})])
    sol = core.make_solution(inst, [(0, 1)], "x")
    a = render_svg(inst, sol)
    b = render_svg(inst, sol)
    assert a == b
    text = a.decode()
    assert 'stroke="purple"' in text  # {r,b} edge
    assert text.count("<circle") == 3
    empty = render_svg(inst, core.make_solution(inst, [], "x"))
    assert b"<line" not in empty


def test_render_large_k_palette():
    inst = core.generate_random(5, 5, 0.4, 2)
    data = render_svg(inst)
    assert b"hsl(" in data
    # above three colors every color set gets its own hue; sha256 recorded
    # when the palette was a table of all 2^k - 1 sets
    inst = core.generate_random(40, 5, 0.5, 11)
    data = render_svg(inst, core.make_solution(inst, [(i, i + 1) for i in range(39)], "x"))
    assert hashlib.sha256(data).hexdigest() == (
        "7c11ed05a4479928cd7cf04eb575685a7d524ba8a91431d80c87dd3d5b69a33e")
    # rendering 40 points must not cost in proportion to the 65,535 color sets of k = 16
    big = core.generate_random(40, 16, 0.5, 11)
    sol = core.make_solution(big, [(i, i + 1) for i in range(39)], "x")
    t0 = time.perf_counter()
    render_svg(big, sol)
    assert time.perf_counter() - t0 < 0.3


def test_prune_output(inst_file, capsys):
    path, _ = inst_file
    assert run("prune", "--input", path) == 0
    out = capsys.readouterr().out
    assert out.startswith("color 1:")


def test_prune_component_counts(tmp_path, capsys):
    # Color 1 holds both multichromatic points, color 2 only the first of
    # them and color 3 nothing; color 4 is the second one's partner.  (With
    # k = 3, a class of two multichromatic points leaves no room for both an
    # empty and a singleton class.)
    inst = core.Instance(4, [(0, 0, {1, 2}), (1, 0, {1}), (3, 0, {1, 4}), (3, 2, {4})])
    path = tmp_path / "p.json"
    core.save_instance(inst, str(path))
    assert run("prune", "--input", str(path)) == 0
    assert capsys.readouterr().out.splitlines() == [
        "color 1: 1 forced edge (2 components) (0,1)",
        "color 2: 0 forced edges (1 component)",
        "color 3: 0 forced edges (0 components)",
        "color 4: 1 forced edge (1 component) (2,3)",
    ]


@pytest.mark.parametrize("dense_limit", [None, 200])
def test_prune_all_multichromatic_class(tmp_path, capsys, monkeypatch, dense_limit):
    # 100 points above and below DENSE_LIMIT, every one carrying both colors
    if dense_limit is not None:
        monkeypatch.setattr(mst, "DENSE_LIMIT", dense_limit)
    inst = core.Instance.from_arrays(2, np.random.default_rng(3).random((100, 2)), np.full(100, 3))
    path = tmp_path / "p.json"
    core.save_instance(inst, str(path))
    assert run("prune", "--input", str(path)) == 0
    assert capsys.readouterr().out.splitlines() == [
        "color 1: 0 forced edges (100 components)",
        "color 2: 0 forced edges (100 components)",
    ]


# sha256 of `mcsg prune` output on generate_random(4600, 2, 0.01, seed), whose
# color classes are above mst.DENSE_LIMIT; recorded before the prune loop and
# the JSON reader were vectorised
PRUNE_DIGESTS = {
    0: "e88a7437702050aed903b2eb7ce6a591147d51e08f82b751978c7e7b25dbfa9b",
    1: "ee6215f26df24b964ffa72a065bc73b42e5c693d53cf9bab9e364cee38248c02",
}


def test_prune_output_pinned(tmp_path, capsys):
    for seed, digest in PRUNE_DIGESTS.items():
        path = tmp_path / f"p{seed}.json"
        path.write_text(core.instance_to_json(core.generate_random(4600, 2, 0.01, seed)))
        capsys.readouterr()
        assert run("prune", "--input", str(path)) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, seed


SCIPY_PROBE = """
import contextlib, io, json, sys
import mcsg, mcsg.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = [("import mcsg, mcsg.cli", 0, scipy_modules())]
for command, path in zip(sys.argv[1::2], sys.argv[2::2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = mcsg.cli.main([command, "--input", path])
    seen.append((f"{command} {path}", code, scipy_modules()))
print(json.dumps(seen))
"""


def test_scipy_loads_only_for_emsts_above_the_dense_limit(tmp_path):
    # scipy was most of a one-shot command's start-up, so only the Borůvka
    # EMST (classes above mst.DENSE_LIMIT points) may load it, on first use
    runs = [("solve", core.generate_random(20, 2, 0.3, 1)),  # exact2
            ("solve", core.generate_collinear(70, 3, 0.3, 1)),  # the collinear DP
            ("solve", core.generate_random(20, 3, 0.3, 1)),  # A2
            ("prune", core.generate_random(4600, 2, 0.01, 0))]  # Borůvka
    argv = []
    for i, (command, inst) in enumerate(runs):
        path = tmp_path / f"{i}.json"
        path.write_text(core.instance_to_json(inst))
        argv += [command, str(path)]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *small, prune = json.loads(proc.stdout.splitlines()[-1])
    for step, code, scipy in small:
        assert code == 0 and scipy == [], step
    assert prune[1] == 0 and "scipy.spatial" in prune[2]
