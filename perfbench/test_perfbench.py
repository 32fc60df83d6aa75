"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

Traced runs make each workload's ``trace_ops`` ops twice, so the whole file
takes about five minutes.  The gadget-w case makes two traced runs of the
r = 2 reduction, two ops each (about three minutes and 0.5 GB of memory).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402

# Per-layer metrics and the workload each must be exercised on.
ASSIGNED = {
    "pair-exact": ("exact2.solve_pair.s", "core.is_csg.s", "cli.self_s"),
    "tri-approx": ("core.load_instance.s", "mst.euclidean_mst.s", "exact2.project_pair.s",
                   "exact2.solve_pair.s", "approx3.approx_a2.s", "approx3.mst_completion.s",
                   "collinear.collinear_order.s", "cli.self_s"),
    "collinear-dp": ("core.load_instance.s", "collinear.dp_solve.s",
                     "collinear.collinear_order.s", "collinear.states_total",
                     "collinear.peak_states", "cli.self_s"),
    "ratio-bench": ("core.as_edges.calls", "core.as_edges.self_s", "approx3.approx_a1.s",
                    "approx3.approx_a2.s", "approx3.mst_completion.s", "exact2.project_pair.s",
                    "exact2.solve_pair.s", "mst.euclidean_mst.s", "oracle.brute_force.s",
                    "oracle.brute_force.calls", "oracle.candidate_edges.edges"),
    "gadget-prune": ("gadgets.build_gadget.s", "mst.forced_edges.s", "mst.forced_edges.self_s",
                     "mst.euclidean_mst.points", "core.load_instance.s", "cli.self_s"),
    "gadget-w": ("core.instance_to_json.s", "core.is_csg.s", "mst.euclidean_mst.s",
                 "mst.forced_edges.s", "gadgets.build_gadget.s", "gadgets.materialize.s",
                 "gadgets.build_witness.s", "gadgets.compute_w.s", "cli.self_s"),
}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == [run.unit_of(n) for n in run.PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(ASSIGNED))
def test_traced_counts_repeat_and_assigned_layers_are_called(workload):
    args = ("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    first, second = _result(_bench(*args)), _result(_bench(*args))
    assert first["correct"]
    counts = {n: m["value"] for n, m in first["metrics"].items() if m["unit"] == "count"}
    assert counts == {n: m["value"] for n, m in second["metrics"].items()
                      if m["unit"] == "count"}
    for name in ASSIGNED[workload]:
        assert first["metrics"][name]["value"] > 0, name


def test_untraced_run_prints_every_end_to_end_metric():
    out = _result(_bench("--workload", "ratio-bench", "--seed", "1", "--seconds", "1"))
    assert out["correct"] and out["attempted"] >= 1
    assert set(out["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_run_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = _bench("--workload", "ratio-bench", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_deadline_kill_prints_a_result_with_the_op_in_flight_failed(monkeypatch, capfd):
    monkeypatch.setattr(run, "DEADLINE_S", 8)
    assert run.main(["--workload", "ratio-bench", "--seed", "1", "--seconds", "60"]) == 0
    result = json.loads(capfd.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["attempted"] >= result["failed"] >= 1


def test_killed_worker_counts_the_op_in_flight_as_failed(tmp_path):
    (tmp_path / "progress").write_text("0 0.5 0\n1 0.25 1\n0 0.5 0\n")
    result = run._killed_result(tmp_path, -9)
    assert result["attempted"] == 3 and result["failed"] == 2
    assert result["metrics"]["op_s_p50"] == 0.5


def test_tracer_wraps_every_binding_and_reports_absent_targets(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    core.is_csg = lambda inst, edges: True
    cli = types.ModuleType("fakepkg.cli")
    cli.is_csg = core.is_csg  # a `from .core import is_csg` binding
    cli.main = lambda argv: cli.is_csg(None, ()) and 0
    for mod in (pkg, core, cli):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    tracer = Tracer()
    tracer.install(pkg)
    assert "approx3.mst_completion" in tracer.absent
    assert "gadgets.materialize" in tracer.absent
    tracer.enabled = True
    cli.main([])
    core.is_csg(None, ())
    totals = tracer.metrics()
    assert totals["core.is_csg.calls"] == 2 and totals["cli.calls"] == 1
    assert totals["cli.self_s"] <= totals["cli.s"]
