"""mcsg benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload pair-exact --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; mcsg is imported from ``src``.  The
workload runs in its own process (``worker.py``), single-threaded, as one
closed-loop client.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Earlier lines
are for people: failure reasons and, when traced, the span table.  Workloads,
metrics and their rationale are described in README.md next to this file.

Times are at the reference machine speed that ``worker.py`` calibrates
against.  ``setup_s`` is the median import time of mcsg over ``SETUP_REPEATS``
fresh interpreters (the workload process and ``SETUP_REPEATS - 1`` probes
started after it ends) plus the workload's median input-generation time.

If the workload process is killed (memory, or the ``DEADLINE_S`` limit), the
result still prints, from the ops it completed; the op in flight counts as
failed and ``correct`` is false.  ``attempted`` and ``failed`` count distinct
inputs, so they repeat exactly for a seed.  A set-up or harness error exits
non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import SETUP_REPEATS, op_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pair-exact", "tri-approx", "collinear-dp", "ratio-bench", "gadget-prune",
             "gadget-w")
DEADLINE_S = 165
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"op_s_p50": "s", "op_s_p90": "s", "ops_per_s": "1/s", "ok_share": "share",
              "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = (
    "core.load_instance.s", "core.is_csg.s", "core.as_edges.calls", "core.as_edges.self_s",
    "mst.euclidean_mst.s", "mst.euclidean_mst.self_s", "mst.euclidean_mst.calls",
    "mst.euclidean_mst.points", "mst.forced_edges.s", "mst.forced_edges.self_s",
    "exact2.solve_pair.s", "exact2.solve_pair.self_s", "exact2.solve_pair.calls",
    "exact2.solve_pair.purple", "exact2.project_pair.s",
    "approx3.approx_a2.s", "approx3.mst_completion.s", "approx3.mst_completion.self_s",
    "approx3.approx_a1.s",
    "collinear.dp_solve.s", "collinear.dp_solve.self_s", "collinear.collinear_order.s",
    "collinear.states_total", "collinear.peak_states",
    "oracle.brute_force.s", "oracle.brute_force.self_s", "oracle.brute_force.calls",
    "oracle.candidate_edges.edges",
    "gadgets.build_gadget.s",
    "cli.s", "cli.self_s",
    "trace.ops_per_s", "trace.untraced_ops_per_s", "trace.overhead_ops_per_s",
)
# Only gadget-w reaches these; it is too slow for the scheduled runs (README.md).
GADGET_LAYER = ("core.instance_to_json.s", "gadgets.materialize.s", "gadgets.build_witness.s",
                "gadgets.compute_w.s")
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, 'src'); "
                "import mcsg, mcsg.cli; dt = time.perf_counter() - t; "
                "sys.path.insert(0, 'perfbench'); import worker; print(dt * worker.speed())")


def unit_of(name: str) -> str:
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith((".s", ".self_s")):
        return "s"
    return "count"


def _import_s(env: dict) -> float:
    """Seconds to import mcsg in a fresh interpreter, at the reference speed."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout)


def _killed_result(work: Path, rc: int) -> dict:
    """The result of a killed worker, from the ops it recorded as complete;
    the op it was in counts as one more failed input."""
    try:
        ops = [line.split() for line in (work / "progress").read_text().splitlines()]
    except FileNotFoundError:
        ops = []
    verdicts = {i: bad == "1" for i, _, bad in ops}
    durations = [float(dt) for _, dt, _ in ops]
    attempted, failed = len(verdicts) + 1, sum(verdicts.values()) + 1
    print(f"workload process ended by signal {-rc} after {len(ops)} ops; "
          "the op in flight counts as failed")
    metrics = op_metrics(durations) if durations else {}
    metrics["ok_share"] = 1.0 - failed / attempted
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mcsg" / "__init__.py").is_file():
        print(f"error: no mcsg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        try:
            rc = proc.wait(timeout=DEADLINE_S - (time.monotonic() - started))
        except subprocess.TimeoutExpired:
            proc.kill()
            rc = proc.wait()  # negative, like any other kill
        if rc > 0:
            print(f"error: workload process exited with code {rc}", file=sys.stderr)
            return rc
        if rc == 0:
            result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        else:
            result = _killed_result(work, rc)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    # Read before the import probes, which are children too.
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if rc == 0 and not args.trace:
        imports = [result["import_s"]] + [_import_s(env) for _ in range(SETUP_REPEATS - 1)]
        metrics["setup_s"] = statistics.median(imports) + result["gen_s"]
    if args.trace:
        names = PER_LAYER + (GADGET_LAYER if args.workload == "gadget-w" else ())
        for name in result.get("absent", []):
            print(f"absent from this version of mcsg: {name}")
        out = {n: {"value": metrics.get(n, 0), "unit": unit_of(n)} for n in names}
        for v in out.values():
            if v["unit"] == "count":
                v["value"] = int(v["value"])
    else:
        out = {n: {"value": metrics.get(n, 0.0), "unit": u} for n, u in END_TO_END.items()}
    print(json.dumps({"correct": rc == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
