import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]

# In a fresh interpreter, as the benchmark's worker runs them: one op and its
# check on the first input (seed 0) of each workload named on the command
# line, then the tracer's absent targets.
PROBE = """
import json, sys, tempfile
from pathlib import Path
import mcsg, mcsg.cli, tracing, workloads
checks = {}
with tempfile.TemporaryDirectory() as tmp:
    for name in sys.argv[1:]:
        work = Path(tmp, name)
        work.mkdir()
        wl = workloads.WORKLOADS[name](0, work)
        wl.pool_size = 1
        item = wl.make_inputs()[0]
        checks[name] = wl.check(item, wl.run(item))
t = tracing.Tracer()
t.install(mcsg)
print(json.dumps({"checks": checks, "absent": t.absent}))
"""


def test_benchmark_imports_and_trace_targets_exist():
    # A library change that breaks a benchmark op or its check (a renamed
    # function, a deleted method the check calls) shows up only as failed
    # ops in a benchmark run, and the tracer reports a traced function the
    # library no longer has as absent instead of failing, so an API change
    # could silently drop a layer from every run.
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, *names], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["checks"] == dict.fromkeys(names)
    assert got["absent"] == []
