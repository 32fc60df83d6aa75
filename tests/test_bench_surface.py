import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_benchmark_imports_and_trace_targets_exist():
    # The benchmark's tracer reports a traced function the library no longer
    # has as absent instead of failing, so an API change could silently drop
    # a layer from every run.  Import the workloads and install the tracer as
    # the benchmark's worker does, in a fresh interpreter.
    code = ("import json, mcsg, mcsg.cli, workloads, tracing; "
            "t = tracing.Tracer(); t.install(mcsg); print(json.dumps(t.absent))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
