"""Runs one workload in this process and writes its raw results as JSON.

``run.py`` starts it with BLAS and OpenMP pinned to one thread:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --work DIR

Set-up is the import of mcsg plus input generation.  One untimed warm-up op
follows, then the measured closed loop (the next op starts when the previous
one ends): passes over the workload's pool of inputs until S seconds have
passed and every input has run at least once.  Input generation is timed again
``SETUP_REPEATS - 1`` times after the loop, so that a slow spell of the
machine during one generation does not set the median; the import time and
the median generation time go to ``run.py``, which adds the import times of
fresh interpreters to make ``setup_s``.  A traced run instead makes a fixed
number of ops twice, untraced then traced, so that its counts repeat exactly
and the difference in throughput is the tracing overhead.

Times are reported at a reference machine speed.  The shared machine's speed
drifts by up to 2x over seconds, so each op is timed together with a fixed
calibration loop of interpreter and numpy work that does not touch mcsg
(``calibration_s``), run at most ``CAL_EVERY_S`` apart; the op's seconds are
scaled by ``CAL_REF_S`` over the median of the last three calibration times.
Set-up times are scaled the same way.

Each distinct input's output is checked after its first op, outside the op's
timing and outside the loop time, and then dropped, so memory does not grow
with the op count.  Ops are deterministic, so ``attempted`` and ``failed``
count distinct inputs and repeat exactly for a seed.  Each op's input, scaled
duration and verdict are appended to DIR/progress, so ``run.py`` can account
for a process that is killed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import Counter, deque
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# A runaway solve fails with MemoryError instead of exhausting the machine.
MEMORY_LIMIT = 4 << 30
# The calibration loop: CAL_N steps of interpreter and numpy work, which take
# CAL_REF_S seconds at the reference speed (about this loop's median time on
# a 2-core x86-64 VM).  It is run at most CAL_EVERY_S seconds apart.
CAL_N = 20_000
CAL_REF_S = 0.002
CAL_EVERY_S = 0.02


def calibration_s() -> float:
    """Seconds for one pass of the calibration loop, which does not touch mcsg."""
    import numpy as np  # not at module level: the worker times the import of mcsg first

    t = time.perf_counter()
    acc = 0
    for i in range(CAL_N):
        acc += i * i % 7
    a = np.arange(CAL_N, dtype=float)
    np.sort(a[::-1])
    float((a * a).sum())
    return time.perf_counter() - t


def speed() -> float:
    """Factor that converts seconds measured now to the reference speed."""
    return CAL_REF_S / statistics.median(calibration_s() for _ in range(5))


def op_metrics(durations: list[float]) -> dict[str, float]:
    """End-to-end timing metrics from the scaled op times of one loop."""
    p90 = statistics.quantiles(durations, n=10, method="inclusive")[8] if len(durations) > 1 \
        else durations[0]
    return {"op_s_p50": statistics.median(durations), "op_s_p90": p90,
            "ops_per_s": len(durations) / sum(durations)}


def _check(wl, item, out) -> str | None:
    try:
        return wl.check(item, out)
    except Exception as exc:  # e.g. an unreadable output file
        return f"check raised {type(exc).__name__}"


def _loop(wl, items, indices, progress, verdicts, seconds=None):
    """Run ops on ``items[i]`` for i in ``indices``; with ``seconds``, keep
    cycling until that much loop time has passed (checks excluded).  Return
    [(i, scaled op seconds, failure reason or None)]."""
    ops = []
    cals: deque[float] = deque(maxlen=3)
    last_cal = -CAL_EVERY_S
    checking = 0.0
    start = time.perf_counter()
    j = 0
    while j < len(indices) or (seconds is not None
                               and time.perf_counter() - start - checking < seconds):
        i = indices[j % len(indices)]
        if time.perf_counter() - last_cal >= CAL_EVERY_S:
            cals.append(calibration_s())
            last_cal = time.perf_counter()
        t = time.perf_counter()
        try:
            out, err = wl.run(items[i]), None
        except Exception as exc:  # an op that raises is a failed op, not a dead run
            out, err = None, f"raised {type(exc).__name__}"
        dt = time.perf_counter() - t
        scaled = dt * CAL_REF_S / statistics.median(cals)
        if i not in verdicts:
            verdicts[i] = err or _check(wl, items[i], out)
        reason = err or verdicts[i]
        progress.write(f"{i} {scaled!r} {int(reason is not None)}\n")
        ops.append((i, scaled, reason))
        checking += time.perf_counter() - t - dt
        j += 1
    return ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", type=Path, required=True)
    args = ap.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import mcsg
    import mcsg.cli  # noqa: F401  (the CLI is part of every CLI op)
    import_s = (time.perf_counter() - t0) * speed()
    if Path(mcsg.__file__).resolve().parent != ROOT / "src" / "mcsg":
        raise SystemExit(f"mcsg was imported from {mcsg.__file__}, not from this checkout")

    from tracing import Tracer
    from workloads import WORKLOADS

    gen_s = []

    def generate():
        t = time.perf_counter()
        wl = WORKLOADS[args.workload](args.seed, args.work)
        items = wl.make_inputs()
        gen_s.append((time.perf_counter() - t) * speed())
        return wl, items

    wl, items = generate()

    if wl.warmup:
        wl.run(items[0])
    metrics: dict[str, float] = {}
    verdicts: dict[int, str | None] = {}
    with open(args.work / "progress", "w", encoding="utf-8", buffering=1) as progress:
        if not args.trace:
            ops = _loop(wl, items, range(len(items)), progress, verdicts, args.seconds)
            metrics.update(op_metrics([dt for _, dt, _ in ops]))
        else:
            indices = [j % len(items) for j in range(wl.trace_ops)]
            # The untraced pass checks every input, so no check runs while tracing.
            ops = _loop(wl, items, indices, progress, verdicts)
            tracer = Tracer()
            tracer.install(mcsg)
            tracer.enabled = True
            t = time.perf_counter()
            traced = _loop(wl, items, indices, progress, verdicts)
            traced_s = time.perf_counter() - t
            tracer.enabled = False
            metrics.update(tracer.metrics())
            if hasattr(wl, "dp_states"):
                metrics.update(wl.dp_states([items[i] for i in sorted(set(indices))]))
            metrics["trace.untraced_ops_per_s"] = op_metrics([dt for _, dt, _ in ops])["ops_per_s"]
            metrics["trace.ops_per_s"] = op_metrics([dt for _, dt, _ in traced])["ops_per_s"]
            metrics["trace.overhead_ops_per_s"] = (metrics["trace.untraced_ops_per_s"]
                                                   - metrics["trace.ops_per_s"])
            ops += traced
            _print_spans(tracer, traced_s)
    for _ in range(SETUP_REPEATS - 1):
        generate()
    gen_median = statistics.median(gen_s)

    reasons = Counter(reason for reason in verdicts.values() if reason)
    failed = sum(reasons.values())
    metrics["ok_share"] = 1.0 - failed / len(verdicts)

    print(f"{args.workload} seed {args.seed}: {len(ops)} ops on {len(verdicts)} distinct inputs; "
          f"import {import_s:.3f} s, input generation {gen_median:.3f} s (reference speed)")
    print(f"failed {failed} of {len(verdicts)} distinct inputs "
          f"(failed_share {failed / len(verdicts):.4f})")
    for reason, count in reasons.most_common():
        print(f"  {count} x {reason}")
    if not args.trace and len(ops) < 100:
        print(f"op_s_p90 rests on {len(ops)} ops, fewer than 100")
    sys.stdout.flush()
    result = {"attempted": len(verdicts), "failed": failed, "metrics": metrics,
              "import_s": import_s, "gen_s": gen_median,
              "absent": tracer.absent if args.trace else []}
    (args.work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


def _print_spans(tracer, traced_s: float) -> None:
    print(f"{'span':28} {'s':>10} {'self_s':>10} {'self share':>10} {'calls':>9}")
    for name, row in sorted(tracer.totals.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:28} {row['s']:10.4f} {row['self_s']:10.4f} "
              f"{row['self_s'] / traced_s:10.3f} {int(row['calls']):9d}")
    for name in tracer.absent:
        print(f"{name:28} absent")


if __name__ == "__main__":
    raise SystemExit(main())
