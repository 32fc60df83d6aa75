"""Certified approximation ratios for three colors, checked empirically.

A1 pairs red with blue and spans yellow separately (ratio 2); A2 keeps the
best of six candidates built around the MST of the all-three-color points
(ratio 2 - 1/(3 + 2 rho) with the Steiner ratio bound rho = 1.21).
"""

from mcsg import approx3
from mcsg.cli import ratio_bench

config = approx3.ApproxConfig()
print(f"certified bounds: a1 <= 2.0, a2 <= {config.ratio_a2:.6f}")

report = ratio_bench("random", ["a1", "a2"], seeds=60, n_max=6, k=3)
for algo in ("a1", "a2"):
    print(f"{algo}: max observed ratio {report.max_ratio(algo):.4f}, "
          f"mean {report.mean_ratio(algo):.4f}")
assert not report.violations(), "a certified bound was violated"

# every A2 candidate is itself a valid solution; the bundle keeps the best
from mcsg import core

inst = core.generate_random(6, 3, 0.5, 11)
bundle = approx3.approx_a2_bundle(inst)
for g in bundle.graphs:
    print(f"{g.algorithm}: cost {g.cost:.4f}")
print("chosen:", bundle.best.algorithm)
