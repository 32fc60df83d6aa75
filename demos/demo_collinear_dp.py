"""Linear-time exact solving on a line.

The DP sweeps one cut at a time; its state is the family of crossing
shared-color sets plus, per color, a partition of the crossing edges by
suffix component.  For fixed k the number of states per cut is bounded by a
constant (Bell numbers of the per-color cut-edge counts), so the sweep is
linear in n.
"""

import time

from mcsg import collinear, core, oracle

inst = core.Instance(2, [(0, 0, {1}), (1, 0, {2}), (2, 0, {1})])
sol = collinear.dp_solve(inst)
print("red-blue-red line:", sorted(sol.edge_set()), f"cost {sol.cost:.1f}")
print("  (the red edge spans the blue point: no cheaper graph exists)")

# A line of 8 points has up to 28 candidate edges, over the oracle's default
# budget of 22.
oracle.MAX_CANDIDATE_EDGES = 28
for seed in range(40):
    ri = core.generate_collinear(3 + seed % 6, 2 + seed % 2, 0.5, seed)
    a = collinear.dp_solve(ri).cost
    b = oracle.brute_force(ri).cost
    assert abs(a - b) <= 1e-9 * max(1, b)
print("40 random collinear instances match the brute-force optimum")

big = core.generate_collinear(2000, 3, 0.3, 7)
t0 = time.perf_counter()
sol, stats = collinear.dp_solve_with_stats(big)
dt = time.perf_counter() - t0
print(f"n = 2000, k = 3: cost {sol.cost:.3f} in {dt:.2f}s; "
      f"max partitions per color per cut = {max(stats.per_cut_max_pi_per_color)} "
      f"(Bell bound 15)")
