"""Exact two-color solving via the search over partitions of the purple points.

Builds the classic four-point example (two bichromatic points on the bottom,
one red and one blue point on top), solves it exactly, and cross-checks the
result against the brute-force oracle and against the sum of the per-color
MSTs, which the purple edge beats.
"""

from mcsg import core, exact2, mst, oracle

inst = core.Instance(2, [
    (0, 0, {1, 2}),
    (1, 0, {1, 2}),
    (0, 1, {1}),
    (1, 1, {2}),
])

proj = exact2.project_pair(inst, 1, 2)
sol = exact2.solve_pair(proj)
print("exact2 solution:", sorted(sol.edge_set()), f"cost {sol.cost:.6f}")

opt = oracle.brute_force(inst)
print("oracle optimum: ", sorted(opt.edge_set()), f"cost {opt.cost:.6f}")
assert abs(sol.cost - opt.cost) <= 1e-9

# the purple edge (0, 1) serves both colors at once, so the optimum costs 3
# rather than the 4 that one MST per color pays
per_color = sum(core.solution_cost(inst, mst.subset_mst(inst.xy, inst.color_class(c)))
                for c in (1, 2))
print(f"sum of the per-color MSTs: {per_color:.6f}, exact optimum: {sol.cost:.6f}")
assert abs(per_color - 4.0) <= 1e-9 and abs(sol.cost - 3.0) <= 1e-9

for seed in range(30):
    ri = core.generate_random(7, 2, 0.5, seed)
    a = exact2.solve_pair(exact2.project_pair(ri, 1, 2)).cost
    b = oracle.brute_force(ri).cost
    assert abs(a - b) <= 1e-9 * max(1, b)
print("30 random instances: exact2 matches the oracle everywhere")
