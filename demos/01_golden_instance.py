"""A tiny instance solved exactly, end to end.

Two equations, three unknowns, an l1 residual ball of radius 1: small enough
to enumerate every vertex of the feasible polyhedron, list every minimizer
of the p-th-power objective and every sparsest vertex, and compute the
exponent threshold below which those minimizers are sparsest feasible points.
"""

import numpy as np

from sparselp import (
    ProblemInstance,
    all_orthant_vertices,
    estimate_p_star,
    solve_exact_l0,
    solve_exact_lp_quasinorm,
)

inst = ProblemInstance(
    a=np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0]]),
    b=np.array([3.0, 3.0]),
    sigma=1.0,
)


def pt(x):
    # display rounding only; the tests pin the raw coordinates to 1e-9
    return tuple(round(float(v), 10) for v in x)


print("instance: 2x3, ||Ax-b||_1 <= 1")
verts = all_orthant_vertices(inst)
print(f"\nthe feasible set meets the sign orthants in {len(verts)} vertices:")
for v in sorted(map(pt, verts)):
    print(f"  {v}")

for p in (1.0, 0.5):
    sol = solve_exact_lp_quasinorm(inst, p, vertices=verts)
    pts = ", ".join(str(pt(x)) for x in sol.minimizers)
    print(f"\np = {p}: optimal value {sol.optimal_value:.6f} at {pts}")

l0 = solve_exact_l0(inst)
print(f"\nsparsest feasible points have {int(l0.optimal_value)} nonzero; the vertices among them:")
for x in l0.minimizers:
    print(f"  {pt(x)}")

est = estimate_p_star(inst, vertices=verts, sparsest_k=int(l0.optimal_value))
print(f"\nexponent threshold p* = {est.p_star:.6f}")
print(f"  (coordinate ceiling r = {est.r:.6f}, smallest nonzero r~ = {est.r_tilde})")

for p in (est.p_star / 2, 0.9 * est.p_star):
    sol = solve_exact_lp_quasinorm(inst, p, vertices=verts)
    # held vertices: their zeros are exact, so a nonzero count tells
    inside = all(np.count_nonzero(x) == est.s for x in sol.minimizers)
    print(f"p = {p:.4f} < p*: every minimizer is a sparsest point -> {inside}")
