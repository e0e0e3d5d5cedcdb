"""The finish of a solve: every l1 solve ends on a certified vertex of its
orthant's piece of the ball, every l2 solve on the l2 sphere."""

import numpy as np
import pytest

import sparselp.solver
from sparselp import (
    GenSpec,
    ProblemInstance,
    all_checks_pass,
    all_orthant_vertices,
    gen_instance,
    gen_matched_pair,
    kkt_property_report,
    optimal_point_checks,
    replace_p,
    solve_exact_lp_quasinorm,
    solve_l1,
    solve_l2,
)
from sparselp.smoothing import lp_power_sum


def certified(inst, x, q=1.0):
    return all_checks_pass(optimal_point_checks(inst, x, inst.p, q=q, tol=1e-8))


def matches(x, vertices, tol=1e-9):
    dist = np.abs(np.asarray(vertices) - x).max(axis=1)
    return bool(dist.min() <= tol * (1.0 + np.abs(x).max()))


def test_small_solves_end_on_enumerated_vertices():
    # every l1 solve is one of the enumerated orthant vertices and certified
    # at 1e-8; how often it is the exact p = 0.5 minimizer is reported, not
    # gated, since a local method may stop at another vertex
    solves = on_vertex = global_min = 0
    for m, n in ((4, 6), (5, 7), (6, 8)):
        for seed in range(20):
            spec = GenSpec(m=m, n=n, s=1 + seed % 2, delta=0.4,
                           noise=("gauss", "t2")[seed % 2], seed=200 + seed)
            inst = replace_p(gen_instance(spec)[0], 0.5)
            rep = solve_l1(inst)
            verts = all_orthant_vertices(inst)
            solves += 1
            assert rep.stop_reason == "converged", (m, n, seed)
            assert certified(inst, rep.x_star), (m, n, seed)
            on_vertex += matches(rep.x_star, verts)
            best = solve_exact_lp_quasinorm(inst, 0.5, vertices=verts)
            global_min += rep.objective <= best.optimal_value * (1 + 1e-9)
    print(f"{on_vertex}/{solves} solves on a vertex, {global_min}/{solves} at the global minimum")
    assert on_vertex == solves


def test_restoration_from_just_outside(desk_solution):
    # shrinking the vertex leaves the ball (the objective falls towards 0,
    # the residual grows); the finish moves back onto the boundary
    # towards the support's least-squares point and walks to a vertex
    inst, _, rep = desk_solution
    inst = replace_p(inst, 0.5)
    for scale in (1.0 - 1e-6, 1.0 + 1e-6):  # just outside, just inside
        x = rep.x_star * scale
        r = inst.residual(x)
        assert (np.abs(r).sum() > inst.sigma) == (scale < 1.0)
        out, steps, drops = sparselp.solver._vertex_finish(inst, x, r)
        assert np.abs(inst.residual(out)).sum() <= inst.sigma
        assert certified(inst, out)
        assert set(np.flatnonzero(out)) <= set(rep.support)
        assert lp_power_sum(out, 0.5) <= rep.objective * (1 + 1e-6)


def test_l2_ends_inside_the_sphere():
    _, inst, _, _ = gen_matched_pair(GenSpec(m=20, n=60, s=3, delta=1e-3, seed=0))
    for p in (0.5, 0.1):
        rep = solve_l2(replace_p(inst, p))
        x = rep.x_star
        assert np.linalg.norm(inst.a @ x - inst.b) <= inst.sigma
        assert rep.stop_reason == "converged" and certified(replace_p(inst, p), x, q=2.0)
        assert rep.walk_steps == rep.walk_drops == 0


def test_all_ones_row_reaches_one_nonzero():
    # min sum|x|^0.5 over |sum x - 3| <= 1: the optimum puts 2 on one
    # coordinate, phi = sqrt(2); the outer loop alone stops at nnz 5
    inst = ProblemInstance(m=1, n=5, a=np.ones((1, 5)), b=np.array([3.0]), sigma=1.0, p=0.5)
    rep = solve_l1(inst)
    assert rep.stop_reason == "converged"
    assert len(rep.support) == 1
    assert rep.objective == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert rep.walk_drops == 4


def test_zero_sigma_ends_on_a_basic_solution():
    # with sigma = 0 the ball is the affine set Ax = b and its vertices are
    # basic solutions; residuals at roundoff level count as on the boundary
    rng = np.random.default_rng(0)
    inst = ProblemInstance(m=5, n=12, a=rng.standard_normal((5, 12)),
                           b=rng.standard_normal(5), sigma=0.0, p=0.5)
    rep = solve_l1(inst)
    assert rep.stop_reason == "converged"
    props = kkt_property_report(inst, rep.x_star)
    assert props.nnz == props.rank_aj == 5
    assert abs(props.err2) <= 1e-12
    assert rep.walk_drops >= 1
