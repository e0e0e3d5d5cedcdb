from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from refs import exact_l1_fit, facet_subset_vertices
from sparselp import (
    GenSpec,
    NotFeasible,
    ProblemInstance,
    TooLarge,
    TrivialInstance,
    all_orthant_vertices,
    boundary_scaling_alpha,
    build_sign_matrix,
    estimate_p_star,
    gen_instance,
    is_l0_optimal,
    l1_ball_halfspaces,
    residual_sandwich_check,
    solve_exact_l0,
    solve_exact_lp_quasinorm,
)
from sparselp.smoothing import lp_power_sum
from conftest import GOLDEN_VERTEX_SET, TINY_SPECS


def as_set(vertices, digits=9):
    return {tuple(np.round(v, digits)) for v in vertices}


def test_sign_matrix_shape_and_order():
    u = build_sign_matrix(3)
    assert u.shape == (8, 3)
    assert set(np.unique(u)) == {-1.0, 1.0}
    np.testing.assert_array_equal(u[0], np.ones(3))
    np.testing.assert_array_equal(u[-1], -np.ones(3))
    # lexicographic with +1 before -1: flipping all signs reverses the order
    np.testing.assert_array_equal(u, -u[::-1])
    rows = {tuple(r) for r in u}
    assert all(tuple(-np.array(r)) in rows for r in rows)


def test_sign_matrix_caps():
    with pytest.raises(TooLarge):
        build_sign_matrix(17)
    with pytest.raises(ValueError):
        build_sign_matrix(0)


def test_halfspaces_golden(golden):
    at, bt = l1_ball_halfspaces(golden)
    assert at.shape == (4, 3)
    # rows are U A with U lexicographic over {+1,-1}^2
    np.testing.assert_array_equal(at[0], golden.a[0] + golden.a[1])
    np.testing.assert_array_equal(bt, np.array([7.0, 1.0, 1.0, -5.0]))


def test_golden_vertex_union(golden_vertices):
    assert len(golden_vertices) == 12
    assert as_set(golden_vertices) == GOLDEN_VERTEX_SET
    for v in golden_vertices:
        assert not v.flags.writeable


def test_golden_quasinorm_solution(golden, golden_vertices):
    sol = solve_exact_lp_quasinorm(golden, 0.5, vertices=golden_vertices)
    assert sol.optimal_value == pytest.approx(np.sqrt(2.5), abs=1e-12)
    assert as_set(sol.minimizers) == {(2.5, 0.0, 0.0), (0.0, 2.5, 0.0)}


def test_golden_l1_solution(golden, golden_vertices):
    sol = solve_exact_lp_quasinorm(golden, 1.0, vertices=golden_vertices)
    assert sol.optimal_value == pytest.approx(2.5, abs=1e-12)
    assert as_set(sol.minimizers) == {(2.5, 0.0, 0.0), (0.0, 2.5, 0.0)}


def test_quasinorm_rejects_bad_p(golden, golden_vertices):
    with pytest.raises(ValueError):
        solve_exact_lp_quasinorm(golden, 0.0, vertices=golden_vertices)
    with pytest.raises(ValueError):
        solve_exact_lp_quasinorm(golden, 1.5, vertices=golden_vertices)


def test_golden_sparsest(golden):
    l0 = solve_exact_l0(golden)
    assert l0.optimal_value == 1.0
    # the witnesses are every sparsest vertex: both ends of each axis segment
    assert as_set(l0.minimizers) == {
        (2.5, 0.0, 0.0), (3.5, 0.0, 0.0), (0.0, 2.5, 0.0), (0.0, 3.5, 0.0)
    }


def test_golden_p_star(golden, golden_vertices):
    est = estimate_p_star(golden, vertices=golden_vertices, sparsest_k=1)
    assert est.p_star == pytest.approx(np.log(2.0) / np.log(6.0 + np.sqrt(2.0)), abs=1e-12)
    assert est.r == pytest.approx(3.0 + 1.0 / np.sqrt(2.0), abs=1e-12)
    assert est.r_tilde == pytest.approx(0.5, abs=1e-12)
    assert est.s == 1


def test_golden_inclusion(golden, golden_vertices):
    est = estimate_p_star(golden, vertices=golden_vertices, sparsest_k=1)
    for p in (est.p_star / 2, 0.9 * est.p_star):
        sol = solve_exact_lp_quasinorm(golden, p, vertices=golden_vertices)
        assert all(is_l0_optimal(golden, x, sparsest_k=1) for x in sol.minimizers)


def test_enumeration_caps(rng):
    # one cap pair, m <= 8 and n <= 10, for the vertices and the sparsest search
    for m, n in ((9, 3), (2, 11)):
        big = ProblemInstance(m=m, n=n, a=np.ones((m, n)), b=np.ones(m), sigma=0.5)
        with pytest.raises(TooLarge):
            all_orthant_vertices(big)
        with pytest.raises(TooLarge):
            solve_exact_l0(big)
    # at the cap, and the sparsest search's worst case: with sigma = 0 and
    # generic data the ball is the affine set Ax = b, whose vertices are the
    # 45 basic solutions on 8 of the 10 columns, so the level is m
    flat = ProblemInstance(
        m=8, n=10, a=rng.standard_normal((8, 10)), b=rng.standard_normal(8), sigma=0.0
    )
    wide, _, _ = gen_instance(GenSpec(m=6, n=10, s=2, delta=0.4, noise="gauss", seed=0))
    for inst, level, count in ((flat, 8, 45), (wide, 1, 6)):
        verts = all_orthant_vertices(inst)
        l0 = solve_exact_l0(inst)
        assert l0.optimal_value == level == min(np.count_nonzero(v) for v in verts)
        assert as_set(l0.minimizers) == as_set(v for v in verts if np.count_nonzero(v) == level)
        assert len(l0.minimizers) == count
    # at the row cap: the ball is the cross-polytope 1 + 0.5 B_1, all
    # inside the positive orthant, so its 16 corners are the only vertices
    square = ProblemInstance(m=8, n=8, a=np.eye(8), b=np.ones(8), sigma=0.5)
    corners = np.vstack([np.ones(8) + 0.5 * np.eye(8), np.ones(8) - 0.5 * np.eye(8)])
    assert as_set(all_orthant_vertices(square)) == as_set(corners)


def assert_same_vertices(got, expected, tol=1e-9):
    # equal counts, and each vertex within tol * (1 + ||v||_inf) of one of
    # the other set, the scale at which the enumerator merges duplicates
    assert len(got) == len(expected)
    if not len(got):
        return
    got, expected = np.array(got), np.array(expected)
    dist = np.abs(got[:, None, :] - expected[None, :, :]).max(axis=2)
    assert np.all(dist.min(axis=1) <= tol * (1.0 + np.abs(got).max(axis=1)))
    assert np.all(dist.min(axis=0) <= tol * (1.0 + np.abs(expected).max(axis=1)))


def test_vertices_match_facet_subset_scan(golden, rng):
    # golden, the acceptance suite up to m = 4, and degenerate integer data:
    # repeated and zero columns, zero rows, ties, sigma = 0 (an affine set)
    cases = [golden] + [gen_instance(spec)[0] for spec in TINY_SPECS if spec.m <= 4]
    for _ in range(200):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        a = rng.integers(-2, 3, size=(m, n)).astype(float)
        b = rng.integers(-2, 3, size=m).astype(float)
        cases.append(ProblemInstance(m=m, n=n, a=a, b=b, sigma=float(rng.integers(0, 3))))
    for inst in cases:
        expected = facet_subset_vertices(inst.a, inst.b, inst.sigma)
        assert_same_vertices(all_orthant_vertices(inst), expected)


@pytest.mark.parametrize("m, n, seed", [(6, 6, 0), (6, 6, 1), (8, 8, 0)])
def test_vertex_certificates_beyond_reference(m, n, seed):
    # past the n-subset scan's reach: every vertex lies on the boundary, its
    # active normals (coordinate planes, zero-residual rows, the facet
    # sign(r)'A) have rank n, and the sparsest vertex is a sparsest point
    inst, _, _ = gen_instance(GenSpec(m=m, n=n, s=2, delta=0.4, noise="gauss", seed=seed))
    verts = all_orthant_vertices(inst)
    assert verts
    for v in verts:
        r = inst.residual(v)
        assert abs(np.abs(r).sum() - inst.sigma) <= 1e-9
        zero_rows = np.abs(r) <= 1e-9 * (1.0 + np.abs(v).max())
        normals = np.vstack([np.eye(n)[v == 0.0], inst.a[zero_rows], np.sign(r) @ inst.a])
        assert np.linalg.matrix_rank(normals, tol=1e-9) == n
    sparsest = min(np.count_nonzero(v) for v in verts)
    assert sparsest == solve_exact_l0(inst).optimal_value


def test_vectorized_answers_match_vertex_loops():
    # the exact solve and r_tilde read all vertices at once; recompute both
    # one vertex at a time
    for spec in TINY_SPECS[:6]:
        inst, _, _ = gen_instance(spec)
        verts = all_orthant_vertices(inst)
        for p in (0.3, 0.5, 1.0):
            values = [lp_power_sum(v, p) for v in verts]
            sol = solve_exact_lp_quasinorm(inst, p, vertices=verts)
            assert sol.optimal_value == pytest.approx(min(values), rel=1e-15)
            ties = [v for v, f in zip(verts, values) if f <= min(values) * (1 + 1e-9) + 1e-9]
            assert as_set(sol.minimizers) == as_set(ties)
        small = []
        for v in verts:
            nz = np.abs(v)[np.abs(v) > 1e-9 * (1.0 + np.abs(v).max())]
            small.extend(nz.min(keepdims=True) if nz.size else [])
        est = estimate_p_star(inst, vertices=verts, sparsest_k=1)
        assert est.r_tilde == min(small)


def test_sandwich_golden(golden):
    lhs, mid, rhs, holds = residual_sandwich_check(golden, np.zeros(3))
    assert (lhs, mid, rhs) == (2.5, 5.0, 5.0)
    assert holds
    with pytest.raises(TooLarge):
        residual_sandwich_check(
            ProblemInstance(m=13, n=2, a=np.ones((13, 2)), b=np.ones(13), sigma=1.0),
            np.zeros(2),
        )


def test_sandwich_property(rng):
    for _ in range(200):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 5))
        inst = ProblemInstance(
            m=m,
            n=n,
            a=rng.standard_normal((m, n)),
            b=rng.standard_normal(m),
            sigma=float(rng.uniform(0.01, 2.0)),
        )
        x = rng.standard_normal(n) * 3
        lhs, mid, rhs, holds = residual_sandwich_check(inst, x)
        assert holds
        assert lhs <= mid + 1e-10 and mid <= rhs + 1e-10


def test_boundary_scaling_golden(golden):
    assert boundary_scaling_alpha(golden, np.array([3.0, 0.0, 0.0])) == pytest.approx(
        5.0 / 6.0, abs=1e-15
    )
    # already on the boundary: alpha = 1 exactly
    assert boundary_scaling_alpha(golden, np.array([2.5, 0.0, 0.0])) == 1.0
    with pytest.raises(NotFeasible):
        boundary_scaling_alpha(golden, np.array([9.0, 0.0, 0.0]))


def test_boundary_scaling_rejects_trivial_instances(golden):
    # with ||b||_q <= sigma the origin is feasible and no alpha in (0, 1]
    # puts the scaled point on the boundary
    x = np.array([3.0, 0.0, 0.0])
    on_l1 = replace(golden, sigma=6.0)  # ||b||_1 = 6
    on_l2 = replace(golden, sigma=5.0)  # ||b||_2 = 4.24, ||b||_1 = 6
    for inst, q in ((on_l1, 1.0), (on_l1, 2.0), (on_l2, 2.0)):
        with pytest.raises(TrivialInstance):
            boundary_scaling_alpha(inst, x, q)
    assert boundary_scaling_alpha(on_l2, x, 1.0) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_boundary_scaling_lands_on_the_ball_side(golden, rng):
    # alpha x is on the boundary to roundoff, and never outside: draws
    # around the interpolating point, scaled within the ball's reach, on
    # instances where 0 is outside the ball (the blanket assumption)
    for inst in [golden] + [gen_instance(spec)[0] for spec in TINY_SPECS]:
        x_ls = np.linalg.lstsq(inst.a, inst.b, rcond=None)[0]
        for q in (1.0, 2.0):
            reach = inst.sigma / np.linalg.norm(inst.b, ord=q)
            if reach >= 1.0:
                continue
            for _ in range(5):
                x = x_ls * (1.0 + reach * rng.uniform(-0.9, 0.9))
                x += 0.1 * reach * np.abs(x_ls).max() * rng.standard_normal(inst.n)
                if np.linalg.norm(inst.residual(x), ord=q) >= inst.sigma:
                    continue
                alpha = boundary_scaling_alpha(inst, x, q)
                gap = np.linalg.norm(inst.residual(alpha * x), ord=q) - inst.sigma
                assert -1e-12 * (1.0 + np.abs(inst.b).sum()) <= gap <= 0.0


# -- the sparsest search against a rational-arithmetic reference --


def test_sparsest_against_exact_scan(rng):
    # brute force: fit every support with the rational-arithmetic l1 fit,
    # size by size, up to the first size whose fit reaches sigma.  The
    # reference enumerates (m + k)-subsets of 4m + 2k rows over Fractions,
    # about 1 s per support at m = 4, so the draws stay at m <= 2.
    sigmas = set()
    for _ in range(200):
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 5))
        sigma = int(rng.integers(0, 3))
        a = rng.integers(-3, 4, size=(m, n))
        b = rng.integers(-5, 6, size=m)
        inst = ProblemInstance(m=m, n=n, a=a.astype(float), b=b.astype(float), sigma=sigma)
        for level in range(n + 1):
            expected = [
                supp
                for supp in combinations(range(n), level)
                if exact_l1_fit(a[:, list(supp)].tolist(), b.tolist()) <= sigma
            ]
            if expected:
                break
        else:
            with pytest.raises(NotFeasible):
                solve_exact_l0(inst)
            continue
        got = solve_exact_l0(inst)
        assert got.optimal_value == level
        assert {tuple(np.flatnonzero(x)) for x in got.minimizers} == set(expected)
        for x in got.minimizers:
            assert np.count_nonzero(x) == level
            assert np.abs(inst.residual(x)).sum() <= sigma + 1e-9 * (1 + sigma)
        sigmas.add(sigma)
    assert sigmas == {0, 1, 2}


def test_sparsest_from_held_vertices(rng):
    # filtering held vertices gives the scan's level and its witness arrays,
    # in the same order; the 8x10 sigma = 0 case is the scan's worst
    cases = [gen_instance(spec)[0] for spec in TINY_SPECS]
    cases += [
        gen_instance(GenSpec(m=m, n=n, s=2, delta=0.4, noise="t2", seed=seed))[0]
        for m, n, seed in ((6, 8, 0), (7, 9, 1), (8, 10, 2))
    ]
    cases.append(ProblemInstance(
        m=8, n=10, a=rng.standard_normal((8, 10)), b=rng.standard_normal(8), sigma=0.0
    ))
    for inst in cases:
        scan = solve_exact_l0(inst)
        held = solve_exact_l0(inst, vertices=all_orthant_vertices(inst))
        assert held.optimal_value == scan.optimal_value
        assert len(held.minimizers) == len(scan.minimizers)
        for x, y in zip(held.minimizers, scan.minimizers):
            assert np.array_equal(x, y) and not x.flags.writeable
    assert scan.optimal_value == 8 and len(scan.minimizers) == 45
    with pytest.raises(NotFeasible):
        solve_exact_l0(cases[0], vertices=())


def test_is_l0_optimal(golden):
    assert is_l0_optimal(golden, np.array([3.0, 0.0, 0.0]), sparsest_k=1)
    assert not is_l0_optimal(golden, np.array([3.0, 1.0, 0.0]), sparsest_k=1)  # nnz 2
    assert not is_l0_optimal(golden, np.array([9.0, 0.0, 0.0]), sparsest_k=1)  # infeasible


def test_tiny_instance_inclusion(rng):
    # a light version of the inclusion suite: minimizers at p below p* are
    # sparsest feasible points, and vertices, so among the sparsest vertices
    from sparselp import GenSpec, gen_instance

    for seed in (0, 1, 2):
        inst, _, _ = gen_instance(GenSpec(m=3, n=4, s=1, delta=0.4, noise="gauss", seed=seed))
        verts = all_orthant_vertices(inst)
        l0 = solve_exact_l0(inst)
        est = estimate_p_star(inst, vertices=verts, sparsest_k=int(l0.optimal_value))
        for p in (est.p_star / 2, 0.9 * est.p_star):
            sol = solve_exact_lp_quasinorm(inst, p, vertices=verts)
            assert all(
                is_l0_optimal(inst, x, sparsest_k=int(l0.optimal_value))
                for x in sol.minimizers
            )
            assert as_set(sol.minimizers) <= as_set(l0.minimizers)
