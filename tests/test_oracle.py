from itertools import combinations

import numpy as np
import pytest

from refs import exact_l1_fit
from sparselp import (
    NotFeasible,
    ProblemInstance,
    TooLarge,
    all_orthant_vertices,
    boundary_scaling_alpha,
    build_sign_matrix,
    estimate_p_star,
    is_l0_optimal,
    l1_ball_halfspaces,
    residual_sandwich_check,
    solve_exact_l0,
    solve_exact_lp_quasinorm,
)
from sparselp.oracle import l1_regression
from conftest import GOLDEN_VERTEX_SET


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
    assert as_set(l0.minimizers) == {(3.0, 0.0, 0.0), (0.0, 3.0, 0.0)}


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


def test_enumeration_caps():
    big = ProblemInstance(m=9, n=3, a=np.ones((9, 3)), b=np.ones(9), sigma=0.5)
    with pytest.raises(TooLarge):
        all_orthant_vertices(big)
    # within the dimension cap but over the subset budget
    wide = ProblemInstance(m=8, n=8, a=np.eye(8), b=np.ones(8), sigma=0.5)
    with pytest.raises(TooLarge):
        all_orthant_vertices(wide)


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
        5.0 / 6.0, abs=1e-10
    )
    # already on the boundary: alpha = 1 exactly
    assert boundary_scaling_alpha(golden, np.array([2.5, 0.0, 0.0])) == 1.0
    with pytest.raises(NotFeasible):
        boundary_scaling_alpha(golden, np.array([9.0, 0.0, 0.0]))


# -- exact l1 fit and sparsest search against rational-arithmetic references --


def test_l1_fit_median():
    # fitting a constant column is the l1 location problem: any median works
    ones = np.ones((3, 1))
    coef, value = l1_regression(ones, np.array([1.0, 2.0, 10.0]))
    assert value == pytest.approx(9.0, abs=1e-12)
    assert coef[0] == pytest.approx(2.0, abs=1e-9)


def test_l1_fit_empty_support():
    coef, value = l1_regression(np.zeros((3, 0)), np.array([1.0, -2.0, 3.0]))
    assert coef.shape == (0,)
    assert value == pytest.approx(6.0, abs=1e-12)


def test_l1_fit_against_exact(rng):
    for _ in range(25):
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(m, 2) + 1))
        cols = rng.integers(-3, 4, size=(m, k))
        while np.linalg.matrix_rank(cols) < min(m, k):
            cols = rng.integers(-3, 4, size=(m, k))
        b = rng.integers(-5, 6, size=m)
        _, value = l1_regression(cols.astype(float), b.astype(float))
        exact = exact_l1_fit([list(r) for r in cols], [int(v) for v in b])
        assert value == pytest.approx(float(exact), abs=1e-9)


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
        assert [tuple(np.flatnonzero(x)) for x in got.minimizers] == expected
        for x in got.minimizers:
            assert np.count_nonzero(x) == level
            assert np.abs(inst.residual(x)).sum() <= sigma + 1e-9 * (1 + sigma)
        sigmas.add(sigma)
    assert sigmas == {0, 1, 2}


def test_is_l0_optimal(golden):
    assert is_l0_optimal(golden, np.array([3.0, 0.0, 0.0]), sparsest_k=1)
    assert not is_l0_optimal(golden, np.array([3.0, 1.0, 0.0]), sparsest_k=1)  # nnz 2
    assert not is_l0_optimal(golden, np.array([9.0, 0.0, 0.0]), sparsest_k=1)  # infeasible


def test_tiny_instance_inclusion(rng):
    # a light version of the inclusion suite: minimizers at p below p* are
    # exactly the sparsest feasible points
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
