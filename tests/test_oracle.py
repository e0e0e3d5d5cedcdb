from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from refs import (
    build_sign_matrix,
    exact_l1_fit,
    facet_subset_vertices,
    l1_ball_halfspaces,
    residual_sandwich_check,
)
from sparselp import (
    GenSpec,
    InvalidParam,
    NotFeasible,
    ProblemInstance,
    TooLarge,
    TrivialInstance,
    all_orthant_vertices,
    estimate_p_star,
    gen_instance,
    oracle,
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
    with pytest.raises(InvalidParam):
        solve_exact_lp_quasinorm(golden, 0.0, vertices=golden_vertices)
    with pytest.raises(InvalidParam):
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
        assert all(np.count_nonzero(x) == 1 for x in sol.minimizers)


def test_enumeration_caps(rng):
    # one cap pair, m <= 8 and n <= 10, for the vertices and the sparsest search
    for m, n in ((9, 3), (2, 11)):
        big = ProblemInstance(a=np.ones((m, n)), b=np.ones(m), sigma=0.5)
        with pytest.raises(TooLarge):
            all_orthant_vertices(big)
        with pytest.raises(TooLarge):
            solve_exact_l0(big)
    # at the cap, and the sparsest search's worst case: with sigma = 0 and
    # generic data the ball is the affine set Ax = b, whose vertices are the
    # 45 basic solutions on 8 of the 10 columns, so the level is m
    flat = ProblemInstance(a=rng.standard_normal((8, 10)), b=rng.standard_normal(8), sigma=0.0)
    wide, _, _ = gen_instance(GenSpec(m=6, n=10, s=2, delta=0.4, noise="gauss", seed=0))
    for inst, level, count in ((flat, 8, 45), (wide, 1, 6)):
        verts = all_orthant_vertices(inst)
        l0 = solve_exact_l0(inst)
        assert l0.optimal_value == level == min(np.count_nonzero(v) for v in verts)
        assert as_set(l0.minimizers) == as_set(v for v in verts if np.count_nonzero(v) == level)
        assert len(l0.minimizers) == count
    # at the row cap: the ball is the cross-polytope 1 + 0.5 B_1, all
    # inside the positive orthant, so its 16 corners are the only vertices
    square = ProblemInstance(a=np.eye(8), b=np.ones(8), sigma=0.5)
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
        cases.append(ProblemInstance(a=a, b=b, sigma=float(rng.integers(0, 3))))
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
    assert len(verts)
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
            ProblemInstance(a=np.ones((13, 2)), b=np.ones(13), sigma=1.0),
            np.zeros(2),
        )


def test_sandwich_property(rng):
    for _ in range(200):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 5))
        inst = ProblemInstance(
            a=rng.standard_normal((m, n)),
            b=rng.standard_normal(m),
            sigma=float(rng.uniform(0.01, 2.0)),
        )
        x = rng.standard_normal(n) * 3
        lhs, mid, rhs, holds = residual_sandwich_check(inst, x)
        assert holds
        assert lhs <= mid + 1e-10 and mid <= rhs + 1e-10


def test_p_star_rejects_trivial_instances(golden):
    # with ||b||_1 <= sigma the origin is feasible and every minimizer is 0:
    # the threshold is undefined, as are solve and verify
    for sigma in (6.0, 7.5):  # ||b||_1 = 6
        inst = replace(golden, sigma=sigma)
        verts = all_orthant_vertices(inst)
        level = int(solve_exact_l0(inst, vertices=verts).optimal_value)
        assert level == 0
        with pytest.raises(TrivialInstance):
            estimate_p_star(inst, verts, level)


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
        inst = ProblemInstance(a=a.astype(float), b=b.astype(float), sigma=sigma)
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


def held_vertex_cases(rng):
    # the acceptance suite, wider draws up to the cap, and the 8x10
    # sigma = 0 case, the sparsest scan's worst
    cases = [gen_instance(spec)[0] for spec in TINY_SPECS]
    cases += [
        gen_instance(GenSpec(m=m, n=n, s=2, delta=0.4, noise="t2", seed=seed))[0]
        for m, n, seed in ((6, 8, 0), (7, 9, 1), (8, 10, 2))
    ]
    cases.append(ProblemInstance(a=rng.standard_normal((8, 10)), b=rng.standard_normal(8), sigma=0.0))
    return cases


def test_sparsest_from_held_vertices(rng):
    # filtering held vertices gives the scan's level and its witness arrays,
    # in the same order
    cases = held_vertex_cases(rng)
    for inst in cases:
        scan = solve_exact_l0(inst)
        held = solve_exact_l0(inst, vertices=all_orthant_vertices(inst))
        assert held.optimal_value == scan.optimal_value
        assert len(held.minimizers) == len(scan.minimizers)
        for x, y in zip(held.minimizers, scan.minimizers):
            assert np.array_equal(x, y) and not x.flags.writeable
    assert scan.optimal_value == 8 and len(scan.minimizers) == 45
    with pytest.raises(NotFeasible):
        solve_exact_l0(cases[0], vertices=np.zeros((0, cases[0].n)))


def test_scan_has_no_batch_effects(rng, monkeypatch):
    # all_orthant_vertices runs the lines of every size through one batch
    # and cuts it into blocks elsewhere than a one-size scan does; each
    # line's arithmetic is its own, so every size's rows are bitwise those
    # of the one-size scan, and of scans in blocks of 37 lines and of one
    # line (where numpy's loops see a batch axis of length 1)
    held = [(inst, all_orthant_vertices(inst)) for inst in held_vertex_cases(rng)]
    for inst, verts in held:
        nnz = np.count_nonzero(verts, axis=1)
        assert np.all(np.diff(nnz) >= 0)  # rows come size by size
        for k in range(min(inst.m, inst.n) + 1):
            assert np.array_equal(verts[nnz == k], oracle._scan(inst, (k,)))
    for block, count in ((37, len(TINY_SPECS)), (1, len(TINY_SPECS) // 2)):
        monkeypatch.setattr(oracle, "LINE_BLOCK", block)
        for inst, verts in held[:count]:
            assert np.array_equal(all_orthant_vertices(inst), verts)


def test_dedup_merge_rule():
    # rows [x q, 0] with q = DEDUP_TOL: the cell width 1e-9 (1 + |x| q) is
    # q to 1e-7 relative, so grid a cuts at integer x and grid b, shifted
    # by half a cell, at half-integer x
    def rows(*xs):
        return np.array([[x * oracle.DEDUP_TOL, 0.0] for x in xs])

    def kept(*xs):
        return [float(v[0] / oracle.DEDUP_TOL) for v in oracle._dedup(rows(*xs))]

    # an exact duplicate merges into the first; order is kept
    assert kept(3.2, 7.6, 3.2) == pytest.approx([3.2, 7.6])
    # straddling a cut of one grid, two rows share a cell of the other
    assert kept(10.95, 11.05) == pytest.approx([10.95])  # grid a cuts at 11
    assert kept(10.45, 10.55) == pytest.approx([10.45])  # grid b cuts at 10.5
    # a chain: 10.8 shares grid a's cell with 10.2 and grid b's with 11.4,
    # which shares no cell with 10.2.  Dropping 10.8 frees 11.4, so the
    # sequential rule keeps it, where keeping only the first row of every
    # cell in each grid would drop it
    assert kept(10.2, 10.8, 11.4) == pytest.approx([10.2, 11.4])
    # distinct rows never merge, nor do the golden vertices
    assert kept(10.2, 12.2, -10.2) == pytest.approx([10.2, 12.2, -10.2])
    golden = np.array(sorted(GOLDEN_VERTEX_SET))
    assert np.array_equal(oracle._dedup(golden), golden)


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
            assert all(np.count_nonzero(x) == l0.optimal_value for x in sol.minimizers)
            assert as_set(sol.minimizers) <= as_set(l0.minimizers)
