import numpy as np
import pytest

from conftest import TINY_SPECS
from refs import exact_l1_entry
from sparselp import InvalidNorm, InvalidParam, ProblemInstance, gen_instance, linalg, oracle
from sparselp.linalg import (
    RANK_REL_TOL_FACTOR,
    ball_entry,
    gram_extremes,
    least_squares_min_norm,
    lq_norm,
    numerical_rank,
    singular_value_rank,
)


def test_lq_norm_matches_numpy(rng):
    for _ in range(200):
        x = rng.standard_normal(rng.integers(1, 20))
        for q in (1.0, 2.0, 3.0, 1.5, np.inf):
            assert lq_norm(x, q) == pytest.approx(np.linalg.norm(x, ord=q), rel=1e-12)


def test_lq_norm_empty_and_invalid():
    assert lq_norm(np.array([]), 2.0) == 0.0
    assert lq_norm(np.array([]), np.inf) == 0.0
    with pytest.raises(InvalidNorm):
        lq_norm(np.ones(3), 0.5)


def test_norm_ordering(rng):
    # ||x||_inf <= ||x||_2 <= ||x||_1 and the n-factor reverses
    for _ in range(200):
        n = int(rng.integers(1, 33))
        x = rng.standard_normal(n)
        l1, l2, li = lq_norm(x, 1), lq_norm(x, 2), lq_norm(x, np.inf)
        assert li <= l2 * (1 + 1e-12) and l2 <= l1 * (1 + 1e-12)
        assert l1 <= np.sqrt(n) * l2 * (1 + 1e-12)
        assert l2 <= np.sqrt(n) * li * (1 + 1e-12)


def test_least_squares_min_norm_picks_shortest(rng):
    # wide system: among all interpolating solutions ours has minimal 2-norm
    a = rng.standard_normal((3, 7))
    b = rng.standard_normal(3)
    x = least_squares_min_norm(a, b)
    np.testing.assert_allclose(a @ x, b, atol=1e-10)
    null = np.linalg.svd(a)[2][3:]  # rows span the null space
    np.testing.assert_allclose(null @ x, 0.0, atol=1e-10)


def test_least_squares_overdetermined(rng):
    a = rng.standard_normal((10, 3))
    b = rng.standard_normal(10)
    x = least_squares_min_norm(a, b)
    # normal equations hold at the least-squares minimizer
    np.testing.assert_allclose(a.T @ (a @ x - b), 0.0, atol=1e-10)


def test_numerical_rank():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    assert numerical_rank(a) == 1
    assert numerical_rank(np.eye(4)) == 4
    assert numerical_rank(np.zeros((3, 2))) == 0
    assert numerical_rank(np.zeros((0, 2))) == 0
    # tiny but honest second direction stays counted at the default tolerance
    b = np.diag([1.0, 1e-6])
    assert numerical_rank(b) == 2


# -- numerical_rank: one Gram Cholesky certifies full rank, the SVD counts
# -- every other matrix


SVD = np.linalg.svd


def svd_count(mat):
    # the rank rule written out: singular values above 1e-10 max(m, n) s_max
    sv = SVD(mat, compute_uv=False)
    return int(np.count_nonzero(sv > 1e-10 * max(mat.shape) * sv[0])) if sv[0] > 0.0 else 0


def with_singular_values(rng, m, n, sv):
    # an m x n matrix with singular values sv (largest first), random bases
    u = np.linalg.qr(rng.standard_normal((m, m)))[0]
    v = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return (u[:, : len(sv)] * sv) @ v[:, : len(sv)].T


def rank_suite(rng):
    """(label, matrix) pairs: full-rank shapes from 1x1 to 500x2500, both
    ways round; a smallest singular value at 0.5, 1, 2 and 10 times the
    threshold; duplicate and zero columns and rows; all of these scaled by
    2^+-500 and 2^+-1000."""
    suite = []
    for m, n in ((1, 1), (1, 6), (2, 3), (5, 5), (7, 30), (40, 200), (100, 500), (500, 2500)):
        for shape in dict.fromkeys(((m, n), (n, m))):
            suite.append((f"gauss {shape}", rng.standard_normal(shape)))
    for m, n in ((6, 9), (9, 6), (40, 200)):
        k = min(m, n)
        for factor in (0.5, 1.0, 2.0, 10.0):
            sv = np.linspace(1.0, 0.5, k)
            sv[-1] = factor * 1e-10 * max(m, n)
            suite.append((f"s_min {factor}x threshold {m}x{n}", with_singular_values(rng, m, n, sv)))
    for m, n in ((8, 5), (5, 8)):
        a = rng.standard_normal((m, n))
        dup_col, zero_col, dup_row = a.copy(), a.copy(), a.copy()
        dup_col[:, 3] = dup_col[:, 1]
        zero_col[:, 2] = 0.0
        dup_row[4] = dup_row[0]
        suite += [
            (f"duplicate column {m}x{n}", dup_col),
            (f"zero column {m}x{n}", zero_col),
            (f"duplicate row {m}x{n}", dup_row),
        ]
    suite.append(("rank one", np.outer(rng.standard_normal(4), rng.standard_normal(7))))
    suite.append(("zero", np.zeros((3, 4))))
    for label, a in list(suite):
        if a.size <= 400:
            for e in (500, -500, 1000, -1000):
                suite.append((f"{label} * 2^{e}", np.ldexp(a, e)))
    return suite


def test_numerical_rank_equals_the_svd_count(rng, monkeypatch):
    svd_calls = []

    def counted_svd(*args, **kwargs):
        svd_calls.append(1)
        return SVD(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    certified = fallback = 0
    for label, a in rank_suite(rng):
        before = len(svd_calls)
        assert numerical_rank(a) == svd_count(a), label
        if len(svd_calls) == before:
            certified += 1
            assert svd_count(a) == min(a.shape), label  # only full rank is certified
        else:
            fallback += 1
    assert certified >= 40 and fallback >= 40  # both branches run


def test_numerical_rank_certifies_random_full_rank(rng, monkeypatch):
    # a random draw at the generator's shapes never needs the SVD
    def no_svd(*args, **kwargs):
        raise AssertionError("the rank check fell back to the SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for m, n in ((2, 3), (5, 6), (100, 500), (300, 1500), (1500, 300)):
        a = rng.standard_normal((m, n))
        a /= np.linalg.norm(a, axis=0)
        assert numerical_rank(a) == min(m, n)


def test_numerical_rank_empty_and_nonfinite():
    # no matrix reaches the certificate without a nonzero finite entry; these
    # behave as the SVD count does
    for shape in ((0, 0), (0, 3), (3, 0)):
        assert numerical_rank(np.zeros(shape)) == 0
    a = np.ones((3, 4))
    a[1, 2] = np.nan
    for mat in (a, a.T):
        with pytest.raises(np.linalg.LinAlgError):
            numerical_rank(mat)
    assert numerical_rank(np.full((2, 2), np.inf)) == 0  # all-nan singular values count 0


def test_gram_extremes_against_eigvalsh(rng):
    for _ in range(50):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 8))
        a = rng.standard_normal((rows, cols))
        g = gram_extremes(a)
        ev = np.linalg.eigvalsh(a.T @ a)
        assert g.lambda_max == pytest.approx(ev[-1], rel=1e-9, abs=1e-12)
        if cols > rows:
            assert g.lambda_min == 0.0
        else:
            assert g.lambda_min == pytest.approx(ev[0], rel=1e-9, abs=1e-10)


def test_gram_extremes_rejects_empty():
    with pytest.raises(InvalidParam):
        gram_extremes(np.zeros((3, 0)))


# -- the one rank rule: every caller judges a singular value near the cut
# -- 1e-10 max(m, n) s_max alike


def test_rank_rule_agrees_across_its_callers(monkeypatch):
    # two unit rows at a small angle, A = [[1, 0, 0], [1, e, 0]]: s_max is
    # sqrt(2) and s_min s_max = e, so e = 6e-10 c puts s_min at c times the
    # cut 1e-10 * 3 * s_max.  The rows are unit to the last bit for c <= 2,
    # so the line scan's row normalisation leaves A_{Z,J} = A as it is.  At
    # 0.5x and 2x the Gram Cholesky cannot certify (it proves s_min > 2x the
    # cut) and the SVD count decides; at 1000x the Cholesky does
    for factor, full, certified in ((0.5, False, False), (2.0, True, False), (1e3, True, True)):
        a = np.array([[1.0, 0.0, 0.0], [1.0, factor * RANK_REL_TOL_FACTOR * 3 * 2, 0.0]])
        sv = SVD(a, compute_uv=False)
        assert sv[1] / (RANK_REL_TOL_FACTOR * 3 * sv[0]) == pytest.approx(factor, rel=1e-5)
        rank = 2 if full else 1
        assert singular_value_rank(sv, a.shape) == rank
        for mat in (a, a.T):
            assert linalg._certified_full_rank(mat) is certified
            assert numerical_rank(mat) == rank
            with monkeypatch.context() as patch:  # the SVD count alone
                patch.setattr(linalg, "_certified_full_rank", lambda mat: False)
                assert numerical_rank(mat) == rank
        assert (gram_extremes(a.T).lambda_min > 0.0) is full
        assert gram_extremes(a).lambda_min == 0.0  # more columns than rows
        inst = ProblemInstance(a=a, b=np.array([3.0, 3.0]), sigma=1.0, p=0.5)
        assert oracle._lines(inst, 3)[2].tolist() == [full]  # the one line, Z = {0, 1}


def test_singular_value_rank_batches_over_leading_axes():
    sv = np.array([[2.0, 1.0, 0.0], [1.0, 1e-12, 0.0], [0.0, 0.0, 0.0], [np.nan] * 3])
    np.testing.assert_array_equal(singular_value_rank(sv, (3, 4)), [2, 1, 0, 0])
    np.testing.assert_array_equal(singular_value_rank(np.zeros((5, 0)), (0, 1)), np.zeros(5))



# -- ball_entry: where an affine path first enters ||a z - b||_q <= sigma --


def entry_draw(rng):
    # a path from a random start towards a point that nearly fits b, or, in
    # one draw of three, towards a random point, which may miss the ball
    m, k = int(rng.integers(1, 9)), int(rng.integers(1, 7))
    a, b = rng.standard_normal((m, k)), rng.standard_normal(m)
    z_from = rng.standard_normal(k)
    z_to = rng.standard_normal(k)
    if rng.random() < 2 / 3:
        z_to = least_squares_min_norm(a, b) + 1e-3 * z_to
    return a, b, z_from, z_to


def test_ball_entry_l1_matches_exact_crossing(rng):
    hits = 0
    for _ in range(300):
        a, b, z_from, z_to = entry_draw(rng)
        sigma = rng.uniform(0.05, 0.95) * np.abs(a @ z_from - b).sum()
        t = ball_entry(a, b, z_from, z_to, sigma, 1)
        ref = exact_l1_entry(a, b, z_from, z_to, sigma)
        assert (t is None) == (ref is None)
        if t is None:
            continue
        hits += 1
        assert t == pytest.approx(float(ref), rel=1e-12)
        assert lq_norm(a @ (z_from + t * (z_to - z_from)) - b, 1) <= sigma
    assert 150 <= hits < 300  # both outcomes are drawn


def test_ball_entry_l2_matches_closed_form(rng):
    hits = 0
    for _ in range(300):
        a, b, z_from, z_to = entry_draw(rng)
        r0, g = a @ z_from - b, a @ (z_to - z_from)
        sigma = rng.uniform(0.05, 0.95) * np.linalg.norm(r0)
        t = ball_entry(a, b, z_from, z_to, sigma, 2)
        # ||r0 + t g||^2 = sigma^2: g'g t^2 + 2 r0'g t + r0'r0 - sigma^2 = 0
        disc = (r0 @ g) ** 2 - (g @ g) * (r0 @ r0 - sigma**2)
        if disc < 0.0 or r0 @ g >= 0.0:
            assert t is None
            continue
        hits += 1
        assert t == pytest.approx((-(r0 @ g) - np.sqrt(disc)) / (g @ g), rel=1e-9)
        assert lq_norm(a @ (z_from + t * (z_to - z_from)) - b, 2) <= sigma
    assert 150 <= hits < 300


def test_ball_entry_edges():
    a, b = np.eye(2), np.array([0.0, 3.0])
    # f(t) = |t| + |3t - 3| falls from 3 at rate 2 until t = 1; the row
    # that starts at zero moves away from it
    assert ball_entry(a, b, np.zeros(2), np.array([1.0, 3.0]), 2.0, 1) == 0.5
    # a start inside enters at once; a path that moves away, or stands
    # still, outside the ball misses it
    assert ball_entry(a, b, np.array([0.0, 2.5]), np.array([9.0, 9.0]), 1.0, 1) == 0.0
    assert ball_entry(a, b, np.array([0.0, 2.5]), np.array([9.0, 9.0]), 1.0, 2) == 0.0
    for q in (1, 2):
        assert ball_entry(a, b, np.array([5.0, 0.0]), np.array([6.0, 0.0]), 1.0, q) is None
        assert ball_entry(a, b, np.zeros(2), np.zeros(2), 1.0, q) is None
    # sigma = 0: the ball is the affine set a z = b, met exactly at t = 0.5
    b = np.ones(2)
    for q in (1, 2):
        t = ball_entry(a, b, np.zeros(2), np.array([2.0, 2.0]), 0.0, q)
        assert t == 0.5 and lq_norm(a @ (t * np.array([2.0, 2.0])) - b, q) == 0.0
        assert ball_entry(a, b, np.zeros(2), np.array([2.0, 3.0]), 0.0, q) is None
    for q in (3, 1.5, np.inf):
        with pytest.raises(InvalidNorm):
            ball_entry(a, b, np.zeros(2), np.ones(2), 1.0, q)


def test_ball_entry_from_origin_golden(golden):
    # the segment from 0 to (3, 0, 0) has ||A x(t) - b||_1 = 6 (1 - t), so it
    # enters the ball at t = 5/6 when sigma = 1 and at t = 1/6 when sigma = 5
    x = np.array([3.0, 0.0, 0.0])
    for sigma, t in ((1.0, 5.0 / 6.0), (5.0, 1.0 / 6.0)):
        assert ball_entry(golden.a, golden.b, np.zeros(3), x, sigma, 1) == pytest.approx(
            t, abs=1e-15
        )


def test_ball_entry_from_origin_lands_on_the_ball_side(golden, rng):
    # verify's p = 0 scaling: alpha x, alpha the entry from 0 towards a point
    # x inside the ball, is on the boundary to roundoff, and never outside.
    # Draws around the interpolating point, scaled within the ball's reach,
    # on instances where 0 is outside the ball (the blanket assumption)
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
                t = ball_entry(inst.a, inst.b, np.zeros_like(x), x, inst.sigma, q)
                alpha = 1.0 if t is None else min(t, 1.0)
                gap = np.linalg.norm(inst.residual(alpha * x), ord=q) - inst.sigma
                assert -1e-12 * (1.0 + np.abs(inst.b).sum()) <= gap <= 0.0
