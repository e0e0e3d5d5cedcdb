import numpy as np
import pytest

from refs import exact_l1_entry
from sparselp import InvalidNorm
from sparselp.linalg import (
    ball_entry,
    gram_extremes,
    least_squares_min_norm,
    lq_norm,
    numerical_rank,
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
    with pytest.raises(ValueError):
        gram_extremes(np.zeros((3, 0)))



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
