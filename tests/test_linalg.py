import numpy as np
import pytest

from sparselp import InvalidNorm
from sparselp.linalg import (
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

