import numpy as np
import pytest

from refs import grid_prox
from sparselp import InvalidParam, NonFinite
from sparselp.prox import prox_threshold, prox_vector


def prox_one(v, w, p):
    """The scalar prox: a one-element prox_vector call."""
    return prox_vector(np.array([v]), np.zeros(1), w, p)[0]


def test_threshold_formula():
    # p = 1/2, w = 2: tau = (3/2)/1 * (1/2)^(2/3)
    assert prox_threshold(2.0, 0.5) == pytest.approx(1.5 * 0.5 ** (2.0 / 3.0), rel=1e-14)
    with pytest.raises(InvalidParam):
        prox_threshold(0.0, 0.5)
    with pytest.raises(InvalidParam):
        prox_threshold(1.0, 1.0)


def test_dead_zone_boundary():
    for p in (0.1, 0.5, 0.9):
        for w in (0.3, 1.0, 7.0):
            tau = prox_threshold(w, p)
            assert prox_one(tau * (1 - 1e-9), w, p) == 0.0
            assert prox_one(tau, w, p) == 0.0  # exact tie rounds to zero
            t = prox_one(tau * (1 + 1e-6), w, p)
            assert t > 0.0


def test_prox_scalar_vs_grid(rng):
    # 1080 (v, w, p) cases against the refined-grid oracle
    count = 0
    for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        for _ in range(120):
            v = float(rng.uniform(-4.0, 4.0))
            w = float(rng.uniform(0.2, 8.0))
            t = prox_one(v, w, p)
            tg = grid_prox(v, w, p)
            count += 1
            if t == 0.0 or tg == 0.0:
                # near the dead-zone tie both branches have equal objective
                # to grid precision; compare objectives instead of points
                def obj(u):
                    return (abs(u) ** p if u else 0.0) + 0.5 * w * (u - v) ** 2

                assert obj(t) <= obj(tg) + 1e-9
            else:
                assert t == pytest.approx(tg, abs=1e-7)
    assert count >= 1000


def test_prox_newton_is_tighter_than_grid():
    # stationarity residual at the Newton root is ~1e-13, far below grid error
    for p in (0.3, 0.5, 0.7):
        v, w = 2.345678, 1.7
        t = abs(prox_one(v, w, p))
        resid = p * t ** (p - 1.0) + w * (t - abs(v))
        assert abs(resid) < 1e-10


def test_half_power_cubic_cross_check(rng):
    # for p = 1/2 the stationarity condition in y = sqrt(t) is the depressed
    # cubic y^3 - |v| y + 1/(2w) = 0; solve it with numpy.roots and compare
    for _ in range(200):
        v = float(rng.uniform(-5.0, 5.0))
        w = float(rng.uniform(0.2, 6.0))
        t = prox_one(v, w, 0.5)
        if t == 0.0:
            continue
        roots = np.roots([1.0, 0.0, -abs(v), 0.5 / w])
        real = np.sort(roots[np.abs(roots.imag) < 1e-9].real)
        t_cubic = float(real[-1] ** 2)  # largest root squares to the minimizer
        assert abs(t) == pytest.approx(t_cubic, rel=1e-9)


def test_prox_vector_matches_scalar(rng):
    for _ in range(50):
        n = int(rng.integers(1, 12))
        x = rng.standard_normal(n) * 3
        g = rng.standard_normal(n)
        l = float(rng.uniform(0.5, 10.0))
        p = float(rng.uniform(0.1, 0.9))
        out = prox_vector(x, g, l, p)
        v = x - g / l
        expected = np.array([prox_one(vi, l, p) for vi in v])
        # batched and per-scalar Newton stop at different residual levels,
        # so agreement is to solver tolerance, with identical zero patterns
        np.testing.assert_array_equal(out == 0.0, expected == 0.0)
        np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-12)


def test_prox_vector_sign_symmetry(rng):
    x = rng.standard_normal(9)
    g = rng.standard_normal(9)
    out = prox_vector(x, g, 2.0, 0.5)
    flipped = prox_vector(-x, -g, 2.0, 0.5)
    np.testing.assert_array_equal(out, -flipped)


def test_prox_vector_rejects_bad_input():
    with pytest.raises(InvalidParam):
        prox_vector(np.ones(3), np.ones(2), 1.0, 0.5)
    with pytest.raises(NonFinite):
        prox_vector(np.array([np.inf]), np.zeros(1), 1.0, 0.5)
    with pytest.raises(NonFinite):
        prox_one(np.nan, 1.0, 0.5)
    with pytest.raises(InvalidParam):
        prox_vector(np.ones((2, 2)), np.ones((2, 2)), 1.0, 0.5)
    with pytest.raises(InvalidParam):
        prox_vector(np.ones(2), np.zeros(2), 1.0, 1.0)
    with pytest.raises(InvalidParam):
        prox_vector(np.ones(2), np.zeros(2), np.inf, 0.5)


def test_prox_monotone_in_input(rng):
    # the scalar prox is nondecreasing in v for fixed (w, p)
    for p in (0.2, 0.5, 0.8):
        vs = np.sort(rng.uniform(-4, 4, 100))
        ts = [prox_one(v, 1.3, p) for v in vs]
        assert all(b >= a - 1e-12 for a, b in zip(ts, ts[1:]))
