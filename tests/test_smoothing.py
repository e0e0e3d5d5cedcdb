import numpy as np
import pytest

from conftest import penalty_value_and_grad
from sparselp import InvalidNorm, InvalidParam, ProblemInstance
from sparselp.smoothing import SmoothedPenalty, lp_power_sum, smoothed_abs, smoothed_plus

# envelope property: the smoothed functions sit above their kinked targets
# with a gap of at most mu/8 (plus part) and mu/4 (absolute value), and
# coincide exactly outside the patch


def plus_on(s, mu):
    """smoothed_plus (floats only) mapped over an array."""
    pairs = [smoothed_plus(si, mu) for si in np.asarray(s).tolist()]
    return np.array([v for v, _ in pairs]), np.array([d for _, d in pairs])


def test_plus_envelope_bounds(rng):
    for mu in (1e-3, 0.1, 1.0, 10.0):
        s = rng.uniform(-5 * mu, 5 * mu, 10_000)
        val, der = plus_on(s, mu)
        plus = np.maximum(s, 0.0)
        gap = val - plus
        assert gap.min() >= -1e-15
        assert gap.max() <= mu / 8 + 1e-15
        outside = np.abs(s) >= mu / 2
        np.testing.assert_array_equal(val[outside], plus[outside])
        assert der.min() >= 0.0 and der.max() <= 1.0


def test_abs_envelope_bounds(rng):
    for mu in (1e-3, 0.1, 1.0, 10.0):
        t = rng.uniform(-5 * mu, 5 * mu, 10_000)
        val, der = smoothed_abs(t, mu)
        gap = val - np.abs(t)
        assert gap.min() >= -1e-15
        assert gap.max() <= mu / 4 + 1e-15
        outside = np.abs(t) >= mu / 2
        np.testing.assert_array_equal(val[outside], np.abs(t[outside]))
        assert der.min() >= -1.0 and der.max() <= 1.0


def test_scalar_derivatives_by_central_difference(rng):
    h = 1e-7
    for mu in (0.37, 0.59):
        s = rng.uniform(-1.0, 1.0, 200)
        # avoid straddling the patch boundary where the second derivative jumps
        s = s[np.abs(np.abs(s) - mu / 2) > 10 * h]
        _, der = plus_on(s, mu)
        fd = (plus_on(s + h, mu)[0] - plus_on(s - h, mu)[0]) / (2 * h)
        np.testing.assert_allclose(der, fd, atol=1e-7)
        t = rng.uniform(-1.0, 1.0, 200)
        t = t[np.abs(np.abs(t) - mu / 2) > 10 * h]
        _, der = smoothed_abs(t, mu)
        fd = (smoothed_abs(t + h, mu)[0] - smoothed_abs(t - h, mu)[0]) / (2 * h)
        np.testing.assert_allclose(der, fd, atol=1e-7)


def test_abs_kernel_is_the_plus_kernel_on_both_sides(rng):
    # |t| = (t)_+ + (-t)_+, and the kernels keep it at one width: the value
    # and the derivative agree to rounding, so one width serves both kinks
    for mu in (1e-6, 1e-3, 0.5, 1.0, 7.0):
        half = 0.5 * mu
        t = np.concatenate([
            rng.uniform(-3 * mu, 3 * mu, 10_000),
            [half, -half, np.nextafter(half, 0.0), np.nextafter(half, np.inf), 0.0],
        ])
        val, der = smoothed_abs(t, mu)
        plus_val, plus_der = plus_on(t, mu)
        minus_val, minus_der = plus_on(-t, mu)
        np.testing.assert_allclose(val, plus_val + minus_val, rtol=1e-15, atol=0.0)
        # both derivatives lie in [-1, 1]: 1e-15 is relative to that range
        np.testing.assert_allclose(der, plus_der - minus_der, rtol=0.0, atol=1e-15)


def test_patch_joins_are_continuous():
    for mu in (1e-4, 1.0):
        lo, _ = smoothed_plus(np.nextafter(mu / 2, 0.0), mu)
        hi, _ = smoothed_plus(mu / 2, mu)
        assert abs(float(lo) - float(hi)) < 1e-12 * max(1.0, mu)
        lo, _ = smoothed_abs(np.nextafter(mu / 2, 0.0), mu)
        hi, _ = smoothed_abs(mu / 2, mu)
        assert abs(float(lo) - float(hi)) < 1e-12 * max(1.0, mu)


def test_smoothed_l1_sum_overestimates(rng):
    for _ in range(100):
        z = rng.standard_normal(rng.integers(1, 9))
        mu = float(rng.uniform(1e-3, 2.0))
        v = float(np.sum(smoothed_abs(z, mu)[0]))
        l1 = float(np.sum(np.abs(z)))
        assert l1 - 1e-15 <= v <= l1 + len(z) * mu / 4 + 1e-15


def test_lp_power_sum():
    assert lp_power_sum(np.array([4.0, 0.0, -9.0]), 0.5) == pytest.approx(5.0)
    assert lp_power_sum(np.array([1.0, -2.0]), 1.0) == pytest.approx(3.0)
    with pytest.raises(InvalidParam):
        lp_power_sum(np.ones(2), 0.0)
    with pytest.raises(InvalidParam):
        lp_power_sum(np.ones(2), 1.5)


def test_smoothing_params_validation():
    inst = ProblemInstance(a=np.array([[1.0, 0.0]]), b=np.array([2.0]), sigma=0.5)
    for q in (1.0, 2.0):
        with pytest.raises(InvalidParam):
            SmoothedPenalty(inst, q, lam=0.0, mu=1.0)
        with pytest.raises(InvalidParam):
            SmoothedPenalty(inst, q, lam=1.0, mu=-1.0)
    with pytest.raises(InvalidNorm):
        SmoothedPenalty(inst, 3.0, lam=1.0, mu=1.0)


def _random_instance(rng, m, n):
    a = rng.standard_normal((m, n))
    b = rng.standard_normal(m) + 2.0  # keep ||b||_1 comfortably above sigma
    return ProblemInstance(a=a, b=b, sigma=0.3, p=0.5)


def test_penalty_gradient_by_central_difference(rng):
    # 10 instances x 100 probe points, relative error <= 1e-5
    h = 1e-6
    for _ in range(10):
        inst = _random_instance(rng, int(rng.integers(2, 6)), int(rng.integers(2, 7)))
        pen = SmoothedPenalty(
            inst,
            1.0,
            lam=float(rng.uniform(0.5, 4.0)),
            mu=float(rng.uniform(0.05, 1.0)),
        )
        for _ in range(100):
            x = rng.standard_normal(inst.n)
            val, grad = penalty_value_and_grad(pen, inst.residual(x))
            assert val == pytest.approx(pen.value(inst.residual(x)), rel=1e-14)
            for j in range(inst.n):
                e = np.zeros(inst.n)
                e[j] = h
                fd = (pen.value(inst.residual(x + e)) - pen.value(inst.residual(x - e))) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-6)


def test_penalty_envelope_gap(rng):
    # penalty overestimates lam * (||r||_1 - sigma)_+ by at most
    # lam * mu * (1/8 + m/4)
    for _ in range(50):
        inst = _random_instance(rng, 4, 5)
        pen = SmoothedPenalty(inst, 1.0, lam=2.0, mu=0.3)
        x = rng.standard_normal(5)
        exact = pen.lam * max(np.sum(np.abs(inst.residual(x))) - inst.sigma, 0.0)
        val = pen.value(inst.residual(x))
        assert exact - 1e-12 <= val <= exact + pen.lam * pen.mu * (1 / 8 + inst.m / 4) + 1e-12


def test_gradient_vanishes_deep_inside(rng):
    # with the width small, points well inside the ball get zero gradient
    inst = ProblemInstance(
        a=np.array([[1.0, 0.0]]), b=np.array([5.0]), sigma=2.0, p=0.5
    )
    pen = SmoothedPenalty(inst, 1.0, lam=10.0, mu=1e-4)
    x = np.array([4.5, 0.0])  # residual -0.5, well inside the sigma=2 ball
    val, grad = penalty_value_and_grad(pen, inst.residual(x))
    assert val == 0.0
    np.testing.assert_array_equal(grad, np.zeros(2))


def test_lipschitz_bound_dominates_observed_curvature(rng):
    inst = _random_instance(rng, 4, 6)
    pen = SmoothedPenalty(inst, 1.0, lam=1.5, mu=0.15)
    # the module docstring's bound (m + 2) * lam * ||A||^2 / mu
    a_norm_sq = float(np.linalg.svd(inst.a, compute_uv=False)[0] ** 2)
    bound = (inst.m + 2.0) * pen.lam * a_norm_sq / pen.mu
    for _ in range(300):
        x = rng.standard_normal(6)
        y = x + rng.standard_normal(6) * rng.uniform(1e-4, 0.5)
        gx = penalty_value_and_grad(pen, inst.residual(x))[1]
        gy = penalty_value_and_grad(pen, inst.residual(y))[1]
        lhs = np.linalg.norm(gx - gy)
        assert lhs <= bound * np.linalg.norm(x - y) * (1 + 1e-9)


def test_objective_value_composes():
    inst = ProblemInstance(
        a=np.array([[1.0, 1.0]]), b=np.array([4.0]), sigma=0.5, p=0.5
    )
    pen = SmoothedPenalty(inst, 1.0, lam=1.0, mu=1e-6)
    x = np.array([1.0, 0.0])
    # residual -3, |r|_1 = 3, violation 2.5; power sum 1
    objective = lp_power_sum(x, inst.p) + pen.value(inst.residual(x))
    assert objective == pytest.approx(1.0 + 2.5, abs=1e-5)
