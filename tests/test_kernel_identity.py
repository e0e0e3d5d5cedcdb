"""The inner-loop kernels against frozen copies of their earlier versions.

The prox and the penalties were rewritten to make fewer numpy calls per
line-search trial while computing the same floating-point operations.
These tests hold them to that: kernel outputs must match the copies in
refs.py bit for bit, and a whole solve run on either set must return the
same bytes, counts and trace.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import refs
import sparselp.npg
import sparselp.solver
from conftest import penalty_value_and_grad
from sparselp import InvalidParam, NonFinite, ProblemInstance
from sparselp.core import replace_p
from sparselp.gen import GenSpec, gen_matched_pair
from sparselp.prox import prox_threshold, prox_vector
from sparselp.smoothing import SmoothedPenalty, lp_power_sum, smoothed_abs, smoothed_plus
from sparselp.solver import solve_l1, solve_l2

# the residual norm q of the one penalty class, and the frozen class per q
PENALTIES = ((1.0, refs.L1SmoothedPenalty), (2.0, refs.L2SmoothedPenalty))


def frozen_penalty(inst, q, lam, mu):
    """The frozen penalty for q, built from SmoothedPenalty's arguments;
    the frozen classes take two widths, here both mu."""
    ref_cls = dict(PENALTIES)[q]
    return ref_cls(inst, SimpleNamespace(lam=lam, mu=mu, nu=mu))


def same_bits(a, b) -> bool:
    """Equal as IEEE doubles, signed zeros included; any NaN equals any NaN."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return False
    nan = np.isnan(a)
    if not np.array_equal(nan, np.isnan(b)):
        return False
    return a[~nan].tobytes() == b[~nan].tobytes()


def check_prox(x, g, l, p):
    new = prox_vector(x, g, l, p)
    ref = refs.prox_vector(x, g, l, p)
    assert np.array_equal(new, ref) and same_bits(new, ref)
    return new


def test_prox_matches_frozen_kernel_on_seeded_draws(rng):
    for _ in range(400):
        n = int(rng.integers(1, 60))
        x = rng.standard_normal(n) * rng.choice((0.1, 1.0, 10.0))
        g = rng.standard_normal(n)
        l = float(10.0 ** rng.uniform(-2.0, 3.0))
        p = float(rng.uniform(0.01, 0.99))
        check_prox(x, g, l, p)


def test_prox_matches_frozen_kernel_at_edges():
    for p in (0.1, 0.5, 0.9):
        for w in (0.3, 1.0, 7.0):
            tau = prox_threshold(w, p)
            assert tau == refs.prox_threshold(w, p)
            zero = np.zeros(5)
            # all dead, including signed zeros
            dead = np.array([0.0, -0.0, 0.5 * tau, -0.5 * tau, tau])
            assert not check_prox(dead, zero, w, p).any()
            # all live
            live = np.array([1.5, -2.0, 3.0, -4.0, 5.0]) * (tau + 1.0)
            assert check_prox(live, zero, w, p).all()
            # |v| exactly at the threshold rounds to zero, its neighbours
            # one ulp out do not
            up = np.nextafter(tau, np.inf)
            edge = np.array([tau, -tau, up, -up, np.nextafter(tau, 0.0)])
            out = check_prox(edge, zero, w, p)
            assert out[0] == 0.0 and out[1] == 0.0 and out[4] == 0.0
            # a dead zone reached through the gradient, not the point
            check_prox(zero, -w * dead, w, p)
    check_prox(np.zeros(0), np.zeros(0), 1.0, 0.5)


def test_prox_rejects_what_the_frozen_kernel_rejects():
    # the checks run in the same order, so each bad input meets the same error
    cases = (
        (np.ones(3), np.ones(2), 1.0, 0.5),
        (np.array([1.0, np.nan]), np.zeros(2), 1.0, 0.5),
        (np.ones(2), np.zeros(2), 0.0, 0.5),  # 0/0 makes v NaN before l is checked
        (np.ones(2), np.zeros(2), -1.0, 0.5),
        (np.ones(2), np.zeros(2), np.inf, 0.5),
        (np.ones(2), np.zeros(2), 1.0, 1.0),
    )
    for x, g, l, p in cases:
        with np.errstate(all="ignore"):
            with pytest.raises((InvalidParam, NonFinite)) as new:
                prox_vector(x, g, l, p)
            with pytest.raises((InvalidParam, NonFinite)) as ref:
                refs.prox_vector(x, g, l, p)
        assert new.type is ref.type


def test_smoothed_plus_matches_frozen_kernel(rng):
    for mu in (1e-8, 1e-3, 0.37, 1.0, 10.0):
        half = 0.5 * mu
        edges = [half, -half, np.nextafter(half, 0.0), np.nextafter(-half, 0.0),
                 np.nextafter(half, np.inf), np.nextafter(-half, -np.inf),
                 0.0, -0.0, 1e300, -1e300, np.inf, -np.inf, np.nan]
        for s in edges + list(rng.uniform(-3 * mu, 3 * mu, 300)):
            val, der = smoothed_plus(float(s), mu)
            assert type(val) is float and type(der) is float
            with np.errstate(all="ignore"):
                rval, rder = refs.smoothed_plus(s, mu)
            assert same_bits(val, rval), (s, mu)
            assert same_bits(der, rder), (s, mu)


def test_smoothed_abs_matches_frozen_kernel(rng):
    for mu in (1e-8, 1e-3, 0.59, 10.0):
        half = 0.5 * mu
        t = np.concatenate([
            rng.uniform(-3 * mu, 3 * mu, 500),
            [half, -half, np.nextafter(half, 0.0), np.nextafter(half, np.inf), 0.0, -0.0,
             np.inf, -np.inf, np.nan],
        ])
        val, der = smoothed_abs(t, mu)
        rval, rder = refs.smoothed_abs(t, mu)
        assert same_bits(val, rval) and same_bits(der, rder)


def test_lp_power_sum_matches_frozen_kernel(rng):
    for _ in range(50):
        x = rng.standard_normal(int(rng.integers(1, 2000)))
        x[rng.random(x.size) < 0.7] = 0.0
        for p in (0.1, 0.5, 1.0):
            assert same_bits(lp_power_sum(x, p), refs.lp_power_sum(x, p))


def _instance(rng, m=6, n=9, sigma=0.5):
    return ProblemInstance(
        a=rng.standard_normal((m, n)), b=rng.standard_normal(m), sigma=sigma, p=0.5
    )


def check_penalty(q, inst, lam, mu, r):
    new, ref = SmoothedPenalty(inst, q, lam, mu), frozen_penalty(inst, q, lam, mu)
    with np.errstate(all="ignore"):
        v, (vg, g) = new.value(r), penalty_value_and_grad(new, r)
        rv, (rvg, rg) = ref.value(r), ref.value_and_grad(r)
        rgg = ref.grad(r)
    assert same_bits(v, rv) and same_bits(vg, rvg)
    assert same_bits(g, rg) and same_bits(g, rgg)
    return vg, g


def test_penalties_match_frozen_kernels_on_seeded_draws(rng):
    for _ in range(200):
        inst = _instance(rng, sigma=float(rng.uniform(0.0, 3.0)))
        lam = float(10.0 ** rng.uniform(-1, 4))
        mu = float(10.0 ** rng.uniform(-6, 0))
        r = rng.standard_normal(inst.m) * rng.choice((1e-4, 0.1, 1.0))
        for q, _ in PENALTIES:
            check_penalty(q, inst, lam, mu, r)


def test_penalties_match_frozen_kernels_at_edges(rng):
    inst = _instance(rng, m=4, n=5)
    lam, mu = 3.0, 0.5
    # |r_i| exactly at mu/2, and one ulp either side
    half = 0.5 * mu
    r = np.array([half, -half, np.nextafter(half, 0.0), np.nextafter(-half, -np.inf)])
    for q, _ in PENALTIES:
        check_penalty(q, inst, lam, mu, r)
    # the excess s exactly at +mu/2 and -mu/2: with every |r_i| >= mu/2 the
    # smoothed sum is sum|r_i| = 3.5 exactly
    r = np.array([1.0, -2.0, 0.25, -0.25])
    for sigma, slope in ((3.5 - 0.5 * mu, 1.0), (3.5 + 0.5 * mu, 0.0)):
        inst_s = ProblemInstance(a=inst.a, b=inst.b, sigma=sigma, p=0.5)
        _, g = check_penalty(1.0, inst_s, lam, mu, r)
        assert (not g.any()) == (slope == 0.0)
    # outer == 0: deep inside the ball, the gradient is an exact zero vector
    for q, _ in PENALTIES:
        inst_in = ProblemInstance(a=inst.a, b=inst.b, sigma=100.0, p=0.5)
        val, g = check_penalty(q, inst_in, lam, mu, r)
        assert val == 0.0 and not g.any()


def test_penalties_match_frozen_kernels_on_nonfinite_residuals(rng):
    inst = _instance(rng, m=4, n=5)
    for bad in (np.nan, np.inf, -np.inf):
        r = np.array([0.3, bad, -0.2, 0.01])
        for q, _ in PENALTIES:
            val, _ = check_penalty(q, inst, 2.0, 0.1, r)
            assert math.isnan(val) if np.isnan(bad) else val == math.inf
    big = np.full(4, 1e200)  # the squares overflow to inf
    for q, _ in PENALTIES:
        check_penalty(q, inst, 2.0, 0.1, big)


def test_solves_are_bit_identical_on_frozen_kernels(monkeypatch):
    inst1, inst2, _, _ = gen_matched_pair(GenSpec(m=20, n=60, s=3, delta=1e-3, seed=0))
    runs = ((solve_l1, replace_p(inst1, 0.5)), (solve_l1, replace_p(inst1, 0.1)),
            (solve_l2, replace_p(inst2, 0.5)))
    new = [solve(inst) for solve, inst in runs]
    # route the inner loop through the frozen kernels
    frozen_calls = []

    def frozen_prox(*args):
        frozen_calls.append(1)
        return refs.prox_vector(*args)

    frozen_qs = []
    # the inner loop takes the gradient's pieces; the adapters give them
    # from the frozen kernels
    adapters = {1.0: refs.L1ResidualPenalty, 2.0: refs.L2ResidualPenalty}

    def frozen_solver_penalty(inst, q, lam, mu):
        frozen_qs.append(q)
        return adapters[q](inst, SimpleNamespace(lam=lam, mu=mu, nu=mu))

    monkeypatch.setattr(sparselp.npg, "prox_vector", frozen_prox)
    monkeypatch.setattr(sparselp.solver, "SmoothedPenalty", frozen_solver_penalty)
    ref = [solve(inst) for solve, inst in runs]
    assert len(frozen_calls) >= sum(b.inner_iters_total for b in ref)
    # one frozen penalty per outer iteration, on each run's ball
    assert frozen_qs == [q for q, b in zip((1.0, 1.0, 2.0), ref) for _ in range(b.outer_iters)]
    for a, b in zip(new, ref):
        assert a.inner_iters_total > 50
        assert np.array_equal(a.x_star, b.x_star) and same_bits(a.x_star, b.x_star)
        assert a.inner_iters_total == b.inner_iters_total
        assert a.outer_iters == b.outer_iters
        assert a.stop_reason == b.stop_reason
        assert same_bits(a.objective, b.objective)
        # repr round-trips every float and prints the final nan rho alike
        assert repr(a.trace) == repr(b.trace)
