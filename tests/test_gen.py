import logging

import numpy as np
import pytest

from refs import t2_cdf
from sparselp import GenSpec, InvalidParam, gen_instance, gen_matched_pair
from sparselp.gen import make_rng, sample_t2
from sparselp.linalg import lq_norm


SPEC = GenSpec(m=20, n=50, s=5, delta=1e-2, noise="gauss", seed=7)


def test_same_seed_bitwise_identical():
    a1, x1, xi1 = gen_instance(SPEC)
    a2, x2, xi2 = gen_instance(SPEC)
    np.testing.assert_array_equal(a1.a, a2.a)
    np.testing.assert_array_equal(a1.b, a2.b)
    assert a1.sigma == a2.sigma
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(xi1, xi2)


def test_different_seeds_differ():
    inst1, _, _ = gen_instance(SPEC)
    inst2, _, _ = gen_instance(GenSpec(m=20, n=50, s=5, delta=1e-2, noise="gauss", seed=8))
    assert not np.array_equal(inst1.a, inst2.a)


def test_column_normalization_and_support():
    inst, x_hat, xi = gen_instance(SPEC)
    np.testing.assert_allclose(np.linalg.norm(inst.a, axis=0), 1.0, atol=1e-12)
    nz = np.flatnonzero(x_hat)
    assert len(nz) == SPEC.s
    assert np.all(np.diff(nz) > 0)
    assert xi.shape == (SPEC.m,)


def test_planted_point_sits_on_boundary():
    inst, x_hat, xi = gen_instance(SPEC)
    assert inst.sigma == SPEC.delta * lq_norm(xi, 1.0)
    res = lq_norm(inst.a @ x_hat - inst.b, 1.0)
    assert res == pytest.approx(inst.sigma, rel=1e-12)


def test_l2_sigma_variant():
    spec = GenSpec(m=20, n=50, s=5, delta=1e-2, noise="gauss", seed=7, q_for_sigma=2.0)
    inst, x_hat, xi = gen_instance(spec)
    assert inst.sigma == spec.delta * lq_norm(xi, 2.0)
    assert lq_norm(inst.a @ x_hat - inst.b, 2.0) == pytest.approx(inst.sigma, rel=1e-12)


def test_matched_pair_shares_the_draw():
    spec = GenSpec(m=20, n=50, s=5, delta=1e-2, noise="t2", seed=11)
    inst1, inst2, x_hat, xi = gen_matched_pair(spec)
    np.testing.assert_array_equal(inst1.a, inst2.a)
    np.testing.assert_array_equal(inst1.b, inst2.b)
    assert inst1.sigma == spec.delta * lq_norm(xi, 1.0)
    assert inst2.sigma == spec.delta * lq_norm(xi, 2.0)
    assert inst1.sigma >= inst2.sigma  # l1 dominates l2
    assert np.count_nonzero(x_hat) == 5


def test_reseed_on_degenerate_draw(caplog):
    # this draw fails the ||b||_1 > sigma check and must be retried
    spec = GenSpec(m=5, n=6, s=2, delta=0.3, noise="gauss", seed=3)
    with caplog.at_level(logging.WARNING, logger="sparselp.gen"):
        inst, x_hat, xi = gen_instance(spec)
    assert any("retrying" in rec.message for rec in caplog.records)
    # the accepted draw is exactly the one seed 4 produces directly
    direct, x_direct, xi_direct = gen_instance(
        GenSpec(m=5, n=6, s=2, delta=0.3, noise="gauss", seed=4)
    )
    np.testing.assert_array_equal(inst.a, direct.a)
    np.testing.assert_array_equal(inst.b, direct.b)
    np.testing.assert_array_equal(xi, xi_direct)


def test_spec_validation():
    with pytest.raises(InvalidParam):
        GenSpec(m=0, n=5, s=1, delta=0.1)
    with pytest.raises(InvalidParam):
        GenSpec(m=5, n=5, s=0, delta=0.1)
    with pytest.raises(InvalidParam):
        GenSpec(m=5, n=5, s=6, delta=0.1)
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(InvalidParam):
            GenSpec(m=5, n=5, s=1, delta=bad)
    with pytest.raises(InvalidParam):
        GenSpec(m=5, n=5, s=1, delta=0.1, noise="cauchy")
    with pytest.raises(InvalidParam):
        GenSpec(m=5, n=5, s=1, delta=0.1, q_for_sigma=3.0)


def test_make_rng_is_stable():
    np.testing.assert_array_equal(
        make_rng(123).standard_normal(6), make_rng(123).standard_normal(6)
    )


def test_t2_cdf_closed_form():
    # F(0) = 1/2, symmetry, and the known absolute-value median sqrt(2/3)
    assert t2_cdf(0.0) == 0.5
    t = np.linspace(-8, 8, 33)
    np.testing.assert_allclose(t2_cdf(t) + t2_cdf(-t), 1.0, atol=1e-15)
    med = np.sqrt(2.0 / 3.0)
    assert 2.0 * t2_cdf(med) - 1.0 == pytest.approx(0.5, abs=1e-15)


def test_t2_sampler_matches_cdf():
    draws = sample_t2(200_000, make_rng(5))
    grid = np.array([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])
    emp = np.searchsorted(np.sort(draws), grid, side="right") / draws.size
    np.testing.assert_allclose(emp, t2_cdf(grid), atol=5e-3)
    assert np.median(np.abs(draws)) == pytest.approx(np.sqrt(2.0 / 3.0), abs=5e-3)


def test_gaussian_sampler_moments():
    draws = make_rng(9).standard_normal(200_000)
    assert np.mean(draws) == pytest.approx(0.0, abs=5e-3)
    assert np.std(draws) == pytest.approx(1.0, abs=5e-3)
