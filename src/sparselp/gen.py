"""Reproducible random instance generation.

One protocol for both noise families: draw A with i.i.d. standard normal
entries and normalize each column to unit 2-norm, plant a standard-normal
vector on a uniformly random size-s support, draw noise xi, then set
b = A x_hat + delta xi and sigma = delta ||xi||_q.  The planted point is
feasible with residual norm exactly sigma, sitting on the constraint
boundary by construction.

All randomness comes from a Philox counter-based generator seeded
explicitly, so identical GenSpec values give bit-identical instances on
any platform.  Draw order is part of the contract: A first, then the
support, then the planted values, then the noise.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import ProblemInstance, validate_instance
from .errors import InvalidParam, InvariantViolation
from .linalg import lq_norm, numerical_rank

log = logging.getLogger("sparselp.gen")

NOISE_FAMILIES = ("gauss", "t2")
MAX_RESEEDS = 32


@dataclass(frozen=True)
class GenSpec:
    m: int
    n: int
    s: int
    delta: float
    noise: str = "gauss"
    seed: int = 0
    q_for_sigma: float = 1.0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise InvalidParam(f"need m, n >= 1, got {self.m}, {self.n}")
        if not 1 <= self.s <= self.n:
            raise InvalidParam(f"need 1 <= s <= n, got s={self.s}, n={self.n}")
        if not (math.isfinite(self.delta) and self.delta >= 0.0):
            raise InvalidParam(f"noise scale must be finite and >= 0, got {self.delta}")
        if self.noise not in NOISE_FAMILIES:
            raise InvalidParam(f"noise must be one of {NOISE_FAMILIES}, got {self.noise!r}")
        if self.q_for_sigma not in (1.0, 2.0):
            raise InvalidParam(f"q_for_sigma must be 1 or 2, got {self.q_for_sigma}")


def make_rng(seed: int) -> np.random.Generator:
    """Philox(seed): counter-based, explicitly seeded, platform-stable."""
    return np.random.Generator(np.random.Philox(seed))


def sample_t2(count: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. Student t with 2 degrees of freedom, as Z / sqrt(V/2).

    Z standard normal, V chi-square(2), drawn in that order.  Heavy-tailed:
    the variance is infinite, which is the point of the family.
    """
    z = rng.standard_normal(count)
    v = rng.chisquare(2.0, count)
    return z / np.sqrt(v / 2.0)


_SAMPLERS = {"gauss": lambda count, rng: rng.standard_normal(count), "t2": sample_t2}


def _draw(spec: GenSpec, seed: int):
    rng = make_rng(seed)
    a = rng.standard_normal((spec.m, spec.n))
    a /= np.linalg.norm(a, axis=0)
    support = np.sort(rng.choice(spec.n, size=spec.s, replace=False))
    x_hat = np.zeros(spec.n)
    x_hat[support] = rng.standard_normal(spec.s)
    xi = _SAMPLERS[spec.noise](spec.m, rng)
    return a, x_hat, xi


def _check_full_rank(a) -> None:
    rank = numerical_rank(a)
    if rank != min(a.shape):
        raise InvariantViolation(f"drawn {a.shape[0]}x{a.shape[1]} matrix has rank {rank}")


def gen_instance(spec: GenSpec):
    """Generate (instance, x_hat, xi) for one noise family.

    If the drawn data violates ||b||_q > sigma the draw is discarded and
    repeated with seed+1 (logged); this keeps the blanket assumption intact
    without biasing any accepted draw.
    """
    seed = spec.seed
    for _ in range(MAX_RESEEDS):
        a, x_hat, xi = _draw(spec, seed)
        sigma = spec.delta * lq_norm(xi, spec.q_for_sigma)
        b = a @ x_hat + spec.delta * xi
        if lq_norm(b, spec.q_for_sigma) > sigma:
            break
        log.warning(
            "draw with seed %d violates ||b||_%g > sigma; retrying with seed %d",
            seed, spec.q_for_sigma, seed + 1,
        )
        seed += 1
    else:
        raise InvalidParam(f"no valid draw in {MAX_RESEEDS} reseeds; delta too large?")
    _check_full_rank(a)
    inst = ProblemInstance(m=spec.m, n=spec.n, a=a, b=b, sigma=sigma, p=0.5)
    validate_instance(inst, q=spec.q_for_sigma)
    return inst, x_hat, xi


def gen_matched_pair(spec: GenSpec):
    """One draw, two instances: sigma = delta*||xi||_1 and delta*||xi||_2.

    Used for solver comparisons on identical data (same A, x_hat, xi, b)
    where each solver measures the residual in its own norm.  Reseeds if
    either norm check fails, so both instances come from the same draw.
    """
    seed = spec.seed
    for _ in range(MAX_RESEEDS):
        a, x_hat, xi = _draw(spec, seed)
        sigma1 = spec.delta * lq_norm(xi, 1.0)
        sigma2 = spec.delta * lq_norm(xi, 2.0)
        b = a @ x_hat + spec.delta * xi
        if lq_norm(b, 1.0) > sigma1 and lq_norm(b, 2.0) > sigma2:
            break
        log.warning("matched draw with seed %d violates a norm check; retrying", seed)
        seed += 1
    else:
        raise InvalidParam(f"no valid draw in {MAX_RESEEDS} reseeds; delta too large?")
    _check_full_rank(a)
    inst1 = ProblemInstance(m=spec.m, n=spec.n, a=a, b=b, sigma=sigma1, p=0.5)
    inst2 = ProblemInstance(m=spec.m, n=spec.n, a=a, b=b, sigma=sigma2, p=0.5)
    validate_instance(inst1, q=1.0)
    validate_instance(inst2, q=2.0)
    return inst1, inst2, x_hat, xi

