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

from .core import ProblemInstance
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


def _accepted_draw(spec: GenSpec, qs):
    """(a, x_hat, xi, b, sigmas): the first draw from spec.seed on with
    ||b||_q > sigma_q = delta ||xi||_q for every q in qs.

    A draw that violates one is discarded and repeated with seed+1 (logged);
    this keeps the blanket assumption intact without biasing any accepted
    draw.  Raises InvariantViolation if the accepted A is rank-deficient.
    """
    seed = spec.seed
    for _ in range(MAX_RESEEDS):
        a, x_hat, xi = _draw(spec, seed)
        sigmas = [spec.delta * lq_norm(xi, q) for q in qs]
        b = a @ x_hat + spec.delta * xi
        if all(lq_norm(b, q) > sigma for q, sigma in zip(qs, sigmas)):
            break
        log.warning("draw with seed %d violates ||b||_q > sigma; retrying with seed %d", seed, seed + 1)
        seed += 1
    else:
        raise InvalidParam(f"no valid draw in {MAX_RESEEDS} reseeds; delta too large?")
    rank = numerical_rank(a)
    if rank != min(a.shape):
        raise InvariantViolation(f"drawn {a.shape[0]}x{a.shape[1]} matrix has rank {rank}")
    return a, x_hat, xi, b, sigmas


def gen_instance(spec: GenSpec):
    """Generate (instance, x_hat, xi) for one noise family, with sigma in
    the norm spec.q_for_sigma."""
    a, x_hat, xi, b, (sigma,) = _accepted_draw(spec, (spec.q_for_sigma,))
    inst = ProblemInstance(m=spec.m, n=spec.n, a=a, b=b, sigma=sigma, p=0.5)
    return inst, x_hat, xi


def gen_matched_pair(spec: GenSpec):
    """One draw, two instances: sigma = delta*||xi||_1 and delta*||xi||_2.

    Used for solver comparisons on identical data (same A, x_hat, xi, b)
    where each solver measures the residual in its own norm.  Reseeds if
    either norm check fails, so both instances come from the same draw.
    """
    a, x_hat, xi, b, (sigma1, sigma2) = _accepted_draw(spec, (1.0, 2.0))
    inst1 = ProblemInstance(m=spec.m, n=spec.n, a=a, b=b, sigma=sigma1, p=0.5)
    inst2 = ProblemInstance(m=spec.m, n=spec.n, a=a, b=b, sigma=sigma2, p=0.5)
    return inst1, inst2, x_hat, xi
