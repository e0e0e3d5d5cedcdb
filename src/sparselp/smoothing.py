"""Smoothed exact penalty on the residual r = Ax - b.

Two scalar smoothings are composed, both with the one width mu.
smoothed_plus approximates max(s, 0) from above with a quadratic patch of
width mu around the kink; smoothed_abs approximates |t| the same way.  As
|t| = (t)_+ + (-t)_+, smoothed_abs(t, mu) is smoothed_plus(t, mu) +
smoothed_plus(-t, mu), so one width is the natural one for both kinks.  One
penalty serves both residual balls; only its excess over the ball depends
on the norm q:

    penalty(r) = lam * smoothed_plus( excess_q(r), mu ),
    excess_1(r) = sum_i smoothed_abs(r_i, mu) - sigma,
    excess_2(r) = ||r||^2 - sigma^2.

For q = 1 the summed smoothed_abs is a smooth overestimate of
||Ax - b||_1, so the penalty overestimates lam * (||Ax - b||_1 - sigma)_+
by at most lam * mu * (1/8 + m/4).  Both pieces are convex and C^1, with
gradients clipped to [0,1] and [-1,1] respectively, so the penalty is
convex with a Lipschitz gradient on all of R^n: (m + 2) * lam * ||A||^2 / mu
bounds the constant, m from the outer quadratic patch (the inner sum has
gradient norm at most sqrt(m) in residual space) and 2 from the inner
patches.  The inner loop's line search finds its step constant without
this bound.  For q = 2 the squared residual is already smooth, so only the
positive part is smoothed.

The penalty depends on x only through r, and that is the argument it
takes.  It works in residual space: value(r) is the value, and
value_and_grad_parts(r) returns the value with the pieces (coef, u) of the
gradient, whose residual-space form is coef * u and whose x-space form is
coef * A^T u.  The caller computes r once per point and makes the products
with A itself: the inner loop multiplies coef * u by the columns of its
working set only (see npg.py).

The inner loop evaluates the penalty once per line-search trial, and at
the desk size that cost is numpy call overhead, not arithmetic.  So the
outer kernel smoothed_plus takes and returns Python floats (its argument
is always the scalar excess); smoothed_abs works elementwise on arrays.
value(r) builds only the smoothed-abs values, and value_and_grad_parts(r)
builds their derivative alongside.
"""

from __future__ import annotations

import numpy as np

from .core import ProblemInstance
from .errors import InvalidNorm, InvalidParam


def smoothed_plus(s: float, mu: float) -> tuple[float, float]:
    """Smoothed positive part of the float s and its derivative, as floats.

    Equals max(s, 0) outside [-mu/2, mu/2] and s^2/(2 mu) + s/2 + mu/8
    inside; the derivative is s/mu + 1/2 clipped to [0, 1].  A NaN s gives
    NaN for both.
    """
    s = float(s)
    if abs(s) >= 0.5 * mu:
        val = max(s, 0.0)
    else:
        val = s * s / (2.0 * mu) + 0.5 * s + mu / 8.0
    return val, min(max(s / mu + 0.5, 0.0), 1.0)


def _smoothed_abs_value(t: np.ndarray, mu: float) -> np.ndarray:
    at = np.abs(t)
    return np.where(at >= 0.5 * mu, at, t * t / mu + 0.25 * mu)


def _smoothed_abs_deriv(t: np.ndarray, mu: float) -> np.ndarray:
    return np.minimum(np.maximum(2.0 * t / mu, -1.0), 1.0)


def smoothed_abs(t, mu: float):
    """Smoothed absolute value and its derivative, elementwise.

    Equals |t| outside [-mu/2, mu/2] and t^2/mu + mu/4 inside; the
    derivative is 2 t / mu clipped to [-1, 1].
    """
    t = np.asarray(t, dtype=np.float64)
    return _smoothed_abs_value(t, mu), _smoothed_abs_deriv(t, mu)


def lp_power_sum(x, p: float) -> float:
    """sum_i |x_i|^p for 0 < p <= 1 (the sparsity surrogate)."""
    if not 0.0 < p <= 1.0:
        raise InvalidParam(f"p must be in (0, 1], got {p}")
    return float((np.abs(np.asarray(x, dtype=np.float64)) ** p).sum())


class SmoothedPenalty:
    """lam * smoothed_plus(excess_q(r), mu) for the q = 1 or q = 2 residual
    ball of one instance; r is the residual A x - b."""

    def __init__(self, inst: ProblemInstance, q: float, lam: float, mu: float):
        if q not in (1.0, 2.0):
            raise InvalidNorm(f"penalty needs q in {{1, 2}}, got {q}")
        if not (lam > 0 and mu > 0):
            raise InvalidParam(f"lam, mu must be positive, got {lam}, {mu}")
        self.inst = inst
        self.q = q
        self.lam = lam
        self.mu = mu

    def _excess(self, r) -> float:
        if self.q == 1.0:
            return float(_smoothed_abs_value(r, self.mu).sum()) - self.inst.sigma
        return float(r.dot(r)) - self.inst.sigma**2

    def value(self, r) -> float:
        return self.lam * smoothed_plus(self._excess(r), self.mu)[0]

    def value_and_grad_parts(self, r):
        """(value, coef, u): the gradient is coef * u in residual space and
        coef * A^T u in x-space; coef is a float, u an m-vector."""
        val, der = smoothed_plus(self._excess(r), self.mu)
        outer = self.lam * der
        if self.q == 1.0:
            return self.lam * val, outer, _smoothed_abs_deriv(r, self.mu)
        return self.lam * val, outer * 2.0, r
