"""Smoothed exact penalties for the l1 and l2 residual balls.

Two scalar smoothings are composed.  smoothed_plus approximates max(s, 0)
from above with a quadratic patch of width mu around the kink; smoothed_abs
approximates |t| the same way with width nu.  For the l1 ball, summing
smoothed_abs over the residual gives a smooth overestimate of ||Ax - b||_1,
and

    penalty(x) = lam * smoothed_plus( sum_i smoothed_abs((Ax-b)_i) - sigma )

is a smooth overestimate of lam * (||Ax - b||_1 - sigma)_+ whose gap is at
most lam * (mu/8 + m*nu/4).  Both pieces are convex and C^1, with gradients
clipped to [0,1] and [-1,1] respectively, so the penalty is convex with a
Lipschitz gradient on all of R^n: (m/mu + 2/nu) * lam * ||A||^2 bounds the
constant, m/mu from the outer quadratic patch (the inner sum has gradient
norm at most sqrt(m) in residual space) and 2/nu from the inner patches.
The inner loop's line search finds its step constant without this bound.
For the l2 ball the squared residual is already smooth, so only the
positive part is smoothed:

    penalty(x) = lam * smoothed_plus( ||Ax - b||^2 - sigma^2 ).

Both penalties depend on x only through the residual r = Ax - b, and that
is the argument they take: value(r), value_and_grad(r) and grad(r), with
the gradient returned in x-space (A^T times the residual-space gradient).
The caller computes r once per point and reuses it, so evaluating a
penalty costs no product with A, and its gradient one product with A^T.

The inner loop evaluates a penalty once per line-search trial, and at the
desk size that cost is numpy call overhead, not arithmetic.  So the outer
kernel smoothed_plus takes and returns Python floats (its argument is
always the scalar excess); smoothed_abs works elementwise on arrays.
value(r) builds only the smoothed-abs values, and value_and_grad(r) builds
their derivative only when the outer derivative is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ProblemInstance
from .errors import InvalidParam


@dataclass(frozen=True)
class SmoothingParams:
    """Penalty weight and the two smoothing widths."""

    lam: float
    mu: float
    nu: float

    def __post_init__(self):
        if not (self.lam > 0 and self.mu > 0 and self.nu > 0):
            raise InvalidParam(
                f"lam, mu, nu must be positive, got {self.lam}, {self.mu}, {self.nu}"
            )


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


def _smoothed_abs_value(t: np.ndarray, nu: float) -> np.ndarray:
    at = np.abs(t)
    return np.where(at >= 0.5 * nu, at, t * t / nu + 0.25 * nu)


def _smoothed_abs_deriv(t: np.ndarray, nu: float) -> np.ndarray:
    return np.minimum(np.maximum(2.0 * t / nu, -1.0), 1.0)


def smoothed_abs(t, nu: float):
    """Smoothed absolute value and its derivative, elementwise.

    Equals |t| outside [-nu/2, nu/2] and t^2/nu + nu/4 inside; the
    derivative is 2 t / nu clipped to [-1, 1].
    """
    t = np.asarray(t, dtype=np.float64)
    return _smoothed_abs_value(t, nu), _smoothed_abs_deriv(t, nu)


def lp_power_sum(x, p: float) -> float:
    """sum_i |x_i|^p for 0 < p <= 1 (the sparsity surrogate)."""
    if not 0.0 < p <= 1.0:
        raise InvalidParam(f"p must be in (0, 1], got {p}")
    return float((np.abs(np.asarray(x, dtype=np.float64)) ** p).sum())


class L1SmoothedPenalty:
    """Smoothed penalty for the q = 1 residual ball, bound to one instance
    and one parameter triple; r is the residual A x - b."""

    def __init__(self, inst: ProblemInstance, sp: SmoothingParams):
        self.inst = inst
        self.sp = sp

    def _excess(self, r) -> float:
        return float(_smoothed_abs_value(r, self.sp.nu).sum()) - self.inst.sigma

    def value(self, r) -> float:
        return self.sp.lam * smoothed_plus(self._excess(r), self.sp.mu)[0]

    def value_and_grad(self, r):
        inst, sp = self.inst, self.sp
        val, der = smoothed_plus(self._excess(r), sp.mu)
        outer = sp.lam * der
        if outer == 0.0:
            return sp.lam * val, np.zeros(inst.n)
        return sp.lam * val, outer * (inst.a.T @ _smoothed_abs_deriv(r, sp.nu))

    def grad(self, r) -> np.ndarray:
        return self.value_and_grad(r)[1]


class L2SmoothedPenalty:
    """Penalty for the q = 2 ball: lam * smoothed_plus(||r||^2 - sigma^2),
    with r = A x - b.

    Shares the prox and inner-loop machinery with the l1 case.
    """

    def __init__(self, inst: ProblemInstance, sp: SmoothingParams):
        self.inst = inst
        self.sp = sp

    def _excess(self, r) -> float:
        return float(r.dot(r)) - self.inst.sigma**2

    def value(self, r) -> float:
        return self.sp.lam * smoothed_plus(self._excess(r), self.sp.mu)[0]

    def value_and_grad(self, r):
        val, der = smoothed_plus(self._excess(r), self.sp.mu)
        outer = self.sp.lam * der
        if outer == 0.0:
            return self.sp.lam * val, np.zeros(self.inst.n)
        return self.sp.lam * val, outer * 2.0 * (self.inst.a.T @ r)

    def grad(self, r) -> np.ndarray:
        return self.value_and_grad(r)[1]
