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
Lipschitz gradient on all of R^n.  For the l2 ball the squared residual is
already smooth, so only the positive part is smoothed:

    penalty(x) = lam * smoothed_plus( ||Ax - b||^2 - sigma^2 ).

Both penalties depend on x only through the residual r = Ax - b, and that
is the argument they take: value(r), value_and_grad(r) and grad(r), with
the gradient returned in x-space (A^T times the residual-space gradient).
The caller computes r once per point and reuses it, so evaluating a
penalty costs no product with A, and its gradient one product with A^T.
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


def smoothed_plus(s, mu: float):
    """Smoothed positive part and its derivative.

    Equals max(s, 0) outside [-mu/2, mu/2] and s^2/(2 mu) + s/2 + mu/8
    inside; the derivative is clip(s/mu + 1/2, 0, 1).
    """
    s = np.asarray(s, dtype=np.float64)
    inner = s * s / (2.0 * mu) + 0.5 * s + mu / 8.0
    val = np.where(np.abs(s) >= 0.5 * mu, np.maximum(s, 0.0), inner)
    der = np.clip(s / mu + 0.5, 0.0, 1.0)
    return val, der


def smoothed_abs(t, nu: float):
    """Smoothed absolute value and its derivative.

    Equals |t| outside [-nu/2, nu/2] and t^2/nu + nu/4 inside; the
    derivative is clip(2 t / nu, -1, 1).
    """
    t = np.asarray(t, dtype=np.float64)
    inner = t * t / nu + 0.25 * nu
    val = np.where(np.abs(t) >= 0.5 * nu, np.abs(t), inner)
    der = np.clip(2.0 * t / nu, -1.0, 1.0)
    return val, der


def lp_power_sum(x, p: float) -> float:
    """sum_i |x_i|^p for 0 < p <= 1 (the sparsity surrogate)."""
    if not 0.0 < p <= 1.0:
        raise InvalidParam(f"p must be in (0, 1], got {p}")
    return float(np.sum(np.abs(np.asarray(x, dtype=np.float64)) ** p))


class L1SmoothedPenalty:
    """Smoothed penalty for the q = 1 residual ball, bound to one instance
    and one parameter triple.  Exposes value, gradient, and a global bound
    on the gradient's Lipschitz constant; r is the residual A x - b."""

    def __init__(self, inst: ProblemInstance, sp: SmoothingParams):
        self.inst = inst
        self.sp = sp

    def value(self, r) -> float:
        s = float(np.sum(smoothed_abs(r, self.sp.nu)[0])) - self.inst.sigma
        val, _ = smoothed_plus(s, self.sp.mu)
        return self.sp.lam * float(val)

    def value_and_grad(self, r):
        inst, sp = self.inst, self.sp
        hv, hd = smoothed_abs(r, sp.nu)
        s = float(np.sum(hv)) - inst.sigma
        gv, gd = smoothed_plus(s, sp.mu)
        value = sp.lam * float(gv)
        outer = sp.lam * float(gd)
        if outer == 0.0:
            return value, np.zeros(inst.n)
        return value, outer * (inst.a.T @ hd)

    def grad(self, r) -> np.ndarray:
        return self.value_and_grad(r)[1]

    def lipschitz_bound(self, a_norm_sq: float) -> float:
        """(m/mu + 2/nu) * lam * ||A||^2 bounds the gradient's Lipschitz
        constant: m/mu from the outer quadratic patch (the inner sum has
        gradient norm at most sqrt(m) in residual space) and 2/nu from the
        inner patches."""
        inst, sp = self.inst, self.sp
        return (inst.m / sp.mu + 2.0 / sp.nu) * sp.lam * a_norm_sq


class L2SmoothedPenalty:
    """Penalty for the q = 2 ball: lam * smoothed_plus(||r||^2 - sigma^2),
    with r = A x - b.

    Shares the prox and inner-loop machinery with the l1 case.
    """

    def __init__(self, inst: ProblemInstance, sp: SmoothingParams, r2_cap: float = 1.0):
        self.inst = inst
        self.sp = sp
        # any finite bound works here; it only caps the initial step guess,
        # the line search guards correctness
        self.r2_cap = r2_cap

    def value(self, r) -> float:
        u = float(r @ r) - self.inst.sigma**2
        val, _ = smoothed_plus(u, self.sp.mu)
        return self.sp.lam * float(val)

    def value_and_grad(self, r):
        u = float(r @ r) - self.inst.sigma**2
        val, der = smoothed_plus(u, self.sp.mu)
        value = self.sp.lam * float(val)
        outer = self.sp.lam * float(der)
        if outer == 0.0:
            return value, np.zeros(self.inst.n)
        return value, outer * 2.0 * (self.inst.a.T @ r)

    def grad(self, r) -> np.ndarray:
        return self.value_and_grad(r)[1]

    def lipschitz_bound(self, a_norm_sq: float) -> float:
        return self.sp.lam * a_norm_sq * (2.0 + 4.0 * self.r2_cap / self.sp.mu)
