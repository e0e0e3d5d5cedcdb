"""Twice-smoothed exact penalty for the l1 residual ball.

Two scalar smoothings are composed.  smoothed_plus approximates max(s, 0)
from above with a quadratic patch of width mu around the kink; smoothed_abs
approximates |t| the same way with width nu.  Summing smoothed_abs over the
residual gives a smooth overestimate of ||Ax - b||_1, and

    penalty(x) = lam * smoothed_plus( sum_i smoothed_abs((Ax-b)_i) - sigma )

is a smooth overestimate of lam * (||Ax - b||_1 - sigma)_+ whose gap is at
most lam * (mu/8 + m*nu/4).  Both pieces are convex and C^1, with gradients
clipped to [0,1] and [-1,1] respectively, so the penalty is convex with a
Lipschitz gradient on all of R^n.
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
    on the gradient's Lipschitz constant."""

    def __init__(self, inst: ProblemInstance, sp: SmoothingParams):
        self.inst = inst
        self.sp = sp

    def value(self, x) -> float:
        r = self.inst.residual(x)
        s = float(np.sum(smoothed_abs(r, self.sp.nu)[0])) - self.inst.sigma
        val, _ = smoothed_plus(s, self.sp.mu)
        return self.sp.lam * float(val)

    def value_and_grad(self, x):
        inst, sp = self.inst, self.sp
        r = inst.residual(x)
        hv, hd = smoothed_abs(r, sp.nu)
        s = float(np.sum(hv)) - inst.sigma
        gv, gd = smoothed_plus(s, sp.mu)
        value = sp.lam * float(gv)
        outer = sp.lam * float(gd)
        if outer == 0.0:
            return value, np.zeros(inst.n)
        return value, outer * (inst.a.T @ hd)

    def grad(self, x) -> np.ndarray:
        return self.value_and_grad(x)[1]

    def lipschitz_bound(self, a_norm_sq: float) -> float:
        """(m/mu + 2/nu) * lam * ||A||^2 bounds the gradient's Lipschitz
        constant: m/mu from the outer quadratic patch (the inner sum has
        gradient norm at most sqrt(m) in residual space) and 2/nu from the
        inner patches."""
        inst, sp = self.inst, self.sp
        return (inst.m / sp.mu + 2.0 / sp.nu) * sp.lam * a_norm_sq

