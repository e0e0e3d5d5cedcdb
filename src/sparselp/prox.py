"""Exact proximal operator of t -> |t|^p with 0 < p < 1.

The scalar subproblem  min_t |t|^p + (w/2)(t - v)^2  has a closed-form dead
zone: the minimizer is 0 whenever

    |v| <= tau_bar(w, p) = (2-p)/(2-2p) * (2(1-p)/w)^(1/(2-p)),

and otherwise it is the largest root of p t^(p-1) + w (t - |v|) = 0, which
lies strictly between the inflection point t_infl = (p(1-p)/w)^(1/(2-p)) and
|v|.  On [t_infl, inf) the stationarity function is convex and increasing
past the root, so Newton from t = |v| decreases monotonically onto the root;
iterates are still clamped to the bracket as a safeguard.  Exact ties
|v| = tau_bar round to 0.

prox_vector is the one kernel: it applies this prox coordinatewise to a
prox-gradient point in a single pass.  tau_bar is computed once per call,
Newton runs only on the live coordinates (|v| > tau_bar), and the signed
roots are scattered into a zero vector.  It is called once per line-search
trial, and at the sizes the solver meets (a live set of tens of
coordinates) its cost is the number of numpy calls, not the arithmetic, so
the kernel keeps that number small.  A scalar prox is the one-element call
prox_vector(np.array([v]), np.zeros(1), w, p)[0].
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParam, NonFinite

NEWTON_CAP = 100
RESIDUAL_TOL = 1e-13


def prox_threshold(w: float, p: float) -> float:
    """Dead-zone radius tau_bar(w, p) below which the prox returns 0."""
    if not 0.0 < p < 1.0:
        raise InvalidParam(f"p must be in (0, 1), got {p}")
    if not (math.isfinite(w) and w > 0.0):
        raise InvalidParam(f"w must be positive and finite, got {w}")
    return (2.0 - p) / (2.0 - 2.0 * p) * (2.0 * (1.0 - p) / w) ** (1.0 / (2.0 - p))


def prox_vector(x, grad, l: float, p: float) -> np.ndarray:
    """Proximal-gradient step: argmin_z lp_power_sum(z, p) + <grad, z - x>
    + (l/2) ||z - x||^2, solved coordinatewise at v = x - grad / l."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if x.ndim != 1 or x.shape != grad.shape:
        raise InvalidParam("x and grad must be vectors of the same length")
    v = x - grad / l
    # count_nonzero and ndarray.nonzero give what all() and flatnonzero
    # give without their Python-level wrappers, which cost more than the
    # arithmetic at a live set of ten coordinates
    if np.count_nonzero(np.isfinite(v)) != v.size:
        raise NonFinite("prox-gradient point is not finite")
    tau = prox_threshold(l, p)
    av = np.abs(v)
    out = np.zeros(v.size)
    live = (av > tau).nonzero()[0]
    if live.size == 0:
        return out
    a = av[live]
    t_infl = (p * (1.0 - p) / l) ** (1.0 / (2.0 - p))
    t = a
    tol = RESIDUAL_TOL * np.maximum(1.0, l * a)
    for _ in range(NEWTON_CAP):
        resid = p * t ** (p - 1.0) + l * (t - a)
        if np.count_nonzero(np.abs(resid) <= tol) == live.size:
            break
        slope = p * (p - 1.0) * t ** (p - 2.0) + l
        t = np.minimum(np.maximum(t - resid / slope, t_infl), a)
    # the stationary point must beat 0; outside the dead zone it always
    # does, but compare anyway to guard the float boundary
    better = t**p + 0.5 * l * (t - a) ** 2 <= 0.5 * l * a * a
    out[live] = np.where(better, np.copysign(t, v[live]), 0.0)
    return out
