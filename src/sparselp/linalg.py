"""Dense linear-algebra helpers shared by the solver and the verifiers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidNorm

# numerical_rank treats singular values below rel_tol * s_max as zero;
# the default scales with the larger matrix dimension
RANK_REL_TOL_FACTOR = 1e-10


def lq_norm(x, q) -> float:
    """||x||_q for q in [1, inf]."""
    x = np.asarray(x, dtype=np.float64)
    if q == np.inf:
        return float(np.max(np.abs(x))) if x.size else 0.0
    q = float(q)
    if q < 1.0:
        raise InvalidNorm(f"q must be in [1, inf], got {q}")
    if q == 1.0:
        return float(np.sum(np.abs(x)))
    if q == 2.0:
        return float(np.linalg.norm(x))
    return float(np.sum(np.abs(x) ** q) ** (1.0 / q))


def ball_entry(a, b, z_from, z_to, sigma, q) -> float | None:
    """Smallest t >= 0 at which z(t) = z_from + t (z_to - z_from) enters
    ||a z - b||_q <= sigma, q in {1, 2}; None when the path misses the ball.

    The residual r0 + t g is affine, so the crossing is exact: for q = 1 on
    the first piece of sum_i |r0_i + t g_i|, between the sorted knots
    -r0_i / g_i, whose end is inside, for q = 2 the smaller root.  If
    rounding leaves z(t) outside, t steps to that end, or to the point
    closest to b, by steps doubling from eps * max(t, distance left), until
    lq_norm(a @ z(t) - b, q) <= sigma; it stops there also if that fails.
    """
    if q not in (1.0, 2.0):
        raise InvalidNorm(f"ball_entry needs q in {{1, 2}}, got {q}")
    d = z_to - z_from
    r0 = a @ z_from - b if z_from.any() else -b
    if lq_norm(r0, q) <= sigma:
        return 0.0
    g = a @ d
    if q == 1.0:
        # the rows that reach zero for t > 0, in knot order; the slope of f
        # at 0+ grows by 2|g_i| at each of their knots
        rows = np.flatnonzero(r0 * g < 0.0)
        rows = rows[np.argsort(-r0[rows] / g[rows])]
        knots = -r0[rows] / g[rows]
        signs = np.where(r0 != 0.0, np.sign(r0), np.sign(g))
        gain = 2.0 * np.abs(g[rows])
        slope = signs @ g + np.cumsum(gain) - gain
        f_knots = lq_norm(r0, 1.0) + np.cumsum(slope * np.diff(knots, prepend=0.0))
        inside = np.flatnonzero(f_knots <= sigma)
        if not inside.size:
            return None
        k = int(inside[0])
        t_lo, t_in = (knots[k - 1] if k else 0.0), knots[k]
        signs[rows[:k]] *= -1.0
        rise = signs @ g
        t = (sigma - signs @ r0) / rise if rise < 0.0 else t_in
        t = min(max(t, t_lo), t_in)
    else:
        rg, gg, c = r0 @ g, g @ g, r0 @ r0 - sigma * sigma
        disc = rg * rg - gg * c
        if not (rg < 0.0 and disc >= 0.0):
            return None
        t_in = -rg / gg
        # the smaller root, without cancellation
        t = min(max(c / (np.sqrt(disc) - rg), 0.0), t_in)
    step = np.finfo(float).eps * max(t, t_in - t)
    while t < t_in and lq_norm(a @ (z_from + t * d) - b, q) > sigma:
        t = min(t + step, t_in)
        step *= 2.0
    return float(t)


def least_squares_min_norm(a, b) -> np.ndarray:
    """Minimum-2-norm least-squares solution of a x ~ b (via SVD)."""
    x, *_ = np.linalg.lstsq(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64), rcond=None)
    return x


def numerical_rank(mat, rel_tol: float | None = None) -> int:
    """Rank by counting singular values above rel_tol * s_max.

    The default tolerance is RANK_REL_TOL_FACTOR * max(m, n).
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
    if mat.size == 0:
        return 0
    if rel_tol is None:
        rel_tol = RANK_REL_TOL_FACTOR * max(mat.shape)
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > rel_tol * sv[0]))


@dataclass(frozen=True)
class GramExtremes:
    """Extreme eigenvalues of A_J' A_J (lambda_min over all n_J eigenvalues,
    so it is 0 whenever A_J has more columns than rows)."""

    lambda_min: float
    lambda_max: float


def gram_extremes(a_j) -> GramExtremes:
    a_j = np.atleast_2d(np.asarray(a_j, dtype=np.float64))
    rows, cols = a_j.shape
    if cols == 0:
        raise ValueError("gram_extremes needs at least one column")
    sv = np.linalg.svd(a_j, compute_uv=False)
    lam_max = float(sv[0] ** 2)
    lam_min = 0.0 if cols > rows else float(sv[-1] ** 2)
    return GramExtremes(lambda_min=lam_min, lambda_max=lam_max)

