"""Dense linear-algebra helpers shared by the solver and the verifiers.

singular_value_rank is the package's one rank rule: numerical_rank,
gram_extremes, the solver's vertex walk and the oracle's line scan call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidNorm, InvalidParam

# singular_value_rank treats singular values at or below
# RANK_REL_TOL_FACTOR * max(m, n) * s_max as zero
RANK_REL_TOL_FACTOR = 1e-10
_U = np.finfo(np.float64).eps / 2.0  # unit roundoff
_ETA = float(np.finfo(np.float64).smallest_subnormal)
# ||A||_F^2 inside this range: the Gram of A can neither overflow nor lose
# its scale to underflow, so A needs no rescaling
_FROB_SQ_RANGE = (2.0**-256, 2.0**256)


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


def singular_value_rank(sv, shape):
    """Rank of m x n matrices, shape = (m, n), from their singular values,
    descending along the last axis of sv (leading axes batch): the count
    above RANK_REL_TOL_FACTOR * max(m, n) * s_max; 0 for zero or NaN."""
    sv = np.asarray(sv)
    return (sv > RANK_REL_TOL_FACTOR * max(shape) * sv[..., :1]).sum(axis=-1)


def numerical_rank(mat) -> int:
    """Rank by the rule of singular_value_rank.

    A full rank k = min(m, n) is certified without an SVD, by one Cholesky
    of the k x k Gram matrix G of A (A A^T, or A^T A when m > n) with its
    diagonal shifted down by c, where c covers (2 tol ||A||_F)^2, tol =
    RANK_REL_TOL_FACTOR * max(m, n), plus every rounding error of forming G
    (gamma_N ||A||_F^2, N = max(m, n)) and of the Cholesky itself (Rump's
    bound, S. M. Rump, "Verification of positive definiteness", BIT 2006).
    When that Cholesky completes, s_min(A) > 2 tol ||A||_F >= 2 tol s_max,
    a margin far above the SVD's own rounding (about p(N) eps s_max), so
    the SVD count would be k as well.  A failed Cholesky falls back to the
    SVD count, as do the empty matrix, the zero matrix and non-finite
    input, which therefore behave as the plain count does.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
    if mat.size == 0:
        return 0
    if _certified_full_rank(mat):
        return min(mat.shape)
    return int(singular_value_rank(np.linalg.svd(mat, compute_uv=False), mat.shape))


def _gamma(j: int) -> float:
    """Higham's gamma_j = j u / (1 - j u): the relative error bound of a
    sum of j rounded terms."""
    return j * _U / (1.0 - j * _U)


def _certified_full_rank(a) -> bool:
    """True when one Cholesky proves s_min(a) > 2 tol ||a||_F (see
    numerical_rank); False when it cannot, also for zero or non-finite a.

    Let t bound both tr(G) = ||a||_F^2 and the trace of the computed G.
    The computed G is off by at most gamma_N t + k N eta in 2-norm (eta the
    smallest subnormal; one more k N eta covers underflow in t), shifting
    its diagonal rounds by at most u t, and a Cholesky that completes on a
    symmetric float matrix M proves lambda_min(M) > -(alpha t + 4 k (2 (k +
    1) + t) eta), alpha = gamma_{k+1} / (1 - 2 gamma_{k+1}) (Rump).  So with
    c = 4 tol^2 t plus these terms, lambda_min(G) > 4 tol^2 t >= (2 tol
    ||a||_F)^2.  The few roundings in c itself, and the moves of a
    rescaling, are far inside the factor 2.
    """
    frob_sq = float(np.vdot(a, a))
    if not _FROB_SQ_RANGE[0] < frob_sq < _FROB_SQ_RANGE[1]:
        big = max(a.max(), -a.min())
        if not 0.0 < big < math.inf:  # zero, nan or inf
            return False
        # a power of two brings the largest entry to [1/2, 1); exact, except
        # for entries pushed below the normal range, which move by at most eta
        a = np.ldexp(a, -math.frexp(big)[1])
        frob_sq = float(np.vdot(a, a))
    m, n = a.shape
    k, big_n = min(m, n), max(m, n)
    gram = a @ a.T if m <= n else a.T @ a
    t = frob_sq / (1.0 - _gamma(m * n)) * (1.0 + _gamma(big_n))
    tol = RANK_REL_TOL_FACTOR * big_n
    g_k = _gamma(k + 1)
    rounding = (_gamma(big_n) + _U + g_k / (1.0 - 2.0 * g_k)) * t
    underflow = _ETA * k * (2 * big_n + 8 * (k + 1) + 4 * t)
    gram.reshape(-1)[:: k + 1] -= 4.0 * tol * tol * t + rounding + underflow
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class GramExtremes:
    """Extreme eigenvalues of A_J' A_J (lambda_min over all n_J eigenvalues,
    so it is 0 whenever A_J is rank-deficient by singular_value_rank, in
    particular when it has more columns than rows)."""

    lambda_min: float
    lambda_max: float


def gram_extremes(a_j) -> GramExtremes:
    a_j = np.atleast_2d(np.asarray(a_j, dtype=np.float64))
    if a_j.shape[1] == 0:
        raise InvalidParam("gram_extremes needs at least one column")
    sv = np.linalg.svd(a_j, compute_uv=False)
    lam_min = float(sv[-1] ** 2) if singular_value_rank(sv, a_j.shape) == a_j.shape[1] else 0.0
    return GramExtremes(lambda_min=lam_min, lambda_max=float(sv[0] ** 2))

