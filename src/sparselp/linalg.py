"""Dense linear-algebra helpers shared by the solver and the verifiers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidNorm, NonFinite

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


def spectral_norm_sq(a) -> float:
    """||A||^2, the largest eigenvalue of the smaller Gram matrix.

    That is A A' when A has no more rows than columns and A'A otherwise;
    both share their nonzero eigenvalues.  A symmetric eigensolver gets the
    value to rounding accuracy in one pass, so it can serve as the upper
    bound in Lipschitz estimates; roundoff below zero is clamped to 0.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    if not np.isfinite(a).all():
        raise NonFinite("matrix contains nan or inf")
    if a.size == 0:
        return 0.0
    gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    return max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)
