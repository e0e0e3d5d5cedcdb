"""Exact small-instance machinery.

The feasible set {x : ||Ax - b||_1 <= sigma} is the polyhedron
{x : U A x <= U b + sigma} where U runs over all 2^m sign vectors.  Its
intersection with each (closed) orthant is a polyhedron whose extreme
points carry at least one global minimizer of the power objective for every
0 < p <= 1, so exhaustive vertex enumeration gives exact solution sets on
tiny instances.  A candidate vertex is the solution of n active constraints
chosen among the 2^m ball facets and the n coordinate planes; one scan
of these active sets yields the extreme points of every orthant at once.

The sparsest-solution search uses the same active-set idea: the best l1
fit on a support interpolates as many rows as the support has columns, so
it too is a scan over square subsystems.  Also here: the exponent threshold
estimate and two inequality checks used by the test suites.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .core import ProblemInstance
from .errors import NotFeasible, TooLarge
from .linalg import RANK_REL_TOL_FACTOR, lq_norm
from .smoothing import lp_power_sum

SIGN_MATRIX_MAX_M = 16
SANDWICH_MAX_M = 12
ENUM_MAX_DIM = 8
ENUM_BUDGET = 20_000_000  # max number of n-subsets the enumerator will scan
DEDUP_TOL = 1e-9
FEAS_TOL = 1e-9
L0_MAX_N = 10
L0_MAX_M = 8


def build_sign_matrix(m: int) -> np.ndarray:
    """All 2^m sign vectors as rows, lexicographic with +1 before -1.

    The list is closed under negation: row i and row 2^m - 1 - i are
    opposite.
    """
    if m > SIGN_MATRIX_MAX_M:
        raise TooLarge(f"2^{m} sign vectors is beyond the oracle's reach")
    if m < 1:
        raise ValueError("m must be >= 1")
    rows = np.array(list(itertools.product((1.0, -1.0), repeat=m)))
    rows.flags.writeable = False
    return rows


def l1_ball_halfspaces(inst: ProblemInstance):
    """(A_tilde, b_tilde) with {||Ax-b||_1 <= sigma} = {A_tilde x <= b_tilde}."""
    u = build_sign_matrix(inst.m)
    return u @ inst.a, u @ inst.b + inst.sigma


@dataclass(frozen=True)
class ExactSolutionSet:
    """Exact optimal value and all optimal vertices for one exponent.

    For p = 0 the optimal_value is the minimal support size and the
    minimizers are one exact-fit witness per optimal support.
    """

    p: float
    optimal_value: float
    minimizers: tuple


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def _dedup(vectors):
    """Merge vectors equal within DEDUP_TOL * (1 + ||v||_inf), keeping the
    first representative.  Two shifted grids catch boundary straddlers."""
    if not len(vectors):
        return []
    stack = np.asarray(vectors, dtype=np.float64)
    q = DEDUP_TOL * (1.0 + np.max(np.abs(stack), axis=1))
    grid_a = np.floor(stack / q[:, None]).astype(np.int64)
    grid_b = np.floor(stack / q[:, None] + 0.5).astype(np.int64)
    kept = []
    seen_a, seen_b = set(), set()
    for i in range(stack.shape[0]):
        key_a = grid_a[i].tobytes()
        key_b = grid_b[i].tobytes()
        if key_a in seen_a or key_b in seen_b:
            continue
        seen_a.add(key_a)
        seen_b.add(key_b)
        kept.append(stack[i])
    return kept


def _solve_square(rows: np.ndarray, rhs: np.ndarray, subsets: np.ndarray):
    """Solve rows[s] x = rhs[s] for every row subset s (a row of subsets)
    whose square system is nonsingular.

    A system counts as singular when |det| <= 1e-10, so callers pass rows
    scaled to unit norm.  Returns the subsets solved with a finite solution,
    and those solutions as rows.
    """
    dets = np.abs(np.linalg.det(rows[subsets]))
    subsets = subsets[dets > 1e-10]
    try:
        sols = np.linalg.solve(rows[subsets], rhs[subsets][:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        sols = np.full(subsets.shape, np.nan)
        for i, s in enumerate(subsets):
            try:
                sols[i] = np.linalg.solve(rows[s], rhs[s])
            except np.linalg.LinAlgError:
                pass
    finite = np.isfinite(sols).all(axis=1)
    return subsets[finite], sols[finite]


def all_orthant_vertices(inst: ProblemInstance):
    """Union over all orthants of the extreme points of orthant-and-ball.

    Scans every n-subset of the combined constraint rows (ball facets plus
    coordinate planes), solves the active-set system where nonsingular, and
    keeps ball-feasible solutions, deduplicated.  Raises TooLarge beyond
    the enumeration budget.
    """
    m, n = inst.m, inst.n
    if m > ENUM_MAX_DIM or n > ENUM_MAX_DIM:
        raise TooLarge(f"enumeration capped at {ENUM_MAX_DIM} rows/cols, got m={m}, n={n}")
    at, bt = l1_ball_halfspaces(inst)
    n_facets = at.shape[0]
    total = n_facets + n
    if comb(total, n) > ENUM_BUDGET:
        raise TooLarge(
            f"{comb(total, n)} active-set candidates exceed the budget {ENUM_BUDGET}"
        )

    rows = np.vstack([at, np.eye(n)])
    rhs = np.concatenate([bt, np.zeros(n)])
    scale = np.linalg.norm(rows, axis=1)
    scale[scale == 0.0] = 1.0
    nrows = rows / scale[:, None]
    nrhs = rhs / scale

    n_combos = comb(total, n)
    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(total), n)),
        dtype=np.intp,
        count=n_combos * n,
    )
    idx_all = flat.reshape(n_combos, n)

    found = []
    for lo in range(0, n_combos, 131072):
        idx, sols = _solve_square(nrows, nrhs, idx_all[lo : lo + 131072])
        # coordinate rows in the active set pin those coordinates to zero
        coord_rows, coord_slots = np.nonzero(idx >= n_facets)
        sols[coord_rows, idx[coord_rows, coord_slots] - n_facets] = 0.0
        scale_v = 1.0 + np.max(np.abs(sols), axis=1)
        active_resid = np.abs(
            np.einsum("kij,kj->ki", nrows[idx], sols) - nrhs[idx]
        ).max(axis=1)
        feas = (at @ sols.T - bt[:, None]).max(axis=0)
        keep = (active_resid <= 1e-8 * scale_v) & (feas <= FEAS_TOL * scale_v)
        found.extend(sols[keep])

    return tuple(_freeze(v) for v in _dedup(found))


def solve_exact_lp_quasinorm(inst: ProblemInstance, p: float, vertices=None) -> ExactSolutionSet:
    """Exact solution set of min sum |x_i|^p over the ball, 0 < p <= 1.

    Minimizes the power sum over the union of orthant extreme points, which
    contains a global minimizer for every such p; ties within a relative
    1e-9 of the best value are all returned.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"this solver handles 0 < p <= 1, got {p}")
    if vertices is None:
        vertices = all_orthant_vertices(inst)
    if not vertices:
        raise NotFeasible("no extreme points found; is the instance feasible?")
    values = np.array([lp_power_sum(v, p) for v in vertices])
    best = float(values.min())
    keep = values <= best + 1e-9 * (1.0 + abs(best))
    mins = tuple(vertices[i] for i in np.flatnonzero(keep))
    return ExactSolutionSet(p=p, optimal_value=best, minimizers=mins)


def l1_regression(a_sub, b):
    """Exact min_x ||a_sub x - b||_1 by scanning square row subsystems.

    Solves every nonsingular k-row subsystem of a_sub x = b (k = number of
    columns) and returns (x, ||a_sub x - b||_1) for the smallest residual,
    or None when no k-row subsystem is nonsingular.

    This is exact whenever a_sub has full column rank.  The fit is then an
    LP over a pointed polyhedron, so an optimum sits at a vertex, where k
    linearly independent rows are fitted exactly (Barrodale & Roberts,
    SIAM J. Numer. Anal. 1973); the scan visits that vertex.  With k = 0
    the one empty subsystem gives x = () and the residual ||b||_1.
    """
    a_sub = np.asarray(a_sub, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = a_sub.shape
    subsets = np.array(list(itertools.combinations(range(m), k)), dtype=np.intp)
    subsets = subsets.reshape(comb(m, k), k)  # also for k = 0 and k > m
    scale = np.linalg.norm(a_sub, axis=1)
    scale[scale == 0.0] = 1.0
    _, sols = _solve_square(a_sub / scale[:, None], b / scale, subsets)
    if not len(sols):
        return None
    values = np.abs(a_sub @ sols.T - b[:, None]).sum(axis=0)
    best = int(np.argmin(values))
    return sols[best], float(values[best])


def solve_exact_l0(inst: ProblemInstance) -> ExactSolutionSet:
    """Smallest support size admitting a feasible point, with witnesses.

    Scans support sizes upward; for each candidate support computes the
    exact l1 fit restricted to it and accepts values <= sigma.  A support
    whose columns are rank-deficient has no nonsingular square subsystem
    and is skipped: its column space is spanned by a strict subset of it,
    which reaches the same residuals at a smaller size, so such a support
    is never among the first feasible ones.  Every witness at the minimal
    size k has exactly k nonzeros (a zero inside the support would
    contradict minimality).
    """
    if inst.n > L0_MAX_N or inst.m > L0_MAX_M:
        raise TooLarge(f"sparsest-solution search capped at n<={L0_MAX_N}, m<={L0_MAX_M}")
    tol = 1e-9 * (1.0 + inst.sigma)
    for k in range(inst.n + 1):
        witnesses = []
        for support in itertools.combinations(range(inst.n), k):
            fit = l1_regression(inst.a[:, list(support)], inst.b)
            if fit is not None and fit[1] <= inst.sigma + tol:
                x = np.zeros(inst.n)
                x[list(support)] = fit[0]
                witnesses.append(_freeze(x))
        if witnesses:
            return ExactSolutionSet(p=0.0, optimal_value=float(k), minimizers=tuple(witnesses))
    raise NotFeasible("no support admits a feasible point; data is inconsistent")


def is_l0_optimal(inst: ProblemInstance, x, sparsest_k: int, tol: float = 1e-8) -> bool:
    """Membership test for the sparsest-solution set: feasible and exactly
    sparsest_k nonzeros (counted above a relative floor)."""
    x = np.asarray(x, dtype=np.float64)
    feasible = lq_norm(inst.residual(x), 1.0) <= inst.sigma + tol * (1.0 + inst.sigma)
    zero_tol = tol * (1.0 + np.max(np.abs(x), initial=0.0))
    nnz = int(np.count_nonzero(np.abs(x) > zero_tol))
    return bool(feasible and nnz == sparsest_k)


@dataclass(frozen=True)
class PStarEstimate:
    p_star: float
    r: float
    r_tilde: float
    s: int


def estimate_p_star(inst: ProblemInstance, vertices=None, sparsest_k: int | None = None) -> PStarEstimate:
    """Exponent threshold below which every power-sum minimizer is sparsest.

    r bounds the 2-norm of any feasible point of minimal support through
    the smallest nonzero eigenvalue of A'A; r_tilde is the smallest nonzero
    coordinate magnitude over all orthant extreme points.  The threshold is
    min{1, ln(1 + 1/s) / ln(r / r_tilde)}, and 1 when r equals r_tilde.
    """
    if vertices is None:
        vertices = all_orthant_vertices(inst)
    if sparsest_k is None:
        sparsest_k = int(solve_exact_l0(inst).optimal_value)
    sv = np.linalg.svd(inst.a, compute_uv=False)
    pos = sv[sv > RANK_REL_TOL_FACTOR * max(inst.m, inst.n) * sv[0]]
    lam_star = float(pos[-1] ** 2)
    r = (inst.sigma + lq_norm(inst.b, 2.0)) / np.sqrt(lam_star)
    r_tilde = np.inf
    for v in vertices:
        zero_tol = DEDUP_TOL * (1.0 + np.max(np.abs(v), initial=0.0))
        nz = np.abs(v)[np.abs(v) > zero_tol]
        if nz.size:
            r_tilde = min(r_tilde, float(nz.min()))
    if not np.isfinite(r_tilde):
        raise NotFeasible("no nonzero vertex coordinates; instance is degenerate")
    s = max(sparsest_k, 1)
    if r <= r_tilde * (1.0 + 1e-12):
        p_star = 1.0
    else:
        p_star = min(1.0, float(np.log((s + 1) / s) / np.log(r / r_tilde)))
    return PStarEstimate(p_star=p_star, r=float(r), r_tilde=float(r_tilde), s=int(sparsest_k))


def residual_sandwich_check(inst: ProblemInstance, x):
    """Two-sided bound of the constraint violation by the facet excesses.

    Returns (lhs, mid, rhs, holds) with
    lhs = 2^(1-m) ||(A_tilde x - b_tilde)_+||_1 <= (||Ax-b||_1 - sigma)_+
    <= ||(A_tilde x - b_tilde)_+||_1 = rhs.
    """
    if inst.m > SANDWICH_MAX_M:
        raise TooLarge(f"sandwich check capped at m <= {SANDWICH_MAX_M}")
    at, bt = l1_ball_halfspaces(inst)
    excess = np.maximum(at @ np.asarray(x, dtype=np.float64) - bt, 0.0)
    rhs = float(excess.sum())
    lhs = float(2.0 ** (1 - inst.m) * rhs)
    mid = max(lq_norm(inst.residual(x), 1.0) - inst.sigma, 0.0)
    slack = 1e-10 * (1.0 + rhs + mid)
    holds = (lhs <= mid + slack) and (mid <= rhs + slack)
    return lhs, mid, rhs, bool(holds)


def boundary_scaling_alpha(inst: ProblemInstance, x, q: float = 1.0) -> float:
    """Scale factor alpha in (0, 1] with ||A(alpha x) - b||_q = sigma.

    Exists for any feasible x because the residual norm exceeds sigma at
    alpha = 0 (blanket assumption) and is <= sigma at alpha = 1.  Found by
    bisection to |residual - sigma| <= 1e-10.
    """
    x = np.asarray(x, dtype=np.float64)

    def gap(alpha: float) -> float:
        return lq_norm(inst.residual(alpha * x), q) - inst.sigma

    g1 = gap(1.0)
    if g1 > 1e-10:
        raise NotFeasible(f"x violates the ball: ||Ax-b||_{q} - sigma = {g1}")
    if abs(g1) <= 1e-10:
        return 1.0
    lo, hi = 0.0, 1.0  # gap(lo) > 0 >= gap(hi)
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        g = gap(mid)
        if abs(g) <= 1e-10:
            return mid
        if g > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
