"""Exact small-instance machinery.

The feasible set {x : ||Ax - b||_1 <= sigma} is the polyhedron
{x : U A x <= U b + sigma} where U runs over all 2^m sign vectors.  Its
intersection with each (closed) orthant is a polyhedron whose extreme
points carry at least one global minimizer of the power objective for every
0 < p <= 1, so exhaustive vertex enumeration gives exact solution sets on
tiny instances.  The enumeration never forms the 2^m facets: every nonzero
vertex is an end of the ball's piece of a line on which k - 1 independent
rows of A_J fit b exactly (J the vertex's support, k = |J|), so one scan
over these C(m + n, m + 1) lines, at most, yields the extreme points of
every orthant at once (see all_orthant_vertices).

The same scan answers the sparsest-solution question: on a support J of
minimal size, each orthant's piece of the ball restricted to J is pointed
and, when nonempty, has vertices, whose supports lie inside J and so, by
minimality, equal J.  The sparsest level is therefore the fewest nonzeros
over the orthant vertices, found by scanning support sizes upward (see
solve_exact_l0).

Every other exact answer reads the vertex set its caller holds: the power
sum minimizers (solve_exact_lp_quasinorm) and the exponent threshold
(estimate_p_star) take all_orthant_vertices(inst) and the sparsest level as
arguments, so one enumeration serves them all.  is_l0_optimal tests a point
against the sparsest level.  Checks on a single point live in verify.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .core import ProblemInstance, validate_instance
from .errors import NotFeasible, TooLarge
from .linalg import RANK_REL_TOL_FACTOR, lq_norm

ENUM_MAX_M = 8
ENUM_MAX_N = 10
SINGULAR_TOL = 1e-10  # least singular value floor of a unit-row system
DEDUP_TOL = 1e-9
FEAS_TOL = 1e-9
MEMBER_TOL = 1e-8  # is_l0_optimal's feasibility and zero floor, relative


@dataclass(frozen=True)
class ExactSolutionSet:
    """Exact optimal value and all optimal vertices for one exponent.

    For p = 0 the optimal_value is the minimal support size and the
    minimizers are every orthant vertex of that size.
    """

    p: float
    optimal_value: float
    minimizers: tuple


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def _stack(vectors, n: int) -> np.ndarray:
    """Vectors of length n as the rows of one array, also when there are none."""
    return np.asarray(vectors, dtype=np.float64).reshape(len(vectors), n)


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


@functools.lru_cache(maxsize=None)
def _line_index(m: int, n: int, k: int):
    """Index arrays of every (support, zero-row set) pair with |J| = k and
    |Z| = k - 1, supports outer and row sets inner, both lexicographic."""
    supports = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    rows = np.array(list(itertools.combinations(range(m), k - 1)), dtype=np.intp)
    rows = rows.reshape(len(rows), k - 1)  # also for k = 1
    js = np.repeat(supports, len(rows), axis=0)
    zs = np.tile(rows, (len(supports), 1))
    js.flags.writeable = zs.flags.writeable = False
    return js, zs


def _line_ends(inst: ProblemInstance, k: int) -> np.ndarray:
    """Candidate vertices with k nonzeros: the ends of {f <= sigma} on every
    line {x_J : A_{Z,J} x_J = b_Z, x_i = 0 off J} with rank A_{Z,J} = k - 1.

    Returns the ends, as rows, that are nonzero on all of J and fit the rows
    in Z; the caller tests the ball.
    """
    a, b, sigma = inst.a, inst.b, inst.sigma
    m = inst.m
    js, zs = _line_index(m, inst.n, k)
    lines = np.arange(len(js))[:, None]
    aj = a.T[js].transpose(0, 2, 1)  # (lines, m, k): A_J
    az = aj[lines, zs]  # (lines, k - 1, k): A_{Z,J}
    norms = np.linalg.norm(az, axis=2)
    norms[norms == 0.0] = 1.0
    u, s, vh = np.linalg.svd(az / norms[:, :, None])
    valid = np.all(s > SINGULAR_TOL, axis=1)
    s[~valid] = 1.0
    # x(lam) = x0 + lam d: x0 the min-norm solution on Z, d the null direction
    x0 = np.einsum("lij,li->lj", vh[:, : k - 1], np.einsum("lij,li->lj", u, b[zs] / norms) / s)
    d = vh[:, k - 1]
    r0 = np.einsum("lik,lk->li", aj, x0) - b
    g = np.einsum("lik,lk->li", aj, d)
    r0[lines, zs] = 0.0
    g[lines, zs] = 0.0
    g[np.abs(g) <= 1e-12 * np.linalg.norm(aj, axis=2)] = 0.0

    # f(lam) = sum_i |r0_i + lam g_i| is convex and linear between the
    # sorted breakpoints -r0_i / g_i; rows with g_i = 0 repeat the largest
    moving = g != 0.0
    valid &= moving.any(axis=1)
    t = np.where(moving, -r0 / np.where(moving, g, 1.0), -np.inf)
    t = np.sort(np.where(moving, t, t.max(axis=1, keepdims=True)), axis=1)
    t[~valid] = 0.0
    f = np.abs(r0[:, None, :] + t[:, :, None] * g[:, None, :]).sum(axis=2)
    tol = FEAS_TOL * (1.0 + np.abs(x0[:, None, :] + t[:, :, None] * d[:, None, :]).max(axis=2))
    inside = f <= sigma + tol
    valid &= inside.any(axis=1)

    # both ends at once, left in column 0: the first and last breakpoints
    # inside, and the piece next to each on the outward side (a ray past
    # the extreme breakpoints), where f crosses sigma.  A breakpoint with
    # f within tol of sigma is the end itself: this also catches lines
    # that only touch the ball, as every line does when sigma = 0
    step = np.array([-1, 1])
    j_in = np.stack([np.argmax(inside, axis=1), m - 1 - np.argmax(inside[:, ::-1], axis=1)], axis=1)
    j_out = np.clip(j_in + step, 0, m - 1)
    t_in = np.take_along_axis(t, j_in, axis=1)
    ray = t_in + step * (1.0 + np.abs(t_in))
    t_out = np.where(j_out == j_in, ray, np.take_along_axis(t, j_out, axis=1))
    signs = np.sign(r0[:, None, :] + (0.5 * (t_in + t_out))[:, :, None] * g[:, None, :])
    slope = np.einsum("lei,li->le", signs, g)
    cross = (sigma - np.einsum("lei,li->le", signs, r0)) / np.where(slope == 0.0, 1.0, slope)
    f_in, tol_in = np.take_along_axis(f, j_in, axis=1), np.take_along_axis(tol, j_in, axis=1)
    lam = np.where(f_in >= sigma - tol_in, t_in, cross)
    x_j = x0[:, None, :] + lam[:, :, None] * d[:, None, :]  # (lines, 2, k)

    size = 1.0 + np.abs(x_j).max(axis=2, keepdims=True)
    z_miss = np.abs(np.einsum("lzk,lek->lez", az, x_j) - b[zs][:, None, :])
    keep = (
        valid[:, None]
        & np.all(np.abs(x_j) > DEDUP_TOL * size, axis=2)
        & np.all(z_miss <= 1e-8 * size * np.linalg.norm(a[zs], axis=2)[:, None, :], axis=2)
    )
    x = np.zeros((len(js), 2, inst.n))
    np.put_along_axis(x, np.repeat(js[:, None, :], 2, axis=1), x_j, axis=2)
    return x[keep]


def _vertices_of_size(inst: ProblemInstance, k: int) -> list:
    """The orthant vertices with exactly k nonzeros, deduplicated, in scan
    order (see all_orthant_vertices); for k = 0, x = 0 when it is feasible.

    Raises TooLarge beyond ENUM_MAX_M rows or ENUM_MAX_N columns.
    """
    if inst.m > ENUM_MAX_M or inst.n > ENUM_MAX_N:
        raise TooLarge(
            f"enumeration capped at m<={ENUM_MAX_M}, n<={ENUM_MAX_N}, got m={inst.m}, n={inst.n}"
        )
    if k == 0:
        return [np.zeros(inst.n)] if lq_norm(inst.b, 1.0) - inst.sigma <= FEAS_TOL else []
    x = _line_ends(inst, k)
    r = x @ inst.a.T - inst.b
    size = 1.0 + np.max(np.abs(x), axis=1)
    gap = np.abs(r).sum(axis=1) - inst.sigma
    facet = np.linalg.norm(np.sign(r) @ inst.a, axis=1)
    return _dedup(x[(gap >= -1e-8 * size * facet) & (gap <= FEAS_TOL * size)])


def all_orthant_vertices(inst: ProblemInstance):
    """Union over all orthants of the extreme points of orthant-and-ball.

    Method: a scan over lines, one batch per support size k.
      * Only boundary points can be vertices.  At a point inside the ball
        only coordinate planes are active, so the one interior vertex is
        x = 0, returned when it is feasible.
      * Each vertex lies on one scanned line.  Let J = supp(v), k = |J| and
        r = A v - b.  v is a vertex iff the zero-residual rows of A_J and
        the facet normal sign(r)' A_J have rank k together.  So k - 1 of
        those rows, Z, are independent, and v_J lies on the line
        {x_J : A_{Z,J} x_J = b_Z}.
      * Each vertex is an end of its line's piece of the ball.  Along the
        line f(lam) = ||A_J x(lam) - b||_1 is convex and piecewise linear,
        and v is an end of {f <= sigma}: otherwise f = sigma near v and v
        would lie inside a segment of the face.
    The scan visits every pair (J, Z) with |Z| = |J| - 1 <= m - 1 and
    rank A_{Z,J} = k - 1, C(m + n, m + 1) pairs at most, and takes the at
    most two ends of {f <= sigma} on each.  It finds each end on the linear
    piece that crosses sigma, between the sorted breakpoints -r0_i / g_i.
    A candidate is kept when it is nonzero on all of J (a smaller support
    finds the rest), its rows in Z fit exactly, it lies on the boundary and
    it is feasible; survivors are deduplicated size by size (the merge
    grid only joins vectors with equal supports).  Raises TooLarge beyond
    ENUM_MAX_M rows or ENUM_MAX_N columns.
    """
    found = [v for k in range(min(inst.m, inst.n) + 1) for v in _vertices_of_size(inst, k)]
    return tuple(_freeze(_stack(found, inst.n)))  # read-only rows of one array


def solve_exact_lp_quasinorm(inst: ProblemInstance, p: float, vertices) -> ExactSolutionSet:
    """Exact solution set of min sum |x_i|^p over the ball, 0 < p <= 1.

    Minimizes the power sum over vertices, all_orthant_vertices(inst), the
    union of orthant extreme points, which contains a global minimizer for
    every such p; ties within a relative 1e-9 of the best value are all
    returned.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"this solver handles 0 < p <= 1, got {p}")
    if not vertices:
        raise NotFeasible("no extreme points found; is the instance feasible?")
    values = (np.abs(_stack(vertices, inst.n)) ** p).sum(axis=1)
    best = float(values.min())
    keep = values <= best + 1e-9 * (1.0 + abs(best))
    mins = tuple(vertices[i] for i in np.flatnonzero(keep))
    return ExactSolutionSet(p=p, optimal_value=best, minimizers=mins)


def solve_exact_l0(inst: ProblemInstance, vertices=None) -> ExactSolutionSet:
    """Smallest support size admitting a feasible point, with witnesses.

    Scans support sizes k = 0, 1, ... upward and stops at the first k with
    an orthant vertex; the witnesses are every vertex of that size.  This
    is exact: on a feasible support J of minimal size, each orthant's piece
    of the ball restricted to J is a pointed polyhedron, nonempty for some
    orthant, so it has vertices.  Their supports lie inside J, hence equal
    J by minimality, so every optimal support carries a witness.  The level
    is at most min(m, n): a vertex off zero fits k - 1 < m rows exactly.
    Raises TooLarge beyond the enumeration's caps.

    A caller that already holds all_orthant_vertices(inst) passes them as
    vertices: the level is then their fewest nonzeros and the witnesses
    are the vertices of that size, the same arrays in the same order,
    without a second scan.
    """
    if vertices is not None:
        stack = _stack(vertices, inst.n)
        nnz = np.count_nonzero(stack, axis=1)
        if not nnz.size:
            raise NotFeasible("no support admits a feasible point; data is inconsistent")
        k = int(nnz.min())
        minimizers = tuple(_freeze(stack[nnz == k]))
        return ExactSolutionSet(p=0.0, optimal_value=float(k), minimizers=minimizers)
    for k in range(min(inst.m, inst.n) + 1):
        witnesses = _vertices_of_size(inst, k)
        if witnesses:
            minimizers = tuple(_freeze(_stack(witnesses, inst.n)))
            return ExactSolutionSet(p=0.0, optimal_value=float(k), minimizers=minimizers)
    raise NotFeasible("no support admits a feasible point; data is inconsistent")


def is_l0_optimal(inst: ProblemInstance, x, sparsest_k: int) -> bool:
    """Membership test for the sparsest-solution set: feasible and exactly
    sparsest_k nonzeros, both to MEMBER_TOL relative."""
    x = np.asarray(x, dtype=np.float64)
    feasible = lq_norm(inst.residual(x), 1.0) <= inst.sigma + MEMBER_TOL * (1.0 + inst.sigma)
    zero_tol = MEMBER_TOL * (1.0 + np.max(np.abs(x), initial=0.0))
    nnz = int(np.count_nonzero(np.abs(x) > zero_tol))
    return bool(feasible and nnz == sparsest_k)


@dataclass(frozen=True)
class PStarEstimate:
    p_star: float
    r: float
    r_tilde: float
    s: int


def estimate_p_star(inst: ProblemInstance, vertices, sparsest_k: int) -> PStarEstimate:
    """Exponent threshold below which every power-sum minimizer is sparsest.

    r bounds the 2-norm of any feasible point of minimal support through
    the smallest nonzero eigenvalue of A'A; r_tilde is the smallest nonzero
    coordinate magnitude over vertices, all_orthant_vertices(inst), whose
    zeros are exact.  The threshold is min{1, ln(1 + 1/s) / ln(r / r_tilde)},
    and 1 when r equals r_tilde; s is sparsest_k, the sparsest level (see
    solve_exact_l0).  Raises TrivialInstance when ||b||_1 <= sigma: the
    origin is then feasible and the bound says nothing.
    """
    validate_instance(inst, 1.0)
    mags = np.abs(_stack(vertices, inst.n))
    r_tilde = float(np.min(mags, where=mags > 0.0, initial=np.inf))
    if not np.isfinite(r_tilde):
        raise NotFeasible("no nonzero vertex coordinates; instance is degenerate")
    sv = np.linalg.svd(inst.a, compute_uv=False)
    pos = sv[sv > RANK_REL_TOL_FACTOR * max(inst.m, inst.n) * sv[0]]
    lam_star = float(pos[-1] ** 2)
    r = (inst.sigma + lq_norm(inst.b, 2.0)) / np.sqrt(lam_star)
    s = max(sparsest_k, 1)
    if r <= r_tilde * (1.0 + 1e-12):
        p_star = 1.0
    else:
        p_star = min(1.0, float(np.log((s + 1) / s) / np.log(r / r_tilde)))
    return PStarEstimate(p_star=p_star, r=float(r), r_tilde=float(r_tilde), s=int(sparsest_k))

