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
every orthant at once.  A line counts when its k - 1 rows are independent
by linalg.singular_value_rank, the package's one rank rule.  The scan is
one batch: the lines of every support size become n-vectors and their ends
are found together, and the vertices come back as the rows of one
read-only array (see all_orthant_vertices).

The same scan answers the sparsest-solution question: on a support J of
minimal size, each orthant's piece of the ball restricted to J is pointed
and, when nonempty, has vertices, whose supports lie inside J and so, by
minimality, equal J.  The sparsest level is therefore the fewest nonzeros
over the orthant vertices, found by scanning support sizes upward (see
solve_exact_l0).

Every other exact answer reads the vertex set its caller holds: the power
sum minimizers (solve_exact_lp_quasinorm) and the exponent threshold
(estimate_p_star) take all_orthant_vertices(inst) and the sparsest level as
arguments, so one enumeration serves them all.  A held vertex is sparsest
when its exact nonzero count is the sparsest level.  Checks on a single
point live in verify.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .core import ProblemInstance, validate_instance
from .errors import InvalidParam, NotFeasible, TooLarge
from .linalg import lq_norm, singular_value_rank

ENUM_MAX_M = 8
ENUM_MAX_N = 10
LINE_BLOCK = 1024  # lines per end-finding pass: bounds the scan's memory
DEDUP_TOL = 1e-9
FEAS_TOL = 1e-9
# odd multipliers (golden-ratio steps mod 2^63) that hash a merge-grid cell
_CELL_HASH = np.array(
    [(0x9E3779B97F4A7C15 * i) % 2**63 | 1 for i in range(1, ENUM_MAX_N + 1)], dtype=np.int64
)


@dataclass(frozen=True)
class ExactSolutionSet:
    """Exact optimal value and all optimal vertices for one exponent.

    For p = 0 the optimal_value is the minimal support size and the
    minimizers are every orthant vertex of that size.
    """

    p: float
    optimal_value: float
    minimizers: tuple


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark a freshly built array read-only and return it."""
    arr.flags.writeable = False
    return arr


def _dedup(stack: np.ndarray) -> np.ndarray:
    """Merge rows equal within DEDUP_TOL * (1 + ||v||_inf), keeping the first
    representative.  Two shifted grids catch boundary straddlers: a row is
    dropped when it shares a cell of either grid with a row already kept.

    Only a row that shares a cell with another row can be dropped.  Sorting
    a hash of each grid's cells finds every such row, and the first-wins
    pass visits those alone; a hash clash only adds a row to that pass.
    """
    if len(stack) < 2:
        return stack
    q = DEDUP_TOL * (1.0 + np.abs(stack).max(axis=1))
    grids = [np.floor(stack / q[:, None] + shift).astype(np.int64) for shift in (0.0, 0.5)]
    collide = np.zeros(len(stack), dtype=bool)
    for grid in grids:
        cell = grid @ _CELL_HASH[: stack.shape[1]]  # wraps; equal cells hash alike
        order = cell.argsort()
        same = cell[order[1:]] == cell[order[:-1]]
        collide[order[1:][same]] = collide[order[:-1][same]] = True
    keep = ~collide
    seen = (set(), set())
    for i in np.flatnonzero(collide):
        keys = [grid[i].tobytes() for grid in grids]
        if not any(key in cells for key, cells in zip(keys, seen)):
            for key, cells in zip(keys, seen):
                cells.add(key)
            keep[i] = True
    return stack[keep]


@functools.lru_cache(maxsize=None)
def _line_index(m: int, n: int, k: int):
    """Index arrays of every (support, zero-row set) pair with |J| = k and
    |Z| = k - 1, supports outer and row sets inner, both lexicographic, and
    the masks of J (lines, n) and Z (lines, m)."""
    supports = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    rows = np.array(list(itertools.combinations(range(m), k - 1)), dtype=np.intp)
    rows = rows.reshape(len(rows), k - 1)  # also for k = 1
    js = np.repeat(supports, len(rows), axis=0)
    zs = np.tile(rows, (len(supports), 1))
    on_j = np.zeros((len(js), n), dtype=bool)
    on_z = np.zeros((len(js), m), dtype=bool)
    np.put_along_axis(on_j, js, True, axis=1)
    np.put_along_axis(on_z, zs, True, axis=1)
    for arr in (js, zs, on_j, on_z):
        arr.flags.writeable = False
    return js, zs, on_j, on_z


def _lines(inst: ProblemInstance, k: int):
    """Every line {x : A_{Z,J} x_J = b_Z, x_i = 0 off J} with |J| = k, as
    n-vectors: x(lam) = x0 + lam d, x0 the min-norm solution on Z and d the
    null direction, both zero off J.  Returns (x0, d, valid, on_j, on_z);
    a line is valid when the row-normalised A_{Z,J} has rank k - 1 by
    linalg.singular_value_rank, counted for all lines of size k at once.
    """
    js, zs, on_j, on_z = _line_index(inst.m, inst.n, k)
    az = inst.a[zs[:, :, None], js[:, None, :]]  # (lines, k - 1, k): A_{Z,J}
    norms = np.linalg.norm(az, axis=2)
    norms[norms == 0.0] = 1.0
    u, s, vh = np.linalg.svd(az / norms[:, :, None])
    valid = singular_value_rank(s, (k - 1, k)) == k - 1
    s[~valid] = 1.0
    coef = np.einsum("lij,li->lj", u, inst.b[zs] / norms) / s
    x0 = np.zeros(on_j.shape)
    d = np.zeros(on_j.shape)
    # js rows ascend, as the mask's C order does
    x0[on_j] = np.einsum("lij,li->lj", vh[:, : k - 1], coef).ravel()
    d[on_j] = vh[:, k - 1].ravel()
    return x0, d, valid, on_j, on_z


def _line_ends(inst: ProblemInstance, x0, d, valid, on_j, on_z) -> np.ndarray:
    """Candidate vertices on a block of lines (see _lines): the ends of
    {f <= sigma} on each line, as rows, line by line and the left end first,
    that are nonzero on all of J, fit the rows in Z, lie on the boundary and
    are feasible.

    Each line's arithmetic is elementwise, a contraction of its own row
    (einsum, which calls no BLAS) or a max, never a matrix product over
    lines, so its ends do not depend on which other lines share the block.
    """
    a, b, sigma = inst.a, inst.b, inst.sigma
    lines, m = on_z.shape
    r0 = np.einsum("ln,in->li", x0, a) - b
    g = np.einsum("ln,in->li", d, a)
    r0[on_z] = 0.0
    g[on_z] = 0.0
    g[np.abs(g) <= 1e-12 * np.sqrt(np.einsum("ln,in->li", on_j.astype(float), a * a))] = 0.0

    # f(lam) = sum_i |r0_i + lam g_i| is convex and linear between the
    # sorted breakpoints -r0_i / g_i; rows with g_i = 0 repeat the largest
    moving = g != 0.0
    valid = valid & moving.any(axis=1)
    t = np.where(moving, -r0 / np.where(moving, g, 1.0), -np.inf)
    t = np.sort(np.where(moving, t, t.max(axis=1, keepdims=True)), axis=1)
    t[~valid] = 0.0
    f = np.einsum("lki->lk", np.abs(r0[:, None, :] + t[:, :, None] * g[:, None, :]))
    # |x0 + t d| at each breakpoint, laid out coordinates first: a max over
    # the leading axis runs over whole planes, where one over a short last
    # axis is several times slower, and a max is exact in any order
    x_t = np.multiply(d.T[:, None, :], t.T, order="C")
    x_t += x0.T[:, None, :]
    tol = FEAS_TOL * (1.0 + np.abs(x_t, out=x_t).max(axis=0).T)
    inside = f <= sigma + tol
    valid &= inside.any(axis=1)

    # both ends at once, left in column 0: the first and last breakpoints
    # inside, and the piece next to each on the outward side (a ray past
    # the extreme breakpoints), where f crosses sigma.  A breakpoint with
    # f within tol of sigma is the end itself: this also catches lines
    # that only touch the ball, as every line does when sigma = 0
    step = np.array([-1, 1])
    rows = np.arange(lines)[:, None]
    j_in = np.array([inside.argmax(axis=1), m - 1 - inside[:, ::-1].argmax(axis=1)]).T
    j_out = np.minimum(np.maximum(j_in + step, 0), m - 1)
    t_in = t[rows, j_in]
    ray = t_in + step * (1.0 + np.abs(t_in))
    t_out = np.where(j_out == j_in, ray, t[rows, j_out])
    signs = np.sign(r0[:, None, :] + (0.5 * (t_in + t_out))[:, :, None] * g[:, None, :])
    slope = np.einsum("lei,li->le", signs, g)
    cross = (sigma - np.einsum("lei,li->le", signs, r0)) / np.where(slope == 0.0, 1.0, slope)
    lam = np.where(f[rows, j_in] >= sigma - tol[rows, j_in], t_in, cross)
    x = x0[:, None, :] + lam[:, :, None] * d[:, None, :]  # (lines, 2, n), zero off J

    # nonzero on all of J (a smaller support finds the rest); the exact fit
    # on Z and the ball are then tested on the survivors alone
    mags = np.abs(x)
    size = 1.0 + mags.max(axis=2)
    keep = ((mags > DEDUP_TOL * size[:, :, None]) == on_j[:, None, :]).all(axis=2) & valid[:, None]
    x, size, on_z = x[keep], size[keep], on_z[keep.nonzero()[0]]
    r = np.einsum("cn,in->ci", x, a) - b
    fits = (~on_z | (np.abs(r) <= 1e-8 * size[:, None] * np.linalg.norm(a, axis=1))).all(axis=1)
    gap = np.abs(r).sum(axis=1) - sigma
    facet = np.linalg.norm(np.einsum("ci,in->cn", np.sign(r), a), axis=1)
    return x[fits & (gap >= -1e-8 * size * facet) & (gap <= FEAS_TOL * size)]


def _scan(inst: ProblemInstance, sizes) -> np.ndarray:
    """The orthant vertices with k nonzeros for every k in sizes, ascending,
    deduplicated, as the rows of one array in scan order: by size, then by
    line in _line_index order, the left end before the right; for k = 0,
    x = 0 when it is feasible.  The lines of all sizes run through
    _line_ends together, in blocks of at most LINE_BLOCK lines.

    Raises TooLarge beyond ENUM_MAX_M rows or ENUM_MAX_N columns.
    """
    if inst.m > ENUM_MAX_M or inst.n > ENUM_MAX_N:
        raise TooLarge(
            f"enumeration capped at m<={ENUM_MAX_M}, n<={ENUM_MAX_N}, got m={inst.m}, n={inst.n}"
        )
    found = []
    if 0 in sizes and lq_norm(inst.b, 1.0) - inst.sigma <= FEAS_TOL:
        found.append(np.zeros((1, inst.n)))
    ks = [k for k in sizes if k > 0]
    if ks:
        x0, d, valid, on_j, on_z = map(np.concatenate, zip(*(_lines(inst, k) for k in ks)))
        for lo in range(0, len(valid), LINE_BLOCK):
            block = slice(lo, lo + LINE_BLOCK)
            found.append(
                _line_ends(inst, x0[block], d[block], valid[block], on_j[block], on_z[block])
            )
    return _dedup(np.concatenate(found) if found else np.zeros((0, inst.n)))


def all_orthant_vertices(inst: ProblemInstance) -> np.ndarray:
    """Union over all orthants of the extreme points of orthant-and-ball, as
    the read-only rows of one (V, n) array.

    Method: one batched scan over lines of every support size k.
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
    most two ends of {f <= sigma} on each.  Each size's lines come from
    one SVD of the stacked A_{Z,J} and become n-vectors, zero off J, so
    the end finding runs over the lines of all sizes at once, in blocks
    of at most LINE_BLOCK lines.  It finds each end on the linear piece
    that crosses sigma, between the sorted breakpoints -r0_i / g_i.
    A candidate is kept when it is nonzero on all of J (a smaller support
    finds the rest), its rows in Z fit exactly, it lies on the boundary and
    it is feasible; survivors are deduplicated in one pass (the merge grid
    only joins vectors with equal supports).  Rows come size by size.
    Raises TooLarge beyond ENUM_MAX_M rows or ENUM_MAX_N columns.
    """
    return _frozen(_scan(inst, range(min(inst.m, inst.n) + 1)))


def solve_exact_lp_quasinorm(inst: ProblemInstance, p: float, vertices) -> ExactSolutionSet:
    """Exact solution set of min sum |x_i|^p over the ball, 0 < p <= 1.

    Minimizes the power sum over vertices, all_orthant_vertices(inst), the
    union of orthant extreme points, which contains a global minimizer for
    every such p; ties within a relative 1e-9 of the best value are all
    returned.
    """
    if not 0.0 < p <= 1.0:
        raise InvalidParam(f"this solver handles 0 < p <= 1, got {p}")
    if not len(vertices):
        raise NotFeasible("no extreme points found; is the instance feasible?")
    values = (np.abs(vertices) ** p).sum(axis=1)
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
        nnz = np.count_nonzero(vertices, axis=1)
        if not nnz.size:
            raise NotFeasible("no support admits a feasible point; data is inconsistent")
        k = int(nnz.min())
        minimizers = tuple(_frozen(vertices[nnz == k]))
        return ExactSolutionSet(p=0.0, optimal_value=float(k), minimizers=minimizers)
    for k in range(min(inst.m, inst.n) + 1):
        witnesses = _scan(inst, (k,))
        if len(witnesses):
            minimizers = tuple(_frozen(witnesses))
            return ExactSolutionSet(p=0.0, optimal_value=float(k), minimizers=minimizers)
    raise NotFeasible("no support admits a feasible point; data is inconsistent")


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
    mags = np.abs(vertices)
    r_tilde = float(np.min(mags, where=mags > 0.0, initial=np.inf))
    if not np.isfinite(r_tilde):
        raise NotFeasible("no nonzero vertex coordinates; instance is degenerate")
    sv = np.linalg.svd(inst.a, compute_uv=False)
    lam_star = float(sv[singular_value_rank(sv, inst.a.shape) - 1] ** 2)
    r = (inst.sigma + lq_norm(inst.b, 2.0)) / np.sqrt(lam_star)
    s = max(sparsest_k, 1)
    if r <= r_tilde * (1.0 + 1e-12):
        p_star = 1.0
    else:
        p_star = min(1.0, float(np.log((s + 1) / s) / np.log(r / r_tilde)))
    return PStarEstimate(p_star=p_star, r=float(r), r_tilde=float(r_tilde), s=int(sparsest_k))

