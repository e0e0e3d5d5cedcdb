"""Outer penalty loop driving the smoothed subproblems towards the
constrained solution, and the face walk that finishes it exactly.

Each outer iteration k solves the smoothed penalized problem at the current
(lam, mu, nu) by the inner nonmonotone proximal-gradient loop, warm-started
from whichever of {previous iterate, feasible anchor} has the lower current
objective.  The penalty is one smoothing.SmoothedPenalty on the residual,
for the q = 1 ball (solve_l1) or the q = 2 ball (solve_l2).  The schedule
is fixed: (lam, mu, nu) start at (LAMBDA0, MU0, NU0) and the inner
tolerance at EPS0; afterwards lam grows by rho while mu, nu, and the inner
tolerance shrink by 1/rho (the tolerance down to EPS_FLOOR); rho is
RHO_SLOW once all three progress measures are below ETA_SWITCH and
RHO_FAST before that.  Iteration stops when

    max{ rel step, rel objective change, (residual - sigma)_+ } < OUTER_TOL,

or after OUTER_ITER_CAP iterations.

OUTER_TOL is loose on purpose: the loop only has to reach the right face,
and the finish does the rest exactly.  On each orthant sum|x|^p is concave
along every direction that moves the support, so a local minimizer over
the q = 1 ball is a vertex, with k - 1 residual rows exactly zero (k the
number of nonzeros), while the loop's point sits strictly inside or just
outside.  One face walk (_face_walk, Rosen's gradient projection) serves
both balls: it lowers sum|x|^p at every step and ends on a face of full
column rank, whose rows combine rows of A_J, so nnz = rank(A_J) holds by
construction.  The l1 finish (_vertex_finish) walks from the boundary to a
vertex; the l2 finish (_sphere_finish) walks with every row held, then
scales onto the sphere.  Each move onto the boundary is one exact
linalg.ball_entry, so both end on the feasible side in floating point.  The report says
"converged" only when the finished point passes verify.optimal_point_checks
at its default tolerance (1e-8), and "stationary_uncertified" when the loop
met its tolerance but the point fails a check.

The feasible anchor is the minimum-norm least-squares point (or a caller
seed of shape (n,); another shape raises DimensionMismatch).  It is
ProblemInstance.anchor, computed once per matrix record, so a second solve
of the same draw (another p, or the matched pair's other ball) reuses it.
Its computation, when this solve makes it, and its residual are reported
as the setup time and excluded from the reported wall time, which covers
the loop and the finish.  The residual of the
current iterate is carried across outer iterations (the inner loop hands
back the residual of its final point), so the loop's own bookkeeping
costs no product with A; the finish multiplies by A_J, the support's
columns.  The inner loop's last accepted step
constant travels the same way: each round's first line search starts from
half of the previous round's, not from 1, so it does not double through
the curvature the penalty gained since the first round.
"""

from __future__ import annotations

import time

import numpy as np

from .core import OuterRecord, ProblemInstance, SolveReport, validate_instance
from .errors import DimensionMismatch, InfeasibleStart, InvalidParam, InvariantViolation
from .linalg import ball_entry, least_squares_min_norm, lq_norm, singular_value_rank
from .npg import npg_solve
from .smoothing import SmoothedPenalty, lp_power_sum
from .verify import all_checks_pass, optimal_point_checks

# absolute slack for the runtime descent checks; covers float roundoff only
_ANCHOR_SLACK = 1e-9

LAMBDA0 = 1.0
MU0 = 1.0
NU0 = 1.0
EPS0 = 1e-3
RHO_FAST = 2.0
RHO_SLOW = 1.2
ETA_SWITCH = 1e-2
OUTER_TOL = 1e-6
EPS_FLOOR = 1e-8
OUTER_ITER_CAP = 500
# a residual row within this share of its float scale |A_J||z| + |b| is zero;
# also the relative tie width of the walk's ratio test
ROUNDOFF = 1e-12


def progress_measures(x_next, x_prev, inst: ProblemInstance, q: float, r_next, phi_next, phi_prev):
    """Relative step, relative objective change, and constraint violation.

    r_next is the residual A x_next - b; phi_next and phi_prev are
    lp_power_sum of x_next and x_prev.
    """
    x_next = np.asarray(x_next, dtype=np.float64)
    x_prev = np.asarray(x_prev, dtype=np.float64)
    eta1 = float(np.linalg.norm(x_next - x_prev)) / (1.0 + float(np.linalg.norm(x_next)))
    eta2 = abs(phi_next - phi_prev) / (1.0 + phi_next)
    eta3 = max(lq_norm(r_next, q) - inst.sigma, 0.0)
    return eta1, eta2, eta3


def _roundoff(aj, z, b):
    # per-row float scale of A_J z - b; rows below it count as zero
    return ROUNDOFF * (np.abs(aj) @ np.abs(z) + np.abs(b))


def _face_walk(support, aj, b, z, p, zero):
    """Walk z (on support, columns aj) along its face, the residual rows
    in the mask zero plus the facet sign(r)' A_J of the rest; returns
    (support, z, zero, steps, drops).  Each step moves -grad sum|z|^p,
    projected onto the face's null space (any null direction if that
    vanishes), to the first wall: a row that reaches zero joins the mask, a
    coordinate that reaches zero leaves the support.  The walk stops when
    the face has full column rank (linalg.singular_value_rank).  With every
    row held the facet row is zero and no row wall is finite: A z stays
    fixed."""
    steps = drops = 0
    for _ in range(support.size + b.size):
        live = z != 0.0
        support, z, aj = support[live], z[live], aj[:, live]
        r = aj @ z - b
        zero |= np.abs(r) <= _roundoff(aj, z, b)
        signs = np.where(zero, 0.0, np.sign(r))
        face = np.vstack([signs @ aj, aj[zero]])
        _, sv, vh = np.linalg.svd(face, full_matrices=face.shape[0] < face.shape[1])
        rank = int(singular_value_rank(sv, face.shape))
        if rank == z.size:
            break
        null = vh[rank:]
        grad = p * np.abs(z) ** (p - 1.0) * np.sign(z)
        d = -(null.T @ (null @ grad))
        if np.linalg.norm(d) <= ROUNDOFF * np.linalg.norm(grad):
            d = null[0] if (z * null[0] < 0.0).any() else -null[0]
        g = aj @ d
        with np.errstate(divide="ignore", invalid="ignore"):
            t_coord = np.where(z * d < 0.0, -z / d, np.inf)
            t_row = np.where(~zero & (r * g < 0.0), -r / g, np.inf)
        t = min(t_coord.min(), t_row.min())
        if not np.isfinite(t):
            break
        z = z + t * d
        hit = t_coord <= t * (1.0 + ROUNDOFF)
        z[hit] = 0.0
        zero |= t_row <= t * (1.0 + ROUNDOFF)
        steps += 1
        drops += int(hit.sum())
    return support, z, zero, steps, drops


def _vertex_finish(inst, x, r):
    """Move an l1 solve's point to a vertex of its orthant's piece of the
    ball without raising sum|x|^p; returns (x, walk steps, walk drops).
    The point is put on the boundary (linalg.ball_entry): scaled if it is
    interior, moved towards its support's least-squares point if it is
    outside (returned unchanged when that point is outside too).  Then
    _face_walk, from no held row, walks to a vertex, which the face
    equations fix exactly (linalg.least_squares_min_norm); if rounding
    leaves it outside, it enters the ball along the direction that lowers
    the facet's target."""
    a, b, sigma = inst.a, inst.b, inst.sigma
    support = np.flatnonzero(x)
    z, aj = x[support], a[:, support]

    def l1(z, r):
        return float(np.abs(r)[np.abs(r) > _roundoff(aj, z, b)].sum())

    # a path that reaches the ball only at roundoff level falls back to its end
    resid = l1(z, r)
    if resid < sigma:
        t = ball_entry(aj, b, np.zeros_like(z), z, sigma, 1.0)
        z = z if t is None else t * z
    elif resid > sigma:
        z_ls = least_squares_min_norm(aj, b)
        if not l1(z_ls, aj @ z_ls - b) <= sigma:
            return x, 0, 0
        t = ball_entry(aj, b, z, z_ls, sigma, 1.0)
        z = z_ls if t is None else z + t * (z_ls - z)

    support, z, zero, steps, drops = _face_walk(support, aj, b, z, inst.p, np.zeros(inst.m, dtype=bool))

    # the vertex, and the direction w that lowers its facet target, in one
    # solve; its entry is judged on the full product the report reads
    aj = a[:, support]
    r = aj @ z - b
    signs = np.where(zero, 0.0, np.sign(r))
    rows = np.vstack([signs @ aj, aj[zero]])
    rhs = np.zeros((len(rows), 2))
    rhs[:, 0] = np.concatenate([[sigma + signs @ b], b[zero]])
    rhs[0, 1] = 1.0
    z_v, w = least_squares_min_norm(rows, rhs).T
    out, lowered = np.zeros(inst.n), np.zeros(inst.n)
    out[support], lowered[support] = z_v, z_v - w
    t = ball_entry(a, b, out, lowered, sigma, 1.0)
    if t is not None:
        out = out + t * (lowered - out)
    if not np.array_equal(np.sign(out[support]), np.sign(z)):
        out = np.zeros(inst.n)
        out[support] = z
    return out, steps, drops


def _sphere_finish(inst, x):
    """Walk an l2 solve's point with every residual row held (_face_walk),
    then scale it onto the sphere (linalg.ball_entry); returns (x, walk
    steps, walk drops).  The walk keeps A x fixed and commutes with
    scaling, and the scaling last keeps the point on the feasible side."""
    j = np.flatnonzero(x)
    support, z, _, steps, drops = _face_walk(j, inst.a[:, j], inst.b, x[j], inst.p, np.ones(inst.m, bool))
    x = np.zeros(inst.n)
    x[support] = z
    t = ball_entry(inst.a, inst.b, np.zeros_like(x), x, inst.sigma, 2.0)
    return (x if t is None else t * x), steps, drops


def _solve_penalty(inst, seed_x, q):
    validate_instance(inst, q=q)
    if not 0.0 < inst.p < 1.0:
        raise InvalidParam(f"solver needs p in (0, 1), got {inst.p}")

    t_setup = time.perf_counter()
    x_feas = inst.anchor if seed_x is None else np.array(seed_x, dtype=np.float64)
    if x_feas.shape != (inst.n,):
        raise DimensionMismatch(f"seed_x has shape {x_feas.shape}, expected ({inst.n},)")
    r_feas = inst.residual(x_feas)
    res_feas = lq_norm(r_feas, q)
    if res_feas > inst.sigma + 1e-10 * (1.0 + lq_norm(inst.b, q)):
        raise InfeasibleStart(
            f"starting point has ||Ax-b||_{q} = {res_feas} > sigma = {inst.sigma}"
        )
    phi_feas = lp_power_sum(x_feas, inst.p)
    anchor_exact = res_feas <= 1e-12 * (1.0 + lq_norm(inst.b, q))
    t0 = time.perf_counter()
    setup_time = t0 - t_setup

    lam, mu, nu = LAMBDA0, MU0, NU0
    eps = EPS0
    # the current iterate, its residual A x - b and its power sum travel
    # together
    x, r, phi = x_feas, r_feas, phi_feas
    # the step constant the inner loop accepted last; None starts round 0 from 1
    l_bar = None
    trace = []
    stop_reason = None  # set in the round that ends the loop
    prev_lam = None
    prev_pen_feas = None

    for k in range(OUTER_ITER_CAP):
        pen = SmoothedPenalty(inst, q, lam, mu, nu)
        pen_feas = pen.value(r_feas)
        f_feas = phi_feas + pen_feas
        f_curr = phi + pen.value(r)
        x_start, r_start = (x, r) if f_curr <= f_feas else (x_feas, r_feas)

        out = npg_solve(inst, pen, x_start, eps, r0=r_start, l_bar=l_bar)
        l_bar = out.l_bar
        x_next, r_next = out.x_final, out.r_final

        # descent anchors from the convergence analysis, checked each
        # iteration: the power objective never exceeds the anchor's
        # (plus the penalty's value there, which is provably its global
        # minimum when the anchor interpolates exactly), and the residual
        # excess decays like 1/lam up to the smoothing gap at the anchor
        phi_next = lp_power_sum(x_next, inst.p)
        anchor_cap = phi_feas if anchor_exact else phi_feas + pen_feas
        if not phi_next <= anchor_cap + _ANCHOR_SLACK * (1.0 + abs(anchor_cap)):
            raise InvariantViolation(
                f"outer iterate {k} lost the objective anchor: {phi_next} > {anchor_cap}"
            )
        etas = progress_measures(
            x_next, x, inst, q=q, r_next=r_next, phi_next=phi_next, phi_prev=phi
        )
        if prev_lam is not None:
            # the q=1 penalty bounds the norm excess, eta3; the q=2 penalty
            # the squared-norm excess
            gap = etas[2] if q == 1.0 else max(float(r_next @ r_next) - inst.sigma**2, 0.0)
            if not prev_lam * gap <= phi_feas + prev_pen_feas + _ANCHOR_SLACK * (
                1.0 + phi_feas + prev_pen_feas
            ):
                raise InvariantViolation(
                    f"outer iterate {k}: constraint violation stopped decaying"
                    " with the penalty weight"
                )

        worst = max(etas)
        if worst < OUTER_TOL:
            stop_reason = "converged"
        elif k + 1 == OUTER_ITER_CAP:
            stop_reason = "outer_cap"
        rho = np.nan if stop_reason else (RHO_SLOW if worst < ETA_SWITCH else RHO_FAST)
        trace.append(
            OuterRecord(
                k=k,
                lam=lam,
                mu=mu,
                nu=nu,
                eps=eps,
                objective=out.f_final,
                eta1=etas[0],
                eta2=etas[1],
                eta3=etas[2],
                inner_iters=out.iters,
                inner_trials=out.trials,
                full_products=out.full_products,
                l_bar=out.l_bar,
                inner_stop=out.stop_reason,
                rho=float(rho),
            )
        )
        x, r, phi = x_next, r_next, phi_next
        if stop_reason:
            break
        prev_lam, prev_pen_feas = lam, pen_feas
        theta = 1.0 / rho
        lam *= rho
        mu *= theta
        nu *= theta
        eps = max(theta * eps, EPS_FLOOR)

    x, walk_steps, walk_drops = _vertex_finish(inst, x, r) if q == 1.0 else _sphere_finish(inst, x)
    r = inst.residual(x)
    if stop_reason == "converged" and not all_checks_pass(
        optimal_point_checks(inst, x, inst.p, q=q)
    ):
        stop_reason = "stationary_uncertified"
    wall = time.perf_counter() - t0

    return SolveReport(
        x_star=x,
        objective=lp_power_sum(x, inst.p),
        l1_residual=lq_norm(r, 1.0),
        eta3=max(lq_norm(r, q) - inst.sigma, 0.0),
        wall_time=wall,
        setup_time=setup_time,
        stop_reason=stop_reason,
        q=q,
        walk_steps=walk_steps,
        walk_drops=walk_drops,
        trace=tuple(trace),
    )


def solve_l1(inst: ProblemInstance, seed_x=None) -> SolveReport:
    """Solve min lp_power_sum(x, p) s.t. ||Ax - b||_1 <= sigma."""
    return _solve_penalty(inst, seed_x, 1.0)


def solve_l2(inst: ProblemInstance, seed_x=None) -> SolveReport:
    """Baseline on the l2 ball: min lp_power_sum(x, p) s.t. ||Ax - b||_2 <= sigma."""
    return _solve_penalty(inst, seed_x, 2.0)
