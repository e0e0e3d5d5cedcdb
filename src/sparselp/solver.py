"""Outer penalty loop driving the smoothed subproblems to the constrained
solution.

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

The feasible anchor is the minimum-norm least-squares point (or a caller
seed).  Its computation and its residual are reported as the setup time
and excluded from the reported wall time.  The residual of the
current iterate is carried across outer iterations (the inner loop hands
back the residual of its final point), so the loop's own bookkeeping
costs no product with A.  The returned point is cleaned by refine(),
which zeroes coordinates below a relative floor.
"""

from __future__ import annotations

import time

import numpy as np

from .core import (
    OuterRecord,
    ProblemInstance,
    SolveReport,
    SupportSet,
    validate_instance,
)
from .errors import InfeasibleStart, InvalidParam, InvariantViolation
from .linalg import least_squares_min_norm, lq_norm
from .npg import npg_solve
from .smoothing import SmoothedPenalty, lp_power_sum

# absolute slack for the runtime descent checks; covers float roundoff only
_ANCHOR_SLACK = 1e-9

LAMBDA0 = 1.0
MU0 = 1.0
NU0 = 1.0
EPS0 = 1e-3
RHO_FAST = 2.0
RHO_SLOW = 1.2
ETA_SWITCH = 1e-2
OUTER_TOL = 1e-8
EPS_FLOOR = 1e-8
OUTER_ITER_CAP = 500


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


def refine(x, threshold: float = 1e-8) -> np.ndarray:
    """Zero every coordinate with |x_i| / ||x||_inf below threshold.

    Idempotent: survivors keep the max magnitude unchanged, so a second
    pass removes nothing further.
    """
    x = np.asarray(x, dtype=np.float64)
    out = x.copy()
    top = np.max(np.abs(x)) if x.size else 0.0
    if top == 0.0:
        return out
    out[np.abs(x) / top < threshold] = 0.0
    return out


def _solve_penalty(inst, seed_x, q):
    validate_instance(inst, q=q)
    if not 0.0 < inst.p < 1.0:
        raise InvalidParam(f"solver needs p in (0, 1), got {inst.p}")

    t_setup = time.perf_counter()
    if seed_x is not None:
        x_feas = np.array(seed_x, dtype=np.float64)
    else:
        x_feas = least_squares_min_norm(inst.a, inst.b)
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
    trace = []
    total_inner = 0
    stop_reason = "outer_cap"
    etas = (np.inf, np.inf, np.inf)
    prev_lam = None
    prev_pen_feas = None

    for k in range(OUTER_ITER_CAP):
        pen = SmoothedPenalty(inst, q, lam, mu, nu)
        pen_feas = pen.value(r_feas)
        f_feas = phi_feas + pen_feas
        f_curr = phi + pen.value(r)
        x_start, r_start = (x, r) if f_curr <= f_feas else (x_feas, r_feas)

        out = npg_solve(inst, pen, x_start, eps, r0=r_start)
        total_inner += out.iters
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
        if prev_lam is not None:
            if q == 1.0:
                gap = max(lq_norm(r_next, 1.0) - inst.sigma, 0.0)
            else:
                # the q=2 penalty bounds the squared-norm excess
                gap = max(float(r_next @ r_next) - inst.sigma**2, 0.0)
            if not prev_lam * gap <= phi_feas + prev_pen_feas + _ANCHOR_SLACK * (
                1.0 + phi_feas + prev_pen_feas
            ):
                raise InvariantViolation(
                    f"outer iterate {k}: constraint violation stopped decaying"
                    " with the penalty weight"
                )

        etas = progress_measures(
            x_next, x, inst, q=q, r_next=r_next, phi_next=phi_next, phi_prev=phi
        )
        worst = max(etas)
        done = worst < OUTER_TOL or k + 1 >= OUTER_ITER_CAP
        rho = np.nan if done else (RHO_SLOW if worst < ETA_SWITCH else RHO_FAST)
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
                inner_stop=out.stop_reason,
                rho=float(rho),
            )
        )
        x, r, phi = x_next, r_next, phi_next
        if worst < OUTER_TOL:
            stop_reason = "converged"
            break
        if k + 1 >= OUTER_ITER_CAP:
            break
        prev_lam, prev_pen_feas = lam, pen_feas
        theta = 1.0 / rho
        lam *= rho
        mu *= theta
        nu *= theta
        eps = max(theta * eps, EPS_FLOOR)

    wall = time.perf_counter() - t0

    x_ref = refine(x)
    # the report's objective and residual use the refined point; eta1/eta2
    # keep the last outer comparison, eta3 is recomputed if refinement moved x
    moved = not np.array_equal(x_ref, x)
    r_ref = inst.residual(x_ref) if moved else r
    if trace:
        eta1, eta2, eta3 = etas
        if moved:
            eta3 = max(lq_norm(r_ref, q) - inst.sigma, 0.0)
    else:
        eta1 = eta2 = eta3 = np.nan

    return SolveReport(
        x_star=x_ref,
        objective=lp_power_sum(x_ref, inst.p) if moved else phi,
        support=SupportSet.from_vector(x_ref),
        l1_residual=lq_norm(r_ref, 1.0),
        eta1=eta1,
        eta2=eta2,
        eta3=eta3,
        outer_iters=len(trace),
        inner_iters_total=total_inner,
        wall_time=wall,
        setup_time=setup_time,
        stop_reason=stop_reason,
        q=q,
        trace=tuple(trace),
    )


def solve_l1(inst: ProblemInstance, seed_x=None) -> SolveReport:
    """Solve min lp_power_sum(x, p) s.t. ||Ax - b||_1 <= sigma."""
    return _solve_penalty(inst, seed_x, 1.0)


def solve_l2(inst: ProblemInstance, seed_x=None) -> SolveReport:
    """Baseline on the l2 ball: min lp_power_sum(x, p) s.t. ||Ax - b||_2 <= sigma."""
    return _solve_penalty(inst, seed_x, 2.0)
