"""Diagnostics for candidate optimal points.

Any local analysis of the constrained problem pins down three measurable
properties of an optimal point x* with support J:

  1. boundary: the residual norm equals sigma (for exponents in (0,1]);
     for the support-counting objective only a scaled point alpha*x* needs
     to sit on the boundary;
  2. support rank: the number of nonzeros equals rank(A_J);
  3. an infinity-norm sandwich from the Gram extremes of A_J,
        (||b||_q - sigma) * m^{min(1/2-1/q, 0)} / sqrt(|J| lambda_max)
          <= ||x*||_inf <=
        (sigma * m^{max(1/2-1/q, 0)} + ||b||_2) / sqrt(lambda_min).

This module computes those quantities for any point and packages them as a
report plus a pass/fail check list.  err1 is the distance by which the
infinity norm escapes the sandwich (0 when inside); err2 is the signed
boundary gap sigma - ||Ax-b||_q.

certify judges a point once: it builds the report first, also for an
infeasible point, and every check reads it, feasibility included, so the
residual is formed once.  Its feasible check is the one feasibility
verdict, the report only measures.  All checks use one tolerance and one
rule, excess <= tol.  rank_aj and lambda_min (0 whenever rank_aj <
nnz) follow linalg.singular_value_rank, the one rank rule.  At p = 0 a
point on the boundary, or outside it within tol, needs no scaling, and a
point inside is scaled by alpha, the entry of the segment from 0 to x into
the ball (linalg.ball_entry), so alpha x is inside in floating point.
x = 0 has no report (kkt_property_report raises EmptySupport, returned in
its place), an x of the wrong shape raises DimensionMismatch, and an
instance with ||b||_q <= sigma is refused whatever the point.
optimal_point_checks is certify without the report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ProblemInstance, validate_instance
from .errors import DimensionMismatch, EmptySupport
from .linalg import ball_entry, gram_extremes, lq_norm, numerical_rank

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class KktPropertyReport:
    nnz: int
    rank_aj: int
    err1: float
    err2: float
    inf_norm: float
    lower_bound: float
    upper_bound: float
    lambda_min: float
    lambda_max: float
    # raw signed slacks; err1 clips these at zero
    lower_slack: float
    upper_slack: float


def kkt_property_report(inst: ProblemInstance, x, q: float = 1.0) -> KktPropertyReport:
    """Measure the optimal-point properties of x; pure, no side effects.

    x is expected to be refined (exact zeros off support).  Raises
    DimensionMismatch unless x has shape (n,), and EmptySupport for x = 0,
    which the blanket assumption ||b||_q > sigma excludes for genuine optima.
    """
    validate_instance(inst, q)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (inst.n,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({inst.n},)")
    support = np.flatnonzero(x)
    if support.size == 0:
        raise EmptySupport("x = 0 has no support; not optimal when ||b||_q > sigma")
    a_j = inst.a[:, support]
    rank_aj = numerical_rank(a_j)
    ge = gram_extremes(a_j)
    m = inst.m
    nnz = int(support.size)
    b_q = lq_norm(inst.b, q)
    b_2 = lq_norm(inst.b, 2.0)
    low_factor = m ** min(0.5 - 1.0 / q, 0.0)
    up_factor = m ** max(0.5 - 1.0 / q, 0.0)
    lower = (b_q - inst.sigma) * low_factor / np.sqrt(nnz * ge.lambda_max)
    if ge.lambda_min > 0.0:
        upper = (inst.sigma * up_factor + b_2) / np.sqrt(ge.lambda_min)
    else:
        upper = np.inf  # rank-deficient support: the sandwich gives no ceiling
    inf_norm = lq_norm(x, np.inf)
    lower_slack = inf_norm - lower
    upper_slack = upper - inf_norm
    err1 = max(inf_norm - upper, lower - inf_norm, 0.0)
    err2 = inst.sigma - lq_norm(inst.residual(x), q)
    return KktPropertyReport(
        nnz=nnz,
        rank_aj=rank_aj,
        err1=float(err1),
        err2=float(err2),
        inf_norm=float(inf_norm),
        lower_bound=float(lower),
        upper_bound=float(upper),
        lambda_min=float(ge.lambda_min),
        lambda_max=float(ge.lambda_max),
        lower_slack=float(lower_slack),
        upper_slack=float(upper_slack),
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    slack: float
    detail: str


def optimal_point_checks(
    inst: ProblemInstance,
    x,
    p: float,
    q: float = 1.0,
    tol: float = DEFAULT_TOL,
) -> list[CheckResult]:
    """Pass/fail list of the three optimal-point properties at x.

    Feasibility is checked first and short-circuits everything else; an
    infeasible candidate cannot be optimal and the remaining checks would
    only mislead.  p = 0 swaps the boundary check for the scaled-boundary
    one (alpha in (0,1] with ||A(alpha x)-b||_q = sigma).
    """
    return certify(inst, x, p, q, tol)[0]


def certify(inst: ProblemInstance, x, p: float, q: float = 1.0, tol: float = DEFAULT_TOL):
    """(optimal_point_checks, the property report they read) at x.

    The report is built first, once, also for an infeasible point, and
    every check reads it; for x = 0 the EmptySupport raised in its place
    is returned instead, and fails the checks that need a report.  Raises
    TrivialInstance when ||b||_q <= sigma, whatever x, and DimensionMismatch
    unless x has shape (n,).
    """
    x = np.asarray(x, dtype=np.float64)
    try:
        report = kkt_property_report(inst, x, q=q)
        excess = 0.0 - report.err2  # ||Ax-b||_q - sigma; 0.0 - keeps a zero positive
    except EmptySupport as exc:
        report = exc
        excess = lq_norm(inst.b, q) - inst.sigma  # x = 0: the residual is -b
    eta3 = max(excess, 0.0)
    feasible = eta3 <= tol  # False also for a NaN residual
    checks = [
        CheckResult(
            name="feasible",
            passed=feasible,
            slack=float(tol - eta3),
            detail=f"||Ax-b||_{q:g} - sigma = {excess:.3e}",
        )
    ]
    if not feasible:
        return checks, report
    if isinstance(report, EmptySupport):
        boundary = "boundary_scaling" if p == 0.0 else "boundary"
        for name in (boundary, "support_rank"):
            checks.append(CheckResult(name=name, passed=False, slack=-np.inf, detail=str(report)))
        return checks, report

    if p == 0.0:
        # a point on the boundary, or outside it within tol, needs no scaling
        if excess >= 0.0:
            alpha, gap = 1.0, excess
        else:
            # x is inside, so an entry past it, or a miss at roundoff level, is 1
            t = ball_entry(inst.a, inst.b, np.zeros_like(x), x, inst.sigma, q)
            alpha = 1.0 if t is None else min(t, 1.0)
            gap = lq_norm(inst.residual(alpha * x), q) - inst.sigma
        checks.append(
            CheckResult(
                name="boundary_scaling",
                passed=abs(gap) <= tol,
                slack=float(tol - abs(gap)),
                detail=f"alpha = {alpha:.12g}, boundary gap {gap:.3e}",
            )
        )
    else:
        checks.append(
            CheckResult(
                name="boundary",
                passed=abs(report.err2) <= tol,
                slack=float(tol - abs(report.err2)),
                detail=f"err2 = {report.err2:.3e}",
            )
        )
    checks.append(
        CheckResult(
            name="support_rank",
            passed=report.nnz == report.rank_aj,
            slack=float(report.rank_aj - report.nnz),
            detail=f"nnz = {report.nnz}, rank(A_J) = {report.rank_aj}",
        )
    )
    sandwich_slack = min(report.lower_slack, report.upper_slack)
    checks.append(
        CheckResult(
            name="inf_norm_sandwich",
            passed=sandwich_slack >= -tol,
            slack=float(sandwich_slack),
            detail=(
                f"{report.lower_bound:.9g} <= ||x||_inf = {report.inf_norm:.9g}"
                f" <= {report.upper_bound:.9g}"
            ),
        )
    )
    return checks, report


def all_checks_pass(checks) -> bool:
    return all(c.passed for c in checks)
