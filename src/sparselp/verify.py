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
verdict, the report only measures.  Every check judges one error figure
by one rule: passed when err <= tol (a NaN fails), slack = tol - err.
feasible judges the excess max(||Ax-b||_q - sigma, 0), boundary |err2|,
inf_norm_sandwich err1, and support_rank nnz - rank_aj at tolerance 0,
because a rank is an exact count.  rank_aj and lambda_min (0 whenever
rank_aj < nnz) follow linalg.singular_value_rank, the one rank rule.  At
p = 0 boundary_scaling judges the gap of a scaled point: a point on the
boundary, or outside it within tol, needs no scaling, and a point inside
is scaled by alpha, the entry of the segment from 0 to x into the ball
(linalg.ball_entry), so alpha x is inside in floating point.
x = 0 has no report (kkt_property_report raises EmptySupport, returned in
its place), so the checks that read one judge err = inf.  An exponent
outside {0} and (0, 1] raises InvalidParam, an x of the wrong shape
DimensionMismatch, and an instance with ||b||_q <= sigma is refused
whatever the point.  optimal_point_checks is certify without the report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ProblemInstance, validate_instance
from .errors import DimensionMismatch, EmptySupport, InvalidParam
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
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    slack: float
    detail: str


def _judged(name: str, err: float, tol: float, detail: str) -> CheckResult:
    """The one rule: err passes at tol when err <= tol (a NaN fails)."""
    return CheckResult(name=name, passed=bool(err <= tol), slack=float(tol - err), detail=detail)


def optimal_point_checks(
    inst: ProblemInstance,
    x,
    p: float,
    q: float = 1.0,
    tol: float = DEFAULT_TOL,
) -> list[CheckResult]:
    """Pass/fail list of feasibility and the three optimal-point properties at x.

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
    InvalidParam unless p is 0 or in (0, 1], TrivialInstance when
    ||b||_q <= sigma, whatever x, and DimensionMismatch unless x has
    shape (n,).
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidParam(f"p must be 0 or in (0, 1], got {p}")
    x = np.asarray(x, dtype=np.float64)
    try:
        report = kkt_property_report(inst, x, q=q)
        excess = 0.0 - report.err2  # ||Ax-b||_q - sigma; 0.0 - keeps a zero positive
    except EmptySupport as exc:
        report = exc
        excess = lq_norm(inst.b, q) - inst.sigma  # x = 0: the residual is -b
    checks = [
        _judged("feasible", max(excess, 0.0), tol, f"||Ax-b||_{q:g} - sigma = {excess:.3e}")
    ]
    if not checks[0].passed:
        return checks, report
    boundary = "boundary_scaling" if p == 0.0 else "boundary"
    if isinstance(report, EmptySupport):
        checks += [_judged(boundary, np.inf, tol, str(report)),
                   _judged("support_rank", np.inf, 0.0, str(report))]
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
        detail = f"alpha = {alpha:.12g}, boundary gap {gap:.3e}"
    else:
        gap, detail = report.err2, f"err2 = {report.err2:.3e}"
    checks += [
        _judged(boundary, abs(gap), tol, detail),
        _judged("support_rank", report.nnz - report.rank_aj, 0.0,
                f"nnz = {report.nnz}, rank(A_J) = {report.rank_aj}"),
        _judged("inf_norm_sandwich", report.err1, tol,
                f"{report.lower_bound:.9g} <= ||x||_inf = {report.inf_norm:.9g}"
                f" <= {report.upper_bound:.9g}"),
    ]
    return checks, report


def all_checks_pass(checks) -> bool:
    return all(c.passed for c in checks)
