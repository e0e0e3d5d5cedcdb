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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ProblemInstance, support_indices, validate_instance
from .errors import EmptySupport, NotFeasible
from .linalg import gram_extremes, lq_norm, numerical_rank
from .oracle import boundary_scaling_alpha

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
    feasible: bool
    # raw signed slacks; err1 clips these at zero
    lower_slack: float
    upper_slack: float

    def to_dict(self) -> dict:
        out = {}
        for key, val in self.__dict__.items():
            out[key] = val if isinstance(val, (int, bool)) else float(val)
        return out


def kkt_property_report(
    inst: ProblemInstance,
    x,
    q: float = 1.0,
    feas_tol: float = DEFAULT_TOL,
) -> KktPropertyReport:
    """Measure the optimal-point properties of x; pure, no side effects.

    x is expected to be refined (exact zeros off support).  Raises
    EmptySupport for x = 0, which the blanket assumption ||b||_q > sigma
    excludes for genuine optima.
    """
    validate_instance(inst, q)
    x = np.asarray(x, dtype=np.float64)
    support = support_indices(x)
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
    resid_q = lq_norm(inst.residual(x), q)
    err2 = inst.sigma - resid_q
    feasible = max(resid_q - inst.sigma, 0.0) < feas_tol
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
        feasible=bool(feasible),
        lower_slack=float(lower_slack),
        upper_slack=float(upper_slack),
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    slack: float
    detail: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "slack": float(self.slack),
            "detail": self.detail,
        }


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
    return _checks_and_report(inst, x, p, q, tol)[0]


def _checks_and_report(inst: ProblemInstance, x, p: float, q: float, tol: float):
    """optimal_point_checks and the property report they read.

    The report is None when the checks stop at feasibility, which builds
    none; for x = 0 the EmptySupport raised in its place stands in for it.
    """
    x = np.asarray(x, dtype=np.float64)
    checks: list[CheckResult] = []
    resid_q = lq_norm(inst.residual(x), q)
    eta3 = max(resid_q - inst.sigma, 0.0)
    feas_ok = eta3 <= tol
    checks.append(
        CheckResult(
            name="feasible",
            passed=feas_ok,
            slack=float(tol - eta3),
            detail=f"||Ax-b||_{q:g} - sigma = {resid_q - inst.sigma:.3e}",
        )
    )
    if not feas_ok:
        return checks, None

    # one report serves the boundary, support-rank and sandwich checks; x = 0
    # has none, which fails the checks that need it instead of raising
    try:
        report = kkt_property_report(inst, x, q=q, feas_tol=tol)
    except EmptySupport as exc:
        report = exc
    no_support = isinstance(report, EmptySupport)

    if p == 0.0:
        try:
            alpha = boundary_scaling_alpha(inst, x, q)
            gap = lq_norm(inst.residual(alpha * x), q) - inst.sigma
            checks.append(
                CheckResult(
                    name="boundary_scaling",
                    passed=abs(gap) <= tol,
                    slack=float(tol - abs(gap)),
                    detail=f"alpha = {alpha:.12g}, boundary gap {gap:.3e}",
                )
            )
        except NotFeasible as exc:
            checks.append(
                CheckResult(name="boundary_scaling", passed=False, slack=-np.inf, detail=str(exc))
            )
    elif no_support:
        checks.append(CheckResult(name="boundary", passed=False, slack=-np.inf, detail=str(report)))
    else:
        checks.append(
            CheckResult(
                name="boundary",
                passed=abs(report.err2) <= tol,
                slack=float(tol - abs(report.err2)),
                detail=f"err2 = {report.err2:.3e}",
            )
        )

    if no_support:
        checks.append(
            CheckResult(name="support_rank", passed=False, slack=-np.inf, detail=str(report))
        )
        return checks, report
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
