from dataclasses import replace

import numpy as np
import pytest

from sparselp import (
    DimensionMismatch,
    EmptySupport,
    TrivialInstance,
    all_checks_pass,
    kkt_property_report,
    optimal_point_checks,
)
from sparselp.linalg import ball_entry, lq_norm
from sparselp.verify import DEFAULT_TOL, certify


def feasible_verdict(inst, x, tol=DEFAULT_TOL):
    # the one feasibility verdict: certify's feasible check, not the report
    check = certify(inst, np.asarray(x), 0.5, tol=tol)[0][0]
    assert check.name == "feasible"
    return check.passed


def test_report_golden_minimizer(golden):
    rep = kkt_property_report(golden, np.array([2.5, 0.0, 0.0]))
    assert rep.nnz == 1 and rep.rank_aj == 1
    assert feasible_verdict(golden, [2.5, 0.0, 0.0])
    assert rep.err2 == 0.0
    assert rep.err1 == pytest.approx(0.0, abs=1e-12)
    # support column (1,1): Gram extremes are both 2; recompute the sandwich
    assert rep.lambda_min == pytest.approx(2.0, abs=1e-12)
    assert rep.lambda_max == pytest.approx(2.0, abs=1e-12)
    lower = (6.0 - 1.0) * 2.0 ** (-0.5) / np.sqrt(2.0)
    upper = (1.0 + 3.0 * np.sqrt(2.0)) / np.sqrt(2.0)
    assert rep.lower_bound == pytest.approx(lower, abs=1e-12)
    assert rep.upper_bound == pytest.approx(upper, abs=1e-12)
    assert rep.inf_norm == 2.5
    assert rep.err1 == max(rep.lower_bound - 2.5, 2.5 - rep.upper_bound, 0.0)


def test_report_l2_norm_factors(golden):
    x = 3.0 - 1.0 / np.sqrt(2.0)
    rep = kkt_property_report(golden, np.array([x, 0.0, 0.0]), q=2.0)
    # q = 2 kills both m-power factors
    assert rep.err2 == pytest.approx(0.0, abs=1e-14)
    assert rep.lower_bound == pytest.approx((3.0 * np.sqrt(2.0) - 1.0) / np.sqrt(2.0), abs=1e-12)
    assert rep.upper_bound == pytest.approx(1.0 / np.sqrt(2.0) + 3.0, abs=1e-12)
    assert rep.err1 == pytest.approx(0.0, abs=1e-12)


def test_report_rank_deficient_support(golden):
    # three nonzeros against two rows: Gram floor is 0, no finite ceiling
    rep = kkt_property_report(golden, np.array([2.0, 0.3, 0.2]))
    assert rep.nnz == 3 and rep.rank_aj == 2
    assert rep.upper_bound == np.inf
    assert not feasible_verdict(golden, [2.0, 0.3, 0.2])


def test_report_rejects_zero(golden):
    with pytest.raises(EmptySupport):
        kkt_property_report(golden, np.zeros(3))


def test_checks_pass_on_golden_minimizer(golden):
    checks = optimal_point_checks(golden, np.array([2.5, 0.0, 0.0]), p=0.5)
    assert [c.name for c in checks] == [
        "feasible", "boundary", "support_rank", "inf_norm_sandwich",
    ]
    assert all_checks_pass(checks)


def test_checks_interior_point_fails_boundary(golden):
    checks = optimal_point_checks(golden, np.array([3.0, 0.0, 0.0]), p=0.5)
    assert not all_checks_pass(checks)
    by_name = {c.name: c for c in checks}
    assert by_name["feasible"].passed
    assert not by_name["boundary"].passed
    assert by_name["boundary"].slack == pytest.approx(-1.0, abs=1e-7)
    assert by_name["support_rank"].passed


def test_checks_infeasible_short_circuits(golden):
    checks, report = certify(golden, np.array([9.0, 0.0, 0.0]), p=0.5)
    assert len(checks) == 1
    assert checks[0].name == "feasible" and not checks[0].passed
    assert not all_checks_pass(checks)
    # the point still gets its report
    assert report == kkt_property_report(golden, np.array([9.0, 0.0, 0.0]))
    assert report.err2 == -11.0


def test_checks_support_counting_mode(golden):
    # p = 0: interior points are fine as long as some scaling hits the boundary
    checks = optimal_point_checks(golden, np.array([3.0, 0.0, 0.0]), p=0.0)
    assert [c.name for c in checks] == [
        "feasible", "boundary_scaling", "support_rank", "inf_norm_sandwich",
    ]
    assert all_checks_pass(checks)
    assert "alpha = 0.83333" in checks[1].detail


def test_support_counting_mode_judges_at_tol(golden):
    # alpha x is the exact entry into the ball, so the scaled boundary holds
    # far below the default tolerance, and is judged at the one passed
    for x in ([3.0, 0.0, 0.0], [0.0, 3.2, 0.0], [2.8, 0.0, 0.1]):
        scaling = optimal_point_checks(golden, np.array(x), p=0.0, tol=1e-12)[1]
        assert scaling.name == "boundary_scaling" and scaling.passed, scaling.detail
        assert 0.0 <= scaling.slack <= 1e-12


def test_checks_build_one_report(golden, verify_calls):
    # feasible, infeasible, and x = 0 under a tolerance that makes it
    # feasible: one report each (for x = 0 the EmptySupport raised in its
    # place) and one residual product, none for x = 0, whose residual is -b
    for x, tol, all_pass, residuals in (
        ([2.5, 0.0, 0.0], 1e-8, True, 1),
        ([9.0, 0.0, 0.0], 1e-8, False, 1),
        ([0.0, 0.0, 0.0], 10.0, False, 0),
    ):
        verify_calls.update(reports=0, residuals=0)
        checks, report = certify(golden, np.array(x), 0.5, tol=tol)
        assert all_checks_pass(checks) is all_pass
        assert isinstance(report, EmptySupport) == (not any(x))
        assert verify_calls == {"reports": 1, "residuals": residuals}
        assert optimal_point_checks(golden, np.array(x), 0.5, tol=tol) == checks
        assert verify_calls == {"reports": 2, "residuals": 2 * residuals}


def test_report_and_checks_share_the_feasibility_rule(golden):
    # a point outside the ball by exactly tol is feasible: the check judges
    # the excess the report measured, and the report holds no verdict
    x = np.array([2.4, 0.0, 0.0])
    tol = lq_norm(golden.residual(x), 1.0) - golden.sigma
    checks, report = certify(golden, x, 0.5, tol=tol)
    assert checks[0].passed and checks[0].slack == 0.0
    assert -report.err2 == tol and not hasattr(report, "feasible")


def test_support_counting_mode_accepts_points_outside_within_tol(golden):
    # 5e-9 outside the ball: feasible at the default 1e-8, so the boundary
    # holds without scaling at p = 0 as it does at p = 0.5
    x = np.array([2.5 - 2.5e-9, 0.0, 0.0])
    for p in (0.5, 0.0):
        checks = optimal_point_checks(golden, x, p)
        assert all_checks_pass(checks), [c.detail for c in checks]
    assert checks[1].detail == "alpha = 1, boundary gap 5.000e-09"


def test_checks_zero_point_fails_instead_of_raising(golden):
    # a tolerance loose enough that x = 0 counts as feasible (||b||_1 - sigma = 5)
    for p, boundary in ((0.5, "boundary"), (0.0, "boundary_scaling")):
        checks = optimal_point_checks(golden, np.zeros(3), p=p, tol=10.0)
        assert [c.name for c in checks] == ["feasible", boundary, "support_rank"]
        assert checks[0].passed
        assert not checks[1].passed and not checks[2].passed
        assert "no support" in checks[1].detail
        assert not all_checks_pass(checks)


def test_support_counting_mode_scales_by_the_ball_entry(golden):
    # alpha is where the segment from 0 to x enters the ball: for (3, 0, 0),
    # ||A (alpha x) - b||_1 = 6 (1 - alpha) meets sigma = 1 at alpha = 5/6
    # (to 1e-15 in test_linalg); a point on the boundary keeps alpha = 1
    # exactly, and a point outside fails feasibility and nothing else
    checks = optimal_point_checks(golden, np.array([3.0, 0.0, 0.0]), p=0.0)
    assert checks[1].detail.startswith(f"alpha = {5.0 / 6.0:.12g}, ")
    checks = optimal_point_checks(golden, np.array([2.5, 0.0, 0.0]), p=0.0)
    assert checks[1].detail == "alpha = 1, boundary gap 0.000e+00"
    assert all_checks_pass(checks)
    checks = optimal_point_checks(golden, np.array([9.0, 0.0, 0.0]), p=0.0)
    assert [c.name for c in checks] == ["feasible"] and not checks[0].passed


def test_support_counting_mode_rejects_trivial_instances(golden):
    # with ||b||_q <= sigma the origin is feasible and no alpha in (0, 1]
    # puts the scaled point on the boundary
    x = np.array([3.0, 0.0, 0.0])
    on_l1 = replace(golden, sigma=6.0)  # ||b||_1 = 6
    on_l2 = replace(golden, sigma=5.0)  # ||b||_2 = 4.24, ||b||_1 = 6
    for inst, q in ((on_l1, 1.0), (on_l1, 2.0), (on_l2, 2.0)):
        with pytest.raises(TrivialInstance):
            certify(inst, x, 0.0, q)
    # 6 (1 - alpha) = 5 (to 1e-15 in test_linalg)
    scaling = optimal_point_checks(on_l2, x, 0.0, 1.0)[1]
    assert scaling.detail.startswith(f"alpha = {1.0 / 6.0:.12g}, ")


def test_point_of_wrong_shape_is_refused(golden):
    # an x that is not an n-vector gets no report and no checks
    for x in (np.ones(2), np.ones(4), np.ones((1, 3)), np.ones((3, 1)), np.zeros(4)):
        with pytest.raises(DimensionMismatch):
            kkt_property_report(golden, x)
        for p in (0.5, 0.0):
            with pytest.raises(DimensionMismatch):
                certify(golden, x, p)
            with pytest.raises(DimensionMismatch):
                optimal_point_checks(golden, x, p)


def test_every_check_judges_one_figure_by_one_rule(golden):
    # each check passes when its figure is <= tol and its slack is tol minus
    # that figure; support_rank is judged at tolerance 0, whatever tol
    battery = (
        ([2.5, 0.0, 0.0], 0.5, DEFAULT_TOL),  # the golden minimizer
        ([3.0, 0.0, 0.0], 0.5, DEFAULT_TOL),  # interior
        ([9.0, 0.0, 0.0], 0.5, DEFAULT_TOL),  # infeasible
        ([0.0, 0.0, 0.0], 0.5, 10.0),  # x = 0, feasible at this tol
        ([2.2, 0.3, 0.2], 0.5, 5.0),  # on the boundary, nnz 3 > rank(A_J) 2
        ([3.0, 0.0, 0.0], 0.0, DEFAULT_TOL),  # scaled by alpha = 5/6 at p = 0
    )
    for x, p, tol in battery:
        x = np.array(x)
        checks, report = certify(golden, x, p, tol=tol)
        excess = lq_norm(golden.residual(x), 1.0) - golden.sigma
        if isinstance(report, EmptySupport):
            figures = {"boundary": np.inf, "support_rank": np.inf}
        else:
            t = ball_entry(golden.a, golden.b, np.zeros(3), x, golden.sigma, 1.0)
            alpha = 1.0 if excess >= 0.0 or t is None else min(t, 1.0)
            figures = {
                "boundary": abs(report.err2),
                "boundary_scaling": abs(lq_norm(golden.residual(alpha * x), 1.0) - golden.sigma),
                "support_rank": report.nnz - report.rank_aj,
                "inf_norm_sandwich": report.err1,
            }
        figures["feasible"] = max(excess, 0.0)
        for check in checks:
            judged_at = 0.0 if check.name == "support_rank" else tol
            assert check.slack == judged_at - figures[check.name], (x, check)
            assert check.passed == (check.slack >= 0.0), (x, check)
    rank = optimal_point_checks(golden, np.array([2.2, 0.3, 0.2]), 0.5, tol=5.0)[2]
    assert rank.name == "support_rank" and not rank.passed and rank.slack == -1.0
