import numpy as np
import pytest

import sparselp.verify
from sparselp import (
    EmptySupport,
    all_checks_pass,
    kkt_property_report,
    optimal_point_checks,
)


def test_report_golden_minimizer(golden):
    rep = kkt_property_report(golden, np.array([2.5, 0.0, 0.0]))
    assert rep.nnz == 1 and rep.rank_aj == 1
    assert rep.feasible
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
    assert rep.lower_slack == pytest.approx(2.5 - lower, abs=1e-12)
    assert rep.upper_slack == pytest.approx(upper - 2.5, abs=1e-12)


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
    assert not rep.feasible


def test_report_rejects_zero(golden):
    with pytest.raises(EmptySupport):
        kkt_property_report(golden, np.zeros(3))


def test_report_to_dict(golden):
    d = kkt_property_report(golden, np.array([2.5, 0.0, 0.0])).to_dict()
    assert d["nnz"] == 1
    assert isinstance(d["feasible"], bool)
    assert isinstance(d["err2"], float)
    assert set(d) == {
        "nnz", "rank_aj", "err1", "err2", "inf_norm", "lower_bound",
        "upper_bound", "lambda_min", "lambda_max", "feasible",
        "lower_slack", "upper_slack",
    }


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
    checks = optimal_point_checks(golden, np.array([9.0, 0.0, 0.0]), p=0.5)
    assert len(checks) == 1
    assert checks[0].name == "feasible" and not checks[0].passed
    assert not all_checks_pass(checks)


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


def test_check_result_to_dict(golden):
    d = optimal_point_checks(golden, np.array([2.5, 0.0, 0.0]), p=0.5)[0].to_dict()
    assert d["name"] == "feasible"
    assert d["passed"] is True
    assert isinstance(d["slack"], float)
    assert "sigma" in d["detail"]


def test_checks_build_one_report(golden, monkeypatch):
    calls = []
    real = sparselp.verify.kkt_property_report

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sparselp.verify, "kkt_property_report", counting)
    checks = optimal_point_checks(golden, np.array([2.5, 0.0, 0.0]), p=0.5)
    assert all_checks_pass(checks)
    assert len(calls) == 1


def test_checks_zero_point_fails_instead_of_raising(golden):
    # a tolerance loose enough that x = 0 counts as feasible (||b||_1 - sigma = 5)
    checks = optimal_point_checks(golden, np.zeros(3), p=0.5, tol=10.0)
    assert [c.name for c in checks] == ["feasible", "boundary", "support_rank"]
    assert checks[0].passed
    assert not checks[1].passed and not checks[2].passed
    assert not all_checks_pass(checks)
