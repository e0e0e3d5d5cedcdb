import dataclasses
import itertools

import numpy as np
import pytest

import sparselp.npg
import sparselp.solver
from conftest import recorded_trials
from sparselp import (
    GenSpec,
    InfeasibleStart,
    InvalidParam,
    ProblemInstance,
    TrivialInstance,
    all_checks_pass,
    gen_matched_pair,
    optimal_point_checks,
    replace_p,
    solve_l1,
    solve_l2,
)
from sparselp.smoothing import SmoothedPenalty, lp_power_sum
from sparselp.solver import OUTER_TOL, progress_measures


def test_progress_measures_oracle():
    inst = ProblemInstance(
        m=1, n=2, a=np.array([[1.0, 0.0]]), b=np.array([2.0]), sigma=0.5, p=0.5
    )

    def measures(x_next, x_prev):
        return progress_measures(
            x_next, x_prev, inst, 1.0, inst.residual(x_next),
            lp_power_sum(x_next, inst.p), lp_power_sum(x_prev, inst.p),
        )

    x_prev = np.array([1.0, 0.0])
    x_next = np.array([1.0, 1.0])
    eta1, eta2, eta3 = measures(x_next, x_prev)
    assert eta1 == pytest.approx(1.0 / (1.0 + np.sqrt(2.0)), rel=1e-14)
    assert eta2 == pytest.approx(1.0 / 3.0, rel=1e-14)  # |2 - 1| / (1 + 2)
    assert eta3 == pytest.approx(0.5, rel=1e-14)  # |1 - 2| - 0.5 violation
    # inside the ball the violation clamps at zero
    assert measures(np.array([1.8, 0.0]), x_prev)[2] == 0.0


def test_golden_solve_from_asymmetric_seed(golden):
    # the symmetric least-squares start sits on the ridge between the two
    # optimal supports and converges to a two-support saddle; any start
    # leaning toward one support recovers the true minimizer
    rep = solve_l1(golden, seed_x=np.array([3.0, 0.1, 0.0]))
    assert rep.stop_reason == "converged"
    assert len(rep.support) == 1
    assert rep.x_star[0] == pytest.approx(2.5, abs=1e-5)
    assert rep.l1_residual == pytest.approx(1.0, abs=1e-5)
    assert rep.objective == pytest.approx(np.sqrt(2.5), abs=1e-5)


def test_golden_solve_other_support(golden):
    rep = solve_l1(golden, seed_x=np.array([0.1, 3.0, 0.0]))
    assert rep.stop_reason == "converged"
    assert tuple(rep.support) == (1,)
    assert rep.x_star[1] == pytest.approx(2.5, abs=1e-5)


def test_desk_solution_quality(desk_solution):
    inst, x_hat, rep = desk_solution
    assert rep.stop_reason == "converged"
    assert len(rep.support) == 10
    err2 = inst.sigma - rep.l1_residual
    assert 0.0 <= err2 <= 1e-5
    recerr = np.linalg.norm(rep.x_star - x_hat) / np.linalg.norm(x_hat)
    assert recerr < 5e-3
    assert rep.eta1 < OUTER_TOL and rep.eta2 < OUTER_TOL and rep.eta3 < OUTER_TOL
    assert all_checks_pass(optimal_point_checks(inst, rep.x_star, 0.5, tol=1e-8))


def test_trace_is_coherent(desk_solution):
    _, _, rep = desk_solution
    assert len(rep.trace) == rep.outer_iters
    assert sum(r.inner_iters for r in rep.trace) == rep.inner_iters_total
    ks = [r.k for r in rep.trace]
    assert ks == list(range(len(ks)))
    lams = [r.lam for r in rep.trace]
    assert all(b > a for a, b in zip(lams, lams[1:]))  # strictly growing
    mus = [r.mu for r in rep.trace]
    assert all(b < a for a, b in zip(mus, mus[1:]))
    # growth factors multiply out: lam_{k+1} = rho_k * lam_k
    for prev, nxt in zip(rep.trace, rep.trace[1:]):
        assert nxt.lam == pytest.approx(prev.lam * prev.rho, rel=1e-12)
    assert np.isnan(rep.trace[-1].rho)


def test_report_to_dict(desk_solution):
    _, _, rep = desk_solution
    d = rep.to_dict()
    assert d["nnz"] == len(rep.support)
    assert d["stop_reason"] == "converged"
    assert "trace" not in d
    assert len(d["x_star"]) == 500


def test_report_counts_the_walk(desk_solution):
    # the outer loop stops off any vertex; each walk step holds one more
    # residual row at zero or drops a coordinate, and a vertex with k
    # nonzeros holds k - 1 rows
    _, _, rep = desk_solution
    assert rep.walk_steps == len(rep.support) - 1 + rep.walk_drops
    d = rep.to_dict()
    assert (d["walk_steps"], d["walk_drops"]) == (rep.walk_steps, rep.walk_drops)


def test_report_counts_the_trials(desk_solution):
    # every inner iteration makes at least one line-search trial, and the
    # restricted residual is a subset of them; the rounds add up to the total
    _, _, rep = desk_solution
    assert rep.trials_total >= rep.inner_iters_total
    assert 0 < rep.restricted_total <= rep.trials_total
    assert sum(r.inner_trials for r in rep.trace) == rep.trials_total
    assert sum(r.restricted_trials for r in rep.trace) == rep.restricted_total
    assert all(r.inner_iters <= r.inner_trials for r in rep.trace)
    assert all(r.restricted_trials <= r.inner_trials for r in rep.trace)
    d = rep.to_dict()
    assert (d["trials_total"], d["restricted_total"]) == (rep.trials_total, rep.restricted_total)


def test_report_derives_from_trace_and_point(desk_solution):
    # the report stores none of these; each reads its trace sum, the last
    # trace row, or the exact nonzeros of x_star, on either ball
    inst2 = gen_matched_pair(GenSpec(m=20, n=60, s=3, delta=1e-3, seed=0))[1]
    for rep in (desk_solution[2], solve_l2(inst2)):
        stored = {f.name for f in dataclasses.fields(rep)}
        derived = {
            "outer_iters": len(rep.trace),
            "inner_iters_total": sum(r.inner_iters for r in rep.trace),
            "trials_total": sum(r.inner_trials for r in rep.trace),
            "restricted_total": sum(r.restricted_trials for r in rep.trace),
            "eta1": rep.trace[-1].eta1,
            "eta2": rep.trace[-1].eta2,
            "support": tuple(np.flatnonzero(rep.x_star).tolist()),
        }
        d = rep.to_dict()
        for name, value in derived.items():
            assert name not in stored
            assert getattr(rep, name) == value == (tuple(d[name]) if name == "support" else d[name])
            with pytest.raises(AttributeError):
                setattr(rep, name, value)
        assert all(type(i) is int for i in rep.support)
        assert rep.outer_iters >= 1 and rep.inner_iters_total > 0


@pytest.fixture(scope="module")
def desk_trials(desk_instance):
    """The quick-start solve again, with every line-search trial recorded,
    and the recorded trials split into the outer rounds."""
    inst, _, _ = desk_instance
    with recorded_trials() as rows:
        rep = solve_l1(replace_p(inst, 0.5))
    ends = np.cumsum([r.inner_trials for r in rep.trace])
    rounds = [rows[lo:hi] for lo, hi in zip([0, *ends[:-1]], ends)]
    return rep, rows, rounds


def test_trial_counters_never_change_the_solve(desk_solution, desk_trials):
    # the counters only observe: a solve whose trials are recorded from
    # outside returns the same bytes, and counts exactly the recorded trials
    _, _, rep = desk_solution
    again, rows, _ = desk_trials
    assert again.x_star.tobytes() == rep.x_star.tobytes()
    assert again.trials_total == rep.trials_total == len(rows)
    assert again.restricted_total == rep.restricted_total


def test_round_starts_from_half_the_last_step_constant(desk_trials):
    # round 0 starts from 1; every later round from half the step constant
    # the round before it accepted last, which is its last trial
    rep, _, rounds = desk_trials
    assert rounds[0][0][1] == 1.0
    for rec, trials in zip(rep.trace, rounds):
        assert rec.l_bar == trials[-1][1]
    for prev, trials in zip(rep.trace, rounds[1:]):
        assert trials[0][1] == 0.5 * prev.l_bar


def test_carried_step_constant_skips_the_ramp(desk_trials):
    # each round's penalty is steeper than the last; started from the
    # carried step constant, its first line search takes a few doublings,
    # not the dozen or more a start from 1 takes
    _, _, rounds = desk_trials
    for trials in rounds[1:]:
        center = trials[0][0]
        first = list(itertools.takewhile(lambda t: t[0] is center, trials))
        assert len(first) <= 6


def test_report_setup_time(desk_solution):
    # the anchor and its residual are timed apart from the outer loop
    _, _, rep = desk_solution
    assert 0.0 < rep.setup_time < 60.0
    assert rep.to_dict()["setup_time"] == rep.setup_time


def test_trace_records_inner_stop(desk_solution):
    _, _, rep = desk_solution
    assert rep.trace
    assert all(r.inner_stop in ("step_tol", "obj_tol", "iter_cap") for r in rep.trace)


def test_infeasible_seed_rejected(golden):
    with pytest.raises(InfeasibleStart):
        solve_l1(golden, seed_x=np.zeros(3))  # ||b||_1 = 6 > sigma = 1


def test_invalid_p_rejected(golden):
    with pytest.raises(InvalidParam):
        solve_l1(replace_p(golden, 1.0))
    with pytest.raises(InvalidParam):
        solve_l1(replace_p(golden, 0.0))


def test_trivial_instance_rejected():
    inst = ProblemInstance(
        m=1, n=2, a=np.array([[1.0, 1.0]]), b=np.array([0.5]), sigma=1.0, p=0.5
    )
    with pytest.raises(TrivialInstance):
        solve_l1(inst)


def test_bad_seed_still_anchored(golden):
    # a feasible but lousy seed must not beat the anchor guard: the run
    # still ends at the golden objective
    seed = np.array([3.0, 0.5, -0.5])  # residual 0 -> feasible, large power sum
    rep = solve_l1(golden, seed_x=seed)
    assert rep.stop_reason == "converged"
    assert rep.objective <= np.sqrt(2.5) + 1e-4


def test_outer_cap_reported(golden, monkeypatch):
    monkeypatch.setattr(sparselp.solver, "OUTER_ITER_CAP", 3)
    rep = solve_l1(golden, seed_x=np.array([3.0, 0.1, 0.0]))
    assert rep.stop_reason == "outer_cap"
    assert rep.outer_iters == 3


def test_solve_l2_golden(golden):
    # l2 ball with the same radius; optimum for support {0}: x = 3 - 1/sqrt(2)
    rep = solve_l2(golden, seed_x=np.array([3.0, 0.1, 0.0]))
    assert rep.stop_reason == "converged"
    r = golden.residual(rep.x_star)
    assert np.linalg.norm(r) == pytest.approx(1.0, abs=1e-5)
    assert len(rep.support) == 1
    assert rep.x_star[0] == pytest.approx(3.0 - 1.0 / np.sqrt(2.0), abs=1e-4)


def test_l2_penalty_gradient(rng):
    inst = ProblemInstance(
        m=3,
        n=4,
        a=rng.standard_normal((3, 4)),
        b=rng.standard_normal(3) + 1.5,
        sigma=0.4,
        p=0.5,
    )
    pen = SmoothedPenalty(inst, 2.0, lam=2.0, mu=0.3, nu=0.3)
    h = 1e-6
    for _ in range(40):
        x = rng.standard_normal(4)
        val, grad = pen.value_and_grad(inst.residual(x))
        assert val == pytest.approx(pen.value(inst.residual(x)), rel=1e-14)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd = (pen.value(inst.residual(x + e)) - pen.value(inst.residual(x - e))) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=2e-5, abs=1e-6)


def test_seed_matches_default_anchor(desk_instance):
    # passing the least-squares anchor explicitly reproduces the default run
    from sparselp.linalg import least_squares_min_norm

    inst, _, _ = desk_instance
    inst = replace_p(inst, 0.5)
    seed = least_squares_min_norm(inst.a, inst.b)
    rep_a = solve_l1(inst)
    rep_b = solve_l1(inst, seed_x=seed)
    np.testing.assert_array_equal(rep_a.x_star, rep_b.x_star)
    assert rep_a.outer_iters == rep_b.outer_iters


def test_one_residual_product_per_trial(monkeypatch):
    # the penalty reads x only through A x - b: each line-search trial makes
    # one prox call and forms its residual once, inline, and the report
    # counts exactly those trials; ProblemInstance.residual serves only the
    # anchor, the finish and its checks, a fixed few per solve and none per
    # outer round
    inst1, inst2, _, _ = gen_matched_pair(GenSpec(m=100, n=500, s=10, delta=1e-3, seed=0))
    calls = {"residual": 0, "prox": 0}
    residual, prox_vector = ProblemInstance.residual, sparselp.npg.prox_vector

    def counted_residual(self, x):
        calls["residual"] += 1
        return residual(self, x)

    def counted_prox(*args):
        calls["prox"] += 1
        return prox_vector(*args)

    monkeypatch.setattr(ProblemInstance, "residual", counted_residual)
    monkeypatch.setattr(sparselp.npg, "prox_vector", counted_prox)
    for solve, inst in ((solve_l1, inst1), (solve_l2, inst2)):
        calls.update(residual=0, prox=0)
        rep = solve(replace_p(inst, 0.5))
        assert rep.stop_reason == "converged"
        assert rep.trials_total == calls["prox"]
        assert calls["residual"] <= 6
