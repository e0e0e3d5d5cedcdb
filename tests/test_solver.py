import dataclasses
import itertools

import numpy as np
import pytest

import sparselp.core
import sparselp.npg
import sparselp.solver
from conftest import penalty_value_and_grad, recorded_trials
from sparselp import (
    DimensionMismatch,
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
        a=np.array([[1.0, 0.0]]), b=np.array([2.0]), sigma=0.5, p=0.5
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
    # iterations that took the full A^T product are a subset of them, at
    # least the first of each round; the rounds add up to the total
    _, _, rep = desk_solution
    assert rep.trials_total >= rep.inner_iters_total
    assert rep.outer_iters <= rep.full_products_total < rep.inner_iters_total
    assert sum(r.inner_trials for r in rep.trace) == rep.trials_total
    assert sum(r.full_products for r in rep.trace) == rep.full_products_total
    assert all(r.inner_iters <= r.inner_trials for r in rep.trace)
    assert all(1 <= r.full_products <= r.inner_iters for r in rep.trace)
    d = rep.to_dict()
    assert (d["trials_total"], d["full_products_total"]) == (
        rep.trials_total,
        rep.full_products_total,
    )


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
            "full_products_total": sum(r.full_products for r in rep.trace),
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
    assert again.full_products_total == rep.full_products_total


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


def test_seed_of_wrong_shape_rejected(golden):
    # a seed that is not an n-vector is refused before any product with A
    for seed in (np.ones(2), np.ones(4), np.ones((1, 3)), np.ones((3, 1))):
        for solve in (solve_l1, solve_l2):
            with pytest.raises(DimensionMismatch):
                solve(golden, seed_x=seed)


def test_invalid_p_rejected(golden):
    with pytest.raises(InvalidParam):
        solve_l1(replace_p(golden, 1.0))
    with pytest.raises(InvalidParam):
        solve_l1(replace_p(golden, 0.0))


def test_trivial_instance_rejected():
    inst = ProblemInstance(
        a=np.array([[1.0, 1.0]]), b=np.array([0.5]), sigma=1.0, p=0.5
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


def test_uncertified_point_is_reported(golden, failing_certificate):
    # a run that meets the outer tolerance on a point that fails a check
    # does not report "converged"
    rep = solve_l1(golden)
    assert rep.stop_reason == "stationary_uncertified"
    assert rep.objective == pytest.approx(np.sqrt(2.5), abs=1e-6)  # the point is kept


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
        a=rng.standard_normal((3, 4)),
        b=rng.standard_normal(3) + 1.5,
        sigma=0.4,
        p=0.5,
    )
    pen = SmoothedPenalty(inst, 2.0, lam=2.0, mu=0.3, nu=0.3)
    h = 1e-6
    for _ in range(40):
        x = rng.standard_normal(4)
        val, grad = penalty_value_and_grad(pen, inst.residual(x))
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


def test_one_anchor_per_matched_pair(monkeypatch):
    # the three solves of one draw (l1 at two exponents, l2) compute the
    # least-squares anchor on the full A once; the finish's calls take A_J
    inst1, inst2, _, _ = gen_matched_pair(GenSpec(m=20, n=60, s=3, delta=1e-3, seed=0))
    full = []

    def counted(module):
        lstsq = module.least_squares_min_norm

        def wrapper(a, b):
            full.append(np.shape(a) == (inst1.m, inst1.n))
            return lstsq(a, b)

        monkeypatch.setattr(module, "least_squares_min_norm", wrapper)

    counted(sparselp.core)
    counted(sparselp.solver)
    reports = [solve_l1(replace_p(inst1, 0.5)), solve_l1(replace_p(inst1, 0.1)),
               solve_l2(replace_p(inst2, 0.5))]
    assert sum(full) == 1
    assert all(rep.stop_reason == "converged" for rep in reports)


def test_shared_record_solves_like_a_fresh_instance():
    # a solve that reuses a cached anchor repeats the solve of an instance
    # built from copies of the same data, bit for bit
    inst1, inst2, _, _ = gen_matched_pair(GenSpec(m=20, n=60, s=3, delta=1e-3, seed=0))
    shared = [(solve_l1, replace_p(inst1, 0.5)), (solve_l1, replace_p(inst1, 0.1)),
              (solve_l2, replace_p(inst2, 0.5))]
    for solve, inst in shared + shared:
        fresh = ProblemInstance(np.array(inst.a), np.array(inst.b), inst.sigma, inst.p)
        rep, ref = solve(inst), solve(fresh)
        assert rep.x_star.tobytes() == ref.x_star.tobytes()
        # repr tells apart every two floats and matches nan with nan
        assert repr(rep.trace) == repr(ref.trace)
        assert (rep.walk_steps, rep.walk_drops, rep.stop_reason) == (
            ref.walk_steps, ref.walk_drops, ref.stop_reason)


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


def _permuted_solves(noise, seed, p, q, perm_seed):
    # one desk draw and its column-permuted copy, both solved on the q ball
    pair = gen_matched_pair(GenSpec(m=100, n=500, s=10, delta=1e-3, noise=noise, seed=seed))
    inst = replace_p(pair[q - 1], p)
    perm = np.random.default_rng(perm_seed).permutation(inst.n)
    permuted = ProblemInstance(
        a=inst.a[:, perm], b=inst.b, sigma=inst.sigma, p=p
    )
    solve = solve_l1 if q == 1 else solve_l2
    return solve(inst), solve(permuted), perm


@pytest.mark.parametrize(
    "noise, seed, p, q",
    [
        ("t2", 2, 0.5, 1),  # the widest objective gap seen, 4.6e-4
        ("gauss", 0, 0.1, 1),
        ("t2", 1, 0.5, 2),
    ],
)
def test_column_permutation_maps_the_solution(noise, seed, p, q):
    # permuting A's columns permutes the problem: the support maps through
    # the permutation and the objective agrees; float sums in another order
    # move the path, so the vertex reached on that support may differ
    rep, rep_perm, perm = _permuted_solves(noise, seed, p, q, perm_seed=0)
    assert rep.stop_reason == rep_perm.stop_reason == "converged"
    np.testing.assert_array_equal(
        np.sort(perm[np.flatnonzero(rep_perm.x_star)]), np.flatnonzero(rep.x_star)
    )
    assert rep_perm.objective == pytest.approx(rep.objective, rel=1e-3)


@pytest.mark.xfail(strict=True, reason="the permuted solve ends on an 11th nonzero")
def test_column_permutation_known_break():
    # the same draw as the widest gap above under another permutation: both
    # solves converge, the permuted one with one more nonzero and an
    # objective 2.3e-3 higher, past the 1e-3 bound
    rep, rep_perm, perm = _permuted_solves("t2", 2, 0.5, 1, perm_seed=5)
    np.testing.assert_array_equal(
        np.sort(perm[np.flatnonzero(rep_perm.x_star)]), np.flatnonzero(rep.x_star)
    )
    assert rep_perm.objective == pytest.approx(rep.objective, rel=1e-3)


def _duplicated_column_solves(noise, seed, p, q):
    # one desk draw solved plain and with a copy of its first planted column
    # appended as column n; returns both reports and the copied column
    inst1, inst2, x_hat, _ = gen_matched_pair(
        GenSpec(m=100, n=500, s=10, delta=1e-3, noise=noise, seed=seed)
    )
    inst = replace_p(inst1 if q == 1 else inst2, p)
    j = int(np.flatnonzero(x_hat)[0])
    dup = ProblemInstance(a=np.column_stack([inst.a, inst.a[:, j]]), b=inst.b, sigma=inst.sigma, p=p)
    solve = solve_l1 if q == 1 else solve_l2
    return solve(inst), solve(dup), j


def _assert_copy_folds_back(rep, rep_dup, j):
    # a duplicated column adds a copy of one coordinate: a vertex uses at
    # most one copy, and folding the copy back gives the plain support
    n = rep.x_star.size
    assert rep.stop_reason == rep_dup.stop_reason == "converged"
    assert np.count_nonzero(rep_dup.x_star[[j, n]]) <= 1
    folded = rep_dup.x_star[:n].copy()
    folded[j] += rep_dup.x_star[n]
    np.testing.assert_array_equal(np.flatnonzero(folded), np.flatnonzero(rep.x_star))
    assert rep_dup.objective == pytest.approx(rep.objective, rel=1e-3)


@pytest.mark.parametrize(
    "noise, seed, p, q",
    [
        pytest.param(
            noise, seed, p, q,
            id=f"{noise}-{seed}-{p}" + ("" if q == 1 else "-q2"),
            marks=pytest.mark.xfail(strict=True, reason="converges on another support, +7.1e-4")
            if (noise, seed, p, q) == ("t2", 2, 0.5, 1) else (),
        )
        for q, noise, seed, p in itertools.product((1, 2), ("gauss", "t2"), (0, 1, 2), (0.5, 0.1))
    ],
)
def test_duplicated_column_uses_one_copy(noise, seed, p, q):
    # on both balls the finish's face walk ends on a support of full column
    # rank, so it keeps one copy; objectives agreed within 1.4e-4 on the
    # eleven passing l1 draws and within 4.1e-5 on the twelve l2 draws; the
    # l1 t2 seed-2 p = 0.5 draw ends on another support (ROADMAP item 3)
    _assert_copy_folds_back(*_duplicated_column_solves(noise, seed, p, q))
