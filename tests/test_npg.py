import numpy as np
import pytest

import sparselp.npg
import sparselp.solver
from conftest import accepted_steps, recorded_trials
from sparselp import (
    GenSpec,
    NonFinite,
    ProblemInstance,
    gen_matched_pair,
    least_squares_min_norm,
    replace_p,
    solve_l1,
    solve_l2,
)
from sparselp.npg import initial_step_constant, npg_solve
from sparselp.prox import prox_vector
from sparselp.smoothing import SmoothedPenalty, lp_power_sum


def small_instance():
    a = np.array([[1.0, 0.5, 0.0, 0.2], [0.0, 1.0, -0.5, 0.1], [0.3, 0.0, 1.0, -0.4]])
    b = np.array([2.0, -1.5, 1.0])
    return ProblemInstance(a=a, b=b, sigma=0.4, p=0.5)


def l1_penalty(inst, lam, mu, nu):
    return SmoothedPenalty(inst, 1.0, lam, mu, nu)


def objective(inst, pen, x):
    return lp_power_sum(x, inst.p) + pen.value(inst.residual(x))


def run(inst, pen, x0, eps, l_bar=None):
    """npg_solve, and the (center, l_bar, w) of each accepted step."""
    with recorded_trials() as rows:
        out = npg_solve(inst, pen, x0, eps, l_bar=l_bar)
    return out, accepted_steps(rows)


def test_descent_relative_to_window(rng):
    # every accepted step obeys F(w) <= max(window) - (c/2)||w - x||^2,
    # which implies every accepted F stays at or below F(x0)
    inst = small_instance()
    pen = l1_penalty(inst, lam=3.0, mu=0.05, nu=0.05)
    x0 = rng.standard_normal(4)
    f0 = objective(inst, pen, x0)
    out, steps = run(inst, pen, x0, eps=1e-10)
    assert len(steps) == out.iters
    # each iteration starts from the point the previous one accepted
    for (_, _, w), (x, _, _) in zip(steps, steps[1:]):
        assert x.tobytes() == w.tobytes()
    fs = [f0] + [objective(inst, pen, w) for _, _, w in steps]
    c, memory = sparselp.npg.C, sparselp.npg.MEMORY
    for i, (x, _, w) in enumerate(steps):
        f_w = fs[i + 1]
        window = fs[max(0, i - memory) : i + 1]  # last memory+1 values before w
        step = np.linalg.norm(w - x)
        assert f_w - max(window) <= -0.5 * c * step**2 + 1e-10
        assert f_w <= f0 + 1e-12


def test_final_no_worse_than_start(rng):
    inst = small_instance()
    pen = l1_penalty(inst, lam=2.0, mu=0.1, nu=0.1)
    for _ in range(10):
        x0 = rng.standard_normal(4) * 2
        f0 = objective(inst, pen, x0)
        out = npg_solve(inst, pen, x0, eps=1e-8)
        assert out.f_final <= f0 + 1e-12
        f_check = objective(inst, pen, out.x_final)
        assert out.f_final == pytest.approx(f_check, rel=1e-12, abs=1e-12)


def test_step_tol_exit_certifies_pre_point():
    inst = small_instance()
    pen = l1_penalty(inst, lam=1.0, mu=0.2, nu=0.2)
    x0 = np.array([1.0, -0.5, 0.3, 0.0])
    out, steps = run(inst, pen, x0, eps=1e-6)
    assert out.stop_reason in ("step_tol", "obj_tol")
    if out.stop_reason == "step_tol":
        x_pre, l_bar, x_post = steps[-1]
        np.testing.assert_array_equal(out.x_final, x_pre)
        gap = np.linalg.norm(x_post - out.x_final)
        assert l_bar * gap / (1.0 + np.linalg.norm(x_post)) < 1e-6


def test_flatline_exit_returns_moved_point():
    # restarting from a previous flatline exit reproduces the outer loop's
    # warm start in a shallow high-penalty valley: the flatline test fires
    # on the very first accepted pair.  The outcome must differ from the
    # start, or the caller's progress measures would vanish identically and
    # misreport convergence.
    inst = small_instance()
    pen = l1_penalty(inst, lam=1e4, mu=0.01, nu=0.01)
    x0 = np.array([1.3, -0.7, 0.9, -0.2])
    first, _ = run(inst, pen, x0, eps=0.05)
    assert first.stop_reason == "obj_tol"
    second, steps = run(inst, pen, first.x_final, eps=0.05)
    assert second.stop_reason == "obj_tol"
    assert second.iters == 1
    assert not np.array_equal(second.x_final, first.x_final)
    np.testing.assert_array_equal(second.x_final, steps[-1][2])


def test_iter_cap_returns_last_accepted(monkeypatch):
    inst = small_instance()
    pen = l1_penalty(inst, lam=5.0, mu=0.02, nu=0.02)
    monkeypatch.setattr(sparselp.npg, "ITER_CAP", 3)
    out, steps = run(inst, pen, np.ones(4), eps=1e-14)
    assert out.stop_reason == "iter_cap"
    assert out.iters == 3
    assert len(steps) == 3
    # x_final is the last accepted point and carries its objective
    np.testing.assert_array_equal(out.x_final, steps[-1][2])
    assert out.f_final == pytest.approx(objective(inst, pen, steps[-1][2]), rel=1e-15)


def test_monotone_for_memory_zero(rng, monkeypatch):
    # memory=0 windows compare against the previous value only: plain descent
    inst = small_instance()
    pen = l1_penalty(inst, lam=2.0, mu=0.1, nu=0.1)
    monkeypatch.setattr(sparselp.npg, "MEMORY", 0)
    _, steps = run(inst, pen, rng.standard_normal(4), eps=1e-9)
    fs = [objective(inst, pen, w) for _, _, w in steps]
    assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))


def test_initial_step_constant_first_iteration():
    z = np.zeros(2)
    assert initial_step_constant((z, z, z), (z, z, z), None) == 1.0
    # and the first trial of a solve uses it
    inst = small_instance()
    with recorded_trials() as rows:
        npg_solve(inst, l1_penalty(inst, lam=1.0, mu=0.1, nu=0.1), np.ones(4), eps=1e-6)
    assert rows[0][1] == 1.0


def test_carried_step_constant_starts_at_half():
    # a step constant handed in from a previous solve replaces the start
    # from 1: the first trial is half of it, the floor every later
    # iteration gets from the step accepted before it
    inst = small_instance()
    pen = l1_penalty(inst, lam=1.0, mu=0.1, nu=0.1)
    for l_bar in (3.0, 1e3):
        with recorded_trials() as rows:
            npg_solve(inst, pen, np.ones(4), eps=1e-6, l_bar=l_bar)
        assert rows[0][1] == 0.5 * l_bar


def test_outcome_hands_back_last_accepted_step_constant():
    inst = small_instance()
    pen = l1_penalty(inst, lam=5.0, mu=0.02, nu=0.02)
    for l_bar in (None, 40.0):
        out, steps = run(inst, pen, np.ones(4), eps=1e-8, l_bar=l_bar)
        assert out.l_bar == steps[-1][1]


def test_initial_step_constant_uses_secant_curvature(monkeypatch):
    # quadratic f = (a/2)||x||^2 has constant curvature a along any secant
    a = 7.0
    xs = (np.array([1.0, 0.0]), np.array([0.5, 0.5]), np.array([0.0, 1.0]))
    gs = tuple(a * x for x in xs)
    assert initial_step_constant(xs, gs, 1.0) == pytest.approx(a, rel=1e-12)
    # and the floor wins below it
    monkeypatch.setattr(sparselp.npg, "L_MIN", 10.0)
    assert initial_step_constant(xs, gs, 1.0) == 10.0


def test_nonfinite_start_raises():
    inst = small_instance()
    pen = l1_penalty(inst, lam=1.0, mu=0.1, nu=0.1)
    with pytest.raises(NonFinite):
        npg_solve(inst, pen, np.array([np.nan, 0.0, 0.0, 0.0]), eps=1e-6)


def test_stationarity_decreases_with_eps(rng):
    # tighter eps must not loosen the certified bound L ||w - x|| of the
    # last accepted pair
    inst = small_instance()
    pen = l1_penalty(inst, lam=2.0, mu=0.05, nu=0.05)
    x0 = rng.standard_normal(4)
    bounds, iters = [], []
    for eps in (1e-3, 1e-9):
        out, steps = run(inst, pen, x0.copy(), eps=eps)
        x, l_bar, w = steps[-1]
        bounds.append(l_bar * np.linalg.norm(w - x))
        iters.append(out.iters)
    assert bounds[1] <= bounds[0] + 1e-9
    assert iters[1] >= iters[0]


def gen_penalty_problem(q):
    """A 30x120 draw with a planted 3-sparse point, and a penalty on its q-ball."""
    inst1, inst2, x_hat, _ = gen_matched_pair(GenSpec(m=30, n=120, s=3, delta=1e-3, seed=4))
    inst = inst1 if q == 1.0 else inst2
    return inst, SmoothedPenalty(inst, q, lam=10.0, mu=0.1, nu=0.1), x_hat


@pytest.mark.parametrize("q", [1.0, 2.0])
def test_carried_residual_matches_a_fresh_product(q):
    # the residual travels with the iterate, computed from the working
    # set's columns or from all of A; either way it must be A x - b of the
    # returned point, to roundoff
    inst, pen, x_hat = gen_penalty_problem(q)
    starts = {
        "dense": least_squares_min_norm(inst.a, inst.b),
        "sparse": 0.9 * x_hat,
    }
    outs = {name: npg_solve(inst, pen, x0, eps=1e-8) for name, x0 in starts.items()}
    for out in outs.values():
        scale = np.abs(inst.a) @ np.abs(out.x_final) + np.abs(inst.b)
        gap = np.abs(out.r_final - (inst.a @ out.x_final - inst.b))
        assert (gap <= 1e-12 * scale).all()
        assert out.iters <= out.trials
        # the first iteration always takes the full product
        assert 1 <= out.full_products <= out.iters
    # from the sparse start the screen skips the full product
    assert outs["sparse"].full_products < outs["sparse"].iters


def test_trial_at_zero_gives_minus_b():
    # an empty trial point adds nothing to the product: the residual is -b
    # exactly
    inst, pen, _ = gen_penalty_problem(1.0)
    seen = []

    class Recording:
        def value(self, r):
            seen.append(r.copy())
            return pen.value(r)

        def value_and_grad_parts(self, r):
            return pen.value_and_grad_parts(r)

    prox_vector = sparselp.npg.prox_vector

    def zero_first(x, g, l, p):
        # the first trial point is w = 0; later trials are the prox's own
        w = prox_vector(x, g, l, p)
        return w if seen else np.zeros_like(w)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparselp.npg, "prox_vector", zero_first)
        npg_solve(inst, Recording(), np.ones(inst.n), eps=1e-6)
    assert seen[0].tobytes() == (-inst.b).tobytes()


def test_counters_count_every_trial():
    inst, pen, x_hat = gen_penalty_problem(1.0)
    columns = []
    working_columns = sparselp.npg.working_columns

    def counted(a, work):
        columns.append(work)
        return working_columns(a, work)

    with recorded_trials() as rows, pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparselp.npg, "working_columns", counted)
        out = npg_solve(inst, pen, 0.9 * x_hat, eps=1e-8)
    assert out.trials == len(rows)
    # the start gathers all of A, and every later working set comes from a
    # rebuild, which takes the full product
    assert columns[0] is None
    assert len(columns) - 1 <= out.full_products <= out.iters


def screened_solve(solve, inst):
    """A whole solve with its trials recorded, as (coef, u, center, l, w)
    rows: (coef, u) are the gradient pieces the loop got at the center."""
    pieces = []

    class Kept(SmoothedPenalty):
        def value_and_grad_parts(self, r):
            out = super().value_and_grad_parts(r)
            pieces.append(out[1:])
            return out

    with recorded_trials() as rows, pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparselp.solver, "SmoothedPenalty", Kept)
        rep = solve(inst)
    # each iteration takes the pieces at its center once: at the start of
    # a round or when it accepted the step before
    assert len(pieces) == rep.inner_iters_total
    iteration = np.cumsum([i == 0 or x is not rows[i - 1][0] for i, (x, _, _) in enumerate(rows)])
    return rep, [(*pieces[k - 1], *row) for k, row in zip(iteration, rows)]


def scaled_columns(inst, columns, factor):
    a = np.array(inst.a)
    a[:, columns] *= factor
    return ProblemInstance(a=a, b=inst.b, sigma=inst.sigma, p=inst.p)


def screen_cases():
    inst1, inst2, _, _ = gen_matched_pair(GenSpec(m=40, n=200, s=4, delta=1e-3, seed=3))
    inst1, inst2 = replace_p(inst1, 0.5), replace_p(inst2, 0.5)
    return {
        "l1": (solve_l1, inst1),
        "l2": (solve_l2, inst2),
        # the largest column norm is 1e3, and that column sits in W
        "l1-one-column-x1e3": (solve_l1, scaled_columns(inst1, [7], 1e3)),
        # every column outside W has norm 1e3
        "l1-all-columns-x1e3": (solve_l1, scaled_columns(inst1, slice(None), 1e3)),
    }


@pytest.mark.parametrize("case", list(screen_cases()))
def test_trials_equal_the_full_gradient_prox(case):
    # the working set is exact: every trial point has the support of the
    # prox taken with the full gradient at its center, A^T u from the
    # pieces the loop got there, and the same values up to the summation
    # order of the products
    solve, inst = screen_cases()[case]
    rep, rows = screened_solve(solve, inst)
    assert rep.stop_reason == "converged"
    assert rep.full_products_total < rep.inner_iters_total
    for coef, u, center, l, w in rows:
        g = coef * (inst.a.T @ u)
        z = prox_vector(center, g, l, inst.p)
        np.testing.assert_array_equal(z != 0.0, w != 0.0)
        np.testing.assert_allclose(w, z, rtol=1e-12, atol=0.0)


def test_dense_start_ends_on_a_small_working_set():
    # from the dense least-squares anchor the loop starts on all of x and
    # shrinks its working set to a few times the support once the anchor
    # leaves the last three iterates
    inst, pen, _ = gen_penalty_problem(1.0)
    x0 = least_squares_min_norm(inst.a, inst.b)
    assert np.count_nonzero(x0) == inst.n
    sets = []
    working_columns = sparselp.npg.working_columns

    def kept(a, work):
        sets.append(work)
        return working_columns(a, work)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparselp.npg, "working_columns", kept)
        out = npg_solve(inst, pen, x0, eps=1e-8)
    assert sets[0] is None
    assert sets[-1] is not None and 8 * sets[-1].size <= inst.n
    assert np.isin(np.flatnonzero(out.x_final), sets[-1]).all()
