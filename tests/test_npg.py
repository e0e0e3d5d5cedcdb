import numpy as np
import pytest

from sparselp import NonFinite, ProblemInstance, SolverConfig
from sparselp.core import NpgParams
from sparselp.npg import NpgState, initial_step_constant, npg_solve
from sparselp.smoothing import L1SmoothedPenalty, SmoothingParams, lp_power_sum


def small_instance():
    a = np.array([[1.0, 0.5, 0.0, 0.2], [0.0, 1.0, -0.5, 0.1], [0.3, 0.0, 1.0, -0.4]])
    b = np.array([2.0, -1.5, 1.0])
    return ProblemInstance(m=3, n=4, a=a, b=b, sigma=0.4, p=0.5)


def run(inst, sp, x0, eps, cfg=None, **kw):
    return npg_solve(inst, L1SmoothedPenalty(inst, sp), x0, eps, cfg=cfg, keep_history=True, **kw)


def test_descent_relative_to_window(rng):
    # every accepted step obeys F(w) <= max(window) - (c/2)||w - x||^2,
    # which implies every accepted F stays at or below F(x0)
    inst = small_instance()
    sp = SmoothingParams(lam=3.0, mu=0.05, nu=0.05)
    x0 = rng.standard_normal(4)
    pen = L1SmoothedPenalty(inst, sp)
    f0 = lp_power_sum(x0, inst.p) + pen.value(inst.residual(x0))
    out = run(inst, sp, x0, eps=1e-10)
    par = NpgParams()
    fs = [f0] + [row[1] for row in out.history]
    c = par.c
    for i, (_, f_w, _, step) in enumerate(out.history):
        window = fs[max(0, i - par.memory) : i + 1]  # last memory+1 values before w
        assert f_w - max(window) <= -0.5 * c * step**2 + 1e-10
        assert f_w <= f0 + 1e-12


def test_final_no_worse_than_start(rng):
    inst = small_instance()
    sp = SmoothingParams(lam=2.0, mu=0.1, nu=0.1)
    for _ in range(10):
        x0 = rng.standard_normal(4) * 2
        pen = L1SmoothedPenalty(inst, sp)
        f0 = lp_power_sum(x0, inst.p) + pen.value(inst.residual(x0))
        out = run(inst, sp, x0, eps=1e-8)
        assert out.f_final <= f0 + 1e-12
        f_check = lp_power_sum(out.x_final, inst.p) + pen.value(inst.residual(out.x_final))
        assert out.f_final == pytest.approx(f_check, rel=1e-12, abs=1e-12)


def test_step_tol_exit_certifies_pre_point():
    inst = small_instance()
    sp = SmoothingParams(lam=1.0, mu=0.2, nu=0.2)
    x0 = np.array([1.0, -0.5, 0.3, 0.0])
    out = run(inst, sp, x0, eps=1e-6)
    assert out.stop_reason in ("step_tol", "obj_tol")
    if out.stop_reason == "step_tol":
        gap = np.linalg.norm(out.x_post - out.x_final)
        assert out.l_bar * gap / (1.0 + np.linalg.norm(out.x_post)) < 1e-6
        assert out.stationarity_bound == pytest.approx(out.l_bar * gap, rel=1e-12)


def test_flatline_exit_returns_moved_point():
    # restarting from a previous flatline exit reproduces the outer loop's
    # warm start in a shallow high-penalty valley: the flatline test fires
    # on the very first accepted pair.  The outcome must differ from the
    # start, or the caller's progress measures would vanish identically and
    # misreport convergence.
    inst = small_instance()
    sp = SmoothingParams(lam=1e4, mu=0.01, nu=0.01)
    x0 = np.array([1.3, -0.7, 0.9, -0.2])
    first = run(inst, sp, x0, eps=0.05)
    assert first.stop_reason == "obj_tol"
    second = run(inst, sp, first.x_final, eps=0.05)
    assert second.stop_reason == "obj_tol"
    assert second.iters == 1
    assert not np.array_equal(second.x_final, first.x_final)
    np.testing.assert_array_equal(second.x_final, second.x_post)


def test_iter_cap_returns_last_accepted():
    inst = small_instance()
    sp = SmoothingParams(lam=5.0, mu=0.02, nu=0.02)
    cfg = SolverConfig(npg=NpgParams(iter_cap=3))
    out = npg_solve(
        inst, L1SmoothedPenalty(inst, sp), np.ones(4), eps=1e-14, cfg=cfg, keep_history=True
    )
    assert out.stop_reason == "iter_cap"
    assert out.iters == 3
    assert len(out.history) == 3
    # x_final carries the objective of the last accepted row
    assert out.f_final == pytest.approx(out.history[-1][1], rel=1e-15)


def test_monotone_for_memory_zero(rng):
    # memory=0 windows compare against the previous value only: plain descent
    inst = small_instance()
    sp = SmoothingParams(lam=2.0, mu=0.1, nu=0.1)
    cfg = SolverConfig(npg=NpgParams(memory=0))
    pen = L1SmoothedPenalty(inst, sp)
    out = npg_solve(inst, pen, rng.standard_normal(4), eps=1e-9, cfg=cfg, keep_history=True)
    fs = [row[1] for row in out.history]
    assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))


def test_initial_step_constant_first_iteration():
    state = NpgState(
        x_curr=np.zeros(2),
        x_prev=np.zeros(2),
        x_prev2=np.zeros(2),
        g_curr=np.zeros(2),
        g_prev=np.zeros(2),
        g_prev2=np.zeros(2),
        f_history=None,
        l_bar_prev=123.0,
        iter=0,
    )
    assert initial_step_constant(state, 1e-6) == 1.0


def test_initial_step_constant_uses_secant_curvature():
    # quadratic f = (a/2)||x||^2 has constant curvature a along any secant
    a = 7.0
    xs = [np.array([1.0, 0.0]), np.array([0.5, 0.5]), np.array([0.0, 1.0])]
    state = NpgState(
        x_curr=xs[0],
        x_prev=xs[1],
        x_prev2=xs[2],
        g_curr=a * xs[0],
        g_prev=a * xs[1],
        g_prev2=a * xs[2],
        f_history=None,
        l_bar_prev=1.0,
        iter=3,
    )
    assert initial_step_constant(state, 1e-6) == pytest.approx(a, rel=1e-12)
    # and the floor wins below it
    assert initial_step_constant(state, 10.0) == 10.0


def test_nonfinite_start_raises():
    inst = small_instance()
    sp = SmoothingParams(lam=1.0, mu=0.1, nu=0.1)
    with pytest.raises(NonFinite):
        npg_solve(inst, L1SmoothedPenalty(inst, sp), np.array([np.nan, 0.0, 0.0, 0.0]), eps=1e-6)


def test_stationarity_decreases_with_eps(rng):
    # tighter eps must not loosen the certified bound
    inst = small_instance()
    sp = SmoothingParams(lam=2.0, mu=0.05, nu=0.05)
    x0 = rng.standard_normal(4)
    loose = run(inst, sp, x0.copy(), eps=1e-3)
    tight = run(inst, sp, x0.copy(), eps=1e-9)
    assert tight.stationarity_bound <= loose.stationarity_bound + 1e-9
    assert tight.iters >= loose.iters
