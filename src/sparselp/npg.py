"""Nonmonotone proximal-gradient inner solver.

Minimizes F(x) = lp_power_sum(x, p) + penalty(x) for a fixed smoothed
penalty.  Each iteration backtracks a step constant L (doubling from a
secant-curvature initial guess floored at l_min, with no upper cap) until
the prox-gradient point w satisfies

    F(w) - max{F over the last memory+1 accepted iterates} <= -(c/2)||w - x||^2,

then tests two relative stopping rules on the accepted pair (x, w):
L ||w - x|| / (1 + ||w||) < eps, or |F(w) - F(x)| / (1 + |F(w)|) < eps^1.2.

Return convention: a step-size exit returns the pre-step point as x_final
(the pair certifies approximate stationarity of that point with bound
L ||x_post - x_final||); the objective-flatline and cap exits return the
last accepted point instead.  Flatline can trigger on the very first pair
when the start sits in a shallow region, and handing back the start
unchanged would make the caller's progress measures vanish identically.
Every accepted iterate satisfies F <= F(x0), so the swap keeps the
no-worse-than-start guarantee.

The penalty sees x only through the residual r = Ax - b, so the residual
is carried with the iterate: each backtrack trial computes A w once, the
accepted trial's residual feeds the gradient (one A^T product), and the
outcome hands back the residual of x_final.  That is one product with A
per trial and one with A^T per accepted step.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .core import NpgParams, ProblemInstance, SolverConfig
from .errors import LineSearchStalled, NonFinite
from .prox import prox_vector
from .smoothing import lp_power_sum

BACKTRACK_CAP = 60


@dataclass
class NpgState:
    """Rolling iterate window used by the step-constant heuristic, and the
    residual of the current iterate."""

    x_curr: np.ndarray
    x_prev: np.ndarray
    x_prev2: np.ndarray
    g_curr: np.ndarray
    g_prev: np.ndarray
    g_prev2: np.ndarray
    f_history: deque
    l_bar_prev: float
    iter: int = 0
    # residual A x_curr - b; the step heuristic does not read it
    r_curr: np.ndarray | None = None


@dataclass(frozen=True)
class NpgOutcome:
    x_final: np.ndarray
    r_final: np.ndarray  # residual A x_final - b
    x_post: np.ndarray
    f_final: float
    iters: int
    stop_reason: str  # "step_tol" | "obj_tol" | "iter_cap"
    stationarity_bound: float
    l_bar: float
    history: tuple = field(default=())


def _pair_curvature(y, y_tilde, gy, gy_tilde) -> float:
    d = y - y_tilde
    nn = float(d @ d)
    if nn == 0.0:
        return 0.0
    return float(d @ (gy - gy_tilde)) / nn


def initial_step_constant(state: NpgState, l_min: float) -> float:
    """Curvature-seeded initial step constant, floored at l_min.

    The first iteration always starts from 1.  Afterwards the guess is the
    mean of the three pairwise secant curvatures over the last three
    iterates, floored by half the previously accepted constant.  There is
    no upper cap: the line search doubles the guess until it is accepted.
    """
    if state.iter == 0:
        return 1.0
    d1 = _pair_curvature(state.x_curr, state.x_prev, state.g_curr, state.g_prev)
    d2 = _pair_curvature(state.x_curr, state.x_prev2, state.g_curr, state.g_prev2)
    d3 = _pair_curvature(state.x_prev, state.x_prev2, state.g_prev, state.g_prev2)
    guess = max((d1 + d2 + d3) / 3.0, 0.5 * state.l_bar_prev)
    return max(guess, l_min)


def npg_solve(
    inst: ProblemInstance,
    penalty,
    x0,
    eps: float,
    cfg: SolverConfig | None = None,
    keep_history: bool = False,
    r0=None,
) -> NpgOutcome:
    """Run the inner loop on lp_power_sum + penalty from x0 down to inner
    tolerance eps.

    penalty is a smoothed penalty from smoothing.py bound to inst.  r0, if
    given, is the residual A x0 - b, which saves one product.
    """
    cfg = cfg or SolverConfig()
    par: NpgParams = cfg.npg
    p = inst.p

    x = np.array(x0, dtype=np.float64)
    r = inst.residual(x) if r0 is None else r0
    pen_val, g = penalty.value_and_grad(r)
    f_x = lp_power_sum(x, p) + pen_val
    if not np.isfinite(f_x):
        raise NonFinite("objective is not finite at the starting point")
    f_start = f_x
    # every accepted iterate stays in the level set {F <= F(x0)}, which for
    # the power objective means ||x||_inf <= F(x0)^(1/p)
    inf_cap = (max(f_start, 0.0) + 1e-9) ** (1.0 / p) * (1.0 + 1e-9)

    state = NpgState(
        x_curr=x,
        r_curr=r,
        x_prev=x,
        x_prev2=x,
        g_curr=g,
        g_prev=g,
        g_prev2=g,
        f_history=deque([f_x], maxlen=par.memory + 1),
        l_bar_prev=1.0,
    )
    history = []

    stop_reason = "iter_cap"
    w = x
    f_w = f_x
    l_bar = 1.0
    for it in range(par.iter_cap):
        l0 = initial_step_constant(state, par.l_min)
        f_max = max(state.f_history)
        accepted = False
        for i in range(BACKTRACK_CAP + 1):
            l_try = l0 * par.tau**i
            w = prox_vector(state.x_curr, state.g_curr, l_try, p)
            r_w = inst.residual(w)
            pen_w = penalty.value(r_w)
            f_w = lp_power_sum(w, p) + pen_w
            if not np.isfinite(f_w):
                continue  # overshoot into overflow; keep doubling
            d = w - state.x_curr
            dn2 = float(d @ d)
            if f_w - f_max <= -0.5 * par.c * dn2:
                accepted = True
                break
        if not accepted:
            raise LineSearchStalled(
                f"no acceptable step after {BACKTRACK_CAP} doublings from L0={l0:.3e}"
            )
        l_bar = l_try
        step = np.sqrt(dn2)
        if np.max(np.abs(w)) > inf_cap:
            raise NonFinite("iterate escaped the level set; objective model is broken")

        f_prev = f_x
        x_pre = state.x_curr
        f_x = f_w
        if keep_history:
            history.append((it, f_w, l_bar, step))

        crit_step = l_bar * step / (1.0 + np.linalg.norm(w)) < eps
        crit_obj = abs(f_w - f_prev) / (1.0 + abs(f_w)) < eps**1.2
        if crit_step or crit_obj:
            stop_reason = "step_tol" if crit_step else "obj_tol"
            return NpgOutcome(
                x_final=x_pre if crit_step else w,
                r_final=state.r_curr if crit_step else r_w,
                x_post=w,
                f_final=f_prev if crit_step else f_w,
                iters=it + 1,
                stop_reason=stop_reason,
                stationarity_bound=l_bar * step,
                l_bar=l_bar,
                history=tuple(history),
            )

        g_w = penalty.grad(r_w)
        state = NpgState(
            x_curr=w,
            r_curr=r_w,
            x_prev=x_pre,
            x_prev2=state.x_prev,
            g_curr=g_w,
            g_prev=state.g_curr,
            g_prev2=state.g_prev,
            f_history=state.f_history,
            l_bar_prev=l_bar,
            iter=it + 1,
        )
        state.f_history.append(f_w)

    # iteration cap: hand back the furthest accepted point; the last pair
    # still supplies the stationarity bound
    return NpgOutcome(
        x_final=state.x_curr,
        r_final=state.r_curr,
        x_post=state.x_curr,
        f_final=f_x,
        iters=par.iter_cap,
        stop_reason="iter_cap",
        stationarity_bound=l_bar * float(np.linalg.norm(state.x_curr - state.x_prev)),
        l_bar=l_bar,
        history=tuple(history),
    )
