"""Nonmonotone proximal-gradient inner solver.

Minimizes F(x) = lp_power_sum(x, p) + penalty(x) for a fixed smoothed
penalty.  Each iteration backtracks a step constant L (multiplying by TAU
from a secant-curvature initial guess floored at L_MIN, with no upper cap)
until the prox-gradient point w satisfies

    F(w) - max{F over the last MEMORY+1 accepted iterates} <= -(C/2)||w - x||^2,

then tests two relative stopping rules on the accepted pair (x, w):
L ||w - x|| / (1 + ||w||) < eps, or |F(w) - F(x)| / (1 + |F(w)|) < eps^1.2.

Return convention: a step-size exit returns the pre-step point x as
x_final, since the small step certifies its approximate stationarity; the
objective-flatline and ITER_CAP exits return the last accepted point
instead.  Flatline can trigger on the very first pair when the start sits
in a shallow region, and handing back the start unchanged would make the
caller's progress measures vanish identically.  Every accepted iterate
satisfies F <= F(x0), so the swap keeps the no-worse-than-start guarantee.

The penalty sees x only through the residual r = Ax - b, so the residual
is carried with the iterate: each backtrack trial computes A w once, the
accepted trial's residual feeds the gradient (one A^T product), and the
outcome hands back the residual of x_final.  The prox dead zone makes the
trial points very sparse, so a trial takes its support J once and, when
_RESTRICT * |J| <= n, forms A w from the support's columns alone,
A[:, J] w_J - b (an empty support gives -b); otherwise it takes the full
product.  The power sum and the level-set guard read w_J too.  Each
accepted step still makes one full product with A^T.  The outcome counts
the trials and how many of them took the restricted product.

The nonmonotone rule makes about three trials per accepted step, and at
the desk size a trial's cost is the number of numpy calls it makes, so the
loop keeps scalars as Python floats (math.isfinite, math.sqrt, ndarray.dot)
and leaves the arrays to prox_vector and the penalty.  prox_vector is
looked up on this module at call time, so a wrapper set on
sparselp.npg.prox_vector sees every trial: its first argument is the
current accepted iterate, and its output the trial point w.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import ProblemInstance
from .errors import LineSearchStalled, NonFinite
from .prox import prox_vector
from .smoothing import lp_power_sum

L_MIN = 1e-6  # floor of the initial step constant
TAU = 2.0  # backtracking multiplier of the step constant
C = 1e-4  # sufficient-decrease constant
MEMORY = 2  # accepted values beyond the current one in the nonmonotone window
ITER_CAP = 1000
BACKTRACK_CAP = 60
_RESTRICT = 8  # a trial gathers its support's columns while 8 |J| <= n


@dataclass(frozen=True)
class NpgOutcome:
    x_final: np.ndarray
    r_final: np.ndarray  # residual A x_final - b
    f_final: float
    iters: int
    stop_reason: str  # "step_tol" | "obj_tol" | "iter_cap"
    trials: int  # line-search trials, at least one per iteration
    restricted_trials: int  # trials whose residual used only A[:, J]


def _pair_curvature(y, y_tilde, gy, gy_tilde) -> float:
    d = y - y_tilde
    nn = float(d.dot(d))
    if nn == 0.0:
        return 0.0
    return float(d.dot(gy - gy_tilde)) / nn


def initial_step_constant(xs, gs, l_bar_prev: float | None) -> float:
    """Curvature-seeded initial step constant, floored at L_MIN.

    xs = (x, x_prev, x_prev2) are the last three iterates, newest first,
    and gs their penalty gradients; l_bar_prev is the step constant
    accepted at the previous iteration, None on the first, which always
    starts from 1.  Afterwards the guess is the mean of the three pairwise
    secant curvatures over the window, floored by half of l_bar_prev.
    There is no upper cap: the line search doubles the guess until it is
    accepted.
    """
    if l_bar_prev is None:
        return 1.0
    (x, x_prev, x_prev2), (g, g_prev, g_prev2) = xs, gs
    d1 = _pair_curvature(x, x_prev, g, g_prev)
    d2 = _pair_curvature(x, x_prev2, g, g_prev2)
    d3 = _pair_curvature(x_prev, x_prev2, g_prev, g_prev2)
    guess = max((d1 + d2 + d3) / 3.0, 0.5 * l_bar_prev)
    return max(guess, L_MIN)


def npg_solve(inst: ProblemInstance, penalty, x0, eps: float, r0=None) -> NpgOutcome:
    """Run the inner loop on lp_power_sum + penalty from x0 down to inner
    tolerance eps.

    penalty is a smoothing.SmoothedPenalty bound to inst.  r0, if given, is
    the residual A x0 - b, which saves one product.
    """
    a, b, n, p = inst.a, inst.b, inst.n, inst.p

    x = np.array(x0, dtype=np.float64)
    r = inst.residual(x) if r0 is None else r0
    pen_val, g = penalty.value_and_grad(r)
    f_x = lp_power_sum(x, p) + pen_val
    if not math.isfinite(f_x):
        raise NonFinite("objective is not finite at the starting point")
    # every accepted iterate stays in the level set {F <= F(x0)}, which for
    # the power objective means ||x||_inf <= F(x0)^(1/p)
    inf_cap = (max(f_x, 0.0) + 1e-9) ** (1.0 / p) * (1.0 + 1e-9)

    x_prev = x_prev2 = x
    g_prev = g_prev2 = g
    f_window = deque([f_x], maxlen=MEMORY + 1)
    l_bar = None
    trials = restricted = 0
    for it in range(ITER_CAP):
        l0 = initial_step_constant((x, x_prev, x_prev2), (g, g_prev, g_prev2), l_bar)
        f_max = max(f_window)
        for i in range(BACKTRACK_CAP + 1):
            l_try = l0 * TAU**i
            w = prox_vector(x, g, l_try, p)
            support = w.nonzero()[0]
            w_j = w[support]
            if _RESTRICT * support.size <= n:
                r_w = a[:, support] @ w_j - b
                restricted += 1
            else:
                r_w = a @ w - b
            pen_w = penalty.value(r_w)
            f_w = lp_power_sum(w_j, p) + pen_w
            if not math.isfinite(f_w):
                continue  # overshoot into overflow; keep doubling
            d = w - x
            dn2 = float(d.dot(d))
            if f_w - f_max <= -0.5 * C * dn2:
                break
        else:
            raise LineSearchStalled(
                f"no acceptable step after {BACKTRACK_CAP} doublings from L0={l0:.3e}"
            )
        trials += i + 1
        l_bar = l_try
        step = math.sqrt(dn2)
        if np.abs(w_j).max(initial=0.0) > inf_cap:
            raise NonFinite("iterate escaped the level set; objective model is broken")

        if l_bar * step / (1.0 + math.sqrt(w.dot(w))) < eps:
            return NpgOutcome(x, r, f_x, it + 1, "step_tol", trials, restricted)
        if abs(f_w - f_x) / (1.0 + abs(f_w)) < eps**1.2:
            return NpgOutcome(w, r_w, f_w, it + 1, "obj_tol", trials, restricted)

        x_prev2, x_prev, x = x_prev, x, w
        g_prev2, g_prev, g = g_prev, g, penalty.value_and_grad(r_w)[1]
        r, f_x = r_w, f_w
        f_window.append(f_w)

    return NpgOutcome(x, r, f_x, ITER_CAP, "iter_cap", trials, restricted)
