"""Nonmonotone proximal-gradient inner solver.

Minimizes F(x) = lp_power_sum(x, p) + penalty(x) for a fixed smoothed
penalty.  Each iteration backtracks a step constant L (multiplying by TAU
from a secant-curvature initial guess floored at L_MIN, with no upper cap)
until the prox-gradient point w satisfies

    F(w) - max{F over the last MEMORY+1 accepted iterates} <= -(C/2)||w - x||^2,

then tests two relative stopping rules on the accepted pair (x, w):
L ||w - x|| / (1 + ||w||) < eps, or |F(w) - F(x)| / (1 + |F(w)|) < eps^1.2.

The first line search starts from L = 1 unless the caller passes the step
constant a previous solve accepted last (NpgOutcome.l_bar); it then starts
from half of it, the same floor every later iteration gets from the step
accepted before it.  The outer loop passes it from round to round: each
round raises the penalty's curvature, and a start from 1 would double
through the whole gap again.

Return convention: a step-size exit returns the pre-step point x as
x_final, since the small step certifies its approximate stationarity; the
objective-flatline and ITER_CAP exits return the last accepted point
instead.  Flatline can trigger on the very first pair when the start sits
in a shallow region, and handing back the start unchanged would make the
caller's progress measures vanish identically.  Every accepted iterate
satisfies F <= F(x0), so the swap keeps the no-worse-than-start guarantee.

The penalty sees x only through the residual r = Ax - b, and it works in
residual space: it returns its value and the pieces (coef, u) of its
gradient coef * A^T u, and this module makes every product with A.  The
residual travels with the iterate, and the outcome hands back the residual
of x_final.

Working set.  The prox dead zone keeps the iterates very sparse, so the
loop runs on a working set W of coordinates: iterates, gradients, prox
calls, step norms and secant curvatures all live in W's coordinates.  The
gradient is A_W^T v, with v = coef * u the residual-space gradient and A_W
a copy of W's columns gathered once per rebuild (working_columns), and each
trial's residual is A_W w_W - b.  Coordinates outside W stay at zero, which
an exact keep-zero screen certifies at every iteration.  Let g_ref and
v_ref be the x-space and residual-space gradients of the last full
product.  Outside W every coordinate is zero, so the prox zeroes it in
a trial with step constant l exactly when |g_i| <= l tau_bar(l, p), and
l tau_bar(l, p) grows with l.  By Cauchy-Schwarz |g_i - g_ref_i| <=
||a_i|| ||v - v_ref||, so with c the largest norm of a column outside W
(ProblemInstance.col_norms, computed once per instance)

    max_{i not in W} |g_ref_i| + c ||v - v_ref|| <= l0 tau_bar(l0, p),

less a rounding allowance (_screen_slack), keeps every coordinate outside W
at zero in every trial of the iteration.  When it fails, the iteration
takes the full product A^T v as the new reference, and W stays if the
screen passes at it.  Otherwise W is rebuilt: the union of the last three
supports (which the secant curvatures read) and every coordinate the
screen cannot certify at the new reference, which includes every
coordinate live in trial 0.  It is also rebuilt when the last three
supports fill at most 1/FILL of W, as after a dense start, and W is all of
x whenever it would hold more than n/FILL coordinates; then every product
is full and no screen is needed.  The iterates thus equal those of the
loop on all of x up to the summation order of the products, for either
residual ball, and the outcome counts the iterations that took the full
product.

The nonmonotone rule makes about three trials per accepted step, and at
the desk size a trial's cost is the number of numpy calls it makes, so the
loop keeps scalars as Python floats (math.isfinite, math.sqrt, ndarray.dot)
and leaves the arrays to prox_vector and the penalty.  prox_vector is
looked up on this module at call time, so a wrapper set on
sparselp.npg.prox_vector sees every trial: its first argument is the
current accepted iterate, and its output the trial point w, both in W's
coordinates.  working_columns is looked up the same way, so a wrapper sees
each working set the loop adopts (None for all of x).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import ProblemInstance
from .errors import LineSearchStalled, NonFinite
from .prox import prox_threshold, prox_vector
from .smoothing import lp_power_sum

L_MIN = 1e-6  # floor of the initial step constant
TAU = 2.0  # backtracking multiplier of the step constant
C = 1e-4  # sufficient-decrease constant
MEMORY = 2  # accepted values beyond the current one in the nonmonotone window
ITER_CAP = 1000
BACKTRACK_CAP = 60
# W is rebuilt once the last three supports fill at most 1/FILL of it, and
# is all of x once it would hold more than n/FILL coordinates
FILL = 2
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class NpgOutcome:
    x_final: np.ndarray
    r_final: np.ndarray  # residual A x_final - b
    f_final: float
    iters: int
    stop_reason: str  # "step_tol" | "obj_tol" | "iter_cap"
    trials: int  # line-search trials, at least one per iteration
    full_products: int  # iterations that took the full A^T product
    l_bar: float  # step constant of the last accepted trial


def working_columns(a, work):
    """A's columns in the working set work (sorted indices), gathered into
    one copy; all of A when work is None."""
    return a if work is None else a[:, work]


def _screen_slack(m: int, c: float) -> float:
    """Rounding allowance of the keep-zero screen per unit of residual-space
    gradient norm, for columns of norm at most c.

    The screen bounds the gradient the loop on all of x would compute,
    fl(A^T v), from the computed reference g_ref = fl(A^T v_ref), the
    computed ||v - v_ref|| and c.  Each entry of a computed A^T v is off by
    at most gamma_m sum_i |a_ij| |v_i| <= (m + 1) eps c ||v|| (Higham's
    bound, then Cauchy-Schwarz), once in the reference and once in the
    current product; the computed norms ||v - v_ref|| and c add relative
    errors of at most (m/2 + 3) eps on a term no larger than
    c (||v|| + ||v_ref||).  So the bound's error is below
    4 (m + 5) eps c (||v|| + ||v_ref||), which is this allowance times
    2 ||v_ref|| + ||v - v_ref||.
    """
    return 4.0 * (m + 5) * _EPS * c


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
    accepted last: at the previous iteration, or on the first one the
    constant the caller handed in from a previous solve.  None (a first
    iteration with nothing handed in, as in an outer loop's first round)
    starts from 1.  Otherwise the guess is the mean of the three pairwise
    secant curvatures over the window, floored by half of l_bar_prev; on
    a first iteration the three points coincide, the curvatures are 0, and
    the guess is half of l_bar_prev.
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


def npg_solve(
    inst: ProblemInstance, penalty, x0, eps: float, r0=None, l_bar: float | None = None
) -> NpgOutcome:
    """Run the inner loop on lp_power_sum + penalty from x0 down to inner
    tolerance eps.

    penalty is a smoothing.SmoothedPenalty bound to inst, or anything with
    its value(r) and value_and_grad_parts(r).  r0, if given, is the residual
    A x0 - b, which saves one product.  l_bar, if given, is the step
    constant a previous solve accepted last (its outcome's l_bar): the first
    line search then starts from half of it instead of from 1.
    """
    a, b, m, n, p = inst.a, inst.b, inst.m, inst.n, inst.p

    x = np.array(x0, dtype=np.float64)
    r = inst.residual(x) if r0 is None else r0
    pen_val, coef, u = penalty.value_and_grad_parts(r)
    f_x = lp_power_sum(x, p) + pen_val
    if not math.isfinite(f_x):
        raise NonFinite("objective is not finite at the starting point")
    # every accepted iterate stays in the level set {F <= F(x0)}, which for
    # the power objective means ||x||_inf <= F(x0)^(1/p)
    inf_cap = (max(f_x, 0.0) + 1e-9) ** (1.0 / p) * (1.0 + 1e-9)
    slack_all = _screen_slack(m, float(inst.col_norms.max()))

    # W starts as all of x, so the first product is full.  work holds W's
    # sorted indices, None for all of x; v_ref, screen_base and screen_rate
    # hold the screen's reference
    work = None
    a_w = working_columns(a, None)
    x_prev = x_prev2 = x
    # residual-space gradients coef * u of x, x_prev, x_prev2
    vs = deque([coef * u] * 3, maxlen=3)
    f_window = deque([f_x], maxlen=MEMORY + 1)
    trials = full = 0
    for it in range(ITER_CAP):
        v = vs[0]
        g = a_w.T @ v
        if it == 0:
            g_prev = g_prev2 = g
        l0 = initial_step_constant((x, x_prev, x_prev2), (g, g_prev, g_prev2), l_bar)
        # l tau_bar(l) grows with l, so a coordinate kept at zero at l0 stays
        # there in every later trial; 16 eps covers the rounding of tau_bar
        # and of each trial's own |g_i| / l against it
        cut = l0 * prox_threshold(l0, p) * (1.0 - 16.0 * _EPS)
        size = n if work is None else work.size
        # rebuild when the last three supports fill at most 1/FILL of W
        rebuild = FILL * np.count_nonzero((x != 0.0) | (x_prev != 0.0) | (x_prev2 != 0.0)) <= size
        if work is None:
            full += 1
            g_all = g
        elif rebuild:
            full += 1
            g_all = a.T @ v
        else:
            dv = v - v_ref
            if not screen_base + screen_rate * math.sqrt(dv.dot(dv)) <= cut:
                # the full product gives a new reference, and W must change
                # only if the screen fails at it too
                full += 1
                g_all = a.T @ v
                v_ref = v
                screen_base = _screen_base(g_all, work, slack * math.sqrt(v.dot(v)))
                rebuild = not screen_base <= cut
        if rebuild:
            # W becomes the last three supports and every coordinate the
            # screen cannot keep at zero at this reference
            v_norm = math.sqrt(v.dot(v))
            inside = np.abs(g_all) > cut - 2.0 * slack_all * v_norm
            xs = np.zeros((3, n))
            xs[:, slice(None) if work is None else work] = (x, x_prev, x_prev2)
            inside |= xs.any(axis=0)
            new = inside.nonzero()[0]
            if FILL * new.size > n:
                new = None
            if new is not None or work is not None:
                work, a_w = new, working_columns(a, new)
                x, x_prev, x_prev2 = xs if work is None else xs[:, work]
                g = g_all if work is None else g_all[work]
                # the history's gradients on the new W
                g_prev, g_prev2 = (g, g) if it == 0 else np.array((vs[1], vs[2])) @ a_w
                if work is not None:
                    c_out = float(inst.col_norms[~inside].max(initial=0.0))
                    slack = _screen_slack(m, c_out)
                    v_ref = v
                    screen_base = _screen_base(g_all, work, slack * v_norm)
                    screen_rate = c_out + slack

        f_max = max(f_window)
        for i in range(BACKTRACK_CAP + 1):
            l_try = l0 * TAU**i
            w = prox_vector(x, g, l_try, p)
            r_w = a_w @ w - b
            pen_w = penalty.value(r_w)
            f_w = lp_power_sum(w, p) + pen_w
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
        if np.abs(w).max(initial=0.0) > inf_cap:
            raise NonFinite("iterate escaped the level set; objective model is broken")

        if l_bar * step / (1.0 + math.sqrt(w.dot(w))) < eps:
            return NpgOutcome(_scatter(x, work, n), r, f_x, it + 1, "step_tol", trials, full, l_bar)
        if abs(f_w - f_x) / (1.0 + abs(f_w)) < eps**1.2:
            return NpgOutcome(_scatter(w, work, n), r_w, f_w, it + 1, "obj_tol", trials, full, l_bar)

        x_prev2, x_prev, x = x_prev, x, w
        g_prev2, g_prev = g_prev, g
        _, coef, u = penalty.value_and_grad_parts(r_w)
        vs.appendleft(coef * u)
        r, f_x = r_w, f_w
        f_window.append(f_w)

    return NpgOutcome(_scatter(x, work, n), r, f_x, ITER_CAP, "iter_cap", trials, full, l_bar)


def _screen_base(g_all, work, slack_v: float) -> float:
    """The screen's fixed part: the largest |g_i| outside W, plus the
    rounding allowance at v = v_ref (slack_v is the allowance per unit
    times ||v_ref||)."""
    mag = np.abs(g_all)
    mag[work] = 0.0
    return float(mag.max()) + 2.0 * slack_v


def _scatter(z, work, n: int) -> np.ndarray:
    """A W-space vector as an n-vector, zero outside W."""
    if work is None:
        return z
    out = np.zeros(n)
    out[work] = z
    return out
