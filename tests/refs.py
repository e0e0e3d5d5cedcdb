"""Independent reference implementations used only by the tests.

Everything here recomputes answers by a method different from the library's
own (dense grids, exact rational arithmetic, brute-force enumeration), so
agreement is evidence rather than tautology.  The one exception is the last
section: frozen copies of earlier inner-loop kernels, against which the
current kernels are checked for bit-identity.
"""

from fractions import Fraction
from itertools import combinations, product

import numpy as np

from sparselp.errors import InvalidParam, NonFinite


def t2_cdf(t):
    """Closed-form CDF of the t(2) distribution, F(t) = 1/2 + t/(2 sqrt(2+t^2)).

    Reference for the library's t(2) sampler, which never uses it.
    """
    t = np.asarray(t, dtype=np.float64)
    return 0.5 + t / (2.0 * np.sqrt(2.0 + t * t))


def grid_prox(v, w, p, points=20_001):
    """Two-stage dense-grid minimizer of |t|^p + (w/2)(t-v)^2.

    The minimizer is 0 or lies in (0, |v|] with the sign of v, so scanning
    [0, |v|] is exhaustive.  A second pass refines around the coarse argmin;
    the final resolution is ~(|v|/points^2), about 4e-8 for |v| <= 4.
    """
    a = abs(v)
    if a == 0.0:
        return 0.0
    ts = np.linspace(0.0, a, points)
    obj = np.where(ts > 0, ts**p, 0.0) + 0.5 * w * (ts - a) ** 2
    i = int(np.argmin(obj))
    h = a / (points - 1)
    lo, hi = max(ts[i] - 2 * h, 0.0), min(ts[i] + 2 * h, a)
    ts2 = np.linspace(lo, hi, points)
    obj2 = np.where(ts2 > 0, ts2**p, 0.0) + 0.5 * w * (ts2 - a) ** 2
    t = float(ts2[int(np.argmin(obj2))])
    # a strictly interior grid min still loses to the exact 0 sometimes
    if t**p + 0.5 * w * (t - a) ** 2 >= 0.5 * w * a * a:
        t = 0.0
    return float(np.copysign(t, v))


# -- exact rational linear programming by polytope vertex enumeration --
#
# For integer-valued data and a bounded feasible set {x : A x <= b}, every
# optimum is attained at a vertex, and every vertex solves an invertible
# n-row active subsystem.  Enumerating all n-subsets with Fraction
# arithmetic is exact: no tolerances anywhere.


def _frac_solve(rows, rhs):
    """Gaussian elimination over Fractions; returns None if singular."""
    n = len(rhs)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1, 1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def exact_polytope_lp(c, a_ub, b_ub):
    """min c'x over {x : a_ub x <= b_ub} for a BOUNDED rational polyhedron.

    Returns ("infeasible", None, None) or ("optimal", value, vertex) with
    exact Fractions.  The caller must ensure boundedness (box rows).
    """
    c = [Fraction(v) for v in c]
    rows = [[Fraction(v) for v in row] for row in a_ub]
    rhs = [Fraction(v) for v in b_ub]
    n = len(c)
    best_val, best_x = None, None
    feasible = False
    for subset in combinations(range(len(rows)), n):
        sub = [rows[i] for i in subset]
        sr = [rhs[i] for i in subset]
        x = _frac_solve(sub, sr)
        if x is None:
            continue
        if any(sum(r * xi for r, xi in zip(row, x)) > b for row, b in zip(rows, rhs)):
            continue
        feasible = True
        val = sum(ci * xi for ci, xi in zip(c, x))
        if best_val is None or val < best_val:
            best_val, best_x = val, x
    if not feasible:
        return "infeasible", None, None
    return "optimal", best_val, best_x


def exact_l1_fit(cols, b, box=10**6):
    """Exact min_c ||cols c - b||_1 via the epigraph LP over Fractions.

    cols is an m x k integer matrix (list of rows), b an integer vector.
    Returns the exact optimal value as a Fraction.
    """
    m = len(b)
    k = len(cols[0]) if m else 0
    # variables (c_1..c_k, t_1..t_m): minimize sum t
    # rows:  cols c - t <= b,  -cols c - t <= -b,  |c_j| <= box, t_i <= box
    obj = [0] * k + [1] * m
    rows, rhs = [], []
    for i in range(m):
        rows.append([cols[i][j] for j in range(k)] + [-1 if l == i else 0 for l in range(m)])
        rhs.append(b[i])
        rows.append([-cols[i][j] for j in range(k)] + [-1 if l == i else 0 for l in range(m)])
        rhs.append(-b[i])
    for j in range(k):
        e = [0] * (k + m)
        e[j] = 1
        rows.append(list(e))
        rhs.append(box)
        e2 = [0] * (k + m)
        e2[j] = -1
        rows.append(e2)
        rhs.append(box)
    for i in range(m):
        e = [0] * (k + m)
        e[k + i] = 1
        rows.append(e)
        rhs.append(box)
        e2 = [0] * (k + m)
        e2[k + i] = -1
        rows.append(e2)
        rhs.append(0)  # t_i >= 0
    status, val, _ = exact_polytope_lp(obj, rows, rhs)
    assert status == "optimal"
    return val


def exact_l1_entry(a, b, z_from, z_to, sigma):
    """Smallest t >= 0 with ||a z(t) - b||_1 <= sigma, z(t) = z_from + t (z_to - z_from),
    over Fractions; None when the path misses the ball.

    f(t) = ||a z(t) - b||_1 is evaluated exactly at t = 0 and at every knot
    t > 0 where a residual row vanishes.  f is linear between neighbouring
    knots, so the crossing is interpolated between the last knot outside
    and the first inside.  Inputs are floats, read exactly.
    """
    a = [[Fraction(v) for v in row] for row in np.asarray(a, dtype=np.float64)]
    b = [Fraction(v) for v in np.asarray(b, dtype=np.float64)]
    z0 = [Fraction(v) for v in np.asarray(z_from, dtype=np.float64)]
    d = [Fraction(v) - w for v, w in zip(np.asarray(z_to, dtype=np.float64), z0)]
    r0 = [sum(x * z for x, z in zip(row, z0)) - bi for row, bi in zip(a, b)]
    g = [sum(x * z for x, z in zip(row, d)) for row in a]
    sigma = Fraction(sigma)

    def f(t):
        return sum(abs(r + t * s) for r, s in zip(r0, g))

    lo, f_lo = Fraction(0), f(Fraction(0))
    if f_lo <= sigma:
        return lo
    for knot in sorted({-r / s for r, s in zip(r0, g) if r * s < 0}):
        f_knot = f(knot)
        if f_knot <= sigma:
            return lo + (f_lo - sigma) / (f_lo - f_knot) * (knot - lo)
        lo, f_lo = knot, f_knot
    return None


# -- orthant vertices by a scan over every n-subset of the facets ------------
#
# The feasible set {x : ||Ax - b||_1 <= sigma} is {x : U A x <= U b + sigma}
# over all 2^m sign vectors U.  A vertex of its intersection with a closed
# orthant solves n independent active constraints taken among these 2^m
# facets and the n coordinate planes, so scanning every n-subset of the
# combined rows finds the vertices of all orthants at once.  The library
# scans lines instead, far fewer candidates, by a different argument.


def _dedup_close(points, tol):
    """Greedy merge of points within tol * (1 + ||v||_inf) in every coordinate.

    Exact repeats are collapsed first (after rounding off the last digits),
    so the pairwise pass sees each vertex a few times at most.
    """
    kept = []
    for v in np.unique(np.round(points, 12), axis=0):
        if not kept or np.abs(np.array(kept) - v).max(axis=1).min() > tol * (1.0 + np.abs(v).max()):
            kept.append(v)
    return kept


def facet_subset_vertices(a, b, sigma):
    """All orthant vertices of the l1 ball by the n-subset scan, for small m, n."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, n = a.shape
    u = np.array(list(product((1.0, -1.0), repeat=m)))
    at, bt = u @ a, u @ b + sigma
    rows = np.vstack([at, np.eye(n)])
    rhs = np.concatenate([bt, np.zeros(n)])
    scale = np.linalg.norm(rows, axis=1)
    scale[scale == 0.0] = 1.0
    rows, rhs = rows / scale[:, None], rhs / scale
    idx = np.array(list(combinations(range(len(rows)), n)), dtype=np.intp)
    idx = idx[np.abs(np.linalg.det(rows[idx])) > 1e-10]
    sols = np.linalg.solve(rows[idx], rhs[idx][:, :, None])[:, :, 0]
    # coordinate rows in the active set pin those coordinates to zero
    hit, slot = np.nonzero(idx >= len(at))
    sols[hit, idx[hit, slot] - len(at)] = 0.0
    size = 1.0 + np.max(np.abs(sols), axis=1)
    active = np.abs(np.einsum("kij,kj->ki", rows[idx], sols) - rhs[idx]).max(axis=1)
    excess = (at @ sols.T - bt[:, None]).max(axis=0)
    keep = (active <= 1e-8 * size) & (excess <= 1e-9 * size)
    return _dedup_close(sols[keep], 1e-9)


# -- frozen copies of the earlier inner-loop kernels --
#
# Unlike the references above these are not independent methods: they are
# the per-trial kernels as they stood before the prox and the penalties were
# rewritten to make fewer numpy calls.  The rewrite promises the same
# floating-point operations, so the new kernels must agree with these bit
# for bit, and a solve run on either set must be bit-identical.

NEWTON_CAP = 100
RESIDUAL_TOL = 1e-13


def _check_w_p(w: float, p: float) -> None:
    if not 0.0 < p < 1.0:
        raise InvalidParam(f"p must be in (0, 1), got {p}")
    if not (np.isfinite(w) and w > 0.0):
        raise InvalidParam(f"w must be positive and finite, got {w}")


def prox_threshold(w: float, p: float) -> float:
    """Dead-zone radius tau_bar(w, p) below which the prox returns 0."""
    _check_w_p(w, p)
    return (2.0 - p) / (2.0 - 2.0 * p) * (2.0 * (1.0 - p) / w) ** (1.0 / (2.0 - p))


def _prox_magnitudes(av: np.ndarray, w: float, p: float) -> np.ndarray:
    """Prox of the power objective at nonnegative inputs av, weight w."""
    out = np.zeros_like(av)
    tau = prox_threshold(w, p)
    live = av > tau
    if not np.any(live):
        return out
    a = av[live]
    t_infl = (p * (1.0 - p) / w) ** (1.0 / (2.0 - p))
    t = a.copy()
    tol = RESIDUAL_TOL * np.maximum(1.0, w * a)
    for _ in range(NEWTON_CAP):
        resid = p * t ** (p - 1.0) + w * (t - a)
        if np.all(np.abs(resid) <= tol):
            break
        slope = p * (p - 1.0) * t ** (p - 2.0) + w
        t = np.clip(t - resid / slope, t_infl, a)
    # the stationary point must beat 0; outside the dead zone it always
    # does, but compare anyway to guard the float boundary
    better = t**p + 0.5 * w * (t - a) ** 2 <= 0.5 * w * a * a
    out[live] = np.where(better, t, 0.0)
    return out


def prox_vector(x, grad, l: float, p: float) -> np.ndarray:
    """Proximal-gradient step: argmin_z lp_power_sum(z, p) + <grad, z - x>
    + (l/2) ||z - x||^2, solved coordinatewise at v = x - grad / l."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if x.shape != grad.shape:
        raise InvalidParam("x and grad must have the same shape")
    v = x - grad / l
    if not np.isfinite(v).all():
        raise NonFinite("prox-gradient point is not finite")
    mags = _prox_magnitudes(np.abs(v), l, p)
    return np.where(mags != 0.0, np.copysign(mags, v), 0.0)


def smoothed_plus(s, mu: float):
    """Smoothed positive part and its derivative.

    Equals max(s, 0) outside [-mu/2, mu/2] and s^2/(2 mu) + s/2 + mu/8
    inside; the derivative is clip(s/mu + 1/2, 0, 1).
    """
    s = np.asarray(s, dtype=np.float64)
    inner = s * s / (2.0 * mu) + 0.5 * s + mu / 8.0
    val = np.where(np.abs(s) >= 0.5 * mu, np.maximum(s, 0.0), inner)
    der = np.clip(s / mu + 0.5, 0.0, 1.0)
    return val, der


def smoothed_abs(t, nu: float):
    """Smoothed absolute value and its derivative.

    Equals |t| outside [-nu/2, nu/2] and t^2/nu + nu/4 inside; the
    derivative is clip(2 t / nu, -1, 1).
    """
    t = np.asarray(t, dtype=np.float64)
    inner = t * t / nu + 0.25 * nu
    val = np.where(np.abs(t) >= 0.5 * nu, np.abs(t), inner)
    der = np.clip(2.0 * t / nu, -1.0, 1.0)
    return val, der


def lp_power_sum(x, p: float) -> float:
    """sum_i |x_i|^p for 0 < p <= 1 (the sparsity surrogate)."""
    return float(np.sum(np.abs(np.asarray(x, dtype=np.float64)) ** p))


class L1SmoothedPenalty:
    """Smoothed penalty for the q = 1 residual ball, bound to one instance
    and one parameter triple; r is the residual A x - b."""

    def __init__(self, inst, sp):
        self.inst = inst
        self.sp = sp

    def value(self, r) -> float:
        s = float(np.sum(smoothed_abs(r, self.sp.nu)[0])) - self.inst.sigma
        val, _ = smoothed_plus(s, self.sp.mu)
        return self.sp.lam * float(val)

    def value_and_grad(self, r):
        inst, sp = self.inst, self.sp
        hv, hd = smoothed_abs(r, sp.nu)
        s = float(np.sum(hv)) - inst.sigma
        gv, gd = smoothed_plus(s, sp.mu)
        value = sp.lam * float(gv)
        outer = sp.lam * float(gd)
        if outer == 0.0:
            return value, np.zeros(inst.n)
        return value, outer * (inst.a.T @ hd)

    def grad(self, r) -> np.ndarray:
        return self.value_and_grad(r)[1]


class L2SmoothedPenalty:
    """Penalty for the q = 2 ball: lam * smoothed_plus(||r||^2 - sigma^2),
    with r = A x - b."""

    def __init__(self, inst, sp):
        self.inst = inst
        self.sp = sp

    def value(self, r) -> float:
        u = float(r @ r) - self.inst.sigma**2
        val, _ = smoothed_plus(u, self.sp.mu)
        return self.sp.lam * float(val)

    def value_and_grad(self, r):
        u = float(r @ r) - self.inst.sigma**2
        val, der = smoothed_plus(u, self.sp.mu)
        value = self.sp.lam * float(val)
        outer = self.sp.lam * float(der)
        if outer == 0.0:
            return value, np.zeros(self.inst.n)
        return value, outer * 2.0 * (self.inst.a.T @ r)

    def grad(self, r) -> np.ndarray:
        return self.value_and_grad(r)[1]
