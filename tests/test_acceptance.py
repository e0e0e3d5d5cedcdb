"""Release gate: one test per acceptance criterion.

Each test prints a single PASS/FAIL line (visible with -s, or in the
captured output on failure) and pins its tolerances inline.  A red test
here means the criterion is not met; do not loosen the numbers.
"""

import time

import numpy as np
import pytest

from refs import grid_prox, residual_sandwich_check
from sparselp import (
    GenSpec,
    ProblemInstance,
    all_orthant_vertices,
    estimate_p_star,
    gen_instance,
    kkt_property_report,
    solve_exact_l0,
    solve_exact_lp_quasinorm,
    solve_l1,
)
from sparselp.experiments import SPARSITY_P_GRID, profile_cells, run_grid
from sparselp.linalg import lq_norm
from sparselp.npg import npg_solve
from sparselp.prox import prox_vector
from sparselp.smoothing import SmoothedPenalty, lp_power_sum, smoothed_abs, smoothed_plus
from conftest import (
    GOLDEN_VERTEX_SET,
    TINY_SPECS,
    accepted_steps,
    penalty_value_and_grad,
    recorded_trials,
)


def _verdict(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# -- 1: golden instance, exact oracle ---------------------------------------


def test_golden_oracle_exactness(golden):
    t0 = time.perf_counter()
    verts = all_orthant_vertices(golden)
    sol = solve_exact_lp_quasinorm(golden, 0.5, vertices=verts)
    l0 = solve_exact_l0(golden)
    est = estimate_p_star(golden, vertices=verts, sparsest_k=int(l0.optimal_value))
    elapsed = time.perf_counter() - t0

    exact = sorted(GOLDEN_VERTEX_SET)
    matched, worst = set(), 0.0
    for v in verts:
        gaps = [float(np.max(np.abs(np.asarray(e) - v))) for e in exact]
        j = int(np.argmin(gaps))
        matched.add(j)
        worst = max(worst, gaps[j])
    union_ok = len(verts) == 12 and len(matched) == 12 and worst <= 1e-9

    targets = [np.array([2.5, 0.0, 0.0]), np.array([0.0, 2.5, 0.0])]
    sol_ok = (
        len(sol.minimizers) == 2
        and sol.optimal_value == pytest.approx(np.sqrt(2.5), abs=1e-12)
        and all(
            min(float(np.max(np.abs(x - t))) for t in targets) <= 1e-9
            for x in sol.minimizers
        )
    )
    pstar_ok = (
        est.s == 1
        and abs(est.p_star - np.log(2.0) / np.log(6.0 + np.sqrt(2.0))) <= 1e-12
    )
    ok = union_ok and sol_ok and pstar_ok and elapsed < 1.0
    _verdict(
        "golden oracle",
        ok,
        f"12-vertex union dev {worst:.1e} <= 1e-9, minimizer coords <= 1e-9, "
        f"threshold exponent <= 1e-12, {elapsed:.2f}s < 1s",
    )


# -- 2 and 3 share twenty tiny random instances ------------------------------

@pytest.fixture(scope="module")
def tiny_suite():
    t0 = time.perf_counter()
    suite = []
    for spec in TINY_SPECS:
        inst, _, _ = gen_instance(spec)
        verts = all_orthant_vertices(inst)
        l0 = solve_exact_l0(inst)
        suite.append((inst, verts, l0))
    return suite, time.perf_counter() - t0


def test_tiny_minimizer_properties(tiny_suite):
    suite, build_time = tiny_suite
    t0 = time.perf_counter()
    checked = 0
    worst_boundary, worst_slack = 0.0, np.inf
    for inst, verts, _ in suite:
        for p in (0.3, 0.5, 0.7):
            sol = solve_exact_lp_quasinorm(inst, p, vertices=verts)
            for x in sol.minimizers:
                rep = kkt_property_report(inst, x)
                checked += 1
                worst_boundary = max(worst_boundary, abs(rep.err2))
                worst_slack = min(worst_slack, rep.lower_slack, rep.upper_slack)
                assert rep.nnz == rep.rank_aj, (inst.m, inst.n, p)
    elapsed = build_time + (time.perf_counter() - t0)
    ok = worst_boundary <= 1e-8 and worst_slack >= -1e-8 and elapsed < 30.0
    _verdict(
        "tiny minimizer properties",
        ok,
        f"{checked} minimizers over 20 instances: boundary gap {worst_boundary:.1e}"
        f" <= 1e-8, sandwich slack {worst_slack:.1e} >= -1e-8, nnz = support rank"
        f" on all, {elapsed:.1f}s < 30s",
    )


def test_small_exponent_inclusion(tiny_suite):
    suite, _ = tiny_suite
    checked, violations = 0, 0
    for inst, verts, l0 in suite:
        est = estimate_p_star(inst, vertices=verts, sparsest_k=int(l0.optimal_value))
        for p in (est.p_star / 2.0, 0.9 * est.p_star):
            sol = solve_exact_lp_quasinorm(inst, p, vertices=verts)
            for x in sol.minimizers:
                checked += 1
                # held vertices: their zeros are exact
                if np.count_nonzero(x) != est.s:
                    violations += 1
    _verdict(
        "small-exponent inclusion",
        violations == 0,
        f"{checked} minimizers below the threshold exponent, {violations} outside"
        " the sparsest set (required: 0)",
    )


# -- 4: desk-scale quality grid ----------------------------------------------


def test_desk_quality_grid(monkeypatch):
    monkeypatch.delenv("SPARSELP_THREADS", raising=False)
    t0 = time.perf_counter()
    records = run_grid(profile_cells(profile="desk", seeds=10, p_grid=(0.5, 0.3, 0.1), delta=1e-3))
    elapsed = time.perf_counter() - t0
    assert len(records) == 60
    cells: dict = {}
    for r in records:
        cells.setdefault((r.noise, r.p), []).append(r)
    ok = elapsed < 180.0
    worst_mean_err2 = 0.0
    for (noise, p), recs in cells.items():
        ok = ok and all(r.stop_reason == "converged" for r in recs)
        ok = ok and all(r.nnz == r.rank_aj for r in recs)
        ok = ok and all(r.err1 == 0.0 for r in recs)
        mean_err2 = float(np.mean([r.err2 for r in recs]))
        worst_mean_err2 = max(worst_mean_err2, mean_err2)
        ok = ok and 0.0 <= mean_err2 <= 1e-5
        if noise == "gauss" and p <= 0.5:
            ok = ok and float(np.mean([r.nnz for r in recs])) <= 1.2 * 10
    _verdict(
        "desk quality grid",
        ok,
        "60 runs (10 seeds x 2 noises x p in {0.5,0.3,0.1}): nnz = support rank"
        f" and err1 = 0 on 10/10 everywhere, worst mean err2 {worst_mean_err2:.2e}"
        f" <= 1e-5, {elapsed:.0f}s < 180s",
    )


# -- 5: desk-scale solver comparison -----------------------------------------


def test_desk_solver_comparison(monkeypatch):
    monkeypatch.delenv("SPARSELP_THREADS", raising=False)
    records = run_grid(profile_cells(
        profile="desk", seeds=10, p_grid=(0.5,), solvers=("l1", "l2"), delta=1e-3
    ))
    gauss_l1 = [r for r in records if r.noise == "gauss" and r.solver == "l1"]
    assert len(gauss_l1) == 10
    hits = sum(r.recerr <= 5e-3 for r in gauss_l1)
    conv_l1 = [r for r in records if r.solver == "l1" and r.stop_reason == "converged"]
    feas_ok = all(r.feas == 0.0 for r in conv_l1)
    pairs: dict = {}
    for r in records:
        if r.noise == "t2":
            pairs.setdefault(r.seed, {})[r.solver] = r
    wins = sum(
        1
        for pair in pairs.values()
        if len(pair) == 2 and pair["l1"].recerr < pair["l2"].recerr
    )
    ok = hits >= 8 and feas_ok and wins >= 7
    _verdict(
        "desk solver comparison",
        ok,
        f"gauss recovery <= 5e-3 on {hits}/10 (need >= 8), residual overshoot 0"
        f" on all {len(conv_l1)} converged runs, heavy-tail l1-ball win on"
        f" {wins}/10 (need >= 7)",
    )


# -- 6: sparsity trend across the exponent grid ------------------------------


def test_desk_sparsity_trend(monkeypatch):
    monkeypatch.delenv("SPARSELP_THREADS", raising=False)
    records = run_grid(profile_cells(profile="desk", seeds=1, p_grid=SPARSITY_P_GRID, delta=1e-3))
    details = []
    ok = True
    for noise in ("gauss", "t2"):
        recs = sorted((r for r in records if r.noise == noise), key=lambda r: -r.p)
        nnz = [r.nnz for r in recs]
        assert len(nnz) == 19
        violations = sum(1 for a, b in zip(nnz, nnz[1:]) if b > a)
        plateau = [r.nnz for r in recs if r.p <= 0.5]
        plateau_ok = all(8 <= v <= 12 for v in plateau)
        ok = ok and violations <= 1 and plateau_ok
        details.append(f"{noise}: {violations} trend violations, plateau {sorted(set(plateau))}")
    _verdict(
        "desk sparsity trend",
        ok,
        "; ".join(details) + " (need <= 1 violation per curve, plateau in 10 +/- 2"
        " for p <= 0.5)",
    )


# -- 7: property suites -------------------------------------------------------


def _envelope_violations(rng):
    bad = 0
    for width in (1e-3, 0.1, 1.0, 10.0):
        s = rng.uniform(-5 * width, 5 * width, 2500)
        val = np.array([smoothed_plus(si, width)[0] for si in s.tolist()])
        gap = val - np.maximum(s, 0.0)
        bad += int(np.sum(gap < -1e-15)) + int(np.sum(gap > width / 8 + 1e-15))
        t = rng.uniform(-5 * width, 5 * width, 2500)
        val, _ = smoothed_abs(t, width)
        gap = val - np.abs(t)
        bad += int(np.sum(gap < -1e-15)) + int(np.sum(gap > width / 4 + 1e-15))
    return bad


def _gradient_worst_rel(rng):
    h, worst = 1e-6, 0.0
    for _ in range(10):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 7))
        inst = ProblemInstance(
            a=rng.standard_normal((m, n)),
            b=rng.standard_normal(m) + 2.0, sigma=0.3, p=0.5,
        )
        pen = SmoothedPenalty(
            inst,
            1.0,
            lam=float(rng.uniform(0.5, 4.0)),
            mu=float(rng.uniform(0.05, 1.0)),
        )
        for _ in range(100):
            x = rng.standard_normal(n)
            _, grad = penalty_value_and_grad(pen, inst.residual(x))
            j = int(rng.integers(n))
            e = np.zeros(n)
            e[j] = h
            fd = (pen.value(inst.residual(x + e)) - pen.value(inst.residual(x - e))) / (2 * h)
            worst = max(worst, abs(grad[j] - fd) / max(1e-6, abs(fd)))
    return worst


def _prox_worst_dev(rng):
    worst, cases = 0.0, 0
    for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        for _ in range(112):
            v = float(rng.uniform(-4.0, 4.0))
            w = float(rng.uniform(0.2, 8.0))
            t = prox_vector(np.array([v]), np.zeros(1), w, p)[0]
            tg = grid_prox(v, w, p)
            cases += 1
            if t == 0.0 or tg == 0.0:
                # dead-zone tie: branches with equal objective to grid
                # precision; the solver must not be worse
                def obj(u):
                    return (abs(u) ** p if u else 0.0) + 0.5 * w * (u - v) ** 2

                assert obj(t) <= obj(tg) + 1e-9
            else:
                worst = max(worst, abs(t - tg))
    return worst, cases


def _sandwich_violations(rng):
    bad = 0
    for _ in range(100):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        inst = ProblemInstance(
            a=rng.standard_normal((m, n)),
            b=rng.standard_normal(m), sigma=float(rng.uniform(0.01, 2.0)),
        )
        for _ in range(10):
            if not residual_sandwich_check(inst, rng.standard_normal(n) * 3)[3]:
                bad += 1
    return bad


def _norm_order_violations(rng):
    bad = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 33))
        x = rng.standard_normal(n) * 10 ** rng.uniform(-3, 3)
        l1, l2, linf = lq_norm(x, 1), lq_norm(x, 2), lq_norm(x, np.inf)
        tol = 1e-12 * max(1.0, l1)
        if not (l2 <= l1 + tol and l1 <= np.sqrt(n) * l2 + tol):
            bad += 1
        if not (linf <= l2 + tol and l2 <= np.sqrt(n) * linf + tol):
            bad += 1
    return bad


def _npg_battery(rng):
    for _ in range(30):
        m, n = int(rng.integers(2, 8)), int(rng.integers(2, 10))
        inst = ProblemInstance(
            a=rng.standard_normal((m, n)),
            b=rng.standard_normal(m) + 2.0, sigma=0.3,
            p=float(rng.choice([0.3, 0.5, 0.7])),
        )
        pen = SmoothedPenalty(
            inst,
            1.0,
            lam=float(10 ** rng.uniform(0, 3)),
            mu=float(10 ** rng.uniform(-2, 0)),
        )
        x0 = rng.standard_normal(n)
        f0 = lp_power_sum(x0, inst.p) + pen.value(inst.residual(x0))
        with recorded_trials() as rows:
            out = npg_solve(inst, pen, x0, eps=1e-4)
        assert out.f_final <= f0 + 1e-9 * (1 + abs(f0))
        # nonmonotone window descent, rechecked from the recorded trials
        fs = [f0] + [
            lp_power_sum(w, inst.p) + pen.value(inst.residual(w))
            for _, _, w in accepted_steps(rows)
        ]
        for i in range(1, len(fs)):
            window = fs[max(0, i - 3):i]
            assert fs[i] <= max(window) + 1e-9 * (1 + abs(fs[i]))
    # the full outer loop carries its own start-anchor and penalty-decay
    # assertions; drive them on a few small solves
    for seed in range(5):
        inst, _, _ = gen_instance(GenSpec(m=10, n=20, s=2, delta=1e-2, seed=seed))
        assert solve_l1(inst).stop_reason == "converged"


def test_property_suites(rng):
    t0 = time.perf_counter()
    env_bad = _envelope_violations(rng)
    grad_worst = _gradient_worst_rel(rng)
    prox_worst, prox_cases = _prox_worst_dev(rng)
    sandwich_bad = _sandwich_violations(rng)
    norm_bad = _norm_order_violations(rng)
    _npg_battery(rng)
    elapsed = time.perf_counter() - t0
    ok = (
        env_bad == 0
        and grad_worst <= 1e-5
        and prox_worst <= 1e-7
        and prox_cases >= 1000
        and sandwich_bad == 0
        and norm_bad == 0
        and elapsed < 120.0
    )
    _verdict(
        "property suites",
        ok,
        f"envelopes 1e4 draws: {env_bad} violations; gradient vs central"
        f" differences: rel {grad_worst:.1e} <= 1e-5; prox vs grid oracle"
        f" ({prox_cases} cases): dev {prox_worst:.1e} <= 1e-7; residual sandwich"
        f" 1e3 points: {sandwich_bad} violations; norm ordering 1e4 vectors:"
        f" {norm_bad} violations; line-search battery clean; {elapsed:.0f}s < 120s",
    )
