import csv
import dataclasses

import numpy as np
import pytest

import sparselp.solver
from sparselp import InvalidParam
from sparselp.experiments import (
    SMOOTHING_HEADER,
    SPARSITY_HEADER,
    SUCCESS_HEADER,
    TABLE1_HEADER,
    TABLE2_HEADER,
    RunRecord,
    profile_cells,
    run_grid,
    smoothing_grid,
    sparsity_rows,
    success_cells,
    success_rows,
    table1_rows,
    table2_rows,
    thread_count,
    write_csv,
)


def test_thread_count(monkeypatch):
    monkeypatch.delenv("SPARSELP_THREADS", raising=False)
    assert thread_count() == 1
    monkeypatch.setenv("SPARSELP_THREADS", "4")
    assert thread_count() == 4
    monkeypatch.setenv("SPARSELP_THREADS", " 2 ")
    assert thread_count() == 2
    for bad in ("0", "-1", "abc", "1.5"):
        monkeypatch.setenv("SPARSELP_THREADS", bad)
        with pytest.raises(InvalidParam, match="SPARSELP_THREADS"):
            thread_count()


def test_table1_single_run():
    recs = run_grid(profile_cells(profile="desk", seeds=1, p_grid=(0.5,), noises=("gauss",)))
    assert len(recs) == 1
    r = recs[0]
    assert (r.noise, r.p, r.seed, r.solver) == ("gauss", 0.5, 0, "l1")
    assert r.stop_reason == "converged"
    assert r.nnz == 10 and r.rank_aj == 10
    assert r.err1 == 0.0
    assert 0.0 <= r.err2 <= 1e-5
    assert r.outer_iters > 0 and r.inner_iters > 0
    assert r.wall_time > 0.0


def _rec(**fields):
    base = dict(
        noise="gauss", m=5, n=9, s=2, delta=0.1, p=0.5, solver="l1", seed=0,
        nnz=2, rank_aj=2, err1=0.0, err2=0.0, feas=0.0, recerr=0.0,
        outer_iters=1, inner_iters=1, wall_time=0.5, stop_reason="converged",
    )
    return RunRecord(**(base | fields))


def _t1(noise, p, nnz):
    return _rec(noise=noise, p=p, nnz=nnz, rank_aj=nnz)


def test_table1_rows_aggregate_in_first_appearance_order():
    recs = [_t1("t2", 0.5, 4), _t1("gauss", 0.5, 2), _t1("t2", 0.5, 6), _t1("t2", 0.3, 1)]
    rows = table1_rows(recs)
    assert [(r[0], r[1]) for r in rows] == [("t2", 0.5), ("gauss", 0.5), ("t2", 0.3)]
    assert rows[0][2] == 5.0  # mean nnz of the two t2/0.5 records
    assert len(rows[0]) == len(TABLE1_HEADER)


def test_table2_matched_pair_run():
    recs = run_grid(profile_cells(
        profile="desk", seeds=1, p_grid=(0.5,), solvers=("l1", "l2"), noises=("gauss",)
    ))
    assert [r.solver for r in recs] == ["l1", "l2"]
    for r in recs:
        assert (r.m, r.n, r.s) == (100, 500, 10)
        assert r.stop_reason == "converged"
        assert r.feas == 0.0
        assert r.recerr < 5e-3
    assert recs[0].seed == recs[1].seed == 0


def _t2(noise, solver, recerr):
    return _rec(noise=noise, solver=solver, recerr=recerr)


def test_table2_rows_aggregate():
    recs = [_t2("gauss", "l1", 0.2), _t2("gauss", "l2", 0.6), _t2("gauss", "l1", 0.4)]
    rows = table2_rows(recs)
    assert [(r[0], r[5]) for r in rows] == [("gauss", "l1"), ("gauss", "l2")]
    assert rows[0][8] == pytest.approx(0.3)
    assert len(rows[0]) == len(TABLE2_HEADER)


def test_sparsity_grid_run():
    recs = run_grid(profile_cells(profile="desk", seeds=1, p_grid=(0.5, 0.3), noises=("gauss",)))
    assert [(r.noise, r.p) for r in recs] == [("gauss", 0.5), ("gauss", 0.3)]
    assert all(r.nnz == 10 for r in recs)
    assert sparsity_rows(recs) == [("gauss", 0.5, 10), ("gauss", 0.3, 10)]
    assert len(sparsity_rows(recs)[0]) == len(SPARSITY_HEADER)


def test_parallel_matches_serial(monkeypatch):
    def run():
        recs = run_grid(profile_cells(profile="desk", seeds=1, p_grid=(0.5,), noises=("gauss", "t2")))
        return [dataclasses.replace(r, wall_time=0.0) for r in recs]

    monkeypatch.delenv("SPARSELP_THREADS", raising=False)
    serial = run()
    monkeypatch.setenv("SPARSELP_THREADS", "2")
    parallel = run()
    assert len(serial) == 2
    assert serial == parallel  # every field but the wall time


def test_success_curve_smoke():
    recs = run_grid(success_cells(m=20, n=40, s_values=(3,), trials=2, delta=1e-3))
    assert [(r.solver, r.s, r.seed) for r in recs] == [("l1", 3, 0), ("l1", 3, 1)]
    rows = success_rows(recs)
    assert len(rows) == 1
    noise, solver, p, s, trials, successes, rate = rows[0]
    assert (noise, solver, p, s, trials) == ("gauss", "l1", 0.5, 3, 2)
    assert successes == sum(r.recerr < 5e-3 for r in recs)
    assert rate == successes / trials
    assert len(rows[0]) == len(SUCCESS_HEADER)


def test_success_cells_seed_scheme():
    # base_seed plus a running index over (noise, solver, p, s, trial)
    cells = list(success_cells(
        m=20, n=40, s_values=(3, 5), trials=2, noises=("gauss",),
        solvers=("l1", "l2"), base_seed=10,
    ))
    assert [(c.solver, c.spec.s, c.spec.seed) for c in cells] == [
        ("l1", 3, 10), ("l1", 3, 11), ("l1", 5, 12), ("l1", 5, 13),
        ("l2", 3, 14), ("l2", 3, 15), ("l2", 5, 16), ("l2", 5, 17),
    ]
    assert all(c.p == 0.5 and c.spec.noise == "gauss" for c in cells)
    assert all((c.spec.m, c.spec.n, c.spec.delta) == (20, 40, 1e-3) for c in cells)


def test_profile_cells_seed_scheme():
    # base_seed + noise_index * seeds + seed_index: one draw per (noise, seed),
    # shared by every p and both balls
    def grid(**kw):
        return [(c.spec.noise, c.p, c.spec.seed, c.solver) for c in profile_cells(**kw)]

    assert grid(seeds=2, p_grid=(0.5, 0.1), base_seed=3) == [
        ("gauss", 0.5, 3, "l1"), ("gauss", 0.5, 4, "l1"),
        ("gauss", 0.1, 3, "l1"), ("gauss", 0.1, 4, "l1"),
        ("t2", 0.5, 5, "l1"), ("t2", 0.5, 6, "l1"),
        ("t2", 0.1, 5, "l1"), ("t2", 0.1, 6, "l1"),
    ]  # table1
    assert grid(seeds=2, p_grid=(0.3,), solvers=("l1", "l2"), base_seed=1) == [
        ("gauss", 0.3, 1, "l1"), ("gauss", 0.3, 1, "l2"),
        ("gauss", 0.3, 2, "l1"), ("gauss", 0.3, 2, "l2"),
        ("t2", 0.3, 3, "l1"), ("t2", 0.3, 3, "l2"),
        ("t2", 0.3, 4, "l1"), ("t2", 0.3, 4, "l2"),
    ]  # table2
    assert grid(seeds=1, p_grid=(0.9, 0.5), base_seed=5) == [
        ("gauss", 0.9, 5, "l1"), ("gauss", 0.5, 5, "l1"),
        ("t2", 0.9, 6, "l1"), ("t2", 0.5, 6, "l1"),
    ]  # sparsity-vs-p
    cells = list(profile_cells(profile="small", seeds=1, p_grid=(0.5,), delta=0.01))
    assert all((c.spec.m, c.spec.n, c.spec.s, c.spec.delta) == (200, 1000, 20, 0.01) for c in cells)


def test_failed_cell_is_recorded_and_grid_continues(monkeypatch):
    # an outer iterate above the objective anchor breaks a solver invariant;
    # that cell must come back as an error record, not abort the grid
    real = sparselp.solver.npg_solve

    def broken(inst, *args, **kwargs):
        out = real(inst, *args, **kwargs)
        if inst.p == 0.3:
            return dataclasses.replace(out, x_final=np.full(inst.n, 1e6))
        return out

    monkeypatch.delenv("SPARSELP_THREADS", raising=False)
    monkeypatch.setattr(sparselp.solver, "npg_solve", broken)
    recs = run_grid(success_cells(m=20, n=40, s_values=(3,), trials=1, p_grid=(0.5, 0.3)))
    assert [r.p for r in recs] == [0.5, 0.3]
    good, bad = recs
    assert good.stop_reason == "converged" and good.nnz >= 1
    assert bad.stop_reason.startswith("error: ") and "objective anchor" in bad.stop_reason
    assert bad.nnz == -1 and np.isnan(bad.recerr) and np.isnan(bad.wall_time)
    assert success_rows(recs)[1][5] == 0  # the failed cell counts as a miss


def test_write_csv_deterministic(tmp_path):
    rows = [("gauss", 0.5, 0.1 + 0.2), ("t2", 3, 1e-17)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (p1, p2):
        with open(path, "w", newline="") as fh:
            write_csv(fh, ("k", "p", "v"), rows)
    assert p1.read_bytes() == p2.read_bytes()
    with open(p1, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["k", "p", "v"]
    # floats are written with repr, so parsing them back is lossless
    assert float(got[1][2]) == 0.1 + 0.2
    assert float(got[2][2]) == 1e-17


def test_smoothing_grid_midpoint():
    rows = smoothing_grid(mu=1.0, nu=1.0, lo=-2.0, hi=2.0, count=401)
    assert len(rows) == 401
    assert len(rows[0]) == len(SMOOTHING_HEADER)
    t0 = rows[200]
    assert t0[0] == 0.0
    assert t0[1] == pytest.approx(1.0 / 8.0)   # ramp kernel at the origin
    assert t0[2] == pytest.approx(0.5)
    assert t0[3] == pytest.approx(1.0 / 4.0)   # abs kernel at the origin
    assert t0[4] == pytest.approx(0.0)
    # far outside both patches the kernels are exact
    assert rows[-1] == (2.0, 2.0, 1.0, 2.0, 1.0)
