"""One grid runner behind the table and figure CLI commands.

Every experiment table is a grid of cells (spec, p, solver): one seeded
draw, one exponent, and the l1-ball or l2-ball solver.  A cell generator
lists the cells, run_grid runs them all with the same cell task, and a
per-table aggregator turns the one RunRecord per cell into CSV rows.
profile_cells serves table1, table2 and sparsity-vs-p: seed
base_seed + noise_index * seeds + seed_index, so every p and both balls
solve the same draws.  success_cells serves success-curve: its seed
advances per (noise, solver, p, s, trial), so each rate counts draws of
its own.  SPARSELP_THREADS > 1 fans the cells of a grid out to one
process pool; records come back in cell order either way, so the CSV
bytes do not depend on the worker count (wall-time columns excepted).  A
failure in one cell is recorded in that cell (nnz = -1, stop reason
"error: ...") and the rest of the grid still runs.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import replace_p
from .errors import InvalidParam, SparselpError
from .gen import DEFAULT_DELTA, NOISE_FAMILIES, GenSpec, gen_matched_pair
from .smoothing import smoothed_abs, smoothed_plus
from .solver import solve_l1, solve_l2
from .verify import kkt_property_report

PROFILES = {
    "desk": (100, 500, 10),
    "small": (200, 1000, 20),
    "paper": (500, 2500, 50),
}
TABLE_P_GRID = (0.9, 0.7, 0.5, 0.3, 0.1)
SPARSITY_P_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))
SUCCESS_THRESHOLD = 5e-3


def thread_count() -> int:
    """Worker processes for run_grid: SPARSELP_THREADS, 1 when unset."""
    raw = os.environ.get("SPARSELP_THREADS", "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0  # rejected below with the counts under 1
    if workers < 1:
        raise InvalidParam(f"SPARSELP_THREADS must be a positive integer, got {raw!r}")
    return workers


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(stream, header, rows) -> None:
    """CSV to an open text stream (open files with newline="")."""
    writer = csv.writer(stream)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])


# -- the grid: cells, the cell task, one record per cell ---------------------
class Cell(NamedTuple):
    spec: GenSpec
    p: float
    solver: str  # "l1" or "l2"


@dataclass(frozen=True)
class RunRecord:
    noise: str
    m: int
    n: int
    s: int
    delta: float
    p: float
    solver: str
    seed: int
    nnz: int
    rank_aj: int
    err1: float
    err2: float
    feas: float
    recerr: float
    outer_iters: int
    inner_iters: int
    wall_time: float
    stop_reason: str


def run_cell(cell: Cell) -> RunRecord:
    """Draw the matched pair, solve on the cell's ball, measure the point."""
    spec, p, solver = cell
    head = dict(
        noise=spec.noise, m=spec.m, n=spec.n, s=spec.s, delta=spec.delta,
        p=p, solver=solver, seed=spec.seed,
    )
    try:
        inst1, inst2, x_hat, _ = gen_matched_pair(spec)
        solve, inst, q = (solve_l1, inst1, 1.0) if solver == "l1" else (solve_l2, inst2, 2.0)
        report = solve(replace_p(inst, p))
        x = report.x_star
        props = kkt_property_report(inst, x, q=q)
        recerr = float(np.linalg.norm(x - x_hat)) / float(np.linalg.norm(x_hat))
    except SparselpError as exc:
        return RunRecord(
            **head, nnz=-1, rank_aj=-1, err1=np.nan, err2=np.nan, feas=np.nan,
            recerr=np.nan, outer_iters=0, inner_iters=0, wall_time=np.nan,
            stop_reason=f"error: {exc}",
        )
    return RunRecord(
        **head, nnz=props.nnz, rank_aj=props.rank_aj, err1=props.err1, err2=props.err2,
        feas=report.eta3, recerr=recerr, outer_iters=report.outer_iters,
        inner_iters=report.inner_iters_total, wall_time=report.wall_time,
        stop_reason=report.stop_reason,
    )


def run_grid(cells) -> list[RunRecord]:
    """Run every cell, in a process pool when SPARSELP_THREADS > 1."""
    cells = list(cells)
    workers = thread_count()
    if workers == 1 or len(cells) <= 1:
        return [run_cell(c) for c in cells]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_cell, cells))


def _groups(records, *keys) -> dict[tuple, list[RunRecord]]:
    """Records grouped by the given fields, in first-appearance order."""
    groups: dict[tuple, list[RunRecord]] = {}
    for rec in records:
        groups.setdefault(tuple(getattr(rec, k) for k in keys), []).append(rec)
    return groups


def _means(recs, *fields) -> tuple:
    return tuple(float(np.mean([getattr(r, f) for r in recs])) for f in fields)


# -- the profile tables: table1, table2 and sparsity-vs-p -------------------
def profile_cells(
    profile="desk", seeds=10, p_grid=TABLE_P_GRID, solvers=("l1",), delta=DEFAULT_DELTA,
    noises=NOISE_FAMILIES, base_seed=0,
):
    """One draw per (noise, seed), solved at every p on every solver's ball."""
    m, n, s = PROFILES[profile]
    for ni, noise in enumerate(noises):
        for p in p_grid:
            for si in range(seeds):
                spec = GenSpec(m, n, s, delta, noise, base_seed + ni * seeds + si)
                for solver in solvers:
                    yield Cell(spec, p, solver)


TABLE1_HEADER = ("noise", "p", "nnz", "rank", "err1", "err2")


def table1_rows(records) -> list[tuple]:
    """Mean over seeds per (noise, p), in first-appearance order."""
    return [
        key + _means(recs, "nnz", "rank_aj", "err1", "err2")
        for key, recs in _groups(records, "noise", "p").items()
    ]


TABLE2_HEADER = ("noise", "m", "n", "s", "delta", "solver", "nnz", "feas", "recerr", "time")


def table2_rows(records) -> list[tuple]:
    rows = []
    for (noise, solver), recs in _groups(records, "noise", "solver").items():
        r = recs[0]
        rows.append(
            (noise, r.m, r.n, r.s, r.delta, solver)
            + _means(recs, "nnz", "feas", "recerr", "wall_time")
        )
    return rows


SPARSITY_HEADER = ("noise", "p", "nnz")


def sparsity_rows(records) -> list[tuple]:
    return [(r.noise, r.p, r.nnz) for r in records]


# -- success-rate curve over the planted sparsity ----------------------------
def success_cells(
    m=64, n=256, s_values=(10, 15, 20, 25, 30, 35), trials=50, p_grid=(0.5,),
    delta=DEFAULT_DELTA, noises=("gauss",), solvers=("l1",), base_seed=0,
):
    seed = base_seed
    for noise in noises:
        for solver in solvers:
            for p in p_grid:
                for s in s_values:
                    for _ in range(trials):
                        yield Cell(GenSpec(m, n, s, delta, noise, seed), p, solver)
                        seed += 1


SUCCESS_HEADER = ("noise", "solver", "p", "s", "trials", "successes", "rate")


def success_rows(records) -> list[tuple]:
    """Trials with relative recovery error below SUCCESS_THRESHOLD; a
    failed cell (recerr nan) counts as a miss."""
    rows = []
    for key, recs in _groups(records, "noise", "solver", "p", "s").items():
        wins = sum(r.recerr < SUCCESS_THRESHOLD for r in recs)
        rows.append(key + (len(recs), wins, wins / len(recs)))
    return rows


# -- smoothing-kernel sampling for plots -------------------------------------

SMOOTHING_HEADER = ("t", "plus_value", "plus_deriv", "abs_value", "abs_deriv")


def smoothing_grid(mu: float = 1.0, lo: float = -2.0, hi: float = 2.0, count: int = 401):
    """Both kernels, sampled at the one width mu on count points of [lo, hi]."""
    rows = []
    for t in np.linspace(lo, hi, count):
        t = float(t)
        pv, pd = smoothed_plus(t, mu)
        av, ad = smoothed_abs(t, mu)
        rows.append((t, pv, pd, float(av), float(ad)))
    return rows
