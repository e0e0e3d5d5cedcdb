"""Workload definitions: seeded inputs, the ops run on them, and the checks
that decide whether each op's output is correct.

A workload turns a seed into a list of cases (generated instances plus the
planted vector) and a list of rounds.  A round is the smallest balanced
unit of work: one op per (noise, p) cell on desk-grid, the three solves of
one instance on mid-path, one pass over the twenty tiny sizes on
tiny-oracle.  The runner measures whole rounds, so every run sees the same
mix of op kinds.

Every library call goes through a module attribute looked up at call time
(``solver.solve_l1``, not a name imported once), so the traced run's
wrappers see the same calls the untraced run makes.
"""

from __future__ import annotations

import hashlib
import math
import struct
import time
from dataclasses import dataclass

import numpy as np

import sparselp.core as core
import sparselp.gen as gen
import sparselp.oracle as oracle
import sparselp.solver as solver
import sparselp.verify as verify
from sparselp.errors import SparselpError

# a solver point is infeasible (a failed op) when its residual norm exceeds
# sigma by more than this share of sigma
FEAS_REL_TOL = 1e-6
# tolerance of the four optimal-point checks for solver output; a converged
# solve sits on the boundary to within its last smoothing width (~1e-7)
CERT_TOL = 1e-6
# exact oracle minimizers must sit on the boundary to this absolute gap
ORACLE_BOUNDARY_TOL = 1e-8
# a vertex coordinate counts as nonzero above this share of 1 + ||v||_inf
ORACLE_ZERO_TOL = 1e-8
ORACLE_PS = (0.3, 0.5, 0.7)

DESK = (100, 500, 10)
# the paper profile's shape (m:n = 1:5, s = m/10) at 300x1500: A (3.6 MB) no
# longer fits in cache, so matrix products dominate the inner loop as they do
# at paper size (500x2500), at about a third of the cost per solve
MID = (300, 1500, 30)
SOLVER_DELTA = 1e-3
DESK_CELLS = tuple((noise, p) for noise in ("gauss", "t2") for p in (0.5, 0.3, 0.1))
PATH_SOLVES = (("l1", 0.5), ("l1", 0.1), ("l2", 0.5))
# the acceptance suite's tiny sizes; seed 0 reproduces its twenty instances
TINY_SIZES = (
    (2, 3), (2, 4), (3, 3), (3, 4), (3, 5),
    (4, 4), (4, 5), (4, 6), (5, 5), (5, 6),
)
TINY_DELTA = 0.4
TINY_SEED_BASE = 100

# reduced sizes that run every code path in seconds, for the self-tests
SMOKE_DESK = (20, 60, 3)
SMOKE_MID = (30, 150, 5)
SMOKE_TINY_SIZES = ((2, 3), (2, 4), (3, 3), (3, 4))


@dataclass(frozen=True)
class Case:
    """One generated input: the l1 instance, the l2 instance of the same draw
    (mid-path only), and the planted vector."""

    gen_seed: int
    noise: str
    inst_l1: core.ProblemInstance
    x_hat: np.ndarray
    inst_l2: core.ProblemInstance | None = None


@dataclass(frozen=True)
class Op:
    case: int  # index into the case list
    solver: str  # "l1", "l2" or "oracle"
    p: float  # nan for oracle ops


@dataclass
class OpRecord:
    """Raw sample of one op, written to the result file as is."""

    workload: str
    op_id: int
    round: int
    gen_seed: int
    noise: str
    m: int
    n: int
    solver: str
    p: float
    op_s: float
    inner_iters: int = 0
    outer_iters: int = 0
    nnz: int = 0
    recovery_err: float = math.nan
    failed: bool = False
    certified: bool = False
    vertices: int = 0
    candidates: int = 0
    detail: str = ""


@dataclass(frozen=True)
class Inputs:
    cases: list
    rounds: list  # list of lists of Op


@dataclass(frozen=True)
class Workload:
    """The reasons for each workload are in BENCHMARK.json and README.md."""

    name: str
    build: object  # (seed, smoke) -> Inputs
    trace_rounds: int  # rounds the traced run covers (a fixed list, so counts repeat)


# -- input generation ----------------------------------------------------------


def _desk_grid(seed: int, smoke: bool) -> Inputs:
    m, n, s = SMOKE_DESK if smoke else DESK
    n_rounds = 1 if smoke else 16
    cases, rounds = [], []
    for r in range(n_rounds):
        ops = []
        for c, (noise, p) in enumerate(DESK_CELLS):
            gen_seed = seed * 100_000 + r * len(DESK_CELLS) + c
            spec = gen.GenSpec(m=m, n=n, s=s, delta=SOLVER_DELTA, noise=noise, seed=gen_seed)
            inst, x_hat, _ = gen.gen_instance(spec)
            cases.append(Case(gen_seed, noise, inst, x_hat))
            ops.append(Op(len(cases) - 1, "l1", p))
        rounds.append(ops)
    return Inputs(cases, rounds)


def _mid_path(seed: int, smoke: bool) -> Inputs:
    m, n, s = SMOKE_MID if smoke else MID
    n_rounds = 1 if smoke else 12
    cases, rounds = [], []
    for r in range(n_rounds):
        noise = ("gauss", "t2")[r % 2]
        gen_seed = seed * 100_000 + r // 2
        spec = gen.GenSpec(m=m, n=n, s=s, delta=SOLVER_DELTA, noise=noise, seed=gen_seed)
        inst1, inst2, x_hat, _ = gen.gen_matched_pair(spec)
        cases.append(Case(gen_seed, noise, inst1, x_hat, inst2))
        rounds.append([Op(len(cases) - 1, kind, p) for kind, p in PATH_SOLVES])
    return Inputs(cases, rounds)


def _tiny_oracle(seed: int, smoke: bool) -> Inputs:
    sizes = SMOKE_TINY_SIZES if smoke else TINY_SIZES
    suite = 2 * len(sizes)
    n_rounds = 1 if smoke else 4
    cases, rounds = [], []
    for r in range(n_rounds):
        ops = []
        for i, (m, n) in enumerate(sizes * 2):
            noise = "gauss" if i % 2 == 0 else "t2"
            gen_seed = TINY_SEED_BASE + (seed * n_rounds + r) * suite + i
            spec = gen.GenSpec(m=m, n=n, s=1 + i % 2, delta=TINY_DELTA, noise=noise, seed=gen_seed)
            inst, x_hat, _ = gen.gen_instance(spec)
            cases.append(Case(gen_seed, noise, inst, x_hat))
            ops.append(Op(len(cases) - 1, "oracle", math.nan))
        rounds.append(ops)
    return Inputs(cases, rounds)


WORKLOADS = {
    "desk-grid": Workload("desk-grid", _desk_grid, trace_rounds=4),
    "mid-path": Workload("mid-path", _mid_path, trace_rounds=4),
    "tiny-oracle": Workload("tiny-oracle", _tiny_oracle, trace_rounds=1),
}


def fingerprint(inputs: Inputs) -> str:
    """sha256 over every case's (A, b, sigma, x_hat), in order."""
    h = hashlib.sha256()
    for case in inputs.cases:
        for inst in (case.inst_l1, case.inst_l2):
            if inst is None:
                continue
            h.update(np.ascontiguousarray(inst.a).tobytes())
            h.update(np.ascontiguousarray(inst.b).tobytes())
            h.update(struct.pack("<d", inst.sigma))
        h.update(np.ascontiguousarray(case.x_hat).tobytes())
    return h.hexdigest()


# -- correctness checks ----------------------------------------------------------


def classify_solver_point(inst, x, p: float, q: float) -> tuple[bool, bool, str]:
    """(failed, certified, detail) for a solver's returned point.

    Failed: non-finite entries, or a residual over sigma by more than
    FEAS_REL_TOL relative.  The residual is recomputed here with numpy, not
    by the library.  Certified: all four optimal-point checks pass at CERT_TOL.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (inst.n,) or not np.isfinite(x).all():
        return True, False, "non-finite or misshapen point"
    r = inst.a @ x - inst.b
    resid = float(np.sum(np.abs(r))) if q == 1.0 else float(np.linalg.norm(r))
    excess = resid - inst.sigma
    if excess > FEAS_REL_TOL * inst.sigma:
        return True, False, f"infeasible: residual - sigma = {excess:.3e}"
    checks = verify.optimal_point_checks(inst, x, p, q=q, tol=CERT_TOL)
    bad = [c.name for c in checks if not c.passed]
    return False, not bad, ",".join(bad)


def _nnz(v) -> int:
    v = np.asarray(v, dtype=np.float64)
    return int(np.count_nonzero(np.abs(v) > ORACLE_ZERO_TOL * (1.0 + np.max(np.abs(v), initial=0.0))))


def check_oracle_answers(inst, vertices, l0_level: int, solutions, p_star: float) -> list[str]:
    """Cross-checks of one instance's oracle answers; returns the problems found.

    Every exact minimizer must have nnz = rank(A_J) and sit on the boundary
    to ORACLE_BOUNDARY_TOL; the fewest nonzeros over all vertices must equal
    the sparsest-solution level; the threshold exponent lies in (0, 1].
    """
    problems = []
    if not len(vertices):
        return ["no vertices"]
    min_nnz = min(_nnz(v) for v in vertices)
    if min_nnz != l0_level:
        problems.append(f"min vertex nnz {min_nnz} != l0 level {l0_level}")
    for sol in solutions:
        if not sol.minimizers:
            problems.append(f"p={sol.p}: no minimizers")
        for x in sol.minimizers:
            rep = verify.kkt_property_report(inst, x)
            if rep.nnz != rep.rank_aj:
                problems.append(f"p={sol.p}: nnz {rep.nnz} != rank(A_J) {rep.rank_aj}")
            if abs(rep.err2) > ORACLE_BOUNDARY_TOL:
                problems.append(f"p={sol.p}: boundary gap {rep.err2:.3e}")
    if not 0.0 < p_star <= 1.0:
        problems.append(f"p_star {p_star} outside (0, 1]")
    return problems


def candidate_count(m: int, n: int) -> int:
    """Active-set candidates the vertex enumerator scans: C(2^m + n, n).
    Computed from the sizes, not counted inside the library."""
    return math.comb(2**m + n, n)


def _recovery_err(x, x_hat) -> float:
    return float(np.linalg.norm(np.asarray(x) - x_hat) / np.linalg.norm(x_hat))


# -- op execution ---------------------------------------------------------------


def run_op(workload: str, op_id: int, round_id: int, inputs: Inputs, op: Op) -> OpRecord:
    case = inputs.cases[op.case]
    rec = OpRecord(
        workload=workload, op_id=op_id, round=round_id, gen_seed=case.gen_seed,
        noise=case.noise, m=case.inst_l1.m, n=case.inst_l1.n, solver=op.solver,
        p=op.p, op_s=0.0,
    )
    if op.solver == "oracle":
        _run_oracle(case, rec)
    else:
        _run_solver(case, op, rec)
    return rec


def _run_solver(case: Case, op: Op, rec: OpRecord) -> None:
    l2 = op.solver == "l2"
    inst = case.inst_l2 if l2 else case.inst_l1
    q = 2.0 if l2 else 1.0
    t0 = time.perf_counter()
    try:
        solve = solver.solve_l2 if l2 else solver.solve_l1
        report = solve(core.replace_p(inst, op.p))
        rec.failed, rec.certified, rec.detail = classify_solver_point(inst, report.x_star, op.p, q)
    except (SparselpError, AssertionError) as exc:
        rec.op_s = time.perf_counter() - t0
        rec.failed, rec.detail = True, f"{type(exc).__name__}: {exc}"
        return
    rec.op_s = time.perf_counter() - t0
    rec.inner_iters = int(report.inner_iters_total)
    rec.outer_iters = int(report.outer_iters)
    rec.nnz = len(report.support)
    rec.recovery_err = _recovery_err(report.x_star, case.x_hat)


def _run_oracle(case: Case, rec: OpRecord) -> None:
    inst = case.inst_l1
    rec.candidates = candidate_count(inst.m, inst.n)
    t0 = time.perf_counter()
    try:
        verts = oracle.all_orthant_vertices(inst)
        l0 = oracle.solve_exact_l0(inst)
        sols = [oracle.solve_exact_lp_quasinorm(inst, p, vertices=verts) for p in ORACLE_PS]
        est = oracle.estimate_p_star(inst, vertices=verts, sparsest_k=int(l0.optimal_value))
    except (SparselpError, AssertionError) as exc:
        rec.op_s = time.perf_counter() - t0
        rec.failed, rec.detail = True, f"{type(exc).__name__}: {exc}"
        return
    rec.op_s = time.perf_counter() - t0
    rec.vertices = len(verts)
    problems = check_oracle_answers(inst, verts, int(l0.optimal_value), sols, est.p_star)
    rec.failed = bool(problems)
    rec.certified = not problems
    rec.detail = "; ".join(problems)
    half = sols[ORACLE_PS.index(0.5)].minimizers
    if half:
        rec.nnz = _nnz(half[0])
        rec.recovery_err = _recovery_err(half[0], case.x_hat)
