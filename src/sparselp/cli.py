"""Command-line interface.

Subcommands: gen, solve, verify, oracle, table1, table2, sparsity-vs-p,
success-curve, plot-smoothing.  Every subcommand accepts --seed, --out, and
--json.  Outputs are CSV or JSON only.

Exit codes: 0 success, 1 runtime error, 2 cap exit (iteration cap reached,
or an exact-oracle size cap), 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import experiments
from .core import read_instance, replace_p, write_instance
from .errors import InvalidParam, SparselpError, TooLarge
from .gen import GenSpec, gen_instance
from .oracle import (
    all_orthant_vertices,
    estimate_p_star,
    is_l0_optimal,
    solve_exact_l0,
    solve_exact_lp_quasinorm,
)
from .solver import solve_l1, solve_l2
from .verify import _checks_and_report, all_checks_pass, kkt_property_report

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CAP = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the interface contract says 64
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _oracle_exponent(text: str) -> float:
    """argparse type for the oracle's --p: 0 (sparsest) or p in (0, 1]."""
    p = float(text)
    if not 0.0 <= p <= 1.0:
        raise argparse.ArgumentTypeError(f"exponent must be 0 or in (0, 1], got {text}")
    return p


def _solver_exponent(text: str) -> float:
    """argparse type for the solver commands' --p: p in (0, 1)."""
    p = float(text)
    if not 0.0 < p < 1.0:
        raise argparse.ArgumentTypeError(f"exponent must be in (0, 1), got {text}")
    return p


def _positive_int(text: str) -> int:
    """argparse type for counts (--seeds, --trials, --s-step, --count): an integer >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"count must be a positive integer, got {text}")
    return n


def _noise_scale(text: str) -> float:
    """argparse type for --delta: finite and >= 0."""
    delta = float(text)
    if not (math.isfinite(delta) and delta >= 0.0):
        raise argparse.ArgumentTypeError(f"noise scale must be finite and >= 0, got {text}")
    return delta


def _smoothing_width(text: str) -> float:
    """argparse type for plot-smoothing's --mu and --nu: finite and > 0."""
    w = float(text)
    if not (math.isfinite(w) and w > 0.0):
        raise argparse.ArgumentTypeError(f"width must be positive and finite, got {text}")
    return w


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_rows(header, rows, args) -> None:
    if args.out:
        with open(args.out, "w", newline="") as fh:
            experiments.write_csv(fh, header, rows)
    else:
        experiments.write_csv(sys.stdout, header, rows)


def _load_vector(path) -> np.ndarray:
    with open(path) as fh:
        raw = json.load(fh)
    if isinstance(raw, dict):
        raw = raw.get("x", raw.get("x_star"))
        if raw is None:
            raise SparselpError(f"{path}: no 'x' or 'x_star' field")
    return np.asarray(raw, dtype=np.float64)


def cmd_gen(args) -> int:
    spec = GenSpec(
        m=args.m, n=args.n, s=args.s, delta=args.delta,
        noise=args.noise, seed=args.seed, q_for_sigma=float(args.q),
    )
    inst, x_hat, xi = gen_instance(spec)
    if args.out:
        write_instance(inst, args.out)
    if args.json or not args.out:
        payload = {
            "m": inst.m, "n": inst.n, "s": args.s, "sigma": inst.sigma,
            "noise": args.noise, "seed": args.seed, "q": args.q,
            "out": args.out,
            "x_hat": [float(v) for v in x_hat],
            "xi": [float(v) for v in xi],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = read_instance(args.instance)
    if args.p is not None:
        inst = replace_p(inst, args.p)
    if args.x0 is not None:
        seed_x = _load_vector(args.x0)
    else:
        seed_x = None
    solve = solve_l1 if args.q == 1 else solve_l2
    report = solve(inst, seed_x=seed_x)
    payload = report.to_dict()
    if args.trace:
        payload["trace"] = [dataclasses.asdict(r) for r in report.trace]
    _emit(payload, args)
    return EXIT_OK if report.stop_reason == "converged" else EXIT_CAP


def cmd_verify(args) -> int:
    inst = read_instance(args.instance)
    p = args.p if args.p is not None else inst.p
    x = _load_vector(args.x)
    checks, report = _checks_and_report(inst, x, p, float(args.q), args.tol)
    if report is None:  # the checks stopped at feasibility
        try:
            report = kkt_property_report(inst, x, q=float(args.q), feas_tol=args.tol)
        except SparselpError as exc:
            report = exc
    payload = {
        "checks": [c.to_dict() for c in checks],
        "all_pass": all_checks_pass(checks),
        "report": {"error": str(report)} if isinstance(report, SparselpError) else report.to_dict(),
    }
    _emit(payload, args)
    return EXIT_OK if payload["all_pass"] else EXIT_RUNTIME


def cmd_oracle(args) -> int:
    inst = read_instance(args.instance)
    vertices = all_orthant_vertices(inst)
    payload: dict = {"n_vertices": len(vertices)}
    if args.list_vertices:
        payload["vertices"] = [[float(v) for v in vert] for vert in vertices]
    for p in args.p or ():
        if p == 0.0:
            sol = solve_exact_l0(inst)
        else:
            sol = solve_exact_lp_quasinorm(inst, p, vertices=vertices)
        payload.setdefault("solutions", {})[repr(p)] = {
            "optimal_value": sol.optimal_value,
            "minimizers": [[float(v) for v in x] for x in sol.minimizers],
        }
    if args.p_star or args.check_inclusion:
        est = estimate_p_star(inst, vertices=vertices)
        payload.update(
            {"p_star": est.p_star, "r": est.r, "r_tilde": est.r_tilde, "s": est.s}
        )
        if args.check_inclusion:
            inclusion = {}
            for p in (est.p_star / 2.0, 0.9 * est.p_star):
                sol_p = solve_exact_lp_quasinorm(inst, p, vertices=vertices)
                inclusion[repr(p)] = all(
                    is_l0_optimal(inst, x, est.s) for x in sol_p.minimizers
                )
            payload["inclusion_in_sparsest"] = inclusion
    _emit(payload, args)
    return EXIT_OK


def cmd_grid(args) -> int:
    """table1, table2, sparsity-vs-p and success-curve: the subparser supplies
    the cell builder, the row aggregator and the CSV header."""
    records = experiments.run_grid(args.cells(args))
    if args.json:
        _emit({"records": [r.__dict__ for r in records]}, args)
    else:
        _write_rows(args.header, args.rows(records), args)
    return EXIT_OK


def cmd_plot_smoothing(args) -> int:
    rows = experiments.smoothing_grid(
        mu=args.mu, nu=args.nu, lo=args.lo, hi=args.hi, count=args.count
    )
    if args.json:
        _emit({"rows": [list(r) for r in rows]}, args)
    else:
        _write_rows(experiments.SMOOTHING_HEADER, rows, args)
    return EXIT_OK


def _add_common(sub) -> None:
    sub.add_argument("--seed", type=int, default=0, help="base RNG seed")
    sub.add_argument("--out", type=str, default=None, help="output file (stdout if omitted)")
    sub.add_argument("--json", action="store_true", help="emit JSON instead of CSV/summary")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sparselp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub = subs.add_parser("gen", help="generate a random instance")
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--s", type=int, required=True, help="planted support size")
    sub.add_argument("--delta", type=_noise_scale, default=1e-3, help="noise scale")
    sub.add_argument("--noise", choices=("gauss", "t2"), default="gauss")
    sub.add_argument("--q", type=int, choices=(1, 2), default=1, help="norm defining sigma")
    _add_common(sub)
    sub.set_defaults(func=cmd_gen)

    sub = subs.add_parser("solve", help="run the penalty solver on an instance file")
    sub.add_argument("--instance", type=str, required=True)
    sub.add_argument("--p", type=_solver_exponent, default=None,
                     help="objective exponent in (0, 1) (default: from file)")
    sub.add_argument("--q", type=int, choices=(1, 2), default=1, help="residual ball norm")
    sub.add_argument("--x0", type=str, default=None, help="JSON file with a feasible start")
    sub.add_argument("--trace", action="store_true", help="include the outer-iteration trace")
    _add_common(sub)
    sub.set_defaults(func=cmd_solve)

    sub = subs.add_parser("verify", help="check a candidate point's optimality properties")
    sub.add_argument("--instance", type=str, required=True)
    sub.add_argument("--x", type=str, required=True, help="JSON file with the point")
    sub.add_argument("--p", type=_oracle_exponent, default=None,
                     help="exponent, 0 or in (0, 1] (default: from file)")
    sub.add_argument("--q", type=int, choices=(1, 2), default=1)
    sub.add_argument("--tol", type=float, default=1e-8,
                     help="check tolerance; solver outputs sit near their final smoothing scale, so 1e-6 is the right order for them")
    _add_common(sub)
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("oracle", help="exact small-instance solutions by enumeration")
    sub.add_argument("--instance", type=str, required=True)
    sub.add_argument("--p", type=_oracle_exponent, action="append",
                     help="exponent to solve exactly (repeatable; 0 = sparsest)")
    sub.add_argument("--p-star", action="store_true", help="estimate the exponent threshold")
    sub.add_argument("--check-inclusion", action="store_true",
                     help="test minimizers below p-star against the sparsest set")
    sub.add_argument("--list-vertices", action="store_true")
    _add_common(sub)
    sub.set_defaults(func=cmd_oracle)

    sub = subs.add_parser("table1", help="solver quality per (noise, p); CSV: noise,p,nnz,rank,err1,err2")
    sub.add_argument("--profile", choices=sorted(experiments.PROFILES), default="desk")
    sub.add_argument("--seeds", type=_positive_int, default=10)
    sub.add_argument("--delta", type=_noise_scale, default=1e-3)
    sub.add_argument("--p", type=_solver_exponent, action="append")
    sub.add_argument("--noise", choices=("gauss", "t2"), action="append")
    _add_common(sub)
    sub.set_defaults(
        func=cmd_grid, header=experiments.TABLE1_HEADER, rows=experiments.table1_rows,
        cells=lambda a: experiments.table1_cells(
            profile=a.profile, seeds=a.seeds, delta=a.delta,
            p_grid=tuple(a.p) if a.p else experiments.TABLE_P_GRID,
            noises=tuple(a.noise) if a.noise else experiments.NOISES,
            base_seed=a.seed,
        ),
    )

    sub = subs.add_parser("table2", help="l1 solver vs l2 baseline; CSV: noise,m,n,s,delta,solver,nnz,feas,recerr,time")
    sub.add_argument("--profile", choices=sorted(experiments.PROFILES), default="desk")
    sub.add_argument("--seeds", type=_positive_int, default=10)
    sub.add_argument("--delta", type=_noise_scale, default=1e-3)
    sub.add_argument("--p", type=_solver_exponent, default=0.5)
    sub.add_argument("--noise", choices=("gauss", "t2"), action="append")
    _add_common(sub)
    sub.set_defaults(
        func=cmd_grid, header=experiments.TABLE2_HEADER, rows=experiments.table2_rows,
        cells=lambda a: experiments.table2_cells(
            profile=a.profile, seeds=a.seeds, delta=a.delta, p=a.p,
            noises=tuple(a.noise) if a.noise else experiments.NOISES,
            base_seed=a.seed,
        ),
    )

    sub = subs.add_parser("sparsity-vs-p", help="solution sparsity across the exponent grid; CSV: noise,p,nnz")
    sub.add_argument("--profile", choices=sorted(experiments.PROFILES), default="desk")
    sub.add_argument("--delta", type=_noise_scale, default=1e-3)
    sub.add_argument("--noise", choices=("gauss", "t2"), action="append")
    _add_common(sub)
    sub.set_defaults(
        func=cmd_grid, header=experiments.SPARSITY_HEADER, rows=experiments.sparsity_rows,
        cells=lambda a: experiments.sparsity_cells(
            profile=a.profile, delta=a.delta,
            noises=tuple(a.noise) if a.noise else experiments.NOISES,
            base_seed=a.seed,
        ),
    )

    sub = subs.add_parser("success-curve", help="recovery success rate vs planted sparsity; CSV: noise,solver,p,s,trials,successes,rate")
    sub.add_argument("--m", type=int, default=64)
    sub.add_argument("--n", type=int, default=256)
    sub.add_argument("--s-min", type=int, default=10)
    sub.add_argument("--s-max", type=int, default=35)
    sub.add_argument("--s-step", type=_positive_int, default=5)
    sub.add_argument("--trials", type=_positive_int, default=50)
    sub.add_argument("--delta", type=_noise_scale, default=1e-3)
    sub.add_argument("--p", type=_solver_exponent, action="append")
    sub.add_argument("--noise", choices=("gauss", "t2"), action="append")
    sub.add_argument("--solver", choices=("l1", "l2"), action="append")
    _add_common(sub)
    sub.set_defaults(
        func=cmd_grid, header=experiments.SUCCESS_HEADER, rows=experiments.success_rows,
        cells=lambda a: experiments.success_cells(
            m=a.m, n=a.n, s_values=tuple(range(a.s_min, a.s_max + 1, a.s_step)),
            trials=a.trials, p_grid=tuple(a.p) if a.p else (0.5,), delta=a.delta,
            noises=tuple(a.noise) if a.noise else ("gauss",),
            solvers=tuple(a.solver) if a.solver else ("l1",),
            base_seed=a.seed,
        ),
    )

    sub = subs.add_parser("plot-smoothing", help="sample the smoothing kernels on a grid; CSV: t,plus_value,plus_deriv,abs_value,abs_deriv")
    sub.add_argument("--mu", type=_smoothing_width, default=1.0)
    sub.add_argument("--nu", type=_smoothing_width, default=1.0)
    sub.add_argument("--lo", type=float, default=-2.0)
    sub.add_argument("--hi", type=float, default=2.0)
    sub.add_argument("--count", type=_positive_int, default=401)
    _add_common(sub)
    sub.set_defaults(func=cmd_plot_smoothing)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "success-curve" and not 1 <= args.s_min <= args.s_max <= args.n:
        parser.error(
            f"need 1 <= --s-min <= --s-max <= --n, got {args.s_min}, {args.s_max}, {args.n}"
        )
    if args.func is cmd_grid:
        # the grid's worker count comes from SPARSELP_THREADS; a bad value is
        # a usage error, reported before any cell runs
        try:
            experiments.thread_count()
        except InvalidParam as exc:
            parser.error(str(exc))
    try:
        return args.func(args)
    except TooLarge as exc:
        print(f"sparselp: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except SparselpError as exc:
        print(f"sparselp: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"sparselp: io error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
