"""Command-line interface.

Subcommands: gen, solve, verify, oracle, table1, table2, sparsity-vs-p,
success-curve, plot-smoothing.  Every subcommand accepts --out (stdout if
omitted); --seed only those that draw instances (gen and the four tables),
and --json only those with a second format (gen, the four tables and
plot-smoothing).  Outputs are CSV or JSON only.

Exit codes: 0 success, 1 runtime error, 2 cap exit (iteration cap reached,
an uncertified solve, or an exact-oracle size cap), 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import experiments
from .core import read_instance, replace_p, write_instance
from .errors import EmptySupport, InvalidParam, ParseError, SparselpError, TooLarge
from .gen import DEFAULT_DELTA, NOISE_FAMILIES, GenSpec, gen_instance
from .oracle import (
    all_orthant_vertices,
    estimate_p_star,
    solve_exact_l0,
    solve_exact_lp_quasinorm,
)
from .solver import solve_l1, solve_l2
from .verify import DEFAULT_TOL, all_checks_pass, certify

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CAP = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the interface contract says 64
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _checked(convert, ok, requirement):
    """An argparse type: convert the text, then require ok(value); a failure
    of either is a usage error that states the requirement."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text}")
        return value
    return parse


# the oracle's --p: 0 (sparsest) or p in (0, 1]; the solver commands' --p
_oracle_exponent = _checked(float, lambda p: 0.0 <= p <= 1.0, "exponent must be 0 or in (0, 1]")
_solver_exponent = _checked(float, lambda p: 0.0 < p < 1.0, "exponent must be in (0, 1)")
# sizes (--m, --n, --s) and counts (--seeds, --trials, --s-step, --count)
_positive_int = _checked(int, lambda n: n >= 1, "must be a positive integer")
_seed = _checked(int, lambda n: n >= 0, "must be a non-negative integer")
# --delta and verify's --tol; plot-smoothing's --mu and --nu, and --lo, --hi
_nonnegative = _checked(float, lambda v: math.isfinite(v) and v >= 0.0, "must be finite and >= 0")
_smoothing_width = _checked(float, lambda w: math.isfinite(w) and w > 0.0, "width must be positive and finite")
_finite = _checked(float, math.isfinite, "must be finite")


def _join_negative_values(argv) -> list:
    """argv with each token that float() reads and that starts with '-'
    joined to the option before it, as --option=value.

    argparse takes -2 for a value, but -1e3 and -inf for option names; no
    option of this interface is named like a number, so --lo -1e3 then
    parses as --lo=-1e3 does, for every numeric option."""
    out = []
    for token in argv:
        prev = out[-1] if out else ""
        if token.startswith("-") and prev.startswith("--") and "=" not in prev and _is_float(token):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def _is_float(text) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _write(args, write) -> None:
    """Call write(stream) on the file --out names, or on stdout."""
    if args.out:
        with open(args.out, "w", newline="") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    _write(args, lambda fh: print(text, file=fh))


def _load_vector(path) -> np.ndarray:
    """The point in a JSON file: a list, or an object's 'x' or 'x_star' field."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
        if isinstance(raw, dict):
            raw = raw.get("x", raw.get("x_star"))
            if raw is None:
                raise ParseError(f"{path}: no 'x' or 'x_star' field")
        return np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise ParseError(f"{path}: bad vector ({exc})") from exc


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
            "x_hat": x_hat.tolist(),
            "xi": xi.tolist(),
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
    checks, report = certify(inst, x, p, float(args.q), args.tol)
    payload = {
        "checks": [dataclasses.asdict(c) for c in checks],
        "all_pass": all_checks_pass(checks),
        "report": (
            {"error": str(report)} if isinstance(report, EmptySupport) else dataclasses.asdict(report)
        ),
    }
    _emit(payload, args)
    return EXIT_OK if payload["all_pass"] else EXIT_RUNTIME


def cmd_oracle(args) -> int:
    inst = read_instance(args.instance)
    vertices = all_orthant_vertices(inst)
    payload: dict = {"n_vertices": len(vertices)}
    if args.list_vertices:
        payload["vertices"] = vertices.tolist()
    # the sparsest set, read off the held vertices once, on first use
    sparsest = functools.cache(lambda: solve_exact_l0(inst, vertices=vertices))
    for p in args.p or ():
        sol = sparsest() if p == 0.0 else solve_exact_lp_quasinorm(inst, p, vertices)
        payload.setdefault("solutions", {})[repr(p)] = {
            "optimal_value": sol.optimal_value,
            "minimizers": [x.tolist() for x in sol.minimizers],
        }
    if args.p_star or args.check_inclusion:
        est = estimate_p_star(inst, vertices, int(sparsest().optimal_value))
        payload.update(
            {"p_star": est.p_star, "r": est.r, "r_tilde": est.r_tilde, "s": est.s}
        )
        if args.check_inclusion:
            inclusion = {}
            for p in (est.p_star / 2.0, 0.9 * est.p_star):
                sol_p = solve_exact_lp_quasinorm(inst, p, vertices)
                # held vertices: exact zeros, feasible by the enumerator's rule
                inclusion[repr(p)] = all(
                    np.count_nonzero(x) == est.s for x in sol_p.minimizers
                )
            payload["inclusion_in_sparsest"] = inclusion
    _emit(payload, args)
    return EXIT_OK


def cmd_grid(args) -> int:
    """table1, table2, sparsity-vs-p and success-curve: the subparser supplies
    the cell builder, the row aggregator and the CSV header."""
    records = experiments.run_grid(args.cells(args))
    if args.json:
        _emit({"records": [dataclasses.asdict(r) for r in records]}, args)
    else:
        _write(args, lambda fh: experiments.write_csv(fh, args.header, args.rows(records)))
    return EXIT_OK


def cmd_plot_smoothing(args) -> int:
    rows = experiments.smoothing_grid(
        mu=args.mu, nu=args.nu, lo=args.lo, hi=args.hi, count=args.count
    )
    if args.json:
        _emit({"rows": [list(r) for r in rows]}, args)
    else:
        _write(args, lambda fh: experiments.write_csv(fh, experiments.SMOOTHING_HEADER, rows))
    return EXIT_OK


def _add_common(sub, *, seed: bool = True, json_out: bool = True) -> None:
    """--out, with --seed for a command that draws instances and --json for
    one with a second output format."""
    if seed:
        sub.add_argument("--seed", type=_seed, default=0, help="base RNG seed, >= 0")
    sub.add_argument("--out", type=str, default=None, help="output file (stdout if omitted)")
    if json_out:
        sub.add_argument("--json", action="store_true", help="emit JSON instead of CSV/summary")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sparselp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub = subs.add_parser("gen", help="generate a random instance")
    sub.add_argument("--m", type=_positive_int, required=True)
    sub.add_argument("--n", type=_positive_int, required=True)
    sub.add_argument("--s", type=_positive_int, required=True, help="planted support size")
    sub.add_argument("--delta", type=_nonnegative, default=DEFAULT_DELTA, help="noise scale")
    sub.add_argument("--noise", choices=NOISE_FAMILIES, default="gauss")
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
    _add_common(sub, seed=False, json_out=False)
    sub.set_defaults(func=cmd_solve)

    sub = subs.add_parser("verify", help="check a candidate point's optimality properties")
    sub.add_argument("--instance", type=str, required=True)
    sub.add_argument("--x", type=str, required=True, help="JSON file with the point")
    sub.add_argument("--p", type=_oracle_exponent, default=None,
                     help="exponent, 0 or in (0, 1] (default: from file)")
    sub.add_argument("--q", type=int, choices=(1, 2), default=1)
    sub.add_argument("--tol", type=_nonnegative, default=DEFAULT_TOL,
                     help="check tolerance; a converged solve ends on a vertex (l1) or the sphere (l2) "
                          f"and passes the default {DEFAULT_TOL:g}")
    _add_common(sub, seed=False, json_out=False)
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("oracle", help="exact small-instance solutions by enumeration")
    sub.add_argument("--instance", type=str, required=True)
    sub.add_argument("--p", type=_oracle_exponent, action="append",
                     help="exponent to solve exactly (repeatable; 0 = sparsest)")
    sub.add_argument("--p-star", action="store_true", help="estimate the exponent threshold")
    sub.add_argument("--check-inclusion", action="store_true",
                     help="test minimizers below p-star against the sparsest set")
    sub.add_argument("--list-vertices", action="store_true")
    _add_common(sub, seed=False, json_out=False)
    sub.set_defaults(func=cmd_oracle)

    sub = subs.add_parser("table1", help="solver quality per (noise, p); CSV: noise,p,nnz,rank,err1,err2")
    sub.add_argument("--profile", choices=sorted(experiments.PROFILES), default="desk")
    sub.add_argument("--seeds", type=_positive_int, default=10)
    sub.add_argument("--delta", type=_nonnegative, default=DEFAULT_DELTA)
    sub.add_argument("--p", type=_solver_exponent, action="append")
    sub.add_argument("--noise", choices=NOISE_FAMILIES, action="append")
    _add_common(sub)
    sub.set_defaults(
        func=cmd_grid, header=experiments.TABLE1_HEADER, rows=experiments.table1_rows,
        cells=lambda a: experiments.profile_cells(
            profile=a.profile, seeds=a.seeds, delta=a.delta,
            p_grid=tuple(a.p) if a.p else experiments.TABLE_P_GRID,
            noises=tuple(a.noise) if a.noise else NOISE_FAMILIES,
            base_seed=a.seed,
        ),
    )

    sub = subs.add_parser("table2", help="l1 solver vs l2 baseline; CSV: noise,m,n,s,delta,solver,nnz,feas,recerr,time")
    sub.add_argument("--profile", choices=sorted(experiments.PROFILES), default="desk")
    sub.add_argument("--seeds", type=_positive_int, default=10)
    sub.add_argument("--delta", type=_nonnegative, default=DEFAULT_DELTA)
    sub.add_argument("--p", type=_solver_exponent, default=0.5)
    sub.add_argument("--noise", choices=NOISE_FAMILIES, action="append")
    _add_common(sub)
    sub.set_defaults(
        func=cmd_grid, header=experiments.TABLE2_HEADER, rows=experiments.table2_rows,
        cells=lambda a: experiments.profile_cells(
            profile=a.profile, seeds=a.seeds, delta=a.delta, p_grid=(a.p,),
            solvers=("l1", "l2"),
            noises=tuple(a.noise) if a.noise else NOISE_FAMILIES,
            base_seed=a.seed,
        ),
    )

    sub = subs.add_parser("sparsity-vs-p", help="solution sparsity across the exponent grid; CSV: noise,p,nnz")
    sub.add_argument("--profile", choices=sorted(experiments.PROFILES), default="desk")
    sub.add_argument("--delta", type=_nonnegative, default=DEFAULT_DELTA)
    sub.add_argument("--noise", choices=NOISE_FAMILIES, action="append")
    _add_common(sub)
    sub.set_defaults(
        func=cmd_grid, header=experiments.SPARSITY_HEADER, rows=experiments.sparsity_rows,
        cells=lambda a: experiments.profile_cells(
            profile=a.profile, seeds=1, p_grid=experiments.SPARSITY_P_GRID, delta=a.delta,
            noises=tuple(a.noise) if a.noise else NOISE_FAMILIES,
            base_seed=a.seed,
        ),
    )

    sub = subs.add_parser("success-curve", help="recovery success rate vs planted sparsity; CSV: noise,solver,p,s,trials,successes,rate")
    sub.add_argument("--m", type=_positive_int, default=64)
    sub.add_argument("--n", type=_positive_int, default=256)
    sub.add_argument("--s-min", type=int, default=10)
    sub.add_argument("--s-max", type=int, default=35)
    sub.add_argument("--s-step", type=_positive_int, default=5)
    sub.add_argument("--trials", type=_positive_int, default=50)
    sub.add_argument("--delta", type=_nonnegative, default=DEFAULT_DELTA)
    sub.add_argument("--p", type=_solver_exponent, action="append")
    sub.add_argument("--noise", choices=NOISE_FAMILIES, action="append")
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
    sub.add_argument("--lo", type=_finite, default=-2.0)
    sub.add_argument("--hi", type=_finite, default=2.0)
    sub.add_argument("--count", type=_positive_int, default=401)
    _add_common(sub, seed=False)
    sub.set_defaults(func=cmd_plot_smoothing)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    if args.command == "gen" and args.s > args.n:
        parser.error(f"need --s <= --n, got {args.s}, {args.n}")
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
