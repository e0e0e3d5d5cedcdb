#!/usr/bin/env python3
"""sparselp benchmark: run one workload end to end and print its metrics.

    python3 benchmarks/run.py --workload desk-grid --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` runs the workload's fixed trace list twice, untraced and then
traced, and prints the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each run also writes a result
file (environment, input fingerprint, every op's raw record) to
``benchmarks/results/``.  ``--smoke`` shrinks every workload so that a run
takes seconds; the self-tests use it.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# BLAS runs on one thread: with more, summation order varies and the solver's
# iteration counts stop repeating.  Set before numpy loads.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
TAIL_PERCENTILE = 80

END_TO_END = {
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    f"op_s.p{TAIL_PERCENTILE}": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def pin_environment() -> None:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    # the library default: no experiment process pool
    os.environ.pop("SPARSELP_THREADS", None)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced sizes, for the self-tests")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    return args


# -- environment record ------------------------------------------------------------


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _blas() -> str:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return "unknown"
    return f"{info.get('name', '?')} {info.get('version', '?')}"


def environment(seed: int) -> dict:
    """What must match for two results to be compared (commit excepted)."""
    import numpy as np

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": BLAS_THREADS,
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "sparselp_threads": os.environ.get("SPARSELP_THREADS"),
        "seed": seed,
        "commit": _git_commit(),
    }


# -- measurement -----------------------------------------------------------------------


_SETUP_CODE = """
import sys
sys.path[:0] = {paths!r}
import workloads
workloads.WORKLOADS[{name!r}].build({seed!r}, {smoke!r})
"""


def time_setup(name: str, seed: int, smoke: bool) -> list[float]:
    """Wall time of SETUP_REPEATS full set-ups, each in a fresh interpreter:
    start-up, imports and input generation, as a new process pays them."""
    code = _SETUP_CODE.format(paths=[str(SRC), str(HERE)], name=name, seed=seed, smoke=smoke)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], capture_output=True, check=True, timeout=150)
        times.append(time.perf_counter() - t0)
    return times


def measure(wl, inputs, seconds: float):
    """Run whole rounds, cycling through the inputs, while at least half of
    the next round, at the mean round time so far, fits in ``seconds``; so a
    run ends within half a round of ``seconds`` and has at least one round.
    Returns the op records and the wall time."""
    import workloads

    records, round_times = [], []
    start = time.perf_counter()
    r = 0
    while True:
        t_round = time.perf_counter()
        for op in inputs.rounds[r % len(inputs.rounds)]:
            records.append(workloads.run_op(wl.name, len(records), r, inputs, op))
        round_times.append(time.perf_counter() - t_round)
        r += 1
        if time.perf_counter() - start + statistics.fmean(round_times) / 2 > seconds:
            break
    return records, time.perf_counter() - start


def percentile(values, q: float) -> float:
    v = sorted(values)
    k = (len(v) - 1) * q / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


def quality(records) -> dict:
    """Output quality: failed_frac over all ops; uncertified_frac over solver
    ops (completed without failing, but failing an optimal-point check);
    recovery_err.p50 over ops that did not fail.  These are zero, or spread
    with the seed's instances, so they carry no bound and are reported in
    every run rather than gated."""
    solves = [r for r in records if r.solver != "oracle"]
    uncert = sum(1 for r in solves if not r.failed and not r.certified)
    errs = [r.recovery_err for r in records if not r.failed and math.isfinite(r.recovery_err)]
    return {
        "failed_frac": {"value": sum(r.failed for r in records) / len(records), "unit": "ratio"},
        "uncertified_frac": {"value": uncert / len(solves) if solves else 0.0, "unit": "ratio"},
        "recovery_err.p50": {"value": statistics.median(errs) if errs else 0.0, "unit": "ratio"},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(records, wall: float, setup_s: float) -> dict:
    times = [r.op_s for r in records]
    values = {
        "ops_per_s": sum(not r.failed for r in records) / wall,
        "op_s.p50": statistics.median(times),
        f"op_s.p{TAIL_PERCENTILE}": percentile(times, TAIL_PERCENTILE),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def run_untraced(wl, args) -> dict:
    setup_times = time_setup(wl.name, args.seed, args.smoke)
    inputs = wl.build(args.seed, args.smoke)
    setup_s = statistics.median(setup_times)
    records, wall = measure(wl, inputs, args.seconds)
    tail = percentile([r.op_s for r in records], TAIL_PERCENTILE)
    return {
        "records": records,
        "inputs": inputs,
        "metrics": end_to_end(records, wall, setup_s),
        "extra": {
            **quality(records),
            "wall_s": wall,
            "rounds": 1 + max(r.round for r in records),
            "setup_s_samples": setup_times,
            "tail": {
                "percentile": TAIL_PERCENTILE,
                "samples": len(records),
                "beyond": sum(1 for r in records if r.op_s > tail),
            },
        },
        "consistent": True,
    }


def run_traced(wl, args, spans_path: Path) -> dict:
    """Run the first ``wl.trace_rounds`` rounds, each op once untraced and
    then once traced, back to back so that drift in machine speed hits both
    alike.  The fixed list keeps every count repeatable for a seed."""
    import tracing
    import workloads

    inputs = wl.build(args.seed, args.smoke)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # generate once more under the hooks, so the gen layer has spans too
        traced_inputs = wl.build(args.seed, args.smoke)
    finally:
        tracer.uninstall()
    consistent = workloads.fingerprint(traced_inputs) == workloads.fingerprint(inputs)

    base, records = [], []
    base_wall = wall = 0.0
    for r in range(min(wl.trace_rounds, len(inputs.rounds))):
        for op in inputs.rounds[r]:
            t0 = time.perf_counter()
            base.append(workloads.run_op(wl.name, len(base), r, inputs, op))
            base_wall += time.perf_counter() - t0
            tracer.install()
            tracer.op_id = len(records)
            try:
                t0 = time.perf_counter()
                records.append(workloads.run_op(wl.name, len(records), r, traced_inputs, op))
                wall += time.perf_counter() - t0
            finally:
                tracer.uninstall()
    tracer.op_id = -1

    metrics, missing = tracing.layer_metrics(tracer, records)
    metrics.update(quality(records))
    ok_base = sum(not r.failed for r in base)
    ok_traced = sum(not r.failed for r in records)
    metrics["trace.overhead_frac"] = {"value": wall / base_wall - 1.0, "unit": "ratio"}
    metrics["trace.ops_per_s_delta"] = {
        "value": ok_traced / wall - ok_base / base_wall,
        "unit": "1/s",
    }
    metrics["hooks.absent"] = {"value": len(tracer.absent), "unit": "count"}
    tracer.write(spans_path)
    return {
        "records": records,
        "inputs": inputs,
        "metrics": metrics,
        "extra": {
            "absent_hooks": tracer.absent,
            "absent_metrics": missing,
            "untraced_wall_s": base_wall,
            "traced_wall_s": wall,
            "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT)),
        },
        "consistent": consistent,
    }


# -- output ---------------------------------------------------------------------------


def _json_record(rec) -> dict:
    return {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in vars(rec).items()}


def report(args, result: dict, fp: str, result_path: Path) -> dict:
    records = result["records"]
    failed = sum(1 for r in records if r.failed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ops {len(records)}")
    print(f"fingerprint sha256:{fp}")
    missing = result["extra"].get("absent_metrics", {})
    for name, m in result["metrics"].items():
        note = f"  absent: {', '.join(missing[name])}" if name in missing else ""
        print(f"  {name:32s} {repr(m['value']):>24s} {m['unit']}{note}")
    for name in ("failed_frac", "uncertified_frac", "recovery_err.p50"):
        if name not in result["metrics"]:
            m = result["extra"][name]
            print(f"  {name:32s} {repr(m['value']):>24s} {m['unit']}")
    for r in records:
        if r.failed:
            print(f"  failed op {r.op_id} (seed {r.gen_seed}, {r.solver}, p={r.p}): {r.detail}")
    print(f"result file {result_path.relative_to(ROOT)}")
    return {
        "correct": failed == 0 and result["consistent"],
        "attempted": len(records),
        "failed": failed,
        "metrics": result["metrics"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    if not (SRC / "sparselp" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'sparselp'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    if args.smoke:
        stem += "-smoke"
    if args.trace:
        result = run_traced(wl, args, RESULTS / f"{stem}.spans.jsonl.gz")
    else:
        result = run_untraced(wl, args)
    fp = workloads.fingerprint(result["inputs"])
    result_path = RESULTS / f"{stem}.json"
    line = report(args, result, fp, result_path)
    payload = {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "fingerprint": fp,
        **line,
        "extra": result["extra"],
        "records": [_json_record(r) for r in result["records"]],
    }
    with open(result_path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
