#!/usr/bin/env python3
"""Compare untraced benchmark results of a parent commit and a change.

    python3 benchmarks/compare.py BASE CHANGE

BASE and CHANGE are directories (or single files) of result files written by
run.py with ``--trace 0``.  Runs are paired by (workload, seed), in file
order when a seed was run more than once, so alternate the two sides when
collecting them.

The comparison is refused (exit 2) when any two results differ in their
environment (everything but the commit and the seed) or when a pair's input
fingerprints differ: both sides must have run identical inputs on the same
machine setting.  Otherwise, for each workload and end-to-end metric it
prints each side's median and quartiles, the share of pairs the change
wins, and a verdict:

* ``gain``: the change wins at least 9 in 10 pairs and the medians differ
  by more than the parent's own quartile distance;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
* ``unresolved``: the parent's quartile spread is wider than the bound and
  the change does not read better on every run;
* ``no change``: none of the above.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORED_ENV = ("commit", "seed")


class Refused(Exception):
    """The two sides cannot be compared."""


def load(path) -> list[dict]:
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = []
    for f in files:
        with open(f) as fh:
            res = json.load(fh)
        if res.get("trace") == 0 and not res.get("smoke"):
            out.append(res)
    return out


def _env(res: dict) -> dict:
    return {k: v for k, v in res["environment"].items() if k not in IGNORED_ENV}


def pair(base: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Pairs of (base, change) results; raises Refused on any mismatch."""
    if not base or not change:
        raise Refused("no untraced results on one side")
    env = _env(base[0])
    for res in base + change:
        if _env(res) != env:
            raise Refused(f"environment differs: {_env(res)} != {env}")
    by_key: dict[tuple, list[dict]] = {}
    for res in change:
        by_key.setdefault((res["workload"], res["environment"]["seed"]), []).append(res)
    pairs = []
    for b in base:
        key = (b["workload"], b["environment"]["seed"])
        if not by_key.get(key):
            continue
        c = by_key[key].pop(0)
        if c["fingerprint"] != b["fingerprint"]:
            raise Refused(f"{key}: input fingerprints differ")
        pairs.append((b, c))
    if not pairs:
        raise Refused("no (workload, seed) run on both sides")
    return pairs


def verdict(base_vals, change_vals, better: str, bound: float) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base_vals, change_vals) if sign * (c - b) > 0)
    bq = statistics.quantiles(base_vals, n=4) if len(base_vals) > 1 else [base_vals[0]] * 3
    cq = statistics.quantiles(change_vals, n=4) if len(change_vals) > 1 else [change_vals[0]] * 3
    b_med, c_med = statistics.median(base_vals), statistics.median(change_vals)
    worse_by = sign * (b_med - c_med) / abs(b_med) if b_med else 0.0
    spread = (bq[2] - bq[0]) / abs(b_med) if b_med else 0.0
    all_better = min(sign * c for c in change_vals) > max(sign * b for b in base_vals)
    if worse_by > bound:
        call = "regression"
    elif wins >= 0.9 * len(base_vals) and sign * (c_med - b_med) > bq[2] - bq[0]:
        call = "gain"
    elif spread > bound and not all_better:
        call = "unresolved"
    else:
        call = "no change"
    return {
        "base": bq, "change": cq, "wins": wins, "pairs": len(base_vals),
        "worse_by": worse_by, "spread": spread, "verdict": call,
    }


def compare(base: list[dict], change: list[dict], spec: dict) -> dict:
    """{workload: {metric: verdict dict}} plus failed-op totals per side."""
    pairs = pair(base, change)
    out: dict[str, dict] = {}
    for workload in sorted({b["workload"] for b, _ in pairs}):
        rows = [(b, c) for b, c in pairs if b["workload"] == workload]
        table = {}
        for m in spec["end_to_end"]:
            bv = [b["metrics"][m["name"]]["value"] for b, _ in rows]
            cv = [c["metrics"][m["name"]]["value"] for _, c in rows]
            table[m["name"]] = verdict(bv, cv, m["better"], m["bound"])
        table["failed_ops"] = {
            "base": sum(b["failed"] for b, _ in rows),
            "change": sum(c["failed"] for _, c in rows),
        }
        out[workload] = table
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    try:
        result = compare(load(argv[0]), load(argv[1]), spec)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    for workload, table in result.items():
        failed = table.pop("failed_ops")
        print(f"{workload}  (failed ops: base {failed['base']}, change {failed['change']})")
        for name, v in table.items():
            b, c = v["base"], v["change"]
            print(
                f"  {name:18s} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]  "
                f"change {c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}]  "
                f"wins {v['wins']}/{v['pairs']}  {v['verdict']}"
            )
        if failed["change"] > failed["base"]:
            print("  more ops fail on the change: no gain counts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
