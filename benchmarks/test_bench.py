"""Self-tests of the benchmark: its correctness checks on known-bad inputs,
hook drift, the output contract, fingerprints and the compare step.

    python3 -m pytest benchmarks -q

The smoke runs use ``--smoke`` sizes, so the whole file takes well under a
minute.
"""

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import sparselp.npg  # noqa: E402
from sparselp import GenSpec, gen_instance, least_squares_min_norm  # noqa: E402
from sparselp.oracle import (  # noqa: E402
    ExactSolutionSet,
    all_orthant_vertices,
    estimate_p_star,
    solve_exact_l0,
    solve_exact_lp_quasinorm,
)

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("npg.inner_iters.p50", "core.residual.calls", "prox.calls", "oracle.candidates")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def small_instance():
    return gen_instance(GenSpec(m=20, n=60, s=3, delta=1e-3, seed=1))[:2]


# -- correctness checks on known-bad inputs -------------------------------------------


def test_zero_and_infeasible_points_fail(small_instance):
    inst, x_hat = small_instance
    failed, certified, _ = workloads.classify_solver_point(inst, np.zeros(inst.n), 0.5, 1.0)
    assert failed and not certified
    failed, _, detail = workloads.classify_solver_point(inst, 1.1 * x_hat, 0.5, 1.0)
    assert failed and "infeasible" in detail
    nan_point = x_hat.copy()
    nan_point[0] = np.nan
    assert workloads.classify_solver_point(inst, nan_point, 0.5, 1.0)[0]
    # the planted point itself sits on the boundary and does not fail
    assert not workloads.classify_solver_point(inst, x_hat, 0.5, 1.0)[0]


def test_planted_point_off_boundary_is_uncertified(small_instance):
    inst, x_hat = small_instance
    inside = 0.5 * x_hat + 0.5 * least_squares_min_norm(inst.a, inst.b)
    failed, certified, detail = workloads.classify_solver_point(inst, inside, 0.5, 1.0)
    assert not failed and not certified
    assert "boundary" in detail


@pytest.fixture(scope="module")
def oracle_answers():
    inst = gen_instance(GenSpec(m=3, n=4, s=1, delta=0.4, seed=103))[0]
    verts = all_orthant_vertices(inst)
    level = int(solve_exact_l0(inst).optimal_value)
    sols = [solve_exact_lp_quasinorm(inst, p, vertices=verts) for p in workloads.ORACLE_PS]
    p_star = estimate_p_star(inst, vertices=verts, sparsest_k=level).p_star
    return inst, verts, level, sols, p_star


def test_oracle_answers_pass_cross_checks(oracle_answers):
    assert workloads.check_oracle_answers(*oracle_answers) == []


def test_perturbed_oracle_minimizer_fails(oracle_answers):
    inst, verts, level, sols, p_star = oracle_answers
    x = np.array(sols[0].minimizers[0])
    x[np.flatnonzero(x == 0.0)[0]] = 1e-3  # one more nonzero than rank(A_J) allows
    bad = [ExactSolutionSet(p=sols[0].p, optimal_value=sols[0].optimal_value, minimizers=(x,))]
    problems = workloads.check_oracle_answers(inst, verts, level, bad, p_star)
    assert any("rank" in p or "boundary" in p for p in problems)
    shifted = [ExactSolutionSet(p=sols[0].p, optimal_value=0.0, minimizers=(0.9 * sols[0].minimizers[0],))]
    assert any("boundary" in p for p in workloads.check_oracle_answers(inst, verts, level, shifted, p_star))


def test_wrong_sparsest_level_fails(oracle_answers):
    inst, verts, level, sols, p_star = oracle_answers
    problems = workloads.check_oracle_answers(inst, verts, level + 1, sols, p_star)
    assert any("l0 level" in p for p in problems)


# -- tracing -----------------------------------------------------------------------------


def test_absent_hooks_are_reported_and_hooks_restored():
    original = sparselp.npg.prox_vector
    drift = (
        ("prox.prox_vector", "sparselp.npg", "no_such_function"),
        ("x.module", "sparselp.no_such_module", "f"),
        ("x.class", "sparselp.smoothing", "NoSuchPenalty.value"),
    )
    hooks = tuple(h for h in tracing.HOOKS if h[0] != "prox.prox_vector") + drift
    tracer = tracing.Tracer()
    tracer.install(hooks)
    try:
        assert sorted(tracer.absent) == sorted(h[0] for h in drift)
        assert sparselp.npg.prox_vector is original
        assert hasattr(sparselp.solver.npg_solve, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(sparselp.solver.npg_solve, "__wrapped__")
    metrics, missing = tracing.layer_metrics(tracer, [])
    assert missing["prox.calls"] == ["prox.prox_vector"]
    assert metrics["prox.calls"]["value"] == 0
    assert "core.residual.calls" not in missing


def test_untraced_run_installs_no_wrappers(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the untraced run installed hooks")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    args = run.parse_args(["--workload", "mid-path", "--seed", "0", "--seconds", "0.1", "--smoke"])
    result = run.run_untraced(workloads.WORKLOADS["mid-path"], args)
    assert result["records"] and not any(r.failed for r in result["records"])


def test_self_time_subtracts_children():
    tracer = tracing.Tracer(spans=[
        ("npg.npg_solve", 0.0, 10.0, -1, 0),
        ("prox.prox_vector", 1.0, 4.0, 0, 0),
        ("prox.prox_vector", 5.0, 6.0, 0, 0),
    ])
    metrics, _ = tracing.layer_metrics(tracer, [])
    assert metrics["npg.self_s"]["value"] == pytest.approx(6.0)
    assert metrics["prox.s"]["value"] == pytest.approx(4.0)
    assert metrics["prox.calls"]["value"] == 2


# -- output contract ------------------------------------------------------------------------


def _names(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _check_output(proc, section):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    listed = _names(section)
    assert set(last["metrics"]) == set(listed)
    for name, m in last["metrics"].items():
        assert NAME_RE.match(name), name
        assert m["unit"] == listed[name]
        assert isinstance(m["value"], (int, float))
    # every metric row of the human-readable part is a listed name too
    every = _names("end_to_end") | _names("per_layer")
    for line in lines[:-1]:
        if line.startswith("  ") and not line.startswith("  failed op"):
            name = line.split()[0]
            assert NAME_RE.match(name) and name in every, name
    return last


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_listed_metrics(workload):
    untraced = _check_output(_run("--workload", workload, "--seed", "3", "--seconds", "1",
                                  "--trace", "0", "--smoke"), "end_to_end")
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    first = _check_output(_run("--workload", workload, "--seed", "3", "--seconds", "1",
                               "--trace", "1", "--smoke"), "per_layer")
    again = _check_output(_run("--workload", workload, "--seed", "3", "--seconds", "1",
                               "--trace", "1", "--smoke"), "per_layer")
    for name in COUNTS:
        assert first["metrics"][name]["value"] == again["metrics"][name]["value"], name


def test_spec_matches_code():
    assert set(w["name"] for w in SPEC["workloads"]) == set(workloads.WORKLOADS)
    assert _names("end_to_end") == run.END_TO_END
    per_layer = set(_names("per_layer"))
    assert set(tracing.LAYER_METRICS) <= per_layer
    assert per_layer - set(tracing.LAYER_METRICS) == {
        "failed_frac", "uncertified_frac", "recovery_err.p50",
        "trace.overhead_frac", "trace.ops_per_s_delta", "hooks.absent",
    }


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("--workload", "desk-grid", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- fingerprints and compare ---------------------------------------------------------------


def test_fingerprint_follows_the_seed():
    build = workloads.WORKLOADS["tiny-oracle"].build
    assert workloads.fingerprint(build(5, True)) == workloads.fingerprint(build(5, True))
    assert workloads.fingerprint(build(5, True)) != workloads.fingerprint(build(6, True))


def _result(seed, value, fp="abc", **env):
    environment = {"nproc": 2, "numpy": "x", "blas": "y", "seed": seed, "commit": "c0", **env}
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    return {"workload": "desk-grid", "trace": 0, "smoke": False, "environment": environment,
            "fingerprint": fp, "failed": 0, "metrics": metrics}


def test_compare_refuses_mismatched_environment_or_inputs():
    base = [_result(s, 1.0) for s in range(4)]
    with pytest.raises(compare.Refused, match="environment"):
        compare.compare(base, [_result(s, 1.0, nproc=4) for s in range(4)], SPEC)
    with pytest.raises(compare.Refused, match="fingerprint"):
        compare.compare(base, [_result(s, 1.0, fp="other") for s in range(4)], SPEC)
    # a different commit is what is being compared, so it is not refused
    same = compare.compare(base, [_result(s, 1.0, commit="c1") for s in range(4)], SPEC)
    assert same["desk-grid"]["ops_per_s"]["verdict"] == "no change"


def test_compare_calls_gain_and_regression():
    base = [_result(s, 1.0 + 0.01 * s) for s in range(10)]
    faster = copy.deepcopy(base)
    for res in faster:
        res["metrics"]["ops_per_s"]["value"] *= 1.5
        res["metrics"]["op_s.p50"]["value"] *= 2.0
    table = compare.compare(base, faster, SPEC)["desk-grid"]
    assert table["ops_per_s"]["verdict"] == "gain"
    assert table["op_s.p50"]["verdict"] == "regression"
