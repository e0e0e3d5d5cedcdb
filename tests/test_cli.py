import dataclasses
import importlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import sparselp.oracle
from sparselp import OuterRecord, ProblemInstance, read_instance, write_instance
from sparselp.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def golden_file(tmp_path, golden):
    path = tmp_path / "golden.json"
    write_instance(golden, path)
    return str(path)


def test_usage_errors_exit_64(capsys):
    for argv in ([], ["frobnicate"], ["gen"], ["gen", "--m", "2", "--n", "3", "--s", "1", "--noise", "bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
    capsys.readouterr()
    # a noise scale must be finite and >= 0, checked before any draw
    commands = (
        ["gen", "--m", "2", "--n", "3", "--s", "1"],
        ["table1", "--profile", "desk", "--seeds", "1", "--p", "0.5", "--noise", "gauss"],
        ["table2", "--profile", "desk", "--seeds", "1"],
        ["sparsity-vs-p", "--profile", "desk"],
        ["success-curve", "--m", "20", "--n", "40", "--trials", "1"],
    )
    for argv in commands:
        for bad in ("-1", "nan", "inf", "x"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--delta", bad])
            assert exc.value.code == 64
            assert "argument --delta:" in capsys.readouterr().err


def test_gen_writes_instance_file(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, out, err = run(
        capsys, "gen", "--m", "20", "--n", "40", "--s", "3", "--seed", "5",
        "--out", str(path),
    )
    assert code == 0
    assert out == "" and err == ""
    inst = read_instance(path)
    assert (inst.m, inst.n) == (20, 40)
    assert inst.sigma > 0


def test_gen_stdout_payload(capsys):
    code, out, _ = run(capsys, "gen", "--m", "4", "--n", "6", "--s", "2", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 4 and payload["n"] == 6
    assert len(payload["x_hat"]) == 6
    assert len(payload["xi"]) == 4
    assert payload["out"] is None


def test_gen_solve_verify_roundtrip(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    sol_path = tmp_path / "sol.json"
    code, _, _ = run(
        capsys, "gen", "--m", "20", "--n", "40", "--s", "3", "--delta", "1e-3",
        "--seed", "5", "--out", str(inst_path),
    )
    assert code == 0

    code, _, _ = run(
        capsys, "solve", "--instance", str(inst_path), "--p", "0.5",
        "--out", str(sol_path),
    )
    assert code == 0
    payload = json.loads(sol_path.read_text())
    assert payload["stop_reason"] == "converged"
    assert payload["nnz"] == len(payload["support"]) == 3
    assert payload["walk_steps"] >= 1 and payload["walk_drops"] >= 0
    assert payload["trials_total"] >= payload["inner_iters_total"]
    assert 1 <= payload["full_products_total"] <= payload["inner_iters_total"]
    assert "trace" not in payload

    # --trace shows the step constant each round hands to the next
    code, out, _ = run(
        capsys, "solve", "--instance", str(inst_path), "--p", "0.5", "--trace",
    )
    assert code == 0
    trace = json.loads(out)["trace"]
    assert len(trace) == payload["outer_iters"]
    assert all(np.isfinite(row["l_bar"]) and row["l_bar"] > 0.0 for row in trace)
    # and how many of each round's iterations took the full A^T product
    assert sum(row["full_products"] for row in trace) == payload["full_products_total"]

    # the solve output doubles as the --x input downstream; a converged
    # solve ends on a vertex, so it passes at the strict default tolerance
    code, out, _ = run(
        capsys, "verify", "--instance", str(inst_path), "--x", str(sol_path),
        "--p", "0.5",
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["all_pass"] is True
    assert [c["name"] for c in verdict["checks"]] == [
        "feasible", "boundary", "support_rank", "inf_norm_sandwich",
    ]
    assert verdict["report"]["nnz"] == 3


def _verify_golden_minimizer(tmp_path, capsys, golden):
    x_path = tmp_path / "x.json"
    x_path.write_text(json.dumps({"x": [2.5, 0.0, 0.0]}))
    code, out, _ = run(
        capsys, "verify", "--instance", golden_file(tmp_path, golden), "--x", str(x_path), "--p", "0.5"
    )
    assert code == 0
    return json.loads(out)


def test_verify_json_check_fields(tmp_path, capsys, golden):
    check = _verify_golden_minimizer(tmp_path, capsys, golden)["checks"][0]
    assert set(check) == {"name", "passed", "slack", "detail"}
    assert check["name"] == "feasible"
    assert check["passed"] is True
    assert isinstance(check["slack"], float)
    assert "sigma" in check["detail"]


def test_verify_json_report_fields(tmp_path, capsys, golden):
    report = _verify_golden_minimizer(tmp_path, capsys, golden)["report"]
    assert report["nnz"] == 1
    assert isinstance(report["err2"], float)
    assert set(report) == {
        "nnz", "rank_aj", "err1", "err2", "inf_norm", "lower_bound",
        "upper_bound", "lambda_min", "lambda_max",
    }


def test_verify_rejects_bad_point(tmp_path, capsys, golden):
    inst_path = golden_file(tmp_path, golden)
    x_path = tmp_path / "x.json"
    x_path.write_text(json.dumps({"x": [3.0, 0.0, 0.0]}))  # interior, not optimal
    code, out, _ = run(capsys, "verify", "--instance", inst_path, "--x", str(x_path))
    assert code == 1
    assert json.loads(out)["all_pass"] is False


@pytest.mark.parametrize(
    "x, all_pass", [([2.5, 0.0, 0.0], True), ([9.0, 0.0, 0.0], False), ([0.0, 0.0, 0.0], False)]
)
def test_verify_builds_one_report(tmp_path, capsys, golden, verify_calls, x, all_pass):
    # the checks and the printed report come from one report, also for an
    # infeasible point; x = 0, feasible at --tol 10, has none, and its
    # residual is -b, so it makes no product
    tol, residuals = ("1e-8", 1) if any(x) else ("10", 0)
    inst_path = golden_file(tmp_path, golden)
    x_path = tmp_path / "x.json"
    x_path.write_text(json.dumps({"x": x}))
    code, out, _ = run(
        capsys, "verify", "--instance", inst_path, "--x", str(x_path), "--p", "0.5", "--tol", tol,
    )
    payload = json.loads(out)
    assert payload["all_pass"] is all_pass
    if any(x):
        assert payload["report"]["inf_norm"] == x[0]
    else:
        assert "no support" in payload["report"]["error"]
    assert verify_calls == {"reports": 1, "residuals": residuals}


def test_solve_trace_and_seed_start(tmp_path, capsys, golden):
    inst_path = golden_file(tmp_path, golden)
    x0_path = tmp_path / "x0.json"
    x0_path.write_text(json.dumps([3.0, 0.1, 0.0]))
    code, out, _ = run(
        capsys, "solve", "--instance", inst_path, "--x0", str(x0_path), "--trace",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["trace"][0]["k"] == 0
    fields = {f.name for f in dataclasses.fields(OuterRecord)}
    assert all(set(row) == fields for row in payload["trace"])
    assert payload["trace"][-1]["rho"] != payload["trace"][-1]["rho"]  # NaN sentinel
    x = np.array(payload["x_star"])
    assert np.count_nonzero(x) == 1
    assert abs(x[0] - 2.5) < 1e-4


def test_uncertified_solve_exits_2(tmp_path, capsys, golden, failing_certificate):
    code, out, _ = run(capsys, "solve", "--instance", golden_file(tmp_path, golden))
    assert code == 2
    assert json.loads(out)["stop_reason"] == "stationary_uncertified"


def test_solve_infeasible_start_exits_1(tmp_path, capsys, golden):
    inst_path = golden_file(tmp_path, golden)
    x0_path = tmp_path / "x0.json"
    x0_path.write_text(json.dumps({"x": [0.0, 0.0, 0.0]}))
    code, _, err = run(capsys, "solve", "--instance", inst_path, "--x0", str(x0_path))
    assert code == 1
    assert "error" in err


def test_point_of_wrong_length_or_type_exits_1(tmp_path, capsys, golden):
    # a point that is not an n-vector of numbers, or not JSON at all, is one
    # error line, not a traceback
    inst_path = golden_file(tmp_path, golden)
    bad = ([2.5, 0.0], [2.5, 0.0, 0.0, 0.0], {"x": "abc"}, {"x": {"a": 1.0}}, [[2.5, 0.0, 0.0]])
    paths = []
    for i, doc in enumerate(bad):
        paths.append(tmp_path / f"bad{i}.json")
        paths[-1].write_text(json.dumps(doc))
    paths.append(tmp_path / "broken.json")
    paths[-1].write_text("[2.5, 0.0,")
    for path in paths:
        for argv in (["verify", "--x", str(path)], ["verify", "--x", str(path), "--p", "0"],
                     ["solve", "--x0", str(path)]):
            code, out, err = run(capsys, *argv, "--instance", inst_path)
            assert (code, out) == (1, "")
            assert err.startswith("sparselp: error:") and err.count("\n") == 1, err


def test_negative_seed_is_usage_error(capsys):
    # the generator's Philox refuses a negative seed; the parser refuses it first
    commands = (
        ["gen", "--m", "2", "--n", "3", "--s", "1"],
        ["table1", "--seeds", "1", "--p", "0.5", "--noise", "gauss"],
        ["success-curve", "--m", "20", "--n", "40", "--trials", "1"],
    )
    for argv in commands:
        for bad in ("-1", "-3", "1.5", "x"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--seed", bad])
            assert exc.value.code == 64
            assert "argument --seed: must be a non-negative integer" in capsys.readouterr().err


def test_options_a_command_does_not_read_are_refused(tmp_path, capsys, golden):
    # --seed is accepted only where a command draws instances, and --json
    # only where a command has a second output format
    inst_path = golden_file(tmp_path, golden)
    x_path = tmp_path / "x.json"
    x_path.write_text(json.dumps({"x": [2.5, 0.0, 0.0]}))
    cases = [
        (argv, extra)
        for argv in (
            ["solve", "--instance", inst_path],
            ["verify", "--instance", inst_path, "--x", str(x_path)],
            ["oracle", "--instance", inst_path],
        )
        for extra in (["--seed", "0"], ["--json"])
    ]
    cases.append((["plot-smoothing", "--count", "3"], ["--seed", "0"]))
    for argv, extra in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv + extra)
        assert exc.value.code == 64
        assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err


def test_console_script_entry_point_runs(monkeypatch, capsys):
    # the [project.scripts] target that an install puts on PATH, read with a
    # regex (tomllib is 3.11+): it imports, and runs with no arguments of its
    # own, reading sys.argv as the script does
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    module, func = re.search(r'^sparselp\s*=\s*"([\w.]+):(\w+)"', scripts, re.M).groups()
    entry = getattr(importlib.import_module(module), func)
    monkeypatch.setattr(sys, "argv", ["sparselp", "--help"])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 0
    assert "usage: sparselp" in capsys.readouterr().out


def test_tol_and_sizes_are_range_checked_when_parsed(tmp_path, capsys, golden):
    # --tol inf would pass a point 11 outside the ball, --tol nan would fail
    # every check: both, and a negative tolerance, are usage errors
    inst_path = golden_file(tmp_path, golden)
    x_path = tmp_path / "x.json"
    x_path.write_text(json.dumps([9.0, 0.0, 0.0]))
    for bad in ("inf", "nan", "-1e-8", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--instance", inst_path, "--x", str(x_path), "--tol", bad])
        assert exc.value.code == 64
        assert "argument --tol:" in capsys.readouterr().err
    assert run(capsys, "verify", "--instance", inst_path, "--x", str(x_path), "--tol", "0")[0] == 1
    # sizes are positive integers, and the planted support fits in n
    gen = {"--m": "2", "--n": "3", "--s": "1"}
    for flag in gen:
        for bad in ("0", "-1", "1.5", "x"):
            argv = [arg for key, val in dict(gen, **{flag: bad}).items() for arg in (key, val)]
            with pytest.raises(SystemExit) as exc:
                main(["gen", *argv])
            assert exc.value.code == 64
            assert f"argument {flag}:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--m", "3", "--n", "5", "--s", "9"])
    assert exc.value.code == 64
    assert "need --s <= --n, got 9, 5" in capsys.readouterr().err
    for flag in ("--m", "--n"):
        with pytest.raises(SystemExit) as exc:
            main(["success-curve", "--trials", "1", flag, "0"])
        assert exc.value.code == 64
        assert f"argument {flag}:" in capsys.readouterr().err


def test_solve_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "solve", "--instance", "/nonexistent/inst.json")
    assert code == 1
    assert "error" in err


def test_nonfinite_instance_file_exits_1(tmp_path, capsys, golden):
    # an instance that breaks the standing data assumptions is refused when
    # it is read, before any enumeration or check runs on it
    x_path = tmp_path / "x.json"
    x_path.write_text(json.dumps({"x": [2.5, 0.0, 0.0]}))
    doc = json.loads(open(golden_file(tmp_path, golden)).read())
    bad_docs = (
        dict(doc, a=[float("nan")] + doc["a"][1:]),
        dict(doc, b=[doc["b"][0], float("inf")]),
        dict(doc, sigma=-1.0),
    )
    for i, bad in enumerate(bad_docs):
        inst_path = tmp_path / f"bad{i}.json"
        inst_path.write_text(json.dumps(bad))
        for argv in (["oracle", "--p", "0.5"], ["verify", "--x", str(x_path)]):
            code, out, err = run(capsys, *argv, "--instance", str(inst_path))
            assert code == 1 and out == ""
            assert err.startswith("sparselp: error:") and "Traceback" not in err


def test_oracle_golden_full(tmp_path, capsys, golden):
    inst_path = golden_file(tmp_path, golden)
    code, out, _ = run(
        capsys, "oracle", "--instance", inst_path, "--p", "0.5", "--p", "0.0",
        "--p-star", "--check-inclusion", "--list-vertices",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n_vertices"] == 12
    assert len(payload["vertices"]) == 12
    assert payload["solutions"]["0.5"]["optimal_value"] == pytest.approx(np.sqrt(2.5))
    assert payload["solutions"]["0.0"]["optimal_value"] == 1.0
    assert payload["p_star"] == pytest.approx(np.log(2) / np.log(6 + np.sqrt(2)))
    assert payload["s"] == 1
    assert all(payload["inclusion_in_sparsest"].values())


def test_oracle_p_star_rejects_trivial_instance(tmp_path, capsys, golden):
    # sigma = ||b||_1: x = 0 is feasible, and oracle --p-star refuses the
    # file as solve and verify do
    inst_path = tmp_path / "trivial.json"
    write_instance(dataclasses.replace(golden, sigma=6.0), inst_path)
    x_paths = []
    # x = 0 and a boundary point are feasible, [9, 0, 0] is not: verify
    # refuses the file whatever the point
    for i, x in enumerate(([0.0, 0.0, 0.0], [2.5, 0.0, 0.0], [9.0, 0.0, 0.0])):
        x_paths.append(tmp_path / f"x{i}.json")
        x_paths[-1].write_text(json.dumps({"x": x}))
    for argv in (
        ["oracle", "--p", "0.5", "--p-star"],
        ["solve", "--p", "0.5"],
        *(["verify", "--x", str(path)] for path in x_paths),
    ):
        code, out, err = run(capsys, *argv, "--instance", str(inst_path))
        assert (code, out) == (1, "")
        assert "x = 0 is already feasible" in err and "Traceback" not in err


def test_oracle_sparsest_reuses_vertices(tmp_path, capsys, golden, monkeypatch):
    # --p 0 filters the vertices already enumerated: one scan of the sizes
    # 0..min(m, n), not a second one for the sparsest level
    scans = []
    scan = sparselp.oracle._scan

    def counted(inst, sizes):
        scans.append(list(sizes))
        return scan(inst, sizes)

    monkeypatch.setattr(sparselp.oracle, "_scan", counted)
    code, out, _ = run(capsys, "oracle", "--instance", golden_file(tmp_path, golden), "--p", "0")
    assert code == 0
    assert scans == [[0, 1, 2]]
    sol = json.loads(out)["solutions"]["0.0"]
    assert sol["optimal_value"] == 1.0
    assert sorted(sol["minimizers"]) == [[0.0, 2.5, 0.0], [0.0, 3.5, 0.0], [2.5, 0.0, 0.0], [3.5, 0.0, 0.0]]


def test_oracle_cap_exits_2(tmp_path, capsys):
    big = ProblemInstance(a=np.ones((9, 3)), b=np.ones(9), sigma=0.5)
    path = tmp_path / "big.json"
    write_instance(big, path)
    code, _, err = run(capsys, "oracle", "--instance", str(path), "--p", "0.5")
    assert code == 2
    assert "cap" in err


def test_table1_csv_deterministic(tmp_path, capsys):
    args = (
        "table1", "--profile", "desk", "--seeds", "1", "--p", "0.5",
        "--noise", "gauss",
    )
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, *args, "--out", str(p1))[0] == 0
    assert run(capsys, *args, "--out", str(p2))[0] == 0
    # aggregated table carries no wall-time column, so bytes must match
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().strip().splitlines()
    assert lines[0] == "noise,p,nnz,rank,err1,err2"
    assert len(lines) == 2
    assert lines[1].startswith("gauss,0.5,10.0,10.0,0.0,")


def test_success_curve_csv(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    code, _, _ = run(
        capsys, "success-curve", "--m", "20", "--n", "40", "--s-min", "3",
        "--s-max", "3", "--trials", "1", "--out", str(path),
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "noise,solver,p,s,trials,successes,rate"
    assert len(lines) == 2
    assert lines[1].startswith("gauss,l1,0.5,3,1,")


def test_plot_smoothing_stdout(capsys):
    code, out, _ = run(capsys, "plot-smoothing", "--count", "5", "--lo", "-2", "--hi", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,plus_value,plus_deriv,abs_value,abs_deriv"
    assert len(lines) == 6
    assert lines[5] == "2.0,2.0,1.0,2.0,1.0"


def test_plot_smoothing_bounds_must_be_finite(capsys):
    # --hi inf printed inf rows under a numpy warning, --lo nan printed nan rows
    for flag in ("--lo", "--hi"):
        for bad in ("inf", "-inf", "nan", "x"):
            with pytest.raises(SystemExit) as exc:
                main(["plot-smoothing", "--count", "3", f"{flag}={bad}"])
            assert exc.value.code == 64
            assert f"argument {flag}: must be finite" in capsys.readouterr().err


def test_negative_values_parse_in_either_spelling(capsys):
    # argparse reads -1e3 and -inf as option names unless joined with "="
    spaced = run(capsys, "plot-smoothing", "--count", "3", "--lo", "-1e3", "--hi", "-1")
    assert spaced == run(capsys, "plot-smoothing", "--count", "3", "--lo=-1e3", "--hi=-1")
    assert spaced[0] == 0 and spaced[1].splitlines()[1].startswith("-1000.0,")
    refusals = []
    for argv in (["--lo", "-inf"], ["--lo=-inf"]):
        with pytest.raises(SystemExit) as exc:
            main(["plot-smoothing", "--count", "3", *argv])
        refusals.append((exc.value.code, capsys.readouterr()))
    assert refusals[0] == refusals[1]
    assert refusals[0][0] == 64 and "argument --lo: must be finite, got -inf" in refusals[0][1].err


def test_oracle_rejects_out_of_range_p(tmp_path, capsys, golden):
    inst_path = golden_file(tmp_path, golden)
    x_path = tmp_path / "x.json"
    x_path.write_text(json.dumps([2.5, 0.0, 0.0]))
    commands = (
        ["oracle", "--instance", inst_path],
        ["verify", "--instance", inst_path, "--x", str(x_path)],
    )
    for argv in commands:
        for bad in ("1.5", "2", "-0.2", "nan"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--p", bad])
            assert exc.value.code == 64
            assert "--p: exponent must be 0 or in (0, 1]" in capsys.readouterr().err


def test_verify_rejects_out_of_range_p_from_the_file(tmp_path, capsys, golden):
    # the file's exponent meets the range --p is held to: a runtime error
    x_path = tmp_path / "x.json"
    x_path.write_text(json.dumps([2.5, 0.0, 0.0]))
    for bad in (1.5, -0.2, float("nan")):
        inst_path = golden_file(tmp_path, dataclasses.replace(golden, p=bad))
        code, out, err = run(capsys, "verify", "--instance", inst_path, "--x", str(x_path))
        assert code == 1 and out == ""
        assert "p must be 0 or in (0, 1]" in err


def test_table_commands_reject_out_of_range_p(tmp_path, capsys, golden):
    commands = (
        ["table1", "--profile", "desk", "--seeds", "1", "--noise", "gauss"],
        ["table2", "--profile", "desk", "--seeds", "1"],
        ["success-curve", "--m", "20", "--n", "40", "--trials", "1"],
        ["solve", "--instance", golden_file(tmp_path, golden)],
    )
    for argv in commands:
        for bad in ("1.5", "1", "0", "-0.2", "nan"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--p", bad])
            assert exc.value.code == 64
            assert "--p: exponent must be in (0, 1)" in capsys.readouterr().err


def test_csv_stdout_matches_out_file(tmp_path, capsysbinary):
    path = tmp_path / "kernels.csv"
    assert main(["plot-smoothing", "--count", "5", "--out", str(path)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert main(["plot-smoothing", "--count", "5"]) == 0
    assert capsysbinary.readouterr().out == path.read_bytes()


def test_table_commands_reject_bad_counts(capsys):
    commands = (
        (["table1", "--profile", "desk", "--noise", "gauss"], "--seeds"),
        (["table2", "--profile", "desk"], "--seeds"),
        (["success-curve", "--m", "20", "--n", "40"], "--trials"),
        (["success-curve", "--m", "20", "--n", "40"], "--s-step"),
        (["plot-smoothing"], "--count"),
    )
    for argv, flag in commands:
        for bad in ("0", "-1", "1.5", "x"):
            with pytest.raises(SystemExit) as exc:
                main(argv + [flag, bad])
            assert exc.value.code == 64
            assert f"argument {flag}:" in capsys.readouterr().err
    # the smoothing width must be positive and finite
    for bad in ("0", "-1", "inf", "nan", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["plot-smoothing", "--mu", bad])
        assert exc.value.code == 64
        assert "argument --mu:" in capsys.readouterr().err
    # one width serves both kernels: there is no second one to set
    with pytest.raises(SystemExit) as exc:
        main(["plot-smoothing", "--nu", "0.5"])
    assert exc.value.code == 64
    assert "--nu" in capsys.readouterr().err
    # an empty or out-of-range planted-sparsity range is a usage error too
    curve = ["success-curve", "--m", "20", "--n", "40", "--trials", "1"]
    for bad in (["--s-min", "0"], ["--s-min", "10", "--s-max", "5"], ["--s-max", "41"]):
        with pytest.raises(SystemExit) as exc:
            main(curve + bad)
        assert exc.value.code == 64
        assert "--s-min <= --s-max <= --n" in capsys.readouterr().err


def test_bad_thread_count_is_usage_error(monkeypatch, capsys):
    for bad in ("abc", "0", "-2", "1.5"):
        monkeypatch.setenv("SPARSELP_THREADS", bad)
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--seeds", "1", "--p", "0.5", "--noise", "gauss"])
        assert exc.value.code == 64
        assert "SPARSELP_THREADS" in capsys.readouterr().err
