import dataclasses
import json

import numpy as np
import pytest

import sparselp.cli
import sparselp.oracle
import sparselp.verify
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
    assert 0 <= payload["restricted_total"] <= payload["trials_total"]
    assert "trace" not in payload

    # --trace shows the step constant each round hands to the next
    code, out, _ = run(
        capsys, "solve", "--instance", str(inst_path), "--p", "0.5", "--trace",
    )
    assert code == 0
    trace = json.loads(out)["trace"]
    assert len(trace) == payload["outer_iters"]
    assert all(np.isfinite(row["l_bar"]) and row["l_bar"] > 0.0 for row in trace)

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


def test_verify_rejects_bad_point(tmp_path, capsys, golden):
    inst_path = golden_file(tmp_path, golden)
    x_path = tmp_path / "x.json"
    x_path.write_text(json.dumps({"x": [3.0, 0.0, 0.0]}))  # interior, not optimal
    code, out, _ = run(capsys, "verify", "--instance", inst_path, "--x", str(x_path))
    assert code == 1
    assert json.loads(out)["all_pass"] is False


@pytest.mark.parametrize("x, all_pass", [([2.5, 0.0, 0.0], True), ([9.0, 0.0, 0.0], False)])
def test_verify_builds_one_report(tmp_path, capsys, golden, monkeypatch, x, all_pass):
    # feasible points reuse the checks' report; infeasible ones stop the
    # checks at feasibility, so the command builds the report itself
    calls = []
    real = sparselp.verify.kkt_property_report

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sparselp.verify, "kkt_property_report", counting)
    monkeypatch.setattr(sparselp.cli, "kkt_property_report", counting)
    inst_path = golden_file(tmp_path, golden)
    x_path = tmp_path / "x.json"
    x_path.write_text(json.dumps({"x": x}))
    code, out, _ = run(capsys, "verify", "--instance", inst_path, "--x", str(x_path))
    payload = json.loads(out)
    assert payload["all_pass"] is all_pass
    assert payload["report"]["inf_norm"] == x[0]
    assert len(calls) == 1


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


def test_solve_infeasible_start_exits_1(tmp_path, capsys, golden):
    inst_path = golden_file(tmp_path, golden)
    x0_path = tmp_path / "x0.json"
    x0_path.write_text(json.dumps({"x": [0.0, 0.0, 0.0]}))
    code, _, err = run(capsys, "solve", "--instance", inst_path, "--x0", str(x0_path))
    assert code == 1
    assert "error" in err


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


def test_oracle_sparsest_reuses_vertices(tmp_path, capsys, golden, monkeypatch):
    # --p 0 filters the vertices already enumerated: one scan of the sizes
    # 0..min(m, n), not a second one for the sparsest level
    sizes = []
    scan = sparselp.oracle._vertices_of_size

    def counted(inst, k):
        sizes.append(k)
        return scan(inst, k)

    monkeypatch.setattr(sparselp.oracle, "_vertices_of_size", counted)
    code, out, _ = run(capsys, "oracle", "--instance", golden_file(tmp_path, golden), "--p", "0")
    assert code == 0
    assert sizes == [0, 1, 2]
    sol = json.loads(out)["solutions"]["0.0"]
    assert sol["optimal_value"] == 1.0
    assert sorted(sol["minimizers"]) == [[0.0, 2.5, 0.0], [0.0, 3.5, 0.0], [2.5, 0.0, 0.0], [3.5, 0.0, 0.0]]


def test_oracle_cap_exits_2(tmp_path, capsys):
    big = ProblemInstance(m=9, n=3, a=np.ones((9, 3)), b=np.ones(9), sigma=0.5)
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
    # the smoothing widths must be positive and finite
    for flag in ("--mu", "--nu"):
        for bad in ("0", "-1", "inf", "nan", "x"):
            with pytest.raises(SystemExit) as exc:
                main(["plot-smoothing", flag, bad])
            assert exc.value.code == 64
            assert f"argument {flag}:" in capsys.readouterr().err
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
