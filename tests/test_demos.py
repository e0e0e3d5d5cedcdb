"""Smoke runs of the demo scripts, so a renamed or removed public name
they import cannot slip through unnoticed."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_golden_demo_prints_sparsest_points(capsys):
    runpy.run_path(str(DEMOS / "01_golden_instance.py"), run_name="__main__")
    out = capsys.readouterr().out
    head = "sparsest feasible points have 1 nonzero; the vertices among them:\n"
    sparsest = out.split(head)[1].split("\n\n")[0]
    assert sparsest.split("\n") == [
        "  (2.5, 0.0, 0.0)", "  (3.5, 0.0, 0.0)", "  (0.0, 2.5, 0.0)", "  (0.0, 3.5, 0.0)"
    ]


def test_exact_vs_iterative_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "03_exact_vs_iterative.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert out.count("(4,6)") == 6


def test_solve_walkthrough_demo_recovers_support(capsys):
    runpy.run_path(str(DEMOS / "02_solve_walkthrough.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "matches planted support: True" in out


def test_smoothing_kernels_demo_gaps_within_bounds(capsys):
    runpy.run_path(str(DEMOS / "04_smoothing_kernels.py"), run_name="__main__")
    out = capsys.readouterr().out
    # the largest gap sits at the kink: mu/8 for the ramp, mu/4 for |t|
    assert "   0.00   0.12500  0.00000   0.12500" in out
    assert "   0.00   0.25000  0.00000   0.25000" in out
    rows = [line for line in out.splitlines() if line.startswith("  width")]
    assert len(rows) == 3
    for row in rows:
        nums = [float(tok.strip("(),:")) for tok in row.split() if tok[0].isdigit()]
        _, ramp, ramp_bound, abs_gap, abs_bound = nums
        assert ramp <= ramp_bound and abs_gap <= abs_bound


def test_heavy_tails_demo_counts_its_wins(capsys):
    runpy.run_path(str(DEMOS / "05_heavy_tails.py"), run_name="__main__")
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines() if line.strip()[:1].isdigit()]
    assert [int(row[0]) for row in rows] == list(range(5))
    assert all(float(row[1]) > 0.0 and float(row[2]) > 0.0 for row in rows)
    wins = sum(row[3] == "True" for row in rows)
    assert f"l1 ball wins {wins}/5" in out


def test_sparsity_path_demo_settles_at_the_planted_support(capsys):
    runpy.run_path(str(DEMOS / "06_sparsity_path.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "planted nnz = 6" in out
    rows = [line.split() for line in out.splitlines() if line.startswith("  0.")]
    assert len(rows) == 10
    for p, nnz, _, bar in rows:
        assert len(bar) == int(nnz)  # the bar draws len(report.support)
        if float(p) < 0.5:
            assert int(nnz) == 6
