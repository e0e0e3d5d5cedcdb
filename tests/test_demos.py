"""Smoke runs of the demo scripts, so a renamed or removed public name
they import cannot slip through unnoticed."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_golden_demo_prints_sparsest_points(capsys):
    runpy.run_path(str(DEMOS / "01_golden_instance.py"), run_name="__main__")
    out = capsys.readouterr().out
    sparsest = out.split("sparsest feasible points have 1 nonzero:\n")[1].split("\n\n")[0]
    assert sparsest.split("\n") == ["  (3.0, 0.0, 0.0)", "  (0.0, 3.0, 0.0)"]


def test_exact_vs_iterative_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "03_exact_vs_iterative.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert out.count("(4,6)") == 6
