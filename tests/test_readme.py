"""The Python blocks of README.md, run in order in one namespace, and the
claims the quick start prints for them."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_and_hold():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    ns = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)
    report, x_hat, props = ns["report"], ns["x_hat"], ns["props"]
    assert report.stop_reason == "converged"
    planted = np.flatnonzero(x_hat).tolist()
    assert len(planted) == 10
    assert sorted(report.support) == planted
    assert props.nnz == props.rank_aj
