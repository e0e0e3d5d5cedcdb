import contextlib
import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import sparselp.npg
import sparselp.solver
import sparselp.verify
from sparselp import (
    GenSpec,
    ProblemInstance,
    all_orthant_vertices,
    gen_instance,
    replace_p,
    solve_l1,
)


@pytest.fixture(scope="session")
def golden():
    """Tiny 2x3 instance whose solution set is known in closed form."""
    a = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0]])
    b = np.array([3.0, 3.0])
    return ProblemInstance(a=a, b=b, sigma=1.0, p=0.5)


@pytest.fixture(scope="session")
def golden_vertices(golden):
    return all_orthant_vertices(golden)


# the union of orthant extreme points for the golden instance, derived by
# hand from the active-set systems of the two facet planes and the
# coordinate planes; frozen here as the reference list
GOLDEN_VERTEX_SET = {
    (3.5, 0.0, 0.5),
    (3.5, 0.0, -0.5),
    (0.0, 3.5, 0.5),
    (0.0, 3.5, -0.5),
    (2.5, 0.0, 0.5),
    (2.5, 0.0, -0.5),
    (0.0, 2.5, 0.5),
    (0.0, 2.5, -0.5),
    (3.5, 0.0, 0.0),
    (0.0, 3.5, 0.0),
    (2.5, 0.0, 0.0),
    (0.0, 2.5, 0.0),
}


# the twenty tiny random instances of the acceptance suite, 2x3 to 5x6
TINY_SPECS = tuple(
    GenSpec(
        m=m, n=n, s=1 + i % 2, delta=0.4,
        noise="gauss" if i % 2 == 0 else "t2", seed=100 + i,
    )
    for i, (m, n) in enumerate(
        [(2, 3), (2, 4), (3, 3), (3, 4), (3, 5), (4, 4), (4, 5), (4, 6), (5, 5), (5, 6)] * 2
    )
)


@pytest.fixture(scope="session")
def desk_instance():
    spec = GenSpec(m=100, n=500, s=10, delta=1e-3, noise="gauss", seed=0)
    inst, x_hat, xi = gen_instance(spec)
    return inst, x_hat, xi


@pytest.fixture(scope="session")
def desk_solution(desk_instance):
    inst, x_hat, _ = desk_instance
    report = solve_l1(replace_p(inst, 0.5))
    return inst, x_hat, report


@pytest.fixture()
def rng():
    return np.random.default_rng(np.random.Philox(12345))


BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load_benchmark_module(name):
    """benchmarks/<name>.py, loaded once as the module benchmark_<name>;
    read, never changed, so the tests see the benchmark as it runs."""
    key = f"benchmark_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, BENCHMARKS / f"{name}.py")
        sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[key])
    return sys.modules[key]


@contextlib.contextmanager
def recorded_trials():
    """Record every line-search trial of the inner loop.

    Wraps sparselp.npg.prox_vector and yields a list that fills with one
    (center, l, w) row per trial: the current accepted iterate, the trial
    step constant and the trial point, as full-length vectors.  The loop
    calls the prox on its working set's coordinates, so the recorder also
    wraps sparselp.npg.working_columns, which sees each working set the
    loop adopts, and scatters both vectors from it.  A new center starts
    each iteration; the trials of one iteration share the center object.
    """
    rows = []
    seen = {"n": 0, "work": None, "center": (None, None)}
    prox_vector = sparselp.npg.prox_vector
    working_columns = sparselp.npg.working_columns

    def watched(a, work):
        seen.update(n=a.shape[1], work=work)
        return working_columns(a, work)

    def full(z):
        if seen["work"] is None:
            return z
        out = np.zeros(seen["n"])
        out[seen["work"]] = z
        return out

    def recorded(x, g, l, p):
        w = prox_vector(x, g, l, p)
        if seen["center"][0] is not x:
            seen["center"] = (x, full(x))
        rows.append((seen["center"][1], l, full(w)))
        return w

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparselp.npg, "prox_vector", recorded)
        mp.setattr(sparselp.npg, "working_columns", watched)
        yield rows


def accepted_steps(rows):
    """The (center, l_bar, w) of each accepted step in recorded_trials rows.

    The line search stops at the accepted trial and the next iteration
    starts from its point, so the accepted trial is the last one made from
    each center, and the last trial of all is the final accepted step.
    """
    return [
        row for i, row in enumerate(rows) if i + 1 == len(rows) or rows[i + 1][0] is not row[0]
    ]


def penalty_value_and_grad(pen, r):
    """(value, x-space gradient coef * A^T u) of a penalty at the residual r,
    formed from its value_and_grad_parts; an exact zero vector when coef is 0."""
    val, coef, u = pen.value_and_grad_parts(r)
    if coef == 0.0:
        return val, np.zeros(pen.inst.n)
    return val, coef * (pen.inst.a.T @ u)


@pytest.fixture
def verify_calls(monkeypatch):
    """Counts of property reports built and residual products made."""
    calls = {"reports": 0, "residuals": 0}
    report, residual = sparselp.verify.kkt_property_report, ProblemInstance.residual

    def counting_report(*args, **kwargs):
        calls["reports"] += 1
        return report(*args, **kwargs)

    def counting_residual(self, x):
        calls["residuals"] += 1
        return residual(self, x)

    monkeypatch.setattr(sparselp.verify, "kkt_property_report", counting_report)
    monkeypatch.setattr(ProblemInstance, "residual", counting_residual)
    return calls


@pytest.fixture
def failing_certificate(monkeypatch):
    """The solver's certificate of its finished point fails its first check."""
    checks = sparselp.solver.optimal_point_checks

    def first_fails(*args, **kwargs):
        first, *rest = checks(*args, **kwargs)
        return [dataclasses.replace(first, passed=False), *rest]

    monkeypatch.setattr(sparselp.solver, "optimal_point_checks", first_fails)
