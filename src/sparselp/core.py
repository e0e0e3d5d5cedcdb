"""Domain types, the blanket check, instance file I/O, and the solve report.

A problem instance is the data (A, b, sigma, p) of

    minimize    sum_i |x_i|^p        (0 < p <= 1, or p = 0 for the oracle)
    subject to  ||A x - b||_1 <= sigma

with A an m-by-n dense matrix.  An instance is valid once built: m, n >= 1,
A and b finite and of matching shapes, sigma finite and >= 0, or the
constructor raises.  Instances are immutable after construction; the
arrays are marked read-only so they can be shared freely.  The blanket
assumption ||b||_q > sigma, which rules out x = 0 being feasible, depends
on the ball's norm q, so validate_instance checks it where q is known.

A solve report stores what the solve measured and derives the rest
(support, iteration totals, the last progress measures) from its point
and its outer-iteration trace.

Nothing here configures a solve: the outer schedule and tolerances are
constants of solver.py, and the inner loop's constants those of npg.py.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite, ParseError, TrivialInstance
from .linalg import lq_norm

FILE_FORMAT_VERSION = 1


def _frozen_array(values, shape=None) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if shape is not None:
        arr = arr.reshape(shape)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable problem data.

    Parameters
    ----------
    m, n : int
        Number of rows and columns of ``a``.
    a : array_like
        Measurement matrix, shape (m, n) or flat of length m*n (row-major).
    b : array_like
        Right-hand side, length m.
    sigma : float
        Radius of the residual ball, >= 0.
    p : float
        Exponent of the objective.  Solvers require 0 < p < 1; the exact
        oracle additionally understands p = 0.

    Raises DimensionMismatch for m or n below 1 or shapes that do not match
    them, and NonFinite for nan or inf data or a negative sigma.
    """

    m: int
    n: int
    a: np.ndarray
    b: np.ndarray
    sigma: float
    p: float = 0.5

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise DimensionMismatch(f"need m >= 1 and n >= 1, got m={self.m}, n={self.n}")
        a = np.asarray(self.a, dtype=np.float64)
        if a.ndim == 1:
            if self.m * self.n != a.size:
                raise DimensionMismatch(
                    f"flat a has {a.size} entries, expected m*n = {self.m * self.n}"
                )
            a = a.reshape(self.m, self.n)
        elif a.shape != (self.m, self.n):
            raise DimensionMismatch(
                f"a has shape {a.shape}, expected {(self.m, self.n)}"
            )
        b = np.asarray(self.b, dtype=np.float64)
        if b.shape != (self.m,):
            raise DimensionMismatch(f"b has shape {b.shape}, expected ({self.m},)")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise NonFinite("instance data contains nan or inf")
        sigma = float(self.sigma)
        if not (np.isfinite(sigma) and sigma >= 0.0):
            raise NonFinite(f"sigma must be finite and >= 0, got {sigma}")
        object.__setattr__(self, "a", _frozen_array(a, (self.m, self.n)))
        object.__setattr__(self, "b", _frozen_array(b, (self.m,)))
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "p", float(self.p))

    def residual(self, x) -> np.ndarray:
        return self.a @ np.asarray(x, dtype=np.float64) - self.b


def validate_instance(inst: ProblemInstance, q: float = 1.0) -> None:
    """Check the blanket assumption ||b||_q > sigma, under which x = 0 is
    infeasible and every optimum lies on the boundary; raises
    TrivialInstance otherwise.  ``q`` selects the residual norm (1 for the
    l1 ball, 2 for the l2 variant).
    """
    if lq_norm(inst.b, q) <= inst.sigma:
        raise TrivialInstance(
            f"||b||_{q} = {lq_norm(inst.b, q)} <= sigma = {inst.sigma}; "
            "x = 0 is already feasible"
        )


def read_instance(path) -> ProblemInstance:
    """Load an instance from a JSON file written by write_instance."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    for key in ("format", "m", "n", "a", "b", "sigma", "p"):
        if key not in raw:
            raise ParseError(f"{path}: missing field '{key}'")
    if raw["format"] != FILE_FORMAT_VERSION:
        raise ParseError(
            f"{path}: unsupported format {raw['format']!r}, "
            f"expected {FILE_FORMAT_VERSION}"
        )
    try:
        inst = ProblemInstance(
            m=int(raw["m"]),
            n=int(raw["n"]),
            a=raw["a"],
            b=raw["b"],
            sigma=raw["sigma"],
            p=raw["p"],
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad field value ({exc})") from exc
    return inst


def write_instance(inst: ProblemInstance, path) -> None:
    """Write an instance as JSON.

    Floats are serialized with Python's shortest round-trip repr, so a
    read_instance of the file reproduces every scalar bit for bit.
    """
    payload = {
        "format": FILE_FORMAT_VERSION,
        "m": inst.m,
        "n": inst.n,
        "a": [float(v) for v in inst.a.ravel()],
        "b": [float(v) for v in inst.b],
        "sigma": float(inst.sigma),
        "p": float(inst.p),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def support_indices(x) -> np.ndarray:
    """Indices of exactly nonzero entries."""
    return np.flatnonzero(np.asarray(x) != 0.0)


@dataclass(frozen=True)
class OuterRecord:
    """One row of the outer-iteration trace."""

    k: int
    lam: float
    mu: float
    nu: float
    eps: float
    objective: float
    eta1: float
    eta2: float
    eta3: float
    inner_iters: int
    inner_trials: int  # the inner loop's line-search trials
    restricted_trials: int  # of those, trials whose residual used only A[:, J]
    l_bar: float  # step constant the inner loop accepted last; next round starts at half
    inner_stop: str  # why the inner loop stopped: NpgOutcome.stop_reason
    rho: float  # growth factor applied after this iteration (nan on the last)


@dataclass(frozen=True)
class SolveReport:
    """Result of a full penalty-solver run.

    wall_time covers the outer loop and the finish (the l1 vertex walk or
    the l2 boundary scaling, then the certification); setup_time is the
    time spent before it on the feasible anchor and its residual.
    walk_steps counts the vertex walk's steps and walk_drops the
    coordinates they zeroed (both 0 on the l2 ball).  eta3 is the final
    point's constraint violation.  Everything the trace or x_star already
    holds is read off them: the support, the iteration and trial totals,
    and eta1 and eta2 of the last outer comparison.
    """

    x_star: np.ndarray
    objective: float
    l1_residual: float
    eta3: float
    wall_time: float
    setup_time: float
    # "converged": the outer loop met its tolerance and the finished point
    # passes optimal_point_checks at 1e-8; "stationary_uncertified": it met
    # the tolerance but the point fails a check; "outer_cap": the outer loop
    # ran out of rounds
    stop_reason: str
    q: float
    trace: tuple  # one OuterRecord per outer round, at least one
    walk_steps: int = 0
    walk_drops: int = 0

    def __post_init__(self):
        object.__setattr__(self, "x_star", _frozen_array(self.x_star))
        object.__setattr__(self, "trace", tuple(self.trace))

    @property
    def support(self) -> tuple:
        """Sorted indices of the exactly nonzero coordinates of x_star."""
        return tuple(support_indices(self.x_star).tolist())

    @property
    def outer_iters(self) -> int:
        return len(self.trace)

    @property
    def inner_iters_total(self) -> int:
        return sum(r.inner_iters for r in self.trace)

    @property
    def trials_total(self) -> int:
        """The inner loop's line-search trials over all outer rounds."""
        return sum(r.inner_trials for r in self.trace)

    @property
    def restricted_total(self) -> int:
        """Of trials_total, those whose residual came from the support's columns."""
        return sum(r.restricted_trials for r in self.trace)

    @property
    def eta1(self) -> float:
        return self.trace[-1].eta1

    @property
    def eta2(self) -> float:
        return self.trace[-1].eta2

    def to_dict(self) -> dict:
        support = self.support
        return {
            "x_star": [float(v) for v in self.x_star],
            "objective": self.objective,
            "support": list(support),
            "nnz": len(support),
            "l1_residual": self.l1_residual,
            "eta1": self.eta1,
            "eta2": self.eta2,
            "eta3": self.eta3,
            "outer_iters": self.outer_iters,
            "inner_iters_total": self.inner_iters_total,
            "trials_total": self.trials_total,
            "restricted_total": self.restricted_total,
            "wall_time": self.wall_time,
            "setup_time": self.setup_time,
            "stop_reason": self.stop_reason,
            "q": self.q,
            "walk_steps": self.walk_steps,
            "walk_drops": self.walk_drops,
        }


def replace_p(inst: ProblemInstance, p: float) -> ProblemInstance:
    """Copy of an instance with a different objective exponent."""
    return dataclasses.replace(inst, p=float(p))
