"""Domain types, the blanket check, instance file I/O, and the solve report.

A problem instance is the data (A, b, sigma, p) of

    minimize    sum_i |x_i|^p        (0 < p <= 1, or p = 0 for the oracle)
    subject to  ||A x - b||_1 <= sigma

with A an m-by-n dense matrix; m and n are read off A.  An instance is
valid once built: A a finite matrix with m, n >= 1, b finite of length m,
sigma finite and >= 0, or the constructor raises.  Instances are immutable
after construction; the arrays are marked read-only so they can be shared
freely, also across a pickle round-trip.  A and b live in one matrix record
per draw, which also caches what is derived from them alone: the column
norms and the minimum-norm least-squares anchor the solver starts from.
The anchor is thus computed once per matrix record, not once per solve.
Instances that differ only in sigma or p (replace_p, share_data, the two
instances of gen.gen_matched_pair) share the record.  The blanket
assumption ||b||_q > sigma, which rules out x = 0 being feasible, depends
on the ball's norm q, so validate_instance checks it where q is known.

The instance file stores m and n beside a flat, row-major A (a nested A
reads too); read_instance checks A against them and builds the instance.

A solve report stores what the solve measured and derives the rest
(support, iteration totals, the last progress measures) from its point
and its outer-iteration trace.

Nothing here configures a solve: the outer schedule and tolerances are
constants of solver.py, and the inner loop's constants those of npg.py.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite, ParseError, TrivialInstance
from .linalg import least_squares_min_norm, lq_norm

FILE_FORMAT_VERSION = 1


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class _MatrixRecord:
    """A and b of one draw, checked and frozen once, and the values derived
    from them alone, each computed on first use and read-only.

    Instances that differ only in sigma or p share one record (share_data),
    so A is stored once and the anchor is computed once per draw.  Only
    n-vectors are cached: a Gram matrix or a factor per record would cost
    m^2 floats for every record a caller holds.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        if a.ndim != 2 or a.size == 0:
            raise DimensionMismatch(f"a must be a matrix with m, n >= 1, got shape {a.shape}")
        b = np.asarray(self.b, dtype=np.float64)
        if b.shape != a.shape[:1]:
            raise DimensionMismatch(f"b has shape {b.shape}, expected ({a.shape[0]},)")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise NonFinite("instance data contains nan or inf")
        object.__setattr__(self, "a", _frozen_array(a))
        object.__setattr__(self, "b", _frozen_array(b))

    def __setstate__(self, state):
        # unpickled arrays come back writeable; the record's are shared
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self.__dict__.update(state)

    @functools.cached_property
    def col_norms(self) -> np.ndarray:
        return _frozen_array(np.sqrt(np.einsum("ij,ij->j", self.a, self.a)))

    @functools.cached_property
    def anchor(self) -> np.ndarray:
        x = least_squares_min_norm(self.a, self.b)
        x.flags.writeable = False
        return x


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Immutable problem data.

    Parameters
    ----------
    a : array_like
        Measurement matrix, shape (m, n) with m, n >= 1.
    b : array_like
        Right-hand side, length m.
    sigma : float
        Radius of the residual ball, >= 0.
    p : float
        Exponent of the objective.  Solvers require 0 < p < 1; the exact
        oracle additionally understands p = 0.

    ``m`` and ``n`` are attributes, the shape of ``a``.  Raises
    DimensionMismatch when ``a`` is not a nonempty matrix or ``b`` does not
    match its rows, and NonFinite for nan or inf data or a negative sigma.

    The constructor copies ``a`` and ``b`` into a new matrix record;
    replace_p and share_data build instances on an existing one.  Equality
    and hashing are by identity.
    """

    m: int = dataclasses.field(init=False)
    n: int = dataclasses.field(init=False)
    a: np.ndarray
    b: np.ndarray
    sigma: float
    p: float = 0.5
    _record: _MatrixRecord = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        self._attach(_MatrixRecord(self.a, self.b), self.sigma, self.p)

    @classmethod
    def _on_record(cls, record: _MatrixRecord, sigma, p) -> ProblemInstance:
        inst = object.__new__(cls)
        inst._attach(record, sigma, p)
        return inst

    def _attach(self, record: _MatrixRecord, sigma, p) -> None:
        sigma = float(sigma)
        if not (np.isfinite(sigma) and sigma >= 0.0):
            raise NonFinite(f"sigma must be finite and >= 0, got {sigma}")
        m, n = record.a.shape
        for name, value in (
            ("m", m), ("n", n), ("a", record.a), ("b", record.b),
            ("sigma", sigma), ("p", float(p)), ("_record", record),
        ):
            object.__setattr__(self, name, value)

    def residual(self, x) -> np.ndarray:
        return self.a @ np.asarray(x, dtype=np.float64) - self.b

    @property
    def col_norms(self) -> np.ndarray:
        """The 2-norms of A's columns, computed once per matrix record; read-only."""
        return self._record.col_norms

    @property
    def anchor(self) -> np.ndarray:
        """The minimum-norm least-squares point of A x ~ b
        (linalg.least_squares_min_norm), computed once per matrix record on
        first use; read-only."""
        return self._record.anchor


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
    """Load an instance from a JSON file written by write_instance.

    The file's a is flat (row-major) or nested; either way it must hold an
    m-by-n matrix, m and n as the file states them, or DimensionMismatch.
    """
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
    for key, ok, kind in (
        ("m", _is_int, "an integer"), ("n", _is_int, "an integer"),
        ("sigma", _is_number, "a number"), ("p", _is_number, "a number"),
        ("a", _is_numbers, "an array of numbers"), ("b", _is_numbers, "an array of numbers"),
    ):
        if not ok(raw[key]):
            raise ParseError(f"{path}: field '{key}' must be {kind}, got {raw[key]!r:.40}")
    m, n = raw["m"], raw["n"]
    try:
        a = np.asarray(raw["a"], dtype=np.float64)
        if a.ndim == 1 and min(m, n) >= 0 and a.size == m * n:
            a = a.reshape(m, n)
        if a.shape != (m, n):
            raise DimensionMismatch(f"{path}: a has shape {a.shape}, expected ({m}, {n})")
        return ProblemInstance(a=a, b=raw["b"], sigma=raw["sigma"], p=raw["p"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad field value ({exc})") from exc


# json.load reads true as a bool and "2" as a str: exact type tests refuse both
def _is_int(value) -> bool:
    return type(value) is int


def _is_number(value) -> bool:
    return type(value) in (int, float)


def _is_numbers(value) -> bool:
    """A JSON array, possibly nested, of numbers only."""
    return isinstance(value, list) and all(
        _is_numbers(v) if isinstance(v, list) else _is_number(v) for v in value
    )


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


@dataclass(frozen=True)
class OuterRecord:
    """One row of the outer-iteration trace; mu smooths both of the penalty's kinks."""

    k: int
    lam: float
    mu: float
    eps: float
    objective: float
    eta1: float
    eta2: float
    eta3: float
    inner_iters: int
    inner_trials: int  # the inner loop's line-search trials
    full_products: int  # inner iterations that took the full A^T product
    l_bar: float  # step constant the inner loop accepted last; next round starts at half
    inner_stop: str  # why the inner loop stopped: NpgOutcome.stop_reason
    rho: float  # growth factor applied after this iteration (nan on the last)


@dataclass(frozen=True)
class SolveReport:
    """Result of a full penalty-solver run.

    wall_time covers the outer loop and the finish (the face walk on either
    ball, then the certification); setup_time is the time spent before it
    on the feasible anchor and its residual.  The anchor is computed once
    per matrix record, so setup_time is near zero on a repeat solve of the
    same draw, at another p or on its matched pair.
    walk_steps counts the face walk's steps on either ball and walk_drops
    the coordinates they zeroed.  eta3 is the final point's constraint
    violation.  Everything the trace or x_star already holds is read off
    them: the support, the iteration and trial totals, and eta1 and eta2 of
    the last outer comparison.
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
    walk_steps: int
    walk_drops: int

    def __post_init__(self):
        object.__setattr__(self, "x_star", _frozen_array(self.x_star))
        object.__setattr__(self, "trace", tuple(self.trace))

    @property
    def support(self) -> tuple:
        """Sorted indices of the exactly nonzero coordinates of x_star."""
        return tuple(np.flatnonzero(self.x_star).tolist())

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
    def full_products_total(self) -> int:
        """Of inner_iters_total, the iterations that took the full A^T product."""
        return sum(r.full_products for r in self.trace)

    @property
    def eta1(self) -> float:
        return self.trace[-1].eta1

    @property
    def eta2(self) -> float:
        return self.trace[-1].eta2

    def to_dict(self) -> dict:
        support = self.support
        return {
            "x_star": self.x_star.tolist(),
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
            "full_products_total": self.full_products_total,
            "wall_time": self.wall_time,
            "setup_time": self.setup_time,
            "stop_reason": self.stop_reason,
            "q": self.q,
            "walk_steps": self.walk_steps,
            "walk_drops": self.walk_drops,
        }


def share_data(inst: ProblemInstance, sigma: float, p: float) -> ProblemInstance:
    """An instance with another sigma and p that shares inst's matrix
    record: A and b are neither copied nor scanned again, and the column
    norms and the anchor, once computed, serve both."""
    return ProblemInstance._on_record(inst._record, sigma, p)


def replace_p(inst: ProblemInstance, p: float) -> ProblemInstance:
    """An instance with a different objective exponent that shares inst's
    A, b and matrix record (see share_data)."""
    return share_data(inst, inst.sigma, p)
