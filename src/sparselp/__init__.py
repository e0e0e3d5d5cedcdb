"""Sparse recovery by nonconvex power minimization over a residual l1 ball.

Solves min sum_i |x_i|^p subject to ||Ax - b||_1 <= sigma for 0 < p < 1 by
a smoothing penalty method with a nonmonotone proximal-gradient inner loop,
and provides exact enumeration oracles, optimality verifiers, a seeded
instance generator, and experiment drivers on top of it.

The top level holds what the README, demos and benchmark use; the inner
loop, prox, kernels and linear algebra import from their own modules.
"""

import types

from .core import (
    OuterRecord,
    ProblemInstance,
    SolveReport,
    read_instance,
    replace_p,
    validate_instance,
    write_instance,
)
from .errors import (
    DimensionMismatch,
    EmptySupport,
    InfeasibleStart,
    InvalidNorm,
    InvalidParam,
    InvariantViolation,
    LineSearchStalled,
    NonFinite,
    NotFeasible,
    ParseError,
    SparselpError,
    TooLarge,
    TrivialInstance,
)
from .gen import GenSpec, gen_instance, gen_matched_pair
from .linalg import least_squares_min_norm
from .oracle import (
    ExactSolutionSet,
    PStarEstimate,
    all_orthant_vertices,
    estimate_p_star,
    solve_exact_l0,
    solve_exact_lp_quasinorm,
)
from .solver import solve_l1, solve_l2
from .verify import (
    CheckResult,
    KktPropertyReport,
    all_checks_pass,
    kkt_property_report,
    optimal_point_checks,
)

__version__ = "0.1.0"

# every name imported above; the submodules stay attributes, not exports
__all__ = [name for name, obj in globals().items()
           if not name.startswith("_") and not isinstance(obj, types.ModuleType)]
