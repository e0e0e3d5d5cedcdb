"""Sparse recovery by nonconvex power minimization over a residual l1 ball.

Solves min sum_i |x_i|^p subject to ||Ax - b||_1 <= sigma for 0 < p < 1 by
a smoothing penalty method with a nonmonotone proximal-gradient inner loop,
and provides exact enumeration oracles, optimality verifiers, a seeded
instance generator, and experiment drivers on top of it.
"""

from .core import (
    OuterRecord,
    ProblemInstance,
    SolveReport,
    read_instance,
    replace_p,
    support_indices,
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
from .gen import GenSpec, gen_instance, gen_matched_pair, make_rng
from .linalg import gram_extremes, least_squares_min_norm, lq_norm, numerical_rank
from .npg import NpgOutcome, npg_solve
from .oracle import (
    ExactSolutionSet,
    PStarEstimate,
    all_orthant_vertices,
    boundary_scaling_alpha,
    build_sign_matrix,
    estimate_p_star,
    is_l0_optimal,
    l1_ball_halfspaces,
    residual_sandwich_check,
    solve_exact_l0,
    solve_exact_lp_quasinorm,
)
from .prox import prox_threshold, prox_vector
from .smoothing import SmoothedPenalty, lp_power_sum, smoothed_abs, smoothed_plus
from .solver import progress_measures, solve_l1, solve_l2
from .verify import (
    CheckResult,
    KktPropertyReport,
    all_checks_pass,
    kkt_property_report,
    optimal_point_checks,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
