"""Exception types shared across the package."""


class SparselpError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(SparselpError):
    """Array shapes are inconsistent with the declared sizes."""


class NonFinite(SparselpError):
    """An input or intermediate quantity contains nan or inf."""


class TrivialInstance(SparselpError):
    """The zero vector is already feasible, so the problem is trivial."""


class ParseError(SparselpError):
    """An instance file is malformed."""


class InvalidNorm(SparselpError):
    """Requested norm order is outside [1, inf]."""


class InvalidParam(SparselpError):
    """A parameter is outside its admissible range."""


class LineSearchStalled(SparselpError):
    """Backtracking doubled the step constant too many times."""


class InfeasibleStart(SparselpError):
    """The starting point violates the residual constraint."""


class InvariantViolation(SparselpError):
    """A guarantee the method rests on failed at run time: a solver descent
    anchor, or the full rank of a generated matrix."""


class TooLarge(SparselpError):
    """Instance is too large for an exhaustive oracle computation."""


class NotFeasible(SparselpError):
    """No feasible vertex or support: the exact oracle found nothing in the
    residual ball to answer from."""


class EmptySupport(SparselpError):
    """The given point is identically zero."""
