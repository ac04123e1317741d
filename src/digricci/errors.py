"""Exception types shared across the library.

Every error raised on purpose derives from GraphCurvatureError so callers
can catch one base class at the boundary (the CLI maps them to exit code 2).
"""


class GraphCurvatureError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GraphCurvatureError):
    """Malformed graph input (edge list or JSON document)."""


class SelfLoopError(GraphCurvatureError):
    """A vertex carries an arc to itself; only simple graphs are supported."""


class NegativeWeightError(GraphCurvatureError):
    """An arc weight is negative."""


class NotStronglyConnectedError(GraphCurvatureError):
    """The graph is not strongly connected."""


class SameVertexError(GraphCurvatureError):
    """An operation on an ordered pair was called with x == y."""


class SingularSystemError(GraphCurvatureError):
    """The stationary-measure linear system could not be solved reliably."""


class MarginalMismatchError(GraphCurvatureError):
    """Transport marginals are not probability vectors of matching mass."""


class EpsOutOfRangeError(GraphCurvatureError):
    """Smoothing parameter outside [0, 1]."""


class NegativeTimeError(GraphCurvatureError):
    """Heat-flow time must be finite and non-negative."""


class NotLipschitzError(GraphCurvatureError):
    """A function violates the Lipschitz bound required by the statement."""


class HypothesisUnmetError(GraphCurvatureError):
    """A certificate's hypothesis (for instance K > 0) does not hold."""


class LpFailureError(GraphCurvatureError):
    """A linear program that must be solvable came back without an optimum."""


class NumericsError(GraphCurvatureError):
    """Numerical trouble past the tolerances (pivot breakdown, bad kernel mass)."""
