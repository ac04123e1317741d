"""Exception types shared across the library.

Errors fall in two kinds.  An input fault, a graph, measure, time or
hypothesis that the mathematics does not accept, raises a subclass of
GraphCurvatureError, so callers can catch one base class at the
boundary (the CLI maps them to exit code 2).  A contract break, a call
whose arguments break the documented shape or pairing of the function
itself, raises Python's own ValueError or TypeError instead; it is a
fault of the calling code, not of its data.  The CLI builds every such
argument itself and reaches none of them (tests/test_cli_fuzz.py).
The contract breaks are:

  lp.Start.from_basis   ValueError: an objective that does not match the
                        matrix, a basis that is not one column index per
                        row, a column that is not an arc's (at most one
                        1 and one -1, zero elsewhere), or a basis that
                        LAPACK finds singular (numpy's LinAlgError)
  lp.solve_lp           ValueError: a right-hand side that does not
                        match the matrix
  transport._table      ValueError: a table given other than one start
                        per column
  transport.wasserstein ValueError: a table asked for in verify mode, a
                        single pair in fast mode or with a start, or, in
                        the table form, a column start (an arc's or an
                        earlier column's) solved on another
                        DistanceMatrix
  report.render_json    TypeError: a value of a type it cannot serialise
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
