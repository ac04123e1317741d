"""Dense dual simplex, started from a given dual-feasible basis.

One pivot core backs every optimisation in the package: solve_lp
minimises c.x subject to A x = b, x >= 0, by a dual simplex from a
start.  A start is a basis of c and A that is dual feasible, together
with its inverse and the b-independent part of its tableau,
[B^-1 A ; c - c_B B^-1 A].  It is built and checked once: the inverse
must invert the basis columns to within INVERSE_TOL, and every reduced
cost must be at least -RC_TOL.  A basis dual feasible for c and A stays
so for every b, so one start serves every right-hand side, and a solve
only forms B^-1 b and its cost entry before it pivots to primal
feasibility.  There is no standard form and no phase 1, and the
optimal duals are one product of the final cost row with the start's
inverse, formed only when read, so solve_lp factorises nothing.
Starts come four ways: Start.from_basis multiplies out the tableau
of a given basis and its inverse; with_columns makes one start per
added column, each the start plus that column, forming every new
column's tableau entries as one product and checking their reduced
costs, and nothing else, once (one column is a stack of one); an
optimal solution's warm_start makes its final basis the start of the
next b, so a caller that solves one c and A for a sequence of right-hand
sides starts each solve from the previous optimum without multiplying
B^-1 A again: a solve that took no pivot ended on its start and hands
that start on unchanged, and one that pivoted carries its final
tableau over, with the one m x m product T[:m, b0] B0^-1 as its
inverse; and Start.carried takes a basis, inverse and tableau that a
caller formed off another solve's final tableau, and checks them as
from_basis checks its own.

Every program solved is a flow on a graph whose balance rows sum to
zero, with one of them dropped, and a spanning tree of that graph is a
basis (Ahuja, Magnanti & Orlin, Network Flows, 1993, ch. 11).  The
library's two programs, the flow behind the Wasserstein distance and
the dual of each per-pair curvature program, start from a
shortest-path tree (into or out of a root) whose start the transport
module builds once per graph, root and direction, with the tree's path
matrix as its exact inverse; the curvature programs of a root add
their virtual columns to that start as one stack (a single pair is a
stack of one), and the smoothing W of one pair go on from the previous
smoothing's warm start.  The heat-flow W of an arc start from
its curvature optimum, the virtual column swapped for the arc (a
carried start, checked once), and go on from the previous time's.
Two reference programs the tests hold those to take the same path: the
coupling program of solve_transport, a flow on the complete bipartite
graph of the two supports, drops the row sum of row 0 and starts from
the tree that assemble_transport_lp builds, and
transport.kantorovich_dual starts its all-pairs flow from a star.  Problems stay small (hundreds of
variables at the target scale), so a dense tableau is simpler than a
revised method and fast enough.  The most negative basic variable
leaves, which takes fewer pivots than the lowest-index one; transport
instances are heavily degenerate, though, and that rule alone can
cycle, so after as many pivots in a row as there are rows that leave
the objective unchanged the solve finishes under Bland's rule, which
terminates.  The entering column is the lowest index of minimum ratio
under both rules.  The pivot loop keeps the numpy calls per pivot few:
one argmin picks the leaving row, the ratio test runs on the candidate
columns alone, and the pivot is one broadcast rank-1 update of the
whole tableau.  The tests hold it, bit for bit, to a plain reference
loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import LpFailureError, MarginalMismatchError, NumericsError

# primal-dual agreement required of an optimal basis
GAP_TOL = 1e-8
# smallest pivot element the tableau will accept
PIVOT_TOL = 1e-9
# reduced-cost threshold below which the starting basis is not dual feasible
RC_TOL = 1e-10
# a basic variable below -PRIMAL_TOL leaves; smaller negatives are
# rounding in B^-1 b (values are masses of order 1) and are read as zero
PRIMAL_TOL = 1e-15
# marginal mass agreement for transport instances
MARGINAL_TOL = 1e-12
# largest entry of |B^-1 B - I| accepted from a supplied basis inverse
INVERSE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Start:
    """A basis of c and A that is dual feasible, with its tableau.

    basis holds one column index per row; basis[i] is the column basic
    in row i.  inverse is B^-1 for B = A[:, basis].  tableau is the
    start tableau without its b column, [B^-1 A ; c - c_B B^-1 A], of
    shape (m + 1) x n; the basis columns are the unit vectors over a
    zero reduced cost.  A dual-feasible basis stays dual feasible for
    every b, so one start serves every program min c.x, A x = b,
    x >= 0.  from_basis, with_columns, carried and LpSolution.warm_start
    build starts and check them; nothing changes a start after that, so
    a start is handed on as it stands when a solve from it takes no pivot.
    """

    c: np.ndarray
    A: np.ndarray
    basis: np.ndarray
    inverse: np.ndarray
    tableau: np.ndarray

    @classmethod
    def from_basis(cls, c, A, basis, basis_inverse) -> Start:
        """The start of a basis and its inverse, with B^-1 A and the reduced costs multiplied out.

        ValueError unless c has one entry per column of A, basis one
        column index per row and basis_inverse one row and column per
        row.  NumericsError unless basis_inverse inverts A[:, basis] to
        within INVERSE_TOL and every reduced cost is at least -RC_TOL.
        """
        c = np.asarray(c, dtype=float)
        A = np.asarray(A, dtype=float)
        m, n = A.shape
        if c.shape != (n,):
            raise ValueError("the objective does not match the matrix")
        basis = np.asarray(basis, dtype=int)
        if basis.shape != (m,) or not ((0 <= basis) & (basis < n)).all():
            raise ValueError("a starting basis holds one column index per row")
        basis_inverse = np.asarray(basis_inverse, dtype=float)
        if basis_inverse.shape != (m, m):
            raise ValueError("basis_inverse must be square, one row per constraint")
        T = np.empty((m + 1, n))
        T[:m] = basis_inverse @ A
        eye = np.eye(m)
        off = np.abs(T[:m, basis] - eye).max(initial=0.0)
        T[:m, basis] = eye
        T[-1] = c - c[basis] @ T[:m]
        T[-1, basis] = 0.0
        _check(off, T[-1].min(initial=0.0))
        return cls(c, A, basis, basis_inverse, T)

    def with_columns(self, costs: np.ndarray, columns: np.ndarray) -> list[Start]:
        """One start per column of columns: this start with that column added to A, at its cost.

        columns has one row per row of A and costs one entry per column.
        The basis and its inverse stay, so the new columns' tableau
        entries are B^-1 columns, one product for all of them, and their
        reduced costs are the one check, made once: NumericsError unless
        each is at least -RC_TOL.  The starts are views of one stack each
        of c, A and tableaus, so a start kept keeps the whole stack.
        """
        m, n = self.A.shape
        k = len(costs)
        entries = self.inverse @ columns
        T = np.empty((k, m + 1, n + 1))
        T[:, :, :n] = self.tableau
        T[:, :m, n] = entries.T
        T[:, m, n] = costs - self.c[self.basis] @ entries
        _check(0.0, T[:, m, n].min())
        c = np.empty((k, n + 1))
        c[:, :n] = self.c
        c[:, n] = costs
        A = np.empty((k, m, n + 1))
        A[:, :, :n] = self.A
        A[:, :, n] = columns.T
        return [Start(c[i], A[i], self.basis, self.inverse, T[i]) for i in range(k)]

    @classmethod
    def carried(cls, c, A, basis, inverse, tableau) -> Start:
        """The start of a basis whose inverse and tableau another solve formed, taken as they stand.

        Nothing is multiplied out again; the checks are from_basis's:
        NumericsError unless inverse inverts A[:, basis] to within
        INVERSE_TOL and every reduced cost is at least -RC_TOL.
        """
        off = np.abs(inverse @ A[:, basis] - np.eye(len(inverse))).max(initial=0.0)
        _check(off, tableau[-1].min(initial=0.0))
        return cls(c, A, basis, inverse, tableau)


def _check(off: float, worst: float) -> None:
    """NumericsError unless off, the largest entry of |B^-1 B - I|, is within
    INVERSE_TOL and worst, the least reduced cost, is at least -RC_TOL."""
    if not off <= INVERSE_TOL:
        raise NumericsError(f"basis_inverse does not invert the starting basis: off by {off:.3e}")
    if worst < -RC_TOL:
        raise NumericsError(f"starting basis is not dual feasible: reduced cost {worst:.3e}")


@dataclass
class LpSolution:
    """An optimal solve, with the optimality certificate pieces.

    It keeps the start it began from, its right-hand side b, its final
    basis, one column index per row, and its final tableau.  x and
    value are formed by the solve; the certificate pieces are formed on
    first read, off the final tableau, so a caller that reads only the
    value pays for none of them.  duals has one multiplier per row of
    the program: y = c_B B^-1 on the final basis, read off the final
    cost row c - y A through the start's inverse.  duality_gap is
    |c.x - y.b|, which certifies optimality on that basis.
    feasibility_residual is the largest violation of A x = b and x >= 0
    by the final basic values as the tableau holds them, before x clips
    the ones PRIMAL_TOL reads as zero, so an exactly infeasible final
    basis shows.  basis_inverse is the final basis's inverse, and
    warm_start makes the basis the start of another b.  solve_lp raises
    instead of returning a solve that is not optimal.
    """

    # solve_lp returns optimal solves only; kept because the benchmark tracer
    # (bench/tracing.py) reads it off every solve
    status = "optimal"
    x: np.ndarray
    value: float
    iterations: int
    start: Start = field(repr=False)
    b: np.ndarray = field(repr=False)
    basis: np.ndarray
    # the final tableau, [B_f^-1 A | B_f^-1 b ; c - c_B B_f^-1 A | -c_B B_f^-1 b]
    _tableau: np.ndarray = field(repr=False)

    @cached_property
    def duals(self) -> np.ndarray:
        """y = c_B B_f^-1: the cost row is c - y A, so on the start basis B0 it is c[b0] - y B0."""
        b0 = self.start.basis
        return (self.start.c[b0] - self._tableau[-1, b0]) @ self.start.inverse

    @cached_property
    def duality_gap(self) -> float:
        """|c.x - y.b|."""
        return abs(self.value - float(self.duals @ self.b))

    @cached_property
    def feasibility_residual(self) -> float:
        """The largest violation of A x = b and x >= 0 by the unclipped basic values."""
        basic = self._tableau[:-1, -1]
        err = float(np.abs(self.start.A[:, self.basis] @ basic - self.b).max(initial=0.0))
        return max(0.0, err, float(-basic.min(initial=0.0)))

    @cached_property
    def basis_inverse(self) -> np.ndarray:
        """B_f^-1 = (B_f^-1 B_0) B_0^-1: the final rows' start-basis columns times B_0^-1."""
        return self._tableau[:-1, self.start.basis] @ self.start.inverse

    def warm_start(self) -> Start:
        """The final basis as the start of the same c and A with another b.

        A solve that took no pivot ended on its start: the same basis,
        the same tableau rows, bit for bit, and B_f^-1 = I B_0^-1, so
        that start, checked when it was built, is handed on unchanged.
        Otherwise the tableau is the final tableau without the b column,
        carried over as it stands, and the inverse is basis_inverse;
        both are checked as Start.carried checks them.
        """
        start = self.start
        if not self.iterations:
            return start
        return Start.carried(start.c, start.A, self.basis, self.basis_inverse, self._tableau[:, :-1])


@dataclass
class TransportSolution:
    """Optimal coupling of two mass vectors under a cost matrix.

    row_duals and col_duals are potentials u, v with u[i] + v[j] <= c[i, j]
    for every entry, tight on the support of pi.  The program drops the
    row sum of row 0, so u[0] = 0.
    """

    value: float
    pi: np.ndarray
    row_duals: np.ndarray
    col_duals: np.ndarray
    marginal_residual: float
    duality_gap: float
    iterations: int


def _run_dual_simplex(T: np.ndarray, basis: np.ndarray, max_iter: int) -> tuple[str, int]:
    """Pivot a dual-feasible tableau to primal feasibility.

    Leaving: the most negative basic variable below -PRIMAL_TOL, the
    lowest row on a tie.  Entering: among the columns with a negative
    entry in its row, the lowest index of minimum ratio
    (reduced cost) / -(entry), which keeps every reduced cost
    non-negative.  A leaving row with no negative entry proves the
    program infeasible.  The most-infeasible rule alone can cycle, so
    after m consecutive pivots of ratio 0 (the objective did not move),
    m the row count, the leaving row becomes the lowest-index short
    basic variable for the rest of the solve: Bland's rule, which
    terminates from any dual-feasible basis.  Each pivot is one rank-1
    update of the whole tableau; the entering column is then written
    exactly.  The loop calls ndarray methods on views taken once, and
    keeps numpy scalars as they come: the same arithmetic, fewer calls.
    """
    iterations = 0
    stalled = 0  # consecutive ratio-0 pivots; Bland's rule from m on
    m = T.shape[0] - 1
    n = T.shape[1] - 1  # no column index reaches n, so it marks "no row is short"
    if not m:  # no rows: x = 0 is the basic solution, and nothing is short
        return "optimal", 0
    rows = T[:, :-1]
    costs = rows[-1]
    rhs = T[:m, -1]
    while True:
        if stalled < m:
            r = rhs.argmin()
            if not rhs[r] < -PRIMAL_TOL:
                return "optimal", iterations
        else:
            leaving = np.where(rhs < -PRIMAL_TOL, basis, n)
            r = leaving.argmin()
            if leaving[r] == n:
                return "optimal", iterations
        row = rows[r]
        entering = (row < -PIVOT_TOL).nonzero()[0]
        if not entering.size:
            return "infeasible", iterations
        ratios = costs[entering] / -row[entering]
        best = ratios.min()
        j = entering[(ratios <= best + 1e-12 * max(1.0, abs(best))).argmax()]
        if stalled < m:
            stalled = stalled + 1 if best <= 0.0 else 0
        pivot_row = T[r] / T[r, j]
        T -= T[:, j, None] * pivot_row
        # + 0.0 turns -0.0 into 0.0, as subtracting 0 * pivot_row from it would
        np.add(pivot_row, 0.0, out=T[r])
        T[:, j] = 0.0
        T[r, j] = 1.0
        basis[r] = j
        iterations += 1
        if iterations > max_iter:
            raise NumericsError(f"dual simplex exceeded {max_iter} pivots; tableau may be cycling")


def _tableau(start: Start, b: np.ndarray) -> np.ndarray:
    """The start tableau of the program of b: start's rows beside B^-1 b, over -c_B B^-1 b."""
    m, n = start.A.shape
    T = np.empty((m + 1, n + 1))
    T[:, :n] = start.tableau
    T[:m, n] = start.inverse @ b
    T[m, n] = 0.0 - start.c[start.basis] @ T[:m, n]
    return T


def solve_lp(start: Start, b: np.ndarray) -> LpSolution:
    """min c.x subject to A x = b, x >= 0, by a dual simplex from start, a start of c and A.

    ValueError unless b has one entry per row of A.  The start was
    checked when it was built (see Start), so the solve forms B^-1 b
    and pivots.  LpFailureError, naming the status and the pivot count,
    when the solve ends without an optimum: a leaving row has no entry
    that can enter, so the program is infeasible.  Every program the
    library solves is feasible by construction, so that end is a
    numerical fault.  The solution carries b, x, its value, its final
    basis B_f and final tableau, and forms its duals and residuals when
    they are read; its warm_start starts a solve of the same c and A
    with another b from B_f.
    """
    b = np.array(b, dtype=float)  # a copy: the certificate pieces read it later
    m, n = start.A.shape
    if b.shape != (m,):
        raise ValueError("the right-hand side does not match the matrix")
    basis = start.basis.copy()
    T = _tableau(start, b)
    status, iterations = _run_dual_simplex(T, basis, 1000 + 50 * (m + n))
    if status != "optimal":
        raise LpFailureError(f"solve ended with status {status!r} after {iterations} pivots")
    x = np.zeros(n)
    x[basis] = np.maximum(T[:m, -1], 0.0)
    return LpSolution(
        x=x,
        value=float(start.c @ x),
        iterations=iterations,
        start=start,
        b=b,
        basis=basis,
        _tableau=T,
    )


def assemble_transport_lp(
    cost: np.ndarray, nu0: np.ndarray, nu1: np.ndarray
) -> tuple[Start, np.ndarray]:
    """The coupling program as the start of a dual-feasible spanning-tree basis and its b.

    Variables are the n0*n1 entries of the coupling, row-major.  The
    rows fix the row sums of rows 1, ..., n0 - 1 to nu0[1:], then the
    column sums to nu1; the row sum of row 0 follows from these and the
    equal masses, so it is dropped.  The basis is a spanning tree of the
    complete bipartite graph: every entry (0, j), and in each row i > 0
    the entry (i, j*) with j* = argmin_j (c[i, j] - c[0, j]).  Its
    potentials u = (0, min_j (c[i, j] - c[0, j])) and v = c[0] make
    every tree entry tight and price every entry at
    c[i, j] - u[i] - v[j] >= 0, so the basis is dual feasible for any
    cost, square or rectangular.  Its inverse is np.linalg.inv of the
    tree columns, which Start.from_basis checks.
    """
    cost = np.asarray(cost, dtype=float)
    n0, n1 = cost.shape
    A = np.zeros((n0 - 1 + n1, n0 * n1))
    for i in range(1, n0):
        A[i - 1, i * n1 : (i + 1) * n1] = 1.0
    for j in range(n1):
        A[n0 - 1 + j, j::n1] = 1.0
    rest = np.arange(1, n0) * n1 + np.argmin(cost[1:] - cost[0], axis=1)
    tree = np.concatenate([np.arange(n1), rest])
    start = Start.from_basis(cost.ravel(), A, tree, np.linalg.inv(A[:, tree]))
    return start, np.concatenate([nu0[1:], nu1])


def solve_transport(cost: np.ndarray, nu0: np.ndarray, nu1: np.ndarray) -> TransportSolution:
    """Optimal transport between two equal-mass non-negative vectors.

    One solve_lp from the tree basis of assemble_transport_lp; the
    marginal residual covers row 0's row sum, which the program drops.
    """
    cost = np.asarray(cost, dtype=float)
    nu0 = np.asarray(nu0, dtype=float)
    nu1 = np.asarray(nu1, dtype=float)
    n0, n1 = cost.shape
    if nu0.shape != (n0,) or nu1.shape != (n1,):
        raise MarginalMismatchError("marginal lengths do not match the cost matrix")
    if nu0.min(initial=0.0) < 0 or nu1.min(initial=0.0) < 0:
        raise MarginalMismatchError("marginals must be non-negative")
    if abs(nu0.sum() - nu1.sum()) > MARGINAL_TOL:
        raise MarginalMismatchError(
            f"marginal masses differ: {nu0.sum():.17g} vs {nu1.sum():.17g}"
        )
    solution = solve_lp(*assemble_transport_lp(cost, nu0, nu1))
    pi = np.maximum(solution.x.reshape(n0, n1), 0.0)
    marginal_residual = max(
        float(np.abs(pi.sum(axis=1) - nu0).max()),
        float(np.abs(pi.sum(axis=0) - nu1).max()),
    )
    return TransportSolution(
        value=float(solution.value),
        pi=pi,
        row_duals=np.concatenate([[0.0], solution.duals[: n0 - 1]]),
        col_duals=solution.duals[n0 - 1 :],
        marginal_residual=marginal_residual,
        duality_gap=float(solution.duality_gap),
        iterations=solution.iterations,
    )
