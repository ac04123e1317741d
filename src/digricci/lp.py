"""Dense dual simplex for min-cost flow, started from a given dual-feasible basis.

One pivot core backs every optimisation in the package: solve_lp
minimises c.x subject to A x = b, x >= 0, by a dual simplex from a
start, where every column of A is an arc's: at most one 1 and one -1,
zero elsewhere.  A start is a basis of c and A that is dual feasible,
together with its inverse and the b-independent part of its tableau,
[B^-1 A ; c - c_B B^-1 A].  It is built and checked once: the inverse
must invert the basis columns exactly, B^-1 B = I bit for bit, and
every reduced cost must be at least -RC_TOL.  A basis dual feasible
for c and A stays so for every b, so one start serves every right-hand
side, and a solve only forms B^-1 b: when no entry is short the start
is optimal and the solve returns at once, and otherwise it sets B^-1 b
and its cost entry beside the start's rows and pivots to primal
feasibility.  There is no standard form and no phase 1.  A solve
ends as what the pivot loop leaves: its final basis, final rows
[B_f^-1 A ; c - c_B B_f^-1 A] and basic values B_f^-1 b, the rows
being the start's tableau itself when it took no pivot, so no tableau
is formed after the loop; the optimal duals, one product of the final
cost row with the start's inverse, are formed only when read, so
solve_lp factorises nothing.  Starts come four ways, and every one
passes the one start check, Start.carried's, the one constructor:
Start.from_basis takes a basis alone, forms its inverse by LAPACK,
rounded to the integers it stands for, and multiplies out its tableau,
the one place the package inverts a matrix; transport.root_basis forms
a spanning tree's inverse and tableau exactly, by a walk, with no
product; Start.from_final, the one route from a final basis to a
start, makes that basis the start of the next b, off its final rows
as they stand, with the one m x m product (B_f^-1 B_0) B_0^-1 as its
inverse, and hands the start a solve began from on unchanged when the
rows are that start's own tableau, as a solve that took no pivot
leaves them: an optimal solution's warm_start, so a caller that
solves one c and A for a sequence of right-hand sides starts each
solve from the previous optimum without multiplying B^-1 A again, and
the first start of a W column (transport.ColumnStart), off a table
column's last optimum or an arc's curvature optimum; and
Start.carried itself takes a basis, inverse and tableau formed as
from_basis, from_final and root_basis form them, and checks them as
they stand.

Every program solved is a flow on a graph whose balance rows sum to
zero, with one of them dropped, and a spanning tree of that graph is a
basis (Ahuja, Magnanti & Orlin, Network Flows, 1993, ch. 11).  Its A
is an incidence, totally unimodular, so every B^-1 A holds only -1, 0
and 1, and the pivot loop counts on it.  from_basis refuses any
column that is not an arc's (ValueError), root_basis's tree
incidence is made of arcs, and carried and from_final keep the A of a
start built by one of those, so no other program reaches the loop.
Every B^-1 is integral too, and the start check takes no tolerance:
an inverse off the integers by less than any tolerance would still
lead the loop's exact arithmetic astray.  Nor does the loop take one:
an entry of B^-1 A below 0 is -1.  The library solves one program,
the flow behind the Wasserstein distance, of which each per-pair
curvature program is an instance (a push from x to y, see the
curvature module), from a shortest-path tree (into or out of a root)
whose start the transport module builds once per graph, root and
direction, with the tree's path matrix as its exact inverse; the
smoothing W of one pair go on from the previous smoothing's warm
start.  The heat-flow W of an arc start from its curvature optimum, a
basis of the arc's W program as it stands (a carried start, checked
once, or the tree's own when that solve took no pivot), and go on
from the previous time's.  Two reference programs the tests hold it
to take the same path: the coupling program of solve_transport,
a flow on the complete bipartite graph of the two supports, drops the
row sum of row 0 and starts from the tree that assemble_transport_lp
picks, and transport.kantorovich_dual starts its all-pairs flow from a
star, both through Start.from_basis; each builds its A with incidence,
and the two couplings, solve_transport's and wasserstein's, are held
to their marginals by marginal_residual.
Problems stay small (hundreds of variables at the target scale), so a
dense tableau is simpler than a revised method and fast enough.  The
most negative basic variable leaves, which takes fewer pivots than the
lowest-index one; transport instances are heavily degenerate, though,
and that rule alone can cycle, so after as many pivots in a row as
there are rows that leave the objective unchanged the solve finishes
under Bland's rule, which terminates.  Under both rules every entry of
the leaving row that can enter is -1, so a candidate's ratio (reduced
cost) / -(entry) is its reduced cost, and the entering column is the
lowest index of the exact least one, with no slack for near ties: a
ratio read off the cost row carries no division's rounding to allow
for, and the least one keeps every reduced cost non-negative.  The
pivot element is -1, so the pivot row is the row negated, with no
division.  The pivot loop is the one place a solve ends: it returns
its pivot count at an optimum, and raises LpFailureError when a
leaving row has no entering column, which proves the program
infeasible, and NumericsError past its cap of 1000 + 50 (m + n)
pivots; solve_lp lets both through.  It keeps the numpy calls per
pivot few: one argmin picks the leaving row, one argmin over the
candidates' reduced costs the entering column, and the pivot is one
negated row and one broadcast rank-1 update of the whole tableau,
which leaves the entering column exactly zero, as the negated row is 1
there; only row r is then written.  The tests hold it, bit for bit, to
a plain reference loop that divides by the entry and the pivot element
as a general tableau would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import LpFailureError, MarginalMismatchError, NumericsError

# primal-dual agreement required of an optimal basis
GAP_TOL = 1e-8
# reduced-cost threshold below which the starting basis is not dual feasible;
# the library's costs are integers, but solve_transport takes real ones
RC_TOL = 1e-10
# a basic variable below -PRIMAL_TOL leaves; smaller negatives are
# rounding in B^-1 b (values are masses of order 1) and are read as zero
PRIMAL_TOL = 1e-15
# marginal mass agreement for transport instances
MARGINAL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Start:
    """A basis of c and A that is dual feasible, with its tableau.

    basis holds one column index per row; basis[i] is the column basic
    in row i.  inverse is B^-1 for B = A[:, basis].  tableau is the
    start tableau without its b column, [B^-1 A ; c - c_B B^-1 A], of
    shape (m + 1) x n; the basis columns are the unit vectors over a
    zero reduced cost.  A dual-feasible basis stays dual feasible for
    every b, so one start serves every program min c.x, A x = b,
    x >= 0.  from_basis, from_final and transport.root_basis build
    starts, every one through carried, the one constructor and its
    check; nothing changes a start after that, so a start is handed on
    as it stands when a solve from it takes no pivot.
    """

    c: np.ndarray
    A: np.ndarray
    basis: np.ndarray
    inverse: np.ndarray
    tableau: np.ndarray

    @classmethod
    def from_basis(cls, c, A, basis) -> Start:
        """The start of a basis, with its inverse, B^-1 A and the reduced costs multiplied out.

        ValueError unless c has one entry per column of A, basis one
        column index per row and every column of A an arc's; a basis
        that LAPACK finds singular raises numpy's LinAlgError, a
        ValueError too.  The inverse is LAPACK's rounded to the integers
        it stands for (every basis of a flow program has an integral
        inverse), 0.0 added as LAPACK writes some zeros as -0.0.  The
        start is then checked as carried checks one: NumericsError
        unless that inverse times A[:, basis] is I exactly and every
        reduced cost is at least -RC_TOL.  So the basis columns of
        B^-1 A are the unit vectors, and their reduced costs
        c_b - c_b = 0.0 as formed.
        """
        c = np.asarray(c, dtype=float)
        A = np.asarray(A, dtype=float)
        m, n = A.shape
        if c.shape != (n,):
            raise ValueError("the objective does not match the matrix")
        basis = np.asarray(basis, dtype=int)
        if basis.shape != (m,) or not ((0 <= basis) & (basis < n)).all():
            raise ValueError("a starting basis holds one column index per row")
        _check_arcs(A)
        inverse = 0.0 + np.rint(np.linalg.inv(A[:, basis]))
        T = np.empty((m + 1, n))
        T[:m] = inverse @ A
        T[-1] = c - c[basis] @ T[:m]
        return cls.carried(c, A, basis, inverse, T)

    @classmethod
    def from_final(cls, program: Start, basis, rows) -> Start:
        """The start of a final basis of program's c and A, off that basis's rows.

        rows is [B_f^-1 A ; c - c_B B_f^-1 A] for the basis B_f, as a
        solve from program ends with it (LpSolution.rows, which a
        transport.ColumnStart keeps); it is the start's tableau as it
        stands.  rows that are program's tableau itself
        are those of a solve that took no pivot, which ended on program:
        the same basis, the same rows, and B_f^-1 = I B_0^-1, so program,
        checked when it was built, is the start, unchanged.  Otherwise
        the inverse is the one m x m product the start needs,
        B_f^-1 = (B_f^-1 B_0) B_0^-1, off the rows' columns of program's
        basis B_0, and both are checked as carried checks them.
        """
        if rows is program.tableau:
            return program
        inverse = rows[:-1, program.basis] @ program.inverse
        return cls.carried(program.c, program.A, basis, inverse, rows)

    @classmethod
    def carried(cls, c, A, basis, inverse, tableau) -> Start:
        """The start of a basis whose inverse and tableau a caller formed, taken as they stand.

        The one start check, which from_basis, from_final and
        transport.root_basis all end in;
        nothing is multiplied out but B^-1 B.  NumericsError unless
        inverse @ A[:, basis] is I bit for bit, with no tolerance (every
        basis of a flow program has an integral inverse), and every
        reduced cost is at least -RC_TOL.
        """
        # zero only where the product is I bit for bit; a NaN is not zero
        off = np.abs(inverse @ A[:, basis] - np.eye(len(inverse))).max(initial=0.0)
        if off != 0.0:
            raise NumericsError(f"the inverse does not invert the starting basis: off by {off:.3e}")
        _check(tableau[-1].min(initial=0.0))
        return cls(c, A, basis, inverse, tableau)


def _check_arcs(A: np.ndarray) -> None:
    """ValueError unless every column of A is an arc's: at most one 1 and one -1, zero elsewhere."""
    tails = A == 1.0
    heads = A == -1.0
    if not (
        (tails | heads | (A == 0.0)).all()
        and tails.sum(axis=0).max(initial=0) <= 1
        and heads.sum(axis=0).max(initial=0) <= 1
    ):
        raise ValueError("a column is not an arc's: at most one 1 and one -1, zero elsewhere")


def incidence(n: int, arcs: np.ndarray) -> np.ndarray:
    """The n x len(arcs) incidence: +1 at the tail, -1 at the head of each arc."""
    A = np.zeros((n, len(arcs)))
    k = np.arange(len(arcs))
    A[arcs[:, 0], k] = 1.0
    A[arcs[:, 1], k] = -1.0
    return A


def marginal_residual(pi: np.ndarray, nu0: np.ndarray, nu1: np.ndarray) -> float:
    """The largest error of the coupling pi's row sums against nu0 and column sums against nu1."""
    return max(
        float(np.abs(pi.sum(axis=1) - nu0).max()),
        float(np.abs(pi.sum(axis=0) - nu1).max()),
    )


def _check(worst: float) -> None:
    """NumericsError unless worst, the least reduced cost of a start, is at least -RC_TOL."""
    if worst < -RC_TOL:
        raise NumericsError(f"starting basis is not dual feasible: reduced cost {worst:.3e}")


@dataclass
class LpSolution:
    """An optimal solve, with the optimality certificate pieces.

    It keeps what the solve ends with: the start it began from, its
    right-hand side b, its final basis, one column index per row, its
    final rows [B_f^-1 A ; c - c_B B_f^-1 A] and its final basic values
    B_f^-1 b.  A solve that took no pivot ended on its start, so its
    rows are the start's tableau itself; one that pivoted keeps the tableau
    it pivoted, without the b column.  x and value are formed by the
    solve; the certificate pieces are formed on first read, so a caller
    that reads only the value pays for none of them.  duals has one
    multiplier per row of the program: y = c_B B_f^-1 on the final
    basis, read off the final cost row c - y A through the start's
    inverse.  duality_gap is |c.x - y.b|, which certifies optimality on
    that basis.  feasibility_residual is the largest violation of A x =
    b and x >= 0 by the final basic values as the solve left them,
    before x clips the ones PRIMAL_TOL reads as zero, so an exactly
    infeasible final basis shows.  warm_start makes the basis the start
    of another b.  solve_lp raises instead of returning a solve that is
    not optimal.
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
    rows: np.ndarray = field(repr=False)
    # B_f^-1 b as the solve left it, before x clips it
    _basic: np.ndarray = field(repr=False)

    @cached_property
    def duals(self) -> np.ndarray:
        """y = c_B B_f^-1: the cost row is c - y A, so on the start basis B0 it is c[b0] - y B0."""
        b0 = self.start.basis
        return (self.start.c[b0] - self.rows[-1, b0]) @ self.start.inverse

    @cached_property
    def duality_gap(self) -> float:
        """|c.x - y.b|."""
        return abs(self.value - float(self.duals @ self.b))

    @cached_property
    def feasibility_residual(self) -> float:
        """The largest violation of A x = b and x >= 0 by the unclipped basic values."""
        # a pivoted solve's basic values are a strided column of its tableau, which
        # BLAS sums in another order than a contiguous vector: the product reads
        # them contiguous, so its bits do not depend on whether the solve pivoted
        basic = np.ascontiguousarray(self._basic)
        err = float(np.abs(self.start.A[:, self.basis] @ basic - self.b).max(initial=0.0))
        return max(0.0, err, float(-basic.min(initial=0.0)))

    def warm_start(self) -> Start:
        """The final basis as the start of the same c and A with another b: Start.from_final's.

        A solve that took no pivot ended on its start, whose tableau is
        its rows, so that start is handed on unchanged.
        """
        return Start.from_final(self.start, self.basis, self.rows)


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


def _run_dual_simplex(T: np.ndarray, basis: np.ndarray) -> int:
    """Pivot a dual-feasible tableau of at least one row to primal feasibility; the pivot count.

    The tableau is a flow program's, so every entry of B^-1 A is -1, 0
    or 1 (see the module docstring).  Leaving: the most negative basic
    variable below -PRIMAL_TOL, the lowest row on a tie.  Entering:
    among the columns with a negative entry in its row, each exactly -1
    (the start check leaves no rounding in B^-1 A), so that its ratio
    (reduced cost) / -(entry) is its reduced cost, the lowest index of
    the least reduced cost, exactly, which keeps every reduced cost
    non-negative.  A leaving row with no such entry proves the program
    infeasible: LpFailureError, naming the status and the pivot count.
    Every program the library solves is feasible by construction, so
    that end is a numerical fault, as is running past 1000 + 50 (m + n)
    pivots for m rows and n columns: NumericsError.  The most-infeasible
    rule alone can cycle, so after m consecutive pivots of ratio 0 (the
    objective did not move), the leaving row becomes the lowest-index
    short basic variable for the rest of the solve: Bland's rule, which
    terminates from any dual-feasible basis.  The pivot element is -1,
    so the pivot row is the row negated, 0.0 - T[r], which writes no
    -0.0; each pivot is one rank-1 update of the whole tableau by it.
    Its entry j is 1, so the update leaves every entry x of the entering
    column x - x * 1 = 0.0 exactly, and only row r is then written.  The
    loop calls ndarray methods on views taken once, and keeps numpy
    scalars as they come: the same arithmetic, fewer calls.
    """
    iterations = 0
    stalled = 0  # consecutive ratio-0 pivots; Bland's rule from m on
    m = T.shape[0] - 1
    n = T.shape[1] - 1  # no column index reaches n, so it marks "no row is short"
    max_iter = 1000 + 50 * (m + n)
    rows = T[:, :-1]
    costs = rows[-1]
    rhs = T[:m, -1]
    while True:
        if stalled < m:
            r = rhs.argmin()
            if not rhs[r] < -PRIMAL_TOL:
                return iterations
        else:
            leaving = np.where(rhs < -PRIMAL_TOL, basis, n)
            r = leaving.argmin()
            if leaving[r] == n:
                return iterations
        entering = (rows[r] < 0.0).nonzero()[0]
        if not entering.size:
            raise LpFailureError(f"solve ended with status 'infeasible' after {iterations} pivots")
        # every entry in entering is -1, so each ratio is the reduced cost itself
        j = entering[costs[entering].argmin()]
        if stalled < m:
            stalled = stalled + 1 if costs[j] <= 0.0 else 0
        # T[r] / T[r, j] with T[r, j] = -1, and 0.0 where that would be -0.0
        pivot_row = 0.0 - T[r]
        # pivot_row[j] is 1.0, so column j becomes x - x * 1.0 = 0.0 exactly
        T -= T[:, j, None] * pivot_row
        # and row r is written exactly
        T[r] = pivot_row
        basis[r] = j
        iterations += 1
        if iterations > max_iter:
            raise NumericsError(f"dual simplex exceeded {max_iter} pivots; tableau may be cycling")


def _start_tableau(start: Start, basic: np.ndarray) -> np.ndarray:
    """The start tableau of a program: start's rows beside basic = B^-1 b, over -c_B B^-1 b."""
    m, n = start.A.shape
    T = np.empty((m + 1, n + 1))
    T[:, :n] = start.tableau
    T[:m, n] = basic
    T[m, n] = 0.0 - start.c[start.basis] @ T[:m, n]
    return T


def solve_lp(start: Start, b: np.ndarray) -> LpSolution:
    """min c.x subject to A x = b, x >= 0, by a dual simplex from start, a start of c and A.

    ValueError unless b has one entry per row of A.  The start was
    checked when it was built (see Start), so the solve forms B^-1 b
    first.  When no entry is below -PRIMAL_TOL the start's basis is
    optimal and the solve returns at once, with no tableau formed and
    the start's rows as its final rows; otherwise it sets B^-1 b beside
    the start's rows and pivots them with _run_dual_simplex, whose
    LpFailureError (the program is infeasible) and NumericsError (the
    pivot cap) pass through as they are, so every solution returned is
    optimal.  The solution carries b, x, its value, its final basis
    B_f, final rows and final basic values, and forms its duals and
    residuals when they are read; its warm_start starts a solve of the
    same c and A with another b from B_f.
    """
    b = np.array(b, dtype=float)  # a copy: the certificate pieces read it later
    m, n = start.A.shape
    if b.shape != (m,):
        raise ValueError("the right-hand side does not match the matrix")
    basic = start.inverse @ b
    rows = start.tableau
    basis = start.basis
    iterations = 0
    # the pivot loop's own first test, on the least entry (the first NaN, if any)
    if m and basic[basic.argmin()] < -PRIMAL_TOL:
        T = _start_tableau(start, basic)
        basis = basis.copy()
        iterations = _run_dual_simplex(T, basis)
        rows, basic = T[:, :-1], T[:m, -1]
    x = np.zeros(n)
    x[basis] = np.maximum(basic, 0.0)
    return LpSolution(
        x=x,
        value=float(start.c @ x),
        iterations=iterations,
        start=start,
        b=b,
        basis=basis,
        rows=rows,
        _basic=basic,
    )


def assemble_transport_lp(
    cost: np.ndarray, nu0: np.ndarray, nu1: np.ndarray
) -> tuple[Start, np.ndarray]:
    """The coupling program as the start of a dual-feasible spanning-tree basis and its b.

    Variables are the n0*n1 entries of the coupling, row-major.  The
    rows fix the row sums of rows 1, ..., n0 - 1 to nu0[1:], then the
    column sums, negated, to -nu1; the row sum of row 0 follows from
    these and the equal masses, so it is dropped.  With the rows of the
    coupling as the vertices 0, ..., n0 - 1 and its columns as
    n0, ..., n0 + n1 - 1, entry (i, j) is then the arc i -> n0 + j, and
    A is the incidence of that complete bipartite graph with row 0's
    row dropped.  The basis is a spanning tree of that graph: every
    entry (0, j), and in each row
    i > 0 the entry (i, j*) with j* = argmin_j (c[i, j] - c[0, j]).  Its
    potentials u = (0, min_j (c[i, j] - c[0, j])) and v = c[0] make
    every tree entry tight and price every entry at
    c[i, j] - u[i] - v[j] >= 0, so the basis is dual feasible for any
    cost, square or rectangular; the duals of the program are u[1:] and
    -v.  Start.from_basis forms its inverse and tableau and checks
    them.
    """
    cost = np.asarray(cost, dtype=float)
    n0, n1 = cost.shape
    # entry (i, j), row-major, is the arc i -> n0 + j; row 0's row is dropped
    arcs = np.argwhere(np.ones((n0, n1), dtype=bool)) + [0, n0]
    A = incidence(n0 + n1, arcs)[1:]
    rest = np.arange(1, n0) * n1 + np.argmin(cost[1:] - cost[0], axis=1)
    tree = np.concatenate([np.arange(n1), rest])
    start = Start.from_basis(cost.ravel(), A, tree)
    # 0.0 - v, not -v: a zero mass must not become -0.0
    return start, np.concatenate([nu0[1:], 0.0 - nu1])


def solve_transport(cost: np.ndarray, nu0: np.ndarray, nu1: np.ndarray) -> TransportSolution:
    """Optimal transport between two equal-mass non-negative vectors.

    One solve_lp from the tree basis of assemble_transport_lp; the
    marginal residual covers row 0's row sum, which the program drops,
    and the column sums' duals are the program's negated.
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
    # solve_lp has clipped x to x >= 0 already
    pi = solution.x.reshape(n0, n1)
    return TransportSolution(
        value=float(solution.value),
        pi=pi,
        row_duals=np.concatenate([[0.0], solution.duals[: n0 - 1]]),
        col_duals=0.0 - solution.duals[n0 - 1 :],
        marginal_residual=marginal_residual(pi, nu0, nu1),
        duality_gap=float(solution.duality_gap),
        iterations=solution.iterations,
    )
