"""Dense dual simplex with Bland's rule, started from a given tree basis.

One pivot core backs every optimisation in the package: solve_lp
minimises c.x subject to A x = b, x >= 0, by a dual simplex from a
dual-feasible basis that the program carries together with that
basis's inverse.  There is no standard form and no phase 1.  The start
tableau is B^-1 [A | b], two matrix products and no factorisation; the
solve checks that the inverse does invert the basis columns and that
the basis is dual feasible, then pivots to primal feasibility.

Every program solved is a flow on a graph whose balance rows sum to
zero, with one of them dropped, and a spanning tree of that graph is a
basis (Ahuja, Magnanti & Orlin, Network Flows, 1993, ch. 11).  The
library's two programs, the flow behind the Wasserstein distance and
the dual of each per-pair curvature program, start from a
shortest-path tree (into or out of a root) whose inverse, the tree's
path matrix, the transport module builds once per graph, root and
direction.  Two reference
programs the tests hold those to take the same path: the coupling
program of solve_transport, a flow on the complete bipartite graph of
the two supports, drops the row sum of row 0 and starts from the tree
that assemble_transport_lp builds, and transport.kantorovich_dual
starts its all-pairs flow from a star.  Problems stay small (hundreds of
variables at the target scale), so a dense tableau is simpler than a
revised method and fast enough.  Bland's leaving and entering rule
guarantees termination on the heavily degenerate tableaus that
transport instances produce.  The pivot loop keeps the numpy calls per
pivot few: one masked argmin picks the leaving row, the ratio test
runs on the candidate columns alone, and the pivot is one broadcast
rank-1 update of the whole tableau.  The tests hold it, bit for bit,
to a plain reference loop.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class LinearProgram:
    """min c.x subject to A x = b, x >= 0, with its starting basis.

    basis holds one column index per row; basis[i] is the column basic
    in row i of the start tableau.  Those columns must form a dual
    feasible basis (every reduced cost c - c_B B^-1 A >= 0), and
    basis_inverse must be B^-1 for B = A[:, basis].  Both are required,
    and solve_lp checks both.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    basis: np.ndarray
    basis_inverse: np.ndarray

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        m, n = self.A.shape
        if self.c.shape != (n,) or self.b.shape != (m,):
            raise ValueError("objective/rhs shapes do not match the matrix")
        self.basis = np.asarray(self.basis, dtype=int)
        if self.basis.shape != (m,) or not ((0 <= self.basis) & (self.basis < n)).all():
            raise ValueError("a starting basis holds one column index per row")
        self.basis_inverse = np.asarray(self.basis_inverse, dtype=float)
        if self.basis_inverse.shape != (m, m):
            raise ValueError("basis_inverse must be square, one row per constraint")


@dataclass
class LpSolution:
    """Outcome of a solve, with the optimality certificate pieces.

    duals has one multiplier per row of the program, the solution y of
    B^T y = c_B on the final basis.  duality_gap is |c.x - y.b| and
    complementarity max |x * (c - A^T y)|; both are computed on that
    basis, where they certify optimality exactly.
    """

    status: str
    x: np.ndarray | None = None
    value: float | None = None
    duals: np.ndarray | None = None
    feasibility_residual: float | None = None
    duality_gap: float | None = None
    complementarity: float | None = None
    iterations: int = 0


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
    """Pivot a dual-feasible tableau to primal feasibility under Bland's rule.

    Leaving: the lowest-index basic variable below -PRIMAL_TOL.
    Entering: among the columns with a negative entry in its row, the
    lowest index of minimum ratio (reduced cost) / -(entry), which keeps
    every reduced cost non-negative.  A leaving row with no negative
    entry proves the program infeasible.  Each pivot is one rank-1
    update of the whole tableau; the entering column is then written
    exactly.
    """
    iterations = 0
    m = T.shape[0] - 1
    n = T.shape[1] - 1  # no column index reaches n, so it marks "no row is short"
    while True:
        leaving = np.where(T[:m, -1] < -PRIMAL_TOL, basis, n)
        r = int(leaving.argmin())
        if leaving[r] == n:
            return "optimal", iterations
        row = T[r, :-1]
        entering = np.flatnonzero(row < -PIVOT_TOL)
        if not entering.size:
            return "infeasible", iterations
        ratios = T[-1, entering] / -row[entering]
        best = float(ratios.min())
        j = int(entering[np.argmax(ratios <= best + 1e-12 * max(1.0, abs(best)))])
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


def _certificate(
    A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, float, float, float]:
    """Duals of a basis of min c.x, A x = b, x >= 0, and what they certify.

    Returns (y, c.x, |c.x - y.b|, max |x * (c - A^T y)|).
    """
    try:
        y = np.linalg.solve(A[:, basis].T, c[basis])
    except np.linalg.LinAlgError:
        raise NumericsError("optimal basis matrix is singular") from None
    primal = float(c @ x)
    gap = abs(primal - float(y @ b))
    reduced = c - A.T @ y
    complementarity = float(np.abs(x * reduced).max()) if x.size else 0.0
    return y, primal, gap, complementarity


def _feasibility_residual(problem: LinearProgram, x: np.ndarray) -> float:
    """Largest violation by x of A x = b and x >= 0."""
    err = problem.A @ x - problem.b
    return max(0.0, float(np.abs(err).max(initial=0.0)), float(-x.min(initial=0.0)))


def _start_tableau(problem: LinearProgram) -> np.ndarray:
    """B^-1 [A | b] over the reduced costs c - c_B B^-1 [A | b].

    NumericsError unless problem.basis_inverse inverts A[:, basis] to
    within INVERSE_TOL and every reduced cost is at least -RC_TOL.
    """
    A, b, c, basis = problem.A, problem.b, problem.c, problem.basis
    m, n = A.shape
    T = np.empty((m + 1, n + 1))
    T[:m, :n] = problem.basis_inverse @ A
    T[:m, n] = problem.basis_inverse @ b
    eye = np.eye(m)
    off = float(np.abs(T[:m, basis] - eye).max(initial=0.0))
    if not off <= INVERSE_TOL:
        raise NumericsError(f"basis_inverse does not invert the starting basis: off by {off:.3e}")
    T[:m, basis] = eye
    T[-1, :n] = c
    T[-1, -1] = 0.0
    T[-1] -= c[basis] @ T[:m]
    T[-1, basis] = 0.0
    worst = float(T[-1, :n].min(initial=0.0))
    if worst < -RC_TOL:
        raise NumericsError(f"starting basis is not dual feasible: reduced cost {worst:.3e}")
    return T


def solve_lp(problem: LinearProgram) -> LpSolution:
    """Dual simplex from the program's starting basis.

    NumericsError unless problem.basis_inverse inverts A[:, basis] to
    within INVERSE_TOL and the basis is dual feasible.  The status is
    "optimal", or "infeasible" when a leaving row has no entry that can
    enter.
    """
    A, b, c = problem.A, problem.b, problem.c
    m, n = A.shape
    basis = problem.basis.copy()
    T = _start_tableau(problem)
    status, iterations = _run_dual_simplex(T, basis, 1000 + 50 * (m + n))
    if status != "optimal":
        return LpSolution(status=status, iterations=iterations)
    x = np.zeros(n)
    x[basis] = np.maximum(T[:m, -1], 0.0)
    y, primal, gap, complementarity = _certificate(A, b, c, basis, x)
    return LpSolution(
        status="optimal",
        x=x,
        value=primal,
        duals=y,
        feasibility_residual=_feasibility_residual(problem, x),
        duality_gap=gap,
        complementarity=complementarity,
        iterations=iterations,
    )


def assemble_transport_lp(cost: np.ndarray, nu0: np.ndarray, nu1: np.ndarray) -> LinearProgram:
    """The coupling program with a dual-feasible spanning-tree basis.

    Variables are the n0*n1 entries of the coupling, row-major.  The
    rows fix the row sums of rows 1, ..., n0 - 1 to nu0[1:], then the
    column sums to nu1; the row sum of row 0 follows from these and the
    equal masses, so it is dropped.  The basis is a spanning tree of the
    complete bipartite graph: every entry (0, j), and in each row i > 0
    the entry (i, j*) with j* = argmin_j (c[i, j] - c[0, j]).  Its
    potentials u = (0, min_j (c[i, j] - c[0, j])) and v = c[0] make
    every tree entry tight and price every entry at
    c[i, j] - u[i] - v[j] >= 0, so the basis is dual feasible for any
    cost, square or rectangular.  basis_inverse is np.linalg.inv of the
    tree columns, which solve_lp checks.
    """
    cost = np.asarray(cost, dtype=float)
    n0, n1 = cost.shape
    A = np.zeros((n0 - 1 + n1, n0 * n1))
    for i in range(1, n0):
        A[i - 1, i * n1 : (i + 1) * n1] = 1.0
    for j in range(n1):
        A[n0 - 1 + j, j::n1] = 1.0
    b = np.concatenate([nu0[1:], nu1])
    rest = np.arange(1, n0) * n1 + np.argmin(cost[1:] - cost[0], axis=1)
    tree = np.concatenate([np.arange(n1), rest])
    return LinearProgram(
        c=cost.ravel(), A=A, b=b, basis=tree, basis_inverse=np.linalg.inv(A[:, tree])
    )


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
    solution = solve_lp(assemble_transport_lp(cost, nu0, nu1))
    if solution.status != "optimal":
        raise LpFailureError(f"transport solve ended with status {solution.status!r}")
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
