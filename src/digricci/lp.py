"""Dense simplex with Bland's rule: two-phase primal, or dual from a basis.

One pivot core backs every optimisation in the package.  The library
solves two programs, both min-cost flows over the arcs with n - 1
balance rows: the flow behind the Wasserstein distance (one variable
per arc) and the dual of each per-pair curvature program (one variable
per arc plus one virtual arc).  Problems stay small (hundreds of
variables at the target scale), so a dense tableau is simpler than a
revised method and fast enough.  Bland's entering and leaving rule
guarantees termination on the heavily degenerate tableaus that
transport instances produce.

solve_lp has two entry points.  A program that carries a dual-feasible
basis (all rows equalities, every variable in [0, inf)) together with
that basis's inverse skips phase 1: its tableau is B^-1 [A | b], two
matrix products and no factorisation, and a dual simplex pivots it to
primal feasibility.  Both library programs take this path, with a
shortest-path-tree basis whose inverse, the tree's path matrix, the
transport module builds once per graph and root.  The solve checks
that the inverse it is given does invert the basis columns, and that
the basis is dual feasible.  A program without a starting basis goes
through the two-phase primal simplex (phase 1 on artificial columns,
then phase 2).  That path serves the reference programs: the
n^2-variable coupling program of solve_transport and the all-pairs
dual of transport.kantorovich_dual, which the library does not call
and the tests hold the flow forms to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import LpFailureError, MarginalMismatchError, NumericsError

# constraint violation accepted when echoing a solution back
FEASIBILITY_TOL = 1e-9
# primal-dual agreement required of an optimal basis
GAP_TOL = 1e-8
# smallest pivot element the tableau will accept
PIVOT_TOL = 1e-9
# reduced-cost threshold below which a column may still enter
RC_TOL = 1e-10
# dual simplex: a basic variable below -PRIMAL_TOL leaves; smaller
# negatives are rounding in B^-1 b (values are masses of order 1) and
# are read as zero
PRIMAL_TOL = 1e-15
# marginal mass agreement for transport instances
MARGINAL_TOL = 1e-12
# largest entry of |B^-1 B - I| accepted from a supplied basis inverse
INVERSE_TOL = 1e-9

Bound = tuple[float | None, float | None]


@dataclass
class LinearProgram:
    """min (or max) c.x subject to A x (<= or =) b and variable bounds.

    senses holds one of "<=" or "=" per row.  bounds holds one
    (lower, upper) pair per variable with None for unbounded; the
    default is (0, None) for every variable.  basis, when given, holds
    one column index per row whose columns form a dual-feasible basis;
    it needs every row to be "=", every bound to be (0, None), and
    basis_inverse, the inverse of A[:, basis].
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    senses: tuple[str, ...]
    bounds: tuple[Bound, ...] | None = None
    maximize: bool = False
    basis: np.ndarray | None = None
    basis_inverse: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        m, n = self.A.shape
        if self.c.shape != (n,) or self.b.shape != (m,):
            raise ValueError("objective/rhs shapes do not match the matrix")
        senses = tuple("=" if s in ("=", "==") else s for s in self.senses)
        if len(senses) != m or any(s not in ("<=", "=") for s in senses):
            raise ValueError('senses must give "<=" or "=" per row')
        self.senses = senses
        if self.bounds is None:
            self.bounds = ((0.0, None),) * n
        else:
            self.bounds = tuple(self.bounds)
            if len(self.bounds) != n:
                raise ValueError("one (lower, upper) pair per variable required")
        if self.basis is not None:
            self.basis = np.asarray(self.basis, dtype=int)
            if senses.count("=") != m or self.bounds.count((0.0, None)) != n:
                raise ValueError('a starting basis needs "=" rows and (0, None) bounds')
            if self.basis.shape != (m,) or not ((0 <= self.basis) & (self.basis < n)).all():
                raise ValueError("a starting basis holds one column index per row")
            if self.basis_inverse is None:
                raise ValueError("a starting basis needs its basis_inverse")
            self.basis_inverse = np.asarray(self.basis_inverse, dtype=float)
            if self.basis_inverse.shape != (m, m):
                raise ValueError("basis_inverse must be square, one row per constraint")


@dataclass
class LpSolution:
    """Outcome of a solve, with the optimality certificate pieces.

    duals has one multiplier per original row (zeros on rows found
    redundant).  duality_gap and complementarity are computed in the
    internal standard form, where they certify optimality exactly.
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
    """Optimal coupling of two mass vectors under a cost matrix."""

    value: float
    pi: np.ndarray
    row_duals: np.ndarray
    col_duals: np.ndarray
    marginal_residual: float
    duality_gap: float
    iterations: int


def _pivot(T: np.ndarray, r: int, j: int) -> None:
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    # keep the entering column numerically exact
    T[:, j] = 0.0
    T[r, j] = 1.0


def _run_simplex(T: np.ndarray, basis: np.ndarray, max_iter: int) -> tuple[str, int]:
    """Pivot to optimality under Bland's rule.

    Entering: lowest-index column with reduced cost < -RC_TOL.
    Leaving: among the minimum-ratio rows, the one whose basic variable
    has the lowest index.  The pair prevents cycling.
    """
    iterations = 0
    m = T.shape[0] - 1
    while True:
        rc = T[-1, :-1]
        negative = rc < -RC_TOL
        if not negative.any():
            return "optimal", iterations
        j = int(np.argmax(negative))
        col = T[:m, j]
        positive = col > PIVOT_TOL
        if not positive.any():
            return "unbounded", iterations
        with np.errstate(divide="ignore"):
            ratios = np.where(positive, T[:m, -1] / np.where(positive, col, 1.0), np.inf)
        best = float(ratios.min())
        ties = np.nonzero(ratios <= best + 1e-12 * max(1.0, abs(best)))[0]
        r = int(ties[np.argmin(basis[ties])])
        _pivot(T, r, j)
        basis[r] = j
        iterations += 1
        if iterations > max_iter:
            raise NumericsError(f"simplex exceeded {max_iter} pivots; tableau may be cycling")


def _run_dual_simplex(T: np.ndarray, basis: np.ndarray, max_iter: int) -> tuple[str, int]:
    """Pivot a dual-feasible tableau to primal feasibility under Bland's rule.

    Leaving: the lowest-index basic variable below -PRIMAL_TOL.
    Entering: among the columns with a negative entry in its row, the
    lowest index of minimum ratio (reduced cost) / -(entry), which keeps
    every reduced cost non-negative.  A leaving row with no negative
    entry proves the program infeasible.
    """
    iterations = 0
    m = T.shape[0] - 1
    while True:
        short = np.nonzero(T[:m, -1] < -PRIMAL_TOL)[0]
        if not short.size:
            return "optimal", iterations
        r = int(short[np.argmin(basis[short])])
        row = T[r, :-1]
        negative = row < -PIVOT_TOL
        if not negative.any():
            return "infeasible", iterations
        ratios = np.where(negative, T[-1, :-1] / np.where(negative, -row, 1.0), np.inf)
        best = float(ratios.min())
        j = int(np.argmax(ratios <= best + 1e-12 * max(1.0, abs(best))))
        _pivot(T, r, j)
        basis[r] = j
        iterations += 1
        if iterations > max_iter:
            raise NumericsError(f"dual simplex exceeded {max_iter} pivots; tableau may be cycling")


def _bound_arrays(bounds: tuple[Bound, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds as float arrays, NaN where unbounded."""
    lo_hi = np.array(bounds, dtype=float).reshape(len(bounds), 2)
    return lo_hi[:, 0], lo_hi[:, 1]


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
    """Largest violation by x of the original rows and bounds."""
    err = problem.A @ x - problem.b
    if problem.basis is not None:
        # "=" rows and x >= 0 only, as validation guarantees
        return max(0.0, float(np.abs(err).max(initial=0.0)), float(-x.min(initial=0.0)))
    eq = [s == "=" for s in problem.senses]
    lo, hi = _bound_arrays(problem.bounds)
    # fmax skips the NaN of a missing bound
    violations = np.concatenate([np.where(eq, np.abs(err), err), lo - x, x - hi])
    return float(np.fmax.reduce(violations, initial=0.0))


def _solve_from_basis(problem: LinearProgram) -> LpSolution:
    """Dual simplex from the program's starting basis (no phase 1).

    NumericsError unless problem.basis_inverse inverts A[:, basis] to
    within INVERSE_TOL and the basis is dual feasible.
    """
    A, b = problem.A, problem.b
    m, n = A.shape
    c = -problem.c if problem.maximize else problem.c
    basis = problem.basis.copy()

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

    status, iterations = _run_dual_simplex(T, basis, 1000 + 50 * (m + n))
    if status != "optimal":
        return LpSolution(status=status, iterations=iterations)
    x = np.zeros(n)
    x[basis] = np.maximum(T[:m, -1], 0.0)
    y, primal, gap, complementarity = _certificate(A, b, c, basis, x)
    return LpSolution(
        status="optimal",
        x=x,
        value=-primal if problem.maximize else primal,
        duals=-y if problem.maximize else y,
        feasibility_residual=_feasibility_residual(problem, x),
        duality_gap=gap,
        complementarity=complementarity,
        iterations=iterations,
    )


class _StandardForm(NamedTuple):
    """min c.z subject to A z = b, z >= 0, with b >= 0.

    The structural columns come first, then one slack per "<=" row.
    Original variable j is base[j] plus sign[k] * z[k] summed over the
    columns k with src[k] == j.  row_sign[i] is -1 where row i was
    negated to make b[i] >= 0; slack_basis[i] is the slack column that
    can start basic in row i, or -1 where row i needs an artificial.
    offset is the objective's constant part.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    row_sign: np.ndarray
    slack_basis: np.ndarray
    src: np.ndarray
    sign: np.ndarray
    base: np.ndarray
    offset: float


def _standard_form(problem: LinearProgram) -> _StandardForm | None:
    """The program in standard form, or None if some upper bound < lower bound.

    Each variable gets one column, negated where only an upper bound is
    given (x = hi - u), and a free variable gets a second, negated
    column (x = u - v).  A boxed variable gets a row u <= hi - lo.
    """
    m0, n0 = problem.A.shape
    c_sign = -1.0 if problem.maximize else 1.0
    lo, hi = _bound_arrays(problem.bounds)
    has_lo, has_hi = ~np.isnan(lo), ~np.isnan(hi)
    boxed = has_lo & has_hi
    if (hi[boxed] < lo[boxed]).any():
        return None
    free = ~(has_lo | has_hi)
    reps = 1 + free
    src = np.repeat(np.arange(n0), reps)
    sign = np.repeat(np.where(has_lo | free, 1.0, -1.0), reps)
    last = np.cumsum(reps) - 1  # a free variable's second column, else its only one
    sign[last[free]] = -1.0
    base = np.where(has_lo, lo, np.where(has_hi, hi, 0.0))

    n_struct = len(src)
    n_box = int(boxed.sum())
    m = m0 + n_box
    le_rows = np.flatnonzero([s == "<=" for s in problem.senses])
    le_rows = np.concatenate([le_rows, np.arange(m0, m)])
    slack = n_struct + np.arange(len(le_rows))
    A = np.zeros((m, n_struct + len(slack)))
    A[:m0, :n_struct] = problem.A[:, src] * sign
    A[np.arange(m0, m), last[boxed]] = 1.0
    A[le_rows, slack] = 1.0
    b = np.concatenate([problem.b - problem.A @ base, (hi - lo)[boxed]])
    flip = b < 0
    A[flip] *= -1.0
    slack_basis = np.full(m, -1)
    slack_basis[le_rows] = slack
    slack_basis[flip] = -1
    return _StandardForm(
        A=A,
        b=np.where(flip, -b, b),
        c=np.concatenate([c_sign * problem.c[src] * sign, np.zeros(len(slack))]),
        row_sign=np.where(flip, -1.0, 1.0),
        slack_basis=slack_basis,
        src=src,
        sign=sign,
        base=base,
        offset=float(c_sign * problem.c @ base),
    )


def solve_lp(problem: LinearProgram) -> LpSolution:
    """Simplex solve of a small dense linear program.

    With problem.basis set, a dual simplex from that basis, which must
    be dual feasible and inverted by problem.basis_inverse
    (NumericsError otherwise); else the two-phase primal simplex.
    """
    if problem.basis is not None:
        return _solve_from_basis(problem)
    sf = _standard_form(problem)
    if sf is None:
        return LpSolution(status="infeasible")
    A_std, b_std, c_std = sf.A, sf.b, sf.c
    m, n_total = A_std.shape
    basis = sf.slack_basis.copy()
    art_rows = np.nonzero(basis < 0)[0]

    keep = np.ones(m, dtype=bool)
    iterations = 0

    if art_rows.size:
        n_art = art_rows.size
        T = np.zeros((m + 1, n_total + n_art + 1))
        T[:m, :n_total] = A_std
        T[:m, -1] = b_std
        T[art_rows, n_total + np.arange(n_art)] = 1.0
        basis[art_rows] = n_total + np.arange(n_art)
        # phase-1 objective: sum of artificials, reduced against the basis
        T[-1, n_total : n_total + n_art] = 1.0
        for i in art_rows:
            T[-1] -= T[i]
        max_iter = 1000 + 50 * (m + n_total)
        status, it1 = _run_simplex(T, basis, max_iter)
        iterations += it1
        if status != "optimal":  # pragma: no cover - phase 1 is always bounded
            raise NumericsError("phase 1 terminated abnormally")
        if -T[-1, -1] > FEASIBILITY_TOL:
            return LpSolution(status="infeasible", iterations=iterations)
        # drive leftover artificials out of the basis or drop their rows
        for i in range(m):
            if basis[i] >= n_total:
                row = T[i, :n_total]
                candidates = np.nonzero(np.abs(row) > PIVOT_TOL)[0]
                if candidates.size:
                    _pivot(T, i, int(candidates[0]))
                    basis[i] = int(candidates[0])
                else:
                    keep[i] = False
        # drop the artificial columns but keep the rhs, then any redundant rows
        T = np.hstack([T[:, :n_total], T[:, -1:]])
        if not keep.all():
            T = np.delete(T, np.nonzero(~keep)[0], axis=0)
            basis = basis[keep]
    else:
        T = np.zeros((m + 1, n_total + 1))
        T[:m, :n_total] = A_std
        T[:m, -1] = b_std

    # ---- phase 2 ----
    rows = T.shape[0] - 1
    T[-1, :] = 0.0
    T[-1, :n_total] = c_std
    for r in range(rows):
        T[-1] -= T[-1, basis[r]] * T[r]
    max_iter = 1000 + 50 * (rows + n_total)
    status, it2 = _run_simplex(T, basis, max_iter)
    iterations += it2
    if status == "unbounded":
        return LpSolution(status="unbounded", iterations=iterations)

    x_std = np.zeros(n_total)
    x_std[basis] = T[:rows, -1]
    x_std = np.maximum(x_std, 0.0)

    # ---- reconstruct the original variables ----
    x = sf.base.copy()
    np.add.at(x, sf.src, sf.sign * x_std[: len(sf.src)])

    # ---- duals and optimality certificate in standard form ----
    kept_idx = np.nonzero(keep)[0]
    y_kept, primal_std, gap, complementarity = _certificate(
        A_std[kept_idx], b_std[kept_idx], c_std, basis, x_std
    )

    duals = np.zeros(m)
    duals[kept_idx] = y_kept * sf.row_sign[kept_idx]
    duals = duals[: problem.A.shape[0]]
    if problem.maximize:
        duals = -duals

    value = primal_std + sf.offset
    if problem.maximize:
        value = -value

    return LpSolution(
        status="optimal",
        x=x,
        value=value,
        duals=duals,
        feasibility_residual=_feasibility_residual(problem, x),
        duality_gap=gap,
        complementarity=complementarity,
        iterations=iterations,
    )


def assemble_transport_lp(cost: np.ndarray, nu0: np.ndarray, nu1: np.ndarray) -> LinearProgram:
    """The coupling program as an explicit LinearProgram.

    Variables are the n0*n1 entries of the coupling, row-major; the
    first n0 equality rows fix the row sums to nu0, the last n1 fix the
    column sums to nu1 (one of these rows is redundant, which the
    two-phase solve handles).
    """
    cost = np.asarray(cost, dtype=float)
    n0, n1 = cost.shape
    A = np.zeros((n0 + n1, n0 * n1))
    for i in range(n0):
        A[i, i * n1 : (i + 1) * n1] = 1.0
    for j in range(n1):
        A[n0 + j, j::n1] = 1.0
    b = np.concatenate([nu0, nu1])
    return LinearProgram(c=cost.ravel(), A=A, b=b, senses=("=",) * (n0 + n1))


def solve_transport(cost: np.ndarray, nu0: np.ndarray, nu1: np.ndarray) -> TransportSolution:
    """Optimal transport between two equal-mass non-negative vectors."""
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
        row_duals=solution.duals[:n0],
        col_duals=solution.duals[n0:],
        marginal_residual=marginal_residual,
        duality_gap=float(solution.duality_gap),
        iterations=solution.iterations,
    )
