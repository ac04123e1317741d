"""Dense two-phase simplex with Bland's rule.

One pivot core backs every optimisation in the package: the arc-flow
program behind the Wasserstein distance (n balance rows, one variable
per arc) and the per-pair curvature programs (one Lipschitz row per
arc).  Problems stay small (hundreds of variables at the target scale),
so a dense tableau is simpler than a revised method and fast enough.
Bland's entering and leaving rule guarantees termination on the heavily
degenerate tableaus that transport instances produce.  solve_transport
solves the n^2-variable coupling program; the library itself does not
call it, and the tests hold the flow form to it as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# marginal mass agreement for transport instances
MARGINAL_TOL = 1e-12

Bound = tuple[float | None, float | None]


@dataclass
class LinearProgram:
    """min (or max) c.x subject to A x (<= or =) b and variable bounds.

    senses holds one of "<=" or "=" per row.  bounds holds one
    (lower, upper) pair per variable with None for unbounded; the
    default is (0, None) for every variable.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    senses: tuple[str, ...]
    bounds: tuple[Bound, ...] | None = None
    maximize: bool = False

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
            self.bounds = tuple((0.0, None) for _ in range(n))
        else:
            self.bounds = tuple(self.bounds)
            if len(self.bounds) != n:
                raise ValueError("one (lower, upper) pair per variable required")


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


def solve_lp(problem: LinearProgram) -> LpSolution:
    """Two-phase simplex solve of a small dense linear program."""
    m0, n0 = problem.A.shape
    c_sign = -1.0 if problem.maximize else 1.0

    # ---- variable transform: everything becomes x_std >= 0 ----
    cols: list[np.ndarray] = []
    costs: list[float] = []
    col_map: list[tuple[int, float]] = []  # (original index, sign)
    base = np.zeros(n0)  # constant part of each original variable
    extra_rows: list[np.ndarray] = []
    extra_rhs: list[float] = []
    for j, (lo, hi) in enumerate(problem.bounds):
        a = problem.A[:, j]
        if lo is None and hi is None:
            cols.append(a)
            costs.append(c_sign * problem.c[j])
            col_map.append((j, 1.0))
            cols.append(-a)
            costs.append(-c_sign * problem.c[j])
            col_map.append((j, -1.0))
        elif lo is not None:
            base[j] = lo
            cols.append(a)
            costs.append(c_sign * problem.c[j])
            col_map.append((j, 1.0))
            if hi is not None:
                if hi < lo:
                    return LpSolution(status="infeasible")
                row = np.zeros(len(cols))
                row[-1] = 1.0
                extra_rows.append(row)
                extra_rhs.append(hi - lo)
        else:
            # upper bound only: substitute x = hi - u
            base[j] = hi
            cols.append(-a)
            costs.append(-c_sign * problem.c[j])
            col_map.append((j, -1.0))

    n_struct = len(cols)
    A = np.column_stack(cols) if cols else np.zeros((m0, 0))
    b = problem.b - problem.A @ base
    senses = list(problem.senses)
    if extra_rows:
        pad = np.zeros((len(extra_rows), n_struct))
        for i, row in enumerate(extra_rows):
            pad[i, : row.shape[0]] = row
        A = np.vstack([A, pad])
        b = np.concatenate([b, np.asarray(extra_rhs)])
        senses += ["<="] * len(extra_rows)
    offset = float(c_sign * problem.c @ base)
    m = A.shape[0]

    # ---- slacks, b >= 0 normalisation, initial basis ----
    n_le = sum(1 for s in senses if s == "<=")
    A_std = np.hstack([A, np.zeros((m, n_le))])
    c_std = np.concatenate([np.asarray(costs), np.zeros(n_le)])
    slack_of = {}
    k = n_struct
    for i, s in enumerate(senses):
        if s == "<=":
            A_std[i, k] = 1.0
            slack_of[i] = k
            k += 1
    row_sign = np.ones(m)
    for i in range(m):
        if b[i] < 0:
            A_std[i] *= -1.0
            b[i] *= -1.0
            row_sign[i] = -1.0
    b_std = b.copy()

    n_total = A_std.shape[1]
    basis = np.full(m, -1, dtype=int)
    art_rows = []
    for i in range(m):
        j = slack_of.get(i)
        if j is not None and A_std[i, j] > 0:
            basis[i] = j
        else:
            art_rows.append(i)

    keep = np.ones(m, dtype=bool)
    iterations = 0

    if art_rows:
        n_art = len(art_rows)
        T = np.zeros((m + 1, n_total + n_art + 1))
        T[:m, :n_total] = A_std
        T[:m, -1] = b_std
        for k_art, i in enumerate(art_rows):
            T[i, n_total + k_art] = 1.0
            basis[i] = n_total + k_art
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
    x = base.copy()
    for k_col, (j, sign) in enumerate(col_map):
        x[j] += sign * x_std[k_col]

    # ---- duals and optimality certificate in standard form ----
    kept_idx = np.nonzero(keep)[0]
    B = A_std[kept_idx][:, basis]
    try:
        y_kept = np.linalg.solve(B.T, c_std[basis])
    except np.linalg.LinAlgError:
        raise NumericsError("optimal basis matrix is singular") from None
    primal_std = float(c_std @ x_std)
    dual_std = float(y_kept @ b_std[kept_idx])
    gap = abs(primal_std - dual_std)
    reduced = c_std - A_std[kept_idx].T @ y_kept
    complementarity = float(np.abs(x_std * reduced).max()) if n_total else 0.0

    duals = np.zeros(m)
    duals[kept_idx] = y_kept * row_sign[kept_idx]
    duals = duals[:m0]
    if problem.maximize:
        duals = -duals

    value = primal_std + offset
    if problem.maximize:
        value = -value

    # ---- feasibility of the reported point against the original data ----
    resid = 0.0
    Ax = problem.A @ x
    for i, s in enumerate(problem.senses):
        err = Ax[i] - problem.b[i]
        resid = max(resid, abs(err) if s == "=" else max(0.0, err))
    for j, (lo, hi) in enumerate(problem.bounds):
        if lo is not None:
            resid = max(resid, lo - x[j])
        if hi is not None:
            resid = max(resid, x[j] - hi)

    return LpSolution(
        status="optimal",
        x=x,
        value=value,
        duals=duals,
        feasibility_residual=float(resid),
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
