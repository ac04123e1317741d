"""Independent reference implementations and frozen hand-derived values.

Everything here avoids the library's own code paths: distances via
min-plus Floyd-Warshall instead of BFS, the stationary measure via a
null-space computation, transport and general linear programs via
scipy.optimize.linprog, and the heat semigroup via scipy.linalg.expm.
The one exception is transport_contraction_all_pairs, the all-pairs
loop the library's arc-only contraction check is pinned to; it reuses
the library's heat kernel and W so that the two agree to roundoff.
reference_dual_simplex is the plain pivot loop the library's dual
simplex kernel must match bit for bit.
The HAND dict holds values worked out by hand for the three fixtures.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.optimize

from digricci import certificate_from_samples, heat_kernel_matrix, lp, wasserstein
from digricci.errors import NumericsError
from digricci.heat import DEFAULT_TIME_GRID

INF = float("inf")

E = np.e
HAND = {
    "c3": {
        "d": np.array([[0, 1, 2], [2, 0, 1], [1, 2, 0]], dtype=float),
        "lam": 2.0,
        "perron": np.array([1.0, 1.0, 1.0]) / 3.0,
        "pmean": (np.ones((3, 3)) - np.eye(3)) / 2.0,
        "kappa": 1.5,
        "w_d0_d1": 1.0,
        "w_d1_d0": 2.0,
        "laplacian_eigs": np.array([0.0, 1.5, 1.5]),
        # f = (0, 1, 2): Lf(0) = f(0) - (f(1) + f(2))/2
        "lf0_of_identity": -1.5,
        # Gamma(indicator of 1)(0) = 1/2 * (1 - 0)^2 * 1/2
        "gamma_ind1_at0": 0.25,
        # worst Laplace margin at lambda = 1 over mean-zero 1-Lipschitz f
        "laplace_margin_lam1": np.exp(2.0 / 3.0) - (np.exp(-1.0) + 1.0 + E) / 3.0,
    },
    "tri": {
        "d": np.array([[0, 1, 2], [1, 0, 1], [1, 2, 0]], dtype=float),
        "lam": 2.0,
        "perron": np.array([0.4, 0.4, 0.2]),
        "pmean": np.array(
            [[0.0, 0.75, 0.25], [0.75, 0.0, 0.25], [0.5, 0.5, 0.0]]
        ),
        "mxy": np.array([[0.0, 0.3, 0.1], [0.3, 0.0, 0.1], [0.1, 0.1, 0.0]]),
        "laplacian_eigs": np.array([0.0, 1.25, 1.75]),
        # rho = point mass at 2 divided by m(2)
        "w_m_rho2": 1.2,
        "fisher_rho2": 4.0,
        "entropy_rho2": np.log(5.0),
        "entropy_rho0": np.log(2.5),
    },
    "k3": {
        "d": np.ones((3, 3)) - np.eye(3),
        "lam": 1.0,
        "perron": np.array([1.0, 1.0, 1.0]) / 3.0,
        "pmean": (np.ones((3, 3)) - np.eye(3)) / 2.0,
        "kappa": 1.5,
        "laplace_margin_lam1": np.exp(1.0 / 6.0)
        - (np.exp(2.0 / 3.0) + 2.0 * np.exp(-1.0 / 3.0)) / 3.0,
    },
}


def hop_distances(mu: np.ndarray) -> np.ndarray:
    """Min-plus Floyd-Warshall on unit arc lengths."""
    n = mu.shape[0]
    d = np.full((n, n), INF)
    np.fill_diagonal(d, 0.0)
    d[mu > 0] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def perron_nullspace(P: np.ndarray) -> np.ndarray:
    """Stationary measure from the null space of P^T - I."""
    ns = scipy.linalg.null_space(P.T - np.eye(P.shape[0]))
    assert ns.shape[1] == 1, "stationary measure must be unique"
    m = ns[:, 0]
    m = m / m.sum()
    assert (m > 0).all()
    return m


def reference_chain(mu: np.ndarray):
    """(P, m, Pmean, mxy) built from scratch."""
    P = mu / mu.sum(axis=1, keepdims=True)
    m = perron_nullspace(P)
    Prev = (m[None, :] / m[:, None]) * P.T
    Pmean = 0.5 * (P + Prev)
    mxy = 0.5 * (m[:, None] * P + (m[:, None] * P).T)
    return P, m, Pmean, mxy


def expm_heat(Pmean: np.ndarray, t: float) -> np.ndarray:
    return scipy.linalg.expm(-t * (np.eye(Pmean.shape[0]) - Pmean))


def linprog_transport(
    cost: np.ndarray, nu0: np.ndarray, nu1: np.ndarray, tight: bool = False
) -> float:
    """Optimal coupling value via scipy's HiGHS solver.

    HiGHS accepts a basis whose rows hold to its feasibility tolerance
    (1e-7 by default), so on measures with entries near 1e-9 its value
    can be off by 1e-8.  tight=True runs its dual simplex without
    presolve at the smallest tolerances it accepts (1e-10).
    """
    method, options = "highs", {}
    if tight:
        method = "highs-ds"
        options = {"presolve": False, "primal_feasibility_tolerance": 1e-10,
                   "dual_feasibility_tolerance": 1e-10}
    n0, n1 = cost.shape
    A_eq = []
    for i in range(n0):
        row = np.zeros(n0 * n1)
        row[i * n1 : (i + 1) * n1] = 1.0
        A_eq.append(row)
    for j in range(n1):
        row = np.zeros(n0 * n1)
        row[j::n1] = 1.0
        A_eq.append(row)
    b_eq = np.concatenate([nu0, nu1])
    res = scipy.optimize.linprog(
        cost.reshape(-1), A_eq=np.asarray(A_eq), b_eq=b_eq, bounds=(0, None),
        method=method, options=options,
    )
    assert res.status == 0, res.message
    return float(res.fun)


def kappa_all_pairs_program(L: np.ndarray, d: np.ndarray, x: int, y: int):
    """The curvature program of (x, y) with a Lipschitz row for every ordered pair.

    Variables are f(z) for z != x in increasing order, f(x) = 0.
    Returns (c, A_ub, b_ub, A_eq, b_eq): minimise c.f subject to
    f(w) - f(z) <= d(z, w) for all z != w and f(y) = d(x, y).
    """
    n = d.shape[0]
    keep = [z for z in range(n) if z != x]
    rows, rhs = [], []
    for z in range(n):
        for w in range(n):
            if z != w:
                row = np.zeros(n)
                row[w] += 1.0
                row[z] -= 1.0
                rows.append(row[keep])
                rhs.append(float(d[z, w]))
    eq = np.zeros(n)
    eq[y] = 1.0
    c = ((L[y] - L[x]) / d[x, y])[keep]
    return c, np.asarray(rows), np.asarray(rhs), eq[keep][None, :], np.array([float(d[x, y])])


def linprog_general(
    c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=(0, None), presolve=True
):
    """Thin wrapper so tests read uniformly."""
    return scipy.optimize.linprog(
        c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
        method="highs", options={"presolve": presolve},
    )


def is_one_lipschitz(f: np.ndarray, d: np.ndarray, slack: float = 1e-9) -> bool:
    n = len(f)
    for z in range(n):
        for w in range(n):
            if z != w and f[w] - f[z] > d[z, w] + slack:
                return False
    return True


def mu_of(g) -> np.ndarray:
    return np.asarray(g.mu)


def transport_contraction_all_pairs(H, dm, K: float, ts=DEFAULT_TIME_GRID, tol=1e-9):
    """W(p_x_t, p_y_t) <= exp(-K t) d(x, y) checked over every ordered pair."""
    n = H.n
    comparisons = []
    for t in ts:
        kernel = heat_kernel_matrix(H, t)
        shrink = float(np.exp(-K * t))
        for x in range(n):
            for y in range(n):
                if x == y:
                    continue
                plan = wasserstein(kernel[x], kernel[y], dm, verify=False)
                comparisons.append(
                    (plan.value, shrink * float(dm.d[x, y]), {"t": t, "pair": (x, y)})
                )
    return certificate_from_samples(
        "transport_contraction", {"K": K, "times": list(ts)}, comparisons, tol
    )


def _reference_pivot(T: np.ndarray, r: int, j: int) -> None:
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    # keep the entering column numerically exact
    T[:, j] = 0.0
    T[r, j] = 1.0


def assert_kernel_matches_reference(problem) -> None:
    """lp's dual simplex kernel and reference_dual_simplex end on the same bits.

    Both run from the start tableau of problem; the final tableaus must
    agree byte for byte (signed zeros included), and so must the bases,
    statuses and pivot counts.
    """
    T = lp._start_tableau(problem)
    ref_T = T.copy()
    basis, ref_basis = problem.basis.copy(), problem.basis.copy()
    max_iter = 1000 + 50 * sum(problem.A.shape)
    outcome = lp._run_dual_simplex(T, basis, max_iter)
    assert outcome == reference_dual_simplex(ref_T, ref_basis, max_iter)
    assert T.tobytes() == ref_T.tobytes()
    assert np.array_equal(basis, ref_basis)


def reference_dual_simplex(T: np.ndarray, basis: np.ndarray, max_iter: int) -> tuple[str, int]:
    """Bland's-rule dual simplex written plainly, one full-length mask per step.

    Leaving: the lowest-index basic variable below -PRIMAL_TOL.
    Entering: the lowest index of minimum ratio (reduced cost) / -(entry)
    among the columns with an entry below -PIVOT_TOL in its row.
    Pivots T and basis in place; returns (status, pivots).
    """
    iterations = 0
    m = T.shape[0] - 1
    while True:
        short = np.nonzero(T[:m, -1] < -lp.PRIMAL_TOL)[0]
        if not short.size:
            return "optimal", iterations
        r = int(short[np.argmin(basis[short])])
        row = T[r, :-1]
        negative = row < -lp.PIVOT_TOL
        if not negative.any():
            return "infeasible", iterations
        ratios = np.where(negative, T[-1, :-1] / np.where(negative, -row, 1.0), np.inf)
        best = float(ratios.min())
        j = int(np.argmax(ratios <= best + 1e-12 * max(1.0, abs(best))))
        _reference_pivot(T, r, j)
        basis[r] = j
        iterations += 1
        if iterations > max_iter:
            raise NumericsError(f"dual simplex exceeded {max_iter} pivots; tableau may be cycling")
