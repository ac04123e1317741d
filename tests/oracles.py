"""Independent reference implementations and frozen hand-derived values.

Everything here avoids the library's own code paths: distances via
min-plus Floyd-Warshall instead of BFS, the stationary measure via a
null-space computation, transport and general linear programs via
scipy.optimize.linprog, and the heat semigroup via scipy.linalg.expm.
The exceptions are transport_contraction_all_pairs, the all-pairs
loop the library's arc-only contraction check is pinned to, and
gradient_estimate_per_sample, the per-sample loop its batched gradient
estimate is pinned to; both reuse the library's heat flow so that the
two sides agree to roundoff.  sampled_gradient_family rebuilds, with
the library's sampler and kappa_lp, the sampled family analyze's
gradient estimate once took.  lipschitz_samples_per_sample is the
per-sample loop the array-drawn Lipschitz family must match bit for
bit, eager_certificate the duals, gap and residual of a solve
formed at once off its whole final tableau, which the ones
LpSolution forms on read must match, and eager_solve a solve that
forms its tableau before it tests B^-1 b, whose final rows and basic
values a solve that took no pivot, ending on its start's tableau,
must match.
The suite's per-sample loops stay here as the references its array
forms must match bit for bit: gamma_dense (Gamma as one n x n product),
density_record_per_row (one density checked and measured alone),
laplace_bound_per_sample, exp_chain_rule_per_sample,
exp_square_chain_rule_per_sample, tail_per_sample and
bobkov_goetze_per_sample.
reference_dual_simplex is the plain pivot loop the library's dual
simplex kernel must match bit for bit, start_tableau the per-solve
B^-1 [A | b] the library's starts, built once and reused, must match
bit for bit, carried_warm_start the warm start re-formed and
re-checked at every step, which the W chains' starts must match bit
for bit, w_chain the chain of single solves each column of a W table
must make, and lu_duals the dense solve its duals, read off the final
cost row, are held to.  kappa_w_pair solves one pair's W program alone
and reads kappa off its witness in Fractions, the route each program
of a kappa_lp row must match bit for bit; kappa_virtual_arc solves the
other form of the curvature program, the arc flow plus a virtual arc
y -> x at cost -d(x, y) added to the root's start (with_column), the
reference kappa_lp is held to.
root_basis_reference builds a root's tree start by products:
np.unique picks the tree, Start.from_basis forms B^-1 by LAPACK,
rounded, multiplies B^-1 A out and checks B^-1 B by a product, and
B^-1 walked column by column must be that inverse; transport.root_basis,
which walks B^-1 and forms B^-1 A as path differences, must match it
bit for bit.  parse_edge_list_reference is the edge-list
parser with a comment split, a strip and a running maximum per line,
and render_json_reference the JSON writer with one recursive call per
leaf; the library's must accept, refuse and write exactly as they do.
At the end sit second routes to library quantities, built on the
library's primitives: gradient and gradient_matrix (difference
quotients over every pair), reversed_graph, label (a vertex's name),
laplacian_delta and gamma_via_delta (Gamma through the Laplacian),
spectral_decomposition, spectral_matrix and spectral_gap (L's
spectrum, P_t and the gap of L from one eigendecomposition of the
m-symmetrised kernel), the sampled lower bounds laplace_lower_bound
and entropy_dual_pairing, and
check_integration_by_parts (both sides of the summation-by-parts
identity on a vertex subset; EmptySubsetError on an empty one).
The HAND dict holds values worked out by hand for the three fixtures,
and REVERSIBILITY_TOL and ADJOINTNESS_TOL the residuals the chain's
reversibility and self-adjointness tests allow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.optimize

from digricci import (
    DensityFixture,
    DirectedGraph,
    DistanceMatrix,
    MarkovData,
    build_graph,
    centered_lipschitz_samples,
    certificate_from_samples,
    gamma,
    heat_kernel_matrix,
    inner,
    kappa_lp,
    lipschitz_constant,
    lp,
    mean,
    sample_lipschitz_functions,
    transport,
    wasserstein,
)
from digricci.certificates import DEFAULT_TOL
from digricci.concentration import FISHER_CROSSCHECK_TOL, LAMBDA_GRID, LIPSCHITZ_SLACK, R_GRID
from digricci.digraph import _add_arc, _weight_matrix
from digricci.errors import (
    GraphCurvatureError,
    HypothesisUnmetError,
    LpFailureError,
    NegativeTimeError,
    NotLipschitzError,
    NumericsError,
    ParseError,
    SameVertexError,
)
from digricci.heat import TIME_GRID
from digricci.report import _json_string
from digricci.transport import MASS_TOL

INF = float("inf")
# reversibility of the mean kernel: |m(x) Pbar(x,y) - m(y) Pbar(y,x)|
REVERSIBILITY_TOL = 1e-14
# self-adjointness and integration-by-parts residuals
ADJOINTNESS_TOL = 1e-10

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


def transport_contraction_all_pairs(H, dm, K: float, tol=1e-9):
    """W(p_x_t, p_y_t) <= exp(-K t) d(x, y) checked over every ordered pair."""
    n = H.Pmean.shape[0]
    comparisons = []
    for t in TIME_GRID:
        kernel = heat_kernel_matrix(H, t)
        shrink = float(np.exp(-K * t))
        for x in range(n):
            for y in range(n):
                if x == y:
                    continue
                plan = wasserstein(kernel[x], kernel[y], dm, verify=True)
                comparisons.append(
                    (plan.value, shrink * float(dm.d[x, y]), {"t": t, "pair": (x, y)})
                )
    return certificate_from_samples(
        "transport_contraction", {"K": K, "times": list(TIME_GRID)}, comparisons, tol
    )


def gradient_estimate_per_sample(H, dm, K: float, fs, ts=TIME_GRID, tol=1e-9):
    """The gradient-estimate certificate with one apply per sample and time.

    The loop verify_gradient_estimate ran before it smoothed the whole
    stack at once; the batched certificate is pinned to it.
    """
    fs = np.atleast_2d(fs)
    lip_fs = [lipschitz_constant(f, dm) for f in fs]
    comparisons = []
    for t in ts:
        shrink = float(np.exp(-K * t))
        for i, (f, lip_f) in enumerate(zip(fs, lip_fs)):
            lip_heat = lipschitz_constant(H.apply(t, f), dm)
            comparisons.append((lip_heat, shrink * lip_f, {"t": t, "f_index": i, "lip_f": lip_f}))
    return certificate_from_samples(
        "lipschitz_contraction", {"K": K, "times": list(ts)}, comparisons, tol
    )


def sampled_gradient_family(M, dm, rng: np.random.Generator, count: int = 200) -> np.ndarray:
    """The gradient-estimate family analyze drew before it took the contraction's potentials.

    count Lipschitz samples, each times its own U[0.5, 2) factor, then
    the kappa witness of every ordered pair in row-major order.  The
    exact family's ratio at each time must be at least each of these.
    """
    fs = sample_lipschitz_functions(dm, count, rng) * rng.uniform(0.5, 2.0, size=(count, 1))
    rows = [kappa_lp(x, np.flatnonzero(np.arange(M.n) != x), M, dm)[1] for x in range(M.n)]
    return np.vstack([fs, *rows])


def lipschitz_samples_per_sample(dm, count: int, rng: np.random.Generator):
    """sample_lipschitz_functions one sample at a time, from the same three draws.

    The anchors of sample i are the k[i] vertices of smallest key, taken
    by sorting that row alone, and f is the min of their offset
    distance rows.
    """
    n = dm.d.shape[0]
    k = rng.integers(1, n + 1, size=count)
    keys = rng.random((count, n))
    offsets = rng.uniform(0.0, dm.lam + 1.0, size=(count, n))
    out = np.empty((count, n))
    for i in range(count):
        anchors = np.argsort(keys[i])[: k[i]]
        out[i] = (dm.d[anchors] + offsets[i, anchors][:, None]).min(axis=0)
    return out


def gamma_dense(f0: np.ndarray, f1: np.ndarray, M: MarkovData) -> np.ndarray:
    """Gamma(f0, f1) of two functions as one n x n product summed over its rows.

    The form chain.gamma had before it took stacks; its row loop must
    give these bits.
    """
    d0 = f0[None, :] - f0[:, None]
    d1 = f1[None, :] - f1[:, None]
    return 0.5 * (d0 * d1 * M.Pmean).sum(axis=1)


def density_record_per_row(M: MarkovData, rho, provenance: str) -> DensityFixture:
    """One density checked and measured alone, rule by rule and field by field.

    The record DensityFixture.of built before the suite checked densities
    as stacks, with the same HypothesisUnmetError and message for each
    rule a density can break.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (M.n,) or not np.isfinite(rho).all():
        raise HypothesisUnmetError(f"density must be {M.n} finite numbers")
    if rho.min(initial=0.0) < 0:
        raise HypothesisUnmetError("density has a negative entry")
    total = mean(rho, M.m)
    if abs(total - 1.0) > MASS_TOL:
        raise HypothesisUnmetError(f"density has m-mass {total:.17g}, expected 1")
    terms = np.zeros_like(rho)
    positive = rho > 0
    terms[positive] = rho[positive] * np.log(rho[positive])
    s = np.sqrt(rho)
    via_gamma = 4.0 * mean(gamma_dense(s, s, M), M.m)
    ds = s[None, :] - s[:, None]
    via_edges = 2.0 * float((ds * ds * M.mxy).sum())
    if abs(via_gamma - via_edges) > FISHER_CROSSCHECK_TOL * max(1.0, abs(via_edges)):
        raise HypothesisUnmetError(
            f"Fisher information routes disagree: {via_gamma:.17g} vs {via_edges:.17g}"
        )
    diff = np.abs(rho[None, :] - rho[:, None])
    return DensityFixture(
        rho=rho,
        provenance=provenance,
        measure=rho * M.m,
        entropy=mean(terms, M.m),
        fisher_information=via_edges,
        edge_variation=float((diff * M.mxy).sum()),
    )


def laplace_bound_per_sample(M, dm, K: float, fs, tol=DEFAULT_TOL):
    """check_laplace_bound with one moment per sample and lambda (K > 0 assumed)."""
    lam_max = float(dm.lam)
    fs = np.atleast_2d(fs)
    comparisons = []
    for lam in LAMBDA_GRID:
        with np.errstate(over="ignore"):
            bound = float(np.exp(lam * lam * lam_max * lam_max / (4.0 * K)))
        for i, f in enumerate(fs):
            comparisons.append(
                (mean(np.exp(lam * f), M.m), bound, {"lambda": lam, "f_index": i})
            )
    return certificate_from_samples(
        "laplace_moment_bound",
        {"K": K, "Lambda": lam_max, "lambda_grid": list(LAMBDA_GRID), "samples": len(fs)},
        comparisons,
        tol,
    )


def exp_chain_rule_per_sample(M, fs, tol=DEFAULT_TOL):
    """check_exp_chain_rule_bound with two Gamma products per sample and lambda."""
    fs = np.atleast_2d(fs)
    comparisons = []
    for i, f in enumerate(fs):
        gamma_f = gamma_dense(f, f, M)
        for lam in LAMBDA_GRID:
            ef = np.exp(lam * f)
            lhs = mean(gamma_dense(f, ef, M), M.m)
            rhs = lam * inner(ef, gamma_f, M.m)
            comparisons.append((lhs, rhs, {"f_index": i, "lambda": lam}))
    hypothesis = {"lambda_grid": list(LAMBDA_GRID), "samples": len(fs)}
    return certificate_from_samples("exp_chain_rule_bound", hypothesis, comparisons, tol)


def exp_square_chain_rule_per_sample(M, fs, tol=DEFAULT_TOL):
    """check_exp_square_chain_rule_bound with its Gamma products one sample at a time."""
    fs = np.atleast_2d(fs)
    comparisons = []
    for i, f in enumerate(fs):
        ef = np.exp(f)
        lhs = mean(gamma_dense(ef, ef, M), M.m)
        rhs = inner(np.exp(2.0 * f), gamma_dense(f, f, M), M.m)
        comparisons.append((lhs, rhs, {"f_index": i}))
    return certificate_from_samples(
        "exp_square_chain_rule_bound", {"samples": len(fs)}, comparisons, tol
    )


def tail_per_sample(M, dm, K: float, fs, tol=DEFAULT_TOL):
    """concentration_tail with one Lipschitz test and one tail mass per sample and radius."""
    lam_max = float(dm.lam)
    fs = np.atleast_2d(fs)
    bounds = [float(np.exp(-K * r * r / (lam_max * lam_max))) for r in R_GRID]
    comparisons = []
    for i, f in enumerate(fs):
        lip = lipschitz_constant(f, dm)
        if lip > 1.0 + LIPSCHITZ_SLACK:
            raise NotLipschitzError(f"tail bound needs Lip f <= 1, got {lip:.17g} at f_index {i}")
        mu_f = mean(f, M.m)
        comparisons += [
            (float(M.m[f >= mu_f + r].sum()), bound, {"f_index": i, "r": r})
            for r, bound in zip(R_GRID, bounds)
        ]
    hypothesis = {"K": K, "Lambda": lam_max, "samples": len(fs), "r_grid": list(R_GRID)}
    return certificate_from_samples("lipschitz_tail_bound", hypothesis, comparisons, tol)


def bobkov_goetze_per_sample(M, dm, K: float, rhos, fs, tol=DEFAULT_TOL):
    """check_bobkov_goetze with its moment side one sample at a time (K > 0, c > 0 assumed).

    At c = 2K / Lambda^2 the moment bound exp(lam^2 / 2c) is the Laplace
    bound exp(lam^2 Lambda^2 / 4K), so the moment side lists the
    comparisons of laplace_bound_per_sample, each under "side": "moment".
    """
    lam_max = float(dm.lam)
    c = 2.0 * K / lam_max ** 2
    fs = np.atleast_2d(fs)
    name = "transport_entropy_laplace_link"
    hypothesis = {"c": c, "lambda_grid": list(LAMBDA_GRID)}
    comparisons = []
    for lam in LAMBDA_GRID:
        with np.errstate(over="ignore"):
            bound = float(np.exp(lam * lam * lam_max * lam_max / (4.0 * K)))
        for i, f in enumerate(fs):
            witness = {"side": "moment", "lambda": lam, "f_index": i}
            comparisons.append((mean(np.exp(lam * f), M.m), bound, witness))
    moment_side = certificate_from_samples(name, hypothesis, comparisons, tol)
    comparisons = []
    for record in rhos:
        w = wasserstein(M.m, record.measure, dm, verify=True).value
        comparisons.append(
            (w * w, 2.0 / c * record.entropy, {"side": "transport", "rho": record.provenance})
        )
    transport_side = certificate_from_samples(name, hypothesis, comparisons, tol)
    if moment_side.passed and transport_side.passed:
        verdict = min(moment_side, transport_side, key=lambda cert: cert.margin)
    elif moment_side.passed:
        verdict = transport_side
    elif transport_side.passed:
        verdict = moment_side
    else:
        verdict = certificate_from_samples(name, hypothesis, [(0.0, 0.0, {"side": "none"})], tol)
    verdict.witness.update(
        {
            "moment_holds_on_samples": moment_side.passed,
            "transport_holds_on_samples": transport_side.passed,
            "moment_worst_margin": moment_side.margin,
            "transport_worst_margin": transport_side.margin,
            "necessary_conditions_only": True,
        }
    )
    return verdict


def eager_tableau(start: lp.Start, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The final tableau, basis and pivot count of a solve that forms its tableau at once.

    start's rows beside B^-1 b, over -c_B B^-1 b, go through the
    library's pivot kernel even when no pivot is due, and the whole
    final tableau [B_f^-1 A | B_f^-1 b ; c - c_B B_f^-1 A | -c_B B_f^-1 b]
    is kept.
    """
    m, n = start.A.shape
    T = np.empty((m + 1, n + 1))
    T[:, :n] = start.tableau
    T[:m, n] = start.inverse @ b
    T[m, n] = 0.0 - start.c[start.basis] @ T[:m, n]
    basis = start.basis.copy()
    return T, basis, lp._run_dual_simplex(T, basis)


def eager_certificate(solution) -> tuple[np.ndarray, float, float]:
    """An optimal solve's duals, duality gap and feasibility residual, formed at once.

    The pieces as solve_lp formed them when every solve paid for them,
    off the whole final tableau of the solve run again by eager_tableau:
    y off the final cost row through the start's inverse, |c.x - y.b|,
    and the largest violation of A x = b and x >= 0 by the unclipped
    basic values of that tableau.
    """
    start, b = solution.start, solution.b
    T, basis, _iterations = eager_tableau(start, b)
    b0 = start.basis
    y = (start.c[b0] - T[-1, b0]) @ start.inverse
    gap = abs(float(start.c @ solution.x) - float(y @ b))
    basic = T[:-1, -1]
    err = float(np.abs(start.A[:, basis] @ basic - b).max(initial=0.0))
    return y, gap, max(0.0, err, float(-basic.min(initial=0.0)))


def eager_solve(start: lp.Start, b: np.ndarray) -> lp.LpSolution:
    """A solve that forms its tableau before it tests B^-1 b (eager_tableau), and keeps it.

    Its rows are that tableau without the b column, and its basic
    values the b column; a solve of solve_lp, which forms no tableau
    when no pivot is due, must match it bit for bit.
    """
    b = np.array(b, dtype=float)
    T, basis, iterations = eager_tableau(start, b)
    m, n = start.A.shape
    x = np.zeros(n)
    x[basis] = np.maximum(T[:m, -1], 0.0)
    return lp.LpSolution(
        x=x, value=float(start.c @ x), iterations=iterations, start=start, b=b, basis=basis,
        rows=T[:, :-1], _basic=T[:m, -1],
    )


def flow_balance_residual(arcs, g, nu0, nu1) -> float:
    """The largest error in any vertex's balance outflow - inflow = nu0 - nu1 of the arc flow g.

    The residual of one solve of a W table, formed at once.
    """
    n = len(nu0)
    balance = np.bincount(arcs[:, 0], g, n) - np.bincount(arcs[:, 1], g, n)
    return float(np.abs(balance - (nu0 - nu1)).max())


def _reference_pivot(T: np.ndarray, r: int, j: int) -> None:
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    # keep the entering column numerically exact
    T[:, j] = 0.0
    T[r, j] = 1.0


def assert_kernel_matches_reference(start, b, duals_tol: float = 0.0) -> bool:
    """lp's dual simplex kernel and reference_dual_simplex end on the same bits.

    Both run from the start tableau of the program of start and b; the
    final tableaus must agree byte for byte (signed zeros included), and
    so must the bases and pivot counts.  Where the reference ends
    infeasible the kernel must raise LpFailureError naming that status
    and the reference's pivot count, and where it ends optimal the
    kernel must return its pivot count, and solve_lp's duals must be
    within duals_tol of lu_duals on the final basis.  Returns whether
    the reference switched to Bland's rule.
    """
    T = lp._start_tableau(start, start.inverse @ b)
    ref_T = T.copy()
    basis, ref_basis = start.basis.copy(), start.basis.copy()
    max_iter = 1000 + 50 * sum(start.A.shape)
    status, pivots, switched = reference_dual_simplex(ref_T, ref_basis, max_iter)
    if status == "optimal":
        assert lp._run_dual_simplex(T, basis) == pivots
        duals = lp.solve_lp(start, b).duals
        assert np.abs(duals - lu_duals(start, basis)).max(initial=0.0) <= duals_tol
    else:
        try:
            lp._run_dual_simplex(T, basis)
        except LpFailureError as error:
            assert str(error) == f"solve ended with status {status!r} after {pivots} pivots"
        else:
            raise AssertionError(f"the kernel ended optimal where the reference ended {status}")
    assert T.tobytes() == ref_T.tobytes()
    assert np.array_equal(basis, ref_basis)
    return switched


def start_tableau(c, A, b, basis, basis_inverse) -> np.ndarray:
    """B^-1 [A | b] over the reduced costs c - c_B B^-1 [A | b], multiplied out.

    The start tableau of one program, as a solve built it before starts
    were built once: both products, the basis columns set to the unit
    vectors and the reduced costs taken over the b column too.
    """
    m, n = A.shape
    T = np.empty((m + 1, n + 1))
    T[:m, :n] = basis_inverse @ A
    T[:m, n] = basis_inverse @ b
    T[:m, basis] = np.eye(m)
    T[-1, :n] = c
    T[-1, -1] = 0.0
    T[-1] -= c[basis] @ T[:m]
    T[-1, basis] = 0.0
    return T


def carried_warm_start(solution) -> lp.Start:
    """An optimal solve's warm start, re-formed whatever the solve did.

    The final basis, its inverse as the one m x m product
    (B_f^-1 B_0) B_0^-1 and the final rows, checked by Start.carried:
    the route every warm start took before a solve that took no pivot
    handed its own start on.
    """
    start, rows = solution.start, solution.rows
    inverse = rows[:-1, start.basis] @ start.inverse
    return lp.Start.carried(start.c, start.A, solution.basis, inverse, rows)


def with_column(start: lp.Start, cost: float, column: np.ndarray) -> lp.Start:
    """start with one more column of A, priced at cost, formed and checked on its own.

    The basis and its inverse stay, so the column's tableau entries are
    B^-1 column and its reduced cost is the one new entry to check:
    NumericsError unless it is at least -RC_TOL.  The start of the
    virtual-arc program of one pair, as kappa_virtual_arc builds it.
    """
    m, n = start.A.shape
    T = np.empty((m + 1, n + 1))
    T[:, :n] = start.tableau
    T[:m, n] = start.inverse @ column
    T[m, n] = cost - start.c[start.basis] @ T[:m, n]
    if T[m, n] < -lp.RC_TOL:
        raise NumericsError(f"starting basis is not dual feasible: reduced cost {T[m, n]:.3e}")
    c = np.concatenate((start.c, [cost]))
    A = np.concatenate((start.A, column[:, None]), axis=1)
    return lp.Start(c, A, start.basis, start.inverse, T)


def kappa_virtual_arc(x: int, y: int, M: MarkovData, dm: DistanceMatrix):
    """kappa(x, y) by the virtual-arc program: (kappa, witness, its solve).

    The dual flow of the curvature program with f(y) = d(x, y) imposed
    by a column: root x's out-tree start with the virtual arc y -> x at
    cost -d(x, y) added by with_column, solved by lp.solve_lp for the
    balance c = (L[y] - L[x]) / d(x, y).  The arc columns give
    f(w) - f(z) <= 1, the virtual one f(y) - f(x) >= d(x, y), so the
    flow optimum is -kappa.  The witness is minus the solve's own duals
    (LpSolution.duals), with f(x) = 0, and NumericsError unless it is
    integral, stretches no arc, has f(y) = d(x, y) and closes the gap
    to lp.GAP_TOL.  The reference kappa_lp's W program is held to.
    """
    dxy = float(dm.d[x, y])
    c = (M.L[y] - M.L[x]) / dxy
    tree = transport.root_basis(dm, x)
    solution = tree.solve(c, with_column(tree.start, -dxy, (tree.vertices == y).astype(float)))
    kappa = 0.0 - float(solution.value)
    f = np.zeros(M.n)
    f[tree.vertices] = 0.0 - solution.duals
    stretch = (f[dm.arcs[:, 1]] - f[dm.arcs[:, 0]]).max(initial=0.0)
    if not (f == f.round()).all() or stretch > 1.0 or f[y] != dxy:
        raise NumericsError(f"curvature witness {f} is not an integral 1-Lipschitz f(y) = {dxy:g}")
    if abs(kappa - float(c @ f)) > lp.GAP_TOL:
        raise NumericsError("curvature duality gap exceeds lp.GAP_TOL")
    return kappa, f, solution


def kappa_w_pair(x: int, y: int, M: MarkovData, dm: DistanceMatrix, scale: float = 1.0):
    """kappa(x, y) by its W program alone, with the push scaled: (kappa, witness, its solve).

    The program is root x's out-tree W program of the excess
    c + scale Lambda (delta_x - delta_y), with c = (L[y] - L[x]) / d(x, y)
    and Lambda = 1 + 2 sum_v |c(v)| max(d(x, v), d(v, x)), solved by
    RootBasis.solve from the tree's own start.  The witness is minus
    the solve's own duals (LpSolution.duals), with f(x) = 0, and kappa
    is f.c summed in Fractions and rounded once.  NumericsError unless
    f is integral, stretches no arc and has f(y) = d(x, y).  At scale 1
    it is the per-pair route each program of a kappa_lp row must match
    bit for bit; any scale >= 1 leaves only the tight potentials
    optimal, so kappa keeps its bits.
    """
    dxy = float(dm.d[x, y])
    c = (M.L[y] - M.L[x]) / dxy
    push = scale * (1.0 + 2.0 * (np.abs(c) @ np.maximum(dm.d[x], dm.d[:, x])))
    excess = c.copy()
    excess[x] += push
    excess[y] -= push
    tree = transport.root_basis(dm, x)
    solution = tree.solve(excess)
    f = np.zeros(M.n)
    f[tree.vertices] = 0.0 - solution.duals
    stretch = (f[dm.arcs[:, 1]] - f[dm.arcs[:, 0]]).max(initial=0.0)
    if not (f == f.round()).all() or stretch > 1.0 or f[y] != dxy:
        raise NumericsError(f"curvature witness {f} is not an integral 1-Lipschitz f(y) = {dxy:g}")
    kappa = float(sum(Fraction(int(fv)) * Fraction(float(cv)) for fv, cv in zip(f, c)))
    return kappa, f, solution


def w_chain(dm, nu0, nu1, arc_start=None, re_form=False, kappa=None) -> list:
    """The solves of one W chain, pair by pair: what a column of a W table must make.

    nu0 and nu1 hold one measure per row.  Without arc_start the chain
    starts from the BFS tree of the first pair, the in-tree of the
    largest deficit of nu0 - nu1 when it exceeds the largest excess and
    otherwise the out-tree of the largest excess; with it, from the
    arc's W start on the out-tree of its root.  Each later pair solves
    from the previous optimum's warm start.  re_form re-forms and
    re-checks every start by carried_warm_start, the arc's off kappa,
    kappa's solve of the arc, which ended on a basis of the arc's W.
    """
    excess = np.asarray(nu0) - np.asarray(nu1)
    if arc_start is None:
        r, s = int(excess[0].argmax()), int(excess[0].argmin())
        inward = bool(-excess[0, s] > excess[0, r])
        tree = transport.root_basis(dm, s if inward else r, inward)
        start = tree.start
    else:
        tree = transport.root_basis(dm, arc_start.root)
        start = carried_warm_start(kappa) if re_form else arc_start.start
    solutions = []
    for e in excess:
        solutions.append(tree.solve(e, start))
        start = (carried_warm_start if re_form else lp.LpSolution.warm_start)(solutions[-1])
    return solutions


def root_basis_reference(
    dm: DistanceMatrix, r: int, inward: bool = False
) -> tuple[lp.Start, np.ndarray]:
    """The tree start of root r and the vertex of each row, built by products, not kept.

    The first arc one level down into each far end, by np.unique over
    the candidate arcs, and Start.from_basis, which forms B^-1 by
    LAPACK, rounded, multiplies B^-1 A and the reduced costs out and
    checks them (B^-1 B exactly I by a product, and no reduced cost
    below -RC_TOL).  B^-1 walked down the tree a column at a time, the
    tree's path matrix, must be that inverse bit for bit, and
    transport.root_basis must build the same start bit for bit.
    """
    arcs = dm.arcs
    n = len(dm.d)
    if inward:
        near, far, depth, sign = arcs[:, 1], arcs[:, 0], dm.d[:, r], 1.0
    else:
        near, far, depth, sign = arcs[:, 0], arcs[:, 1], dm.d[r], -1.0
    tree = np.flatnonzero(depth[near] == depth[far] - 1)
    _far, first = np.unique(far[tree], return_index=True)
    tree = tree[first]
    vertices = np.flatnonzero(np.arange(n) != r)
    inverse = np.zeros((n - 1, n - 1))
    parents = near[tree].tolist()
    for w in np.argsort(depth, kind="stable")[1:].tolist():
        i = w - (w > r)
        parent = parents[i]
        if parent != r:
            inverse[:, i] = inverse[:, parent - (parent > r)]
        inverse[i, i] = sign
    A = np.zeros((n, len(arcs)))
    A[arcs[:, 0], np.arange(len(arcs))] = 1.0
    A[arcs[:, 1], np.arange(len(arcs))] = -1.0
    A = A[vertices]
    start = lp.Start.from_basis(np.ones(len(arcs)), A, tree)
    assert inverse.tobytes() == start.inverse.tobytes()
    return start, vertices


def parse_edge_list_reference(text: str) -> tuple[np.ndarray, None]:
    """The edge-list parser with its per-line comment split, strip and running max."""
    arcs: dict[tuple[int, int], float] = {}
    max_vertex = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"line {lineno}: expected 'src dst [weight]', got {raw!r}")
        try:
            src, dst = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: vertex ids must be integers") from None
        if src < 0 or dst < 0:
            raise ParseError(f"line {lineno}: vertex ids must be non-negative")
        weight = 1.0
        if len(parts) == 3:
            try:
                weight = float(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: bad weight {parts[2]!r}") from None
        _add_arc(arcs, src, dst, weight, "line ", lineno)
        max_vertex = max(max_vertex, src, dst)
    return _weight_matrix(max_vertex + 1, arcs), None


def format_float_reference(x: float) -> str:
    """A float as a report writes it: null for NaN, a string for an infinity, else 17 digits."""
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return f"{x:.17g}"


def render_json_reference(value, indent: int = 0) -> str:
    """report.render_json with one recursive call per leaf, every list entry included."""
    if isinstance(value, float):
        return format_float_reference(value)
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f'{inner}{render_json_reference(str(k))}: {render_json_reference(v, indent + 1)}'
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            return "[]"
        parts = [f"{inner}{render_json_reference(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, np.floating):
        return format_float_reference(float(value))
    if isinstance(value, np.ndarray):
        return render_json_reference(value.tolist(), indent)
    raise TypeError(f"cannot serialise {type(value)!r}")


def lu_duals(start, basis: np.ndarray) -> np.ndarray:
    """The duals y of a basis of start's c and A: an LU solve of B^T y = c_B, B = A[:, basis]."""
    return np.linalg.solve(start.A[:, basis].T, start.c[basis])


def reference_dual_simplex(
    T: np.ndarray, basis: np.ndarray, max_iter: int
) -> tuple[str, int, bool]:
    """The dual simplex kernel's rule written plainly, one full-length mask per step.

    Leaving: the most negative basic variable below -PRIMAL_TOL, the
    lowest row on a tie; after m consecutive pivots of ratio 0 (m the
    row count), the lowest-index short basic variable for the rest of
    the solve (Bland's rule).  Entering: the lowest index of minimum
    ratio (reduced cost) / -(entry) among the columns with a negative
    entry in its row, the exact minimum with no tie slack.
    It divides by the entry and by the pivot element as a general
    tableau would, where the kernel takes every such entry to be -1, so
    matching it bit for bit checks that shortcut.  Pivots T and basis
    in place; returns (status, pivots, whether it switched to Bland's
    rule).
    """
    iterations = 0
    stalled = 0
    m = T.shape[0] - 1
    while True:
        bland = stalled >= m
        short = np.nonzero(T[:m, -1] < -lp.PRIMAL_TOL)[0]
        if not short.size:
            return "optimal", iterations, bland
        key = basis[short] if bland else T[short, -1]
        r = int(short[np.argmin(key)])
        row = T[r, :-1]
        negative = row < 0.0
        if not negative.any():
            return "infeasible", iterations, bland
        ratios = np.where(negative, T[-1, :-1] / np.where(negative, -row, 1.0), np.inf)
        j = int(np.argmin(ratios))
        best = float(ratios[j])
        if not bland:
            stalled = stalled + 1 if best <= 0.0 else 0
        _reference_pivot(T, r, j)
        basis[r] = j
        iterations += 1
        if iterations > max_iter:
            raise NumericsError(f"dual simplex exceeded {max_iter} pivots; tableau may be cycling")


def reversed_graph(g: DirectedGraph) -> DirectedGraph:
    """The graph with every arc flipped; weights carried along."""
    return build_graph(np.array(g.mu.T), labels=g.labels)


def label(g: DirectedGraph, x: int) -> str:
    """The name of vertex x: its label when the graph has labels, else x."""
    return g.labels[x] if g.labels is not None else str(x)


def gradient(f: np.ndarray, x: int, y: int, dm: DistanceMatrix) -> float:
    """Difference quotient (f(y) - f(x)) / d(x, y) along the ordered pair."""
    if x == y:
        raise SameVertexError(f"gradient needs two distinct vertices, got {x}")
    return float((f[y] - f[x]) / dm.d[x, y])


def gradient_matrix(f: np.ndarray, dm: DistanceMatrix) -> np.ndarray:
    """All difference quotients at once; the diagonal is set to -inf."""
    f = np.asarray(f, dtype=float)
    diff = f[None, :] - f[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        grad = diff / dm.d
    np.fill_diagonal(grad, -np.inf)
    return grad


def laplacian_delta(M: MarkovData) -> np.ndarray:
    """Delta = -L as a dense matrix."""
    return -M.L


def gamma_via_delta(f0: np.ndarray, f1: np.ndarray, M: MarkovData) -> np.ndarray:
    """Same quantity through (1/2)(Delta(f0 f1) - f0 Delta f1 - f1 Delta f0).

    Kept as an independent route; tests pin the two formulas together.
    """
    f0 = np.asarray(f0, dtype=float)
    f1 = np.asarray(f1, dtype=float)
    delta = laplacian_delta(M)
    return 0.5 * (delta @ (f0 * f1) - f0 * (delta @ f1) - f1 * (delta @ f0))


def spectral_decomposition(M: MarkovData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sqrt(m), the eigenvalues of L ascending, and their eigenvectors.

    The vectors are those of the m-symmetrised kernel sqrt(m) Pbar / sqrt(m),
    made exactly symmetric before eigh.
    """
    sqrt_m = np.sqrt(M.m)
    S = (sqrt_m[:, None] * M.Pmean) / sqrt_m[None, :]
    sigma, Q = np.linalg.eigh(0.5 * (S + S.T))
    return sqrt_m, (1.0 - sigma)[::-1], Q[:, ::-1]


def spectral_matrix(M: MarkovData, t: float) -> np.ndarray:
    """Independent route to P_t: the spectral form of the symmetrised kernel.

    Pbar is self-adjoint for m, so one real eigendecomposition of
    sqrt(m) Pbar / sqrt(m) gives exp(-t L) conjugated back by sqrt(m).
    Nothing makes its entries non-negative or P_0 = I; it is the
    reference the library's series is held to.
    """
    if t < 0:
        raise NegativeTimeError(f"time must be non-negative, got {t}")
    sqrt_m, eigenvalues, Q = spectral_decomposition(M)
    core = (Q * np.exp(-t * eigenvalues)[None, :]) @ Q.T
    return (core * sqrt_m[None, :]) / sqrt_m[:, None]


def spectral_gap(M: MarkovData) -> float:
    """The second-smallest eigenvalue of L (the smallest is 0); 0 on one vertex."""
    return float(spectral_decomposition(M)[1][1]) if M.n > 1 else 0.0


def laplace_lower_bound(
    M: MarkovData,
    dm: DistanceMatrix,
    lam: float,
    samples: int,
    rng: np.random.Generator,
) -> float:
    """Best sampled value of m(exp(lam f)) over centred 1-Lipschitz f.

    A lower bound for the true Laplace functional; the certified upper
    bound lives in check_laplace_bound.
    """
    fs = centered_lipschitz_samples(M, dm, samples, rng)
    return float(max(mean(np.exp(lam * f), M.m) for f in fs))


def entropy_dual_pairing(M: MarkovData, rho: np.ndarray, g: np.ndarray) -> float:
    """(g, rho) for a test function with m(exp g) <= 1; lower-bounds the entropy."""
    g = np.asarray(g, dtype=float)
    if mean(np.exp(g), M.m) > 1.0 + 1e-12:
        raise HypothesisUnmetError("dual pairing needs m(exp g) <= 1")
    return inner(g, np.asarray(rho, dtype=float), M.m)


class EmptySubsetError(GraphCurvatureError):
    """check_integration_by_parts was given an empty vertex subset."""


@dataclass(frozen=True)
class ByPartsReport:
    """Residuals of the summation-by-parts identity on a vertex subset.

    On a subset S the identity reads

        sum_{x in S} L f0(x) f1(x) m(x)
            = (1/2) sum_{x,y in S} (f0(y)-f0(x)) (f1(y)-f1(x)) m_xy
              - sum_{x in S, y not in S} (f0(y)-f0(x)) f1(x) m_xy

    and with S = V the boundary term vanishes, giving
    (L f0, f1) = m(Gamma(f0, f1)) = (f0, L f1).
    """

    lhs: float
    interior: float
    boundary: float
    subset_residual: float
    adjoint_residual: float
    gamma_residual: float

    @property
    def max_residual(self) -> float:
        return max(self.subset_residual, self.adjoint_residual, self.gamma_residual)


def check_integration_by_parts(
    M: MarkovData, omega: list[int] | np.ndarray, f0: np.ndarray, f1: np.ndarray
) -> ByPartsReport:
    """Evaluate both sides of the subset identity plus the global ones."""
    omega = np.asarray(sorted(set(int(x) for x in np.asarray(omega).ravel())), dtype=int)
    if omega.size == 0:
        raise EmptySubsetError("integration by parts needs a non-empty subset")
    f0 = np.asarray(f0, dtype=float)
    f1 = np.asarray(f1, dtype=float)
    n = M.n
    inside = np.zeros(n, dtype=bool)
    inside[omega] = True

    Lf0 = M.L @ f0
    lhs = float(np.sum(Lf0[omega] * f1[omega] * M.m[omega]))

    d0 = f0[None, :] - f0[:, None]
    d1 = f1[None, :] - f1[:, None]
    pair = inside[:, None] & inside[None, :]
    interior = 0.5 * float((d0 * d1 * M.mxy)[pair].sum())
    cross = inside[:, None] & ~inside[None, :]
    boundary = float((d0 * f1[:, None] * M.mxy)[cross].sum())

    subset_residual = abs(lhs - (interior - boundary))

    Lf1 = M.L @ f1
    left = inner(Lf0, f1, M.m)
    right = inner(f0, Lf1, M.m)
    middle = mean(gamma(f0, f1, M), M.m)
    adjoint_residual = abs(left - right)
    gamma_residual = max(abs(left - middle), abs(right - middle))

    return ByPartsReport(
        lhs=lhs,
        interior=interior,
        boundary=boundary,
        subset_residual=subset_residual,
        adjoint_residual=adjoint_residual,
        gamma_residual=gamma_residual,
    )
