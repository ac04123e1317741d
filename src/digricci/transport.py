"""Wasserstein distance for the directed hop metric.

W(nu0, nu1) is the least total cost of moving nu0 onto nu1 where moving
unit mass from x to y costs d(x, y).  Because d is non-symmetric, so is
W.  The hop metric is a path metric, so W is also the cheapest flow
over the arcs alone (the Beckmann form, Peyre & Cuturi 2019, sec. 6):
one variable g >= 0 per arc, cost sum g, and one balance row per vertex
fixing outflow - inflow = nu0 - nu1.  That program has |A| variables
and n rows where the coupling program has n^2 variables and 2n rows.
The balance rows sum to zero, so the row of a root vertex r is dropped.

The solve needs no phase 1.  A BFS out-tree of r (one arc z -> w with
d(r, z) = d(r, w) - 1 into every w != r) is a basis whose duals are the
potential -d(r, .), and under it every arc prices at
1 + d(r, z) - d(r, w) >= 0: the basis is dual feasible whatever the
measures, and a dual simplex pivots it to the optimal flow.  So is a
BFS in-tree of s (one arc w -> z with d(z, s) = d(w, s) - 1 out of
every w != s), with potential d(., s) and arc prices
1 + d(z, s) - d(w, s) >= 0.  Every basis of the program is a spanning
tree (Ahuja, Magnanti & Orlin, Network Flows, 1993, ch. 11).  The
basic flow of the out-tree ships every vertex's balance from r along
geodesics, that of the in-tree ships it into s; when most of the mass
leaves r, or enters s, that flow is nearly optimal and few pivots
remain.  With e = nu0 - nu1, the start is therefore the in-tree of
s = argmin e when the largest deficit -e(s) exceeds the largest
excess, and otherwise the out-tree of r = argmax e.  Point masses tie
and take the out-tree, whose tree path is already optimal.  A tree
depends on its root and direction alone, so root_basis builds it once
and keeps it on the DistanceMatrix: the incidence without the root's
row, the tree, and B^-1.  A spanning tree's inverse incidence is its path
matrix, so B^-1 comes from one walk down the tree, with no
factorisation, and every solve starts from B^-1 [A | b].  The
curvature module's dual flows from x start from the out-tree record
of x.

The row duals of the final basis are a Kantorovich potential f with
f(w) - f(z) <= 1 on every arc; summing along geodesics, that is
f(w) - f(z) <= d(z, w) on every ordered pair, so one solve yields both
sides of the duality and certifies each distance computed in verify
mode.  kantorovich_dual keeps every ordered pair instead (one flow
column per pair, started from the star of pairs 0 -> w); it is the
reference the tests pin the flow potential to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import lp
from .digraph import DistanceMatrix
from .errors import LpFailureError, MarginalMismatchError, NumericsError

# probability vectors must carry this close to unit mass
MASS_TOL = 1e-12


@dataclass(frozen=True)
class TransportPlan:
    """Optimal transport with its certificate.

    Verify mode fills pi (a coupling split from the optimal flow),
    dual_f and duality_gap, and marginal_residual is the largest error
    in the marginals of pi.  Fast mode returns the value only, with
    marginal_residual the largest flow-balance error over the vertices.
    """

    value: float
    marginal_residual: float
    pi: np.ndarray | None = None
    dual_f: np.ndarray | None = None
    duality_gap: float | None = None


def _check_probability(nu: np.ndarray, n: int, name: str) -> np.ndarray:
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (n,):
        raise MarginalMismatchError(f"{name} must have length {n}")
    if not np.isfinite(nu).all():
        raise MarginalMismatchError(f"{name} has a non-finite entry")
    if nu.min(initial=0.0) < 0:
        raise MarginalMismatchError(f"{name} has a negative entry")
    if abs(nu.sum() - 1.0) > MASS_TOL:
        raise MarginalMismatchError(f"{name} has mass {nu.sum():.17g}, expected 1")
    return nu


def kantorovich_dual(
    nu0: np.ndarray, nu1: np.ndarray, dm: DistanceMatrix
) -> tuple[float, np.ndarray]:
    """All-pairs oracle: max sum f (nu1 - nu0) with f(w)-f(z) <= d(z,w).

    Solved through its LP dual, a min-cost flow with one column of cost
    d(z, w) per ordered pair z -> w and the balance row of vertex 0
    dropped.  The start basis is the star of pairs 0 -> w: B = -I, so
    B^-1 = -I, and its potential d(0, .) prices z -> w at
    d(z, w) + d(0, z) - d(0, w) >= 0 by the triangle inequality alone.
    The potential is f = -(row duals) with f(0) = 0; the objective is
    invariant under adding constants because the two measures carry
    equal mass.  Every one of the n(n-1) ordered-pair constraints is
    kept, so the program needs no path-metric argument.  wasserstein
    takes its potential from the arc-flow duals instead; this program
    is the independent reference the tests compare that potential
    against.
    """
    d = dm.d
    n = d.shape[0]
    nu0 = _check_probability(nu0, n, "nu0")
    nu1 = _check_probability(nu1, n, "nu1")
    if n == 1:
        return 0.0, np.zeros(1)
    # every ordered pair, row-major: the star 0 -> w comes first
    pairs = np.argwhere(~np.eye(n, dtype=bool))
    k = np.arange(len(pairs))
    A = np.zeros((n, len(pairs)))
    A[pairs[:, 0], k] = 1.0
    A[pairs[:, 1], k] = -1.0
    problem = lp.LinearProgram(
        c=d[pairs[:, 0], pairs[:, 1]],
        A=A[1:],
        b=(nu0 - nu1)[1:],
        basis=np.arange(n - 1),
        basis_inverse=-np.eye(n - 1),
    )
    solution = lp.solve_lp(problem)
    if solution.status != "optimal":
        raise LpFailureError(f"dual potential solve ended with status {solution.status!r}")
    f = np.concatenate([[0.0], 0.0 - solution.duals])
    return float(solution.value), f


class RootBasis(NamedTuple):
    """The start basis of every arc-flow program rooted at r, built once.

    A is the n x |A| arc incidence (+1 at the tail, -1 at the head of
    each arc) with the row of r dropped, leaving one row per other
    vertex in vertex order.  tree[i] is the arc basic in row i.  In the
    out-tree of r it is the first arc z -> w with d(r, z) = d(r, w) - 1
    into the vertex w of that row, and inverse, B^-1 for B = A[:, tree],
    is the tree's path matrix: its column for w is -1 on the rows of
    the tree arcs on the path r -> w, 0 elsewhere.  In the in-tree of r
    it is the first arc w -> z with d(z, r) = d(w, r) - 1 out of w, and
    the column of B^-1 for w is +1 on the rows of the tree arcs on the
    path w -> r.  All three arrays are read-only.
    """

    A: np.ndarray
    tree: np.ndarray
    inverse: np.ndarray


def _build_root_basis(d: np.ndarray, arcs: np.ndarray, r: int) -> RootBasis:
    """The out-tree RootBasis of r; NumericsError unless inverse @ B is exactly I."""
    n = d.shape[0]
    A = np.zeros((n, len(arcs)))
    k = np.arange(len(arcs))
    A[arcs[:, 0], k] = 1.0
    A[arcs[:, 1], k] = -1.0
    A = np.delete(A, r, axis=0)
    dr = d[r]
    tree = np.nonzero(dr[arcs[:, 0]] == dr[arcs[:, 1]] - 1)[0]
    # heads of the tree arcs cover every w != r; keep the first arc per head
    _heads, first = np.unique(arcs[tree, 1], return_index=True)
    tree = tree[first]
    row = np.arange(n) - (np.arange(n) > r)  # the row of vertex v once r's is dropped
    inverse = np.zeros((n - 1, n - 1))
    # in BFS order, the path to w is the path to its tree parent plus w's own arc
    for w in np.argsort(dr, kind="stable")[1:]:
        parent = arcs[tree[row[w]], 0]
        if parent != r:
            inverse[:, row[w]] = inverse[:, row[parent]]
        inverse[row[w], row[w]] = -1.0
    if not np.array_equal(inverse @ A[:, tree], np.eye(n - 1)):
        raise NumericsError(f"the tree path matrix of root {r} does not invert its basis")
    return RootBasis(A=A, tree=tree, inverse=inverse)


def root_basis(dm: DistanceMatrix, r: int, inward: bool = False) -> RootBasis:
    """The arc-flow start basis of root r, built on first use and kept on dm.

    inward=False gives the BFS out-tree of r, inward=True its BFS
    in-tree.  The in-tree is the out-tree of r in the reversed graph,
    whose incidence is -A and so whose inverse is -B^-1; both are
    negated back (as 0.0 - x, so that no -0.0 appears).  Every W solve
    from that tree and every curvature program of a pair (r, y), which
    uses the out-tree, starts from it; the record lives as long as dm.
    """
    key = (r, inward)
    basis = dm._root_bases.get(key)
    if basis is None:
        if inward:
            out = _build_root_basis(dm.d.T, dm.arcs[:, ::-1], r)
            basis = RootBasis(A=0.0 - out.A, tree=out.tree, inverse=0.0 - out.inverse)
        else:
            basis = _build_root_basis(dm.d, dm.arcs, r)
        for a in basis:
            a.flags.writeable = False
        dm._root_bases[key] = basis
    return basis


def _flow_to_coupling(
    arcs: np.ndarray, flow: np.ndarray, nu0: np.ndarray, nu1: np.ndarray
) -> np.ndarray:
    """Split an acyclic arc flow from nu0 to nu1 into a coupling.

    Vertices are visited in a topological order of the flow's support.
    Each holds its own nu0 mass plus what its in-arcs brought, tagged by
    origin; it keeps nu1 of it and sends the rest down its out-arcs,
    every share mixing the origins in the same proportion.  Mass moves
    only along support arcs, and an optimal flow uses those only on
    geodesics, so the coupling costs exactly sum(flow).
    """
    n = nu0.shape[0]
    used = flow > 0
    tails, heads, amounts = arcs[used, 0], arcs[used, 1], flow[used]
    waiting = np.bincount(heads, minlength=n)
    ready = [v for v in range(n) if waiting[v] == 0]
    held = np.diag(nu0)  # held[s, v]: mass from origin s present at v
    pi = np.zeros((n, n))
    visited = 0
    while ready:
        v = ready.pop()
        visited += 1
        out = tails == v
        total = held[:, v].sum()
        if total > 0:
            share = held[:, v] / total
            pi[:, v] = share * nu1[v]
            for w, g in zip(heads[out], amounts[out]):
                held[:, w] += share * g
        for w in heads[out]:
            waiting[w] -= 1
            if waiting[w] == 0:
                ready.append(int(w))
    if visited < n:
        raise NumericsError("optimal transport flow has a cycle in its support")
    return pi


def _start_tree(excess: np.ndarray) -> tuple[int, bool]:
    """The root and direction of the BFS tree a W solve starts from.

    The in-tree of the vertex of largest deficit when that deficit
    exceeds the largest excess, otherwise (ties included, so point
    masses too) the out-tree of the vertex of largest excess.
    """
    r = int(np.argmax(excess))
    s = int(np.argmin(excess))
    if -excess[s] > excess[r]:
        return s, True
    return r, False


def _flow_program(
    dm: DistanceMatrix, excess: np.ndarray, r: int, inward: bool
) -> lp.LinearProgram:
    """The arc-flow program of excess without r's row, from root_basis(dm, r, inward)."""
    basis = root_basis(dm, r, inward)
    return lp.LinearProgram(
        c=np.ones(len(dm.arcs)),
        A=basis.A,
        b=np.delete(excess, r),
        basis=basis.tree,
        basis_inverse=basis.inverse,
    )


def wasserstein(
    nu0: np.ndarray,
    nu1: np.ndarray,
    dm: DistanceMatrix,
    verify: bool = True,
) -> TransportPlan:
    """Directed transport distance between two probability vectors.

    Solves the arc-flow program once, by a dual simplex from the BFS
    in-tree of the largest deficit or the out-tree of the largest excess
    of nu0 - nu1, whichever is larger (the out-tree on a tie; see the
    module docstring), with the row of that tree's root r dropped.
    verify=True also reads the potential off that solve,
    f = -(row duals) with f(r) = 0, shifted to f(0) = 0, and raises
    NumericsError unless f(w) - f(z) <= 1 + lp.GAP_TOL on every arc and
    |W - f.(nu1 - nu0)| <= lp.GAP_TOL; it then splits the flow, which
    lives on a tree and so is acyclic, into the coupling pi.  Fast mode,
    for the inner loops that call this often, returns the value alone.
    """
    n = dm.d.shape[0]
    nu0 = _check_probability(nu0, n, "nu0")
    nu1 = _check_probability(nu1, n, "nu1")
    arcs = dm.arcs
    excess = nu0 - nu1
    r, inward = _start_tree(excess)
    problem = _flow_program(dm, excess, r, inward)
    solution = lp.solve_lp(problem)
    if solution.status != "optimal":
        raise LpFailureError(f"transport flow solve ended with status {solution.status!r}")
    value = float(solution.value)
    if not verify:
        # every vertex's balance, the root's too, whose row the solve dropped
        g = solution.x
        balance = np.bincount(arcs[:, 0], g, n) - np.bincount(arcs[:, 1], g, n)
        residual = float(np.abs(balance - excess).max())
        return TransportPlan(value=value, marginal_residual=residual)

    y = np.insert(solution.duals, r, 0.0)
    f = y[0] - y
    stretch = float((f[arcs[:, 1]] - f[arcs[:, 0]]).max(initial=0.0))
    if stretch > 1.0 + lp.GAP_TOL:
        raise NumericsError(f"transport potential stretches an arc to {stretch:.17g}")
    gap = abs(value - float(f @ (nu1 - nu0)))
    if gap > lp.GAP_TOL:
        raise NumericsError(f"transport duality gap {gap:.3e} exceeds {lp.GAP_TOL:.1e}")
    pi = _flow_to_coupling(arcs, solution.x, nu0, nu1)
    marginal_residual = max(
        float(np.abs(pi.sum(axis=1) - nu0).max()),
        float(np.abs(pi.sum(axis=0) - nu1).max()),
    )
    return TransportPlan(
        value=value, marginal_residual=marginal_residual, pi=pi, dual_f=f, duality_gap=gap
    )
