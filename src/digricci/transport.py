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
depends on its root and direction alone, so root_basis builds its
start once (lp.Start: the incidence without the root's row, the tree,
B^-1 and the tableau rows [B^-1 A ; c - c_B B^-1 A] with every cost
c 1), checks it once and
keeps it on the DistanceMatrix, with the vertex of each row.  A
spanning tree's inverse incidence is its path matrix, so B^-1 comes
from one walk down the tree, with no factorisation; a solve from the
tree then only forms B^-1 b, and its right-hand side, potential and
coupling are indexed through the row vertices.  The curvature
module's dual flows from x add their virtual column to the out-tree
start of x.

A solve may start from another plan's final basis instead.  The
program's cost and incidence depend on the graph and r alone, so the
optimal tree of one pair of measures stays dual feasible for any other
pair on the same root, and the plan's final tableau is already that
tree's start (lp.LpSolution.warm_start).  A solve that took no pivot,
as most along a chain do, ended on its own start, which is handed on
unchanged; otherwise the final rows are carried into the next solve as
they stand, and only the inverse is formed, one m x m product off the
final tableau, and checked with them.  The start belongs to the
DistanceMatrix whose record it came from, and a plan of another one is
refused.  The heat module solves each arc along increasing t, and the
curvature module each pair along increasing smoothing, each solve from
the previous optimum: the measures move little, and at small t the
optimal tree mostly stops changing.  The first heat-flow solve of an
arc x -> y starts from the arc's curvature optimum instead, when
kappa_lp has solved it on the same DistanceMatrix (ArcStart): as
t -> 0, p_x_t - p_y_t = (delta_x - delta_y) + t (L[y] - L[x]) + O(t^2),
and the curvature program is that first-order problem, so its optimal
basis, with the virtual arc y -> x swapped for x -> y, is optimal for
W at t -> 0 and usually still at the first t.  Without it the chain
starts from the BFS tree above.

The row duals of the final basis are a Kantorovich potential f with
f(w) - f(z) <= 1 on every arc; summing along geodesics, that is
f(w) - f(z) <= d(z, w) on every ordered pair, so one solve yields both
sides of the duality and certifies each distance computed in verify
mode.  The basis is a spanning tree and every cost an integer, so f
is an integer vector, and RootBasis.potential checks integrality and
the arc rows exactly; the curvature module reads its witness the same
way.  kantorovich_dual keeps every ordered pair instead (one flow
column per pair, started from the star of pairs 0 -> w); it is the
reference the tests pin the flow potential to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import lp
from .digraph import DistanceMatrix
from .errors import MarginalMismatchError, NumericsError

# probability vectors must carry this close to unit mass
MASS_TOL = 1e-12


@dataclass(frozen=True)
class TransportPlan:
    """Optimal transport with its certificate.

    Verify mode fills pi (a coupling split from the optimal flow),
    dual_f and duality_gap, and marginal_residual is the largest error
    in the marginals of pi.  Fast mode returns the value only, with
    marginal_residual the largest flow-balance error over the vertices,
    formed on first read from nu0 - nu1 and the arcs the plan keeps, so
    a caller that reads only the value pays for none of it.  Both modes
    keep root and inward, the tree the solve started from (root_basis;
    the solve dropped the balance row of root), and flow, the optimal
    solve itself with its final tableau, which warm_start makes the
    start of a later solve on the same DistanceMatrix (wasserstein's
    start).
    """

    value: float
    pi: np.ndarray | None = None
    dual_f: np.ndarray | None = None
    duality_gap: float | None = None
    root: int | None = None
    inward: bool | None = None
    flow: lp.LpSolution | None = field(default=None, repr=False, compare=False)
    # verify mode's residual, formed at once; fast mode forms its own from the other two
    _pi_residual: float | None = field(default=None, repr=False, compare=False)
    _excess: np.ndarray | None = field(default=None, repr=False, compare=False)
    _arcs: np.ndarray | None = field(default=None, repr=False, compare=False)

    @cached_property
    def marginal_residual(self) -> float:
        """The largest error in pi's marginals, or without pi in any vertex's flow balance."""
        if self.pi is not None:
            return self._pi_residual
        # every vertex's balance, the root's too, whose row the solve dropped
        g, tails, heads, n = self.flow.x, self._arcs[:, 0], self._arcs[:, 1], len(self._excess)
        balance = np.bincount(tails, g, n) - np.bincount(heads, g, n)
        return float(np.abs(balance - self._excess).max())

    def warm_start(self) -> lp.Start:
        """The final basis as the start of another W on the same DistanceMatrix."""
        return self.flow.warm_start()


@dataclass(eq=False)
class ArcStart:
    """kappa_lp's optimum of an arc x -> y, kept as the start of the arc's W chains.

    The curvature program of the arc is the arc-flow program of root x
    (program, root_basis's out-tree start of x) plus the virtual arc
    y -> x, whose column is +1 in the row of y at cost -1; the arc
    x -> y is -1 there at cost +1.  So when the virtual column is basic
    in kappa's final basis B_f, in row i say, swapping it for x -> y
    multiplies B_f by the sign flip of row i: B^-1 and the tableau rows
    [B^-1 A] get row i negated, the duals c_B B^-1 stay, and with them
    every reduced cost.  The swapped basis is dual feasible for W, and
    it is the optimum of W(delta_x, delta_y), the limit t -> 0 of the
    heat-flow W of the arc, whose first-order term is kappa's own
    right-hand side.  When the virtual column is nonbasic, B_f is a
    basis of W already and stays as it is.  warm_start forms that start
    on first use in one step, off kappa's final basis, its inverse and
    its final tableau without the virtual and b columns, checks it once
    (lp.Start.carried) and keeps it; kappa_lp pays for none of it.
    wasserstein starts from it as from a plan of root x's out-tree.
    """

    root: int
    kappa: lp.LpSolution = field(repr=False)
    program: lp.Start = field(repr=False)
    _start: lp.Start | None = field(default=None, init=False, repr=False)
    inward = False

    def warm_start(self) -> lp.Start:
        """The W start of kappa's final basis; lp.Start.carried checks it, once."""
        if self._start is None:
            kappa = self.kappa
            c, A = self.program.c, self.program.A
            # drop the virtual and b columns, the last two; every other column is W's
            basis, inverse, tableau = kappa.basis, kappa.basis_inverse, kappa._tableau[:, :-2]
            rows = np.flatnonzero(basis == len(c))
            if rows.size:
                basis, inverse, tableau = basis.copy(), inverse.copy(), tableau.copy()
                # the arc x -> y, whose column is the virtual one's negative
                basis[rows] = np.flatnonzero((A == -kappa.start.A[:, -1, None]).all(axis=0))
                # 0.0 - v, not -v: a zero entry must not become -0.0
                inverse[rows] = 0.0 - inverse[rows]
                tableau[rows] = 0.0 - tableau[rows]
            self._start = lp.Start.carried(c, A, basis, inverse, tableau)
        return self._start


def _check_probability(nu: np.ndarray, n: int, name: str) -> np.ndarray:
    """nu as a float array; MarginalMismatchError unless it is a probability vector on n vertices.

    A valid measure passes in one pass: a NaN fails the min, and an inf
    fails the min or the mass.  Anything else goes through the checks
    in order, so the first rule it breaks names the error.
    """
    nu = np.asarray(nu, dtype=float)
    if nu.shape == (n,) and nu.min(initial=0.0) >= 0 and abs(nu.sum() - 1.0) <= MASS_TOL:
        return nu
    if nu.shape != (n,):
        raise MarginalMismatchError(f"{name} must have length {n}")
    if not np.isfinite(nu).all():
        raise MarginalMismatchError(f"{name} has a non-finite entry")
    if nu.min(initial=0.0) < 0:
        raise MarginalMismatchError(f"{name} has a negative entry")
    if abs(nu.sum() - 1.0) > MASS_TOL:
        raise MarginalMismatchError(f"{name} has mass {nu.sum():.17g}, expected 1")
    return nu


def _incidence(n: int, arcs: np.ndarray) -> np.ndarray:
    """The n x len(arcs) incidence: +1 at the tail, -1 at the head of each arc."""
    A = np.zeros((n, len(arcs)))
    k = np.arange(len(arcs))
    A[arcs[:, 0], k] = 1.0
    A[arcs[:, 1], k] = -1.0
    return A


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
    # every ordered pair, row-major: the star 0 -> w comes first
    pairs = np.argwhere(~np.eye(n, dtype=bool))
    A = _incidence(n, pairs)[1:]
    start = lp.Start.from_basis(d[pairs[:, 0], pairs[:, 1]], A, np.arange(n - 1), -np.eye(n - 1))
    solution = lp.solve_lp(start, (nu0 - nu1)[1:])
    f = np.concatenate([[0.0], 0.0 - solution.duals])
    return float(solution.value), f


class RootBasis(NamedTuple):
    """The start of every arc-flow program rooted at r, built once.

    The program's A is the n x |A| arc incidence (+1 at the tail, -1 at
    the head of each arc) with the row of r dropped, leaving one row per
    other vertex in vertex order; vertices[i] is the vertex of row i.
    Every arc costs 1.  start.basis[i] is the tree arc basic in row i.
    In the out-tree of r it is the first arc z -> w with
    d(r, z) = d(r, w) - 1 into the vertex w of that row, and
    start.inverse, B^-1 for B = A[:, start.basis], is the tree's path
    matrix: its column for w is -1 on the rows of the tree arcs on the
    path r -> w, 0 elsewhere.  In the in-tree of r it is the first arc
    w -> z with d(z, r) = d(w, r) - 1 out of w, and the column of B^-1
    for w is +1 on the rows of the tree arcs on the path w -> r.  Every
    array of the record is read-only.  This record is the one place
    that knows the program's rows: solve maps a balance onto them, and
    potential reads the duals back as a vertex function.
    """

    start: lp.Start
    vertices: np.ndarray

    def solve(self, balance: np.ndarray, start: lp.Start | None = None) -> lp.LpSolution:
        """The optimal flow of balance, one entry per vertex (r's is dropped).

        start is a start of this program, or of it with added columns;
        by default the tree's own.  lp.solve_lp raises LpFailureError
        if the solve ends without an optimum.
        """
        return lp.solve_lp(self.start if start is None else start, balance[self.vertices])

    def potential(self, solution: lp.LpSolution, arcs: np.ndarray) -> np.ndarray:
        """The potential f = -(row duals) of solution, with f(r) = 0.

        Every basis is a spanning tree (plus a curvature program's
        virtual arc) and every cost an integer, so f is an integer
        vector (Ahuja, Magnanti & Orlin, ch. 11); a dual with
        f(head) - f(tail) <= 1 on every arc of arcs is 1-Lipschitz for
        the hop metric.  Both are checked exactly: NumericsError unless
        f is integral and no arc is stretched.
        """
        f = np.zeros(len(self.vertices) + 1)
        # 0.0 - v, not -v: a zero dual must not become -0.0
        f[self.vertices] = 0.0 - solution.duals
        if not (f == f.round()).all():
            raise NumericsError(f"flow potential has a non-integral entry {f[f != f.round()][0]!r}")
        stretch = (f[arcs[:, 1]] - f[arcs[:, 0]]).max(initial=0.0)
        if stretch > 1.0:
            raise NumericsError(f"flow potential stretches an arc to {stretch:.17g}")
        return f


def root_basis(dm: DistanceMatrix, r: int, inward: bool = False) -> RootBasis:
    """The arc-flow start of root r, built and checked on first use and kept on dm.

    inward=False gives the BFS out-tree of r, inward=True its BFS
    in-tree.  One builder makes both on the forward arcs: an arc's near
    end is its tail in the out-tree and its head in the in-tree, its far
    end the other, and the depth is d(r, .) or d(., r).  The tree holds
    the first arc into each far end one level deeper than its near end,
    and B^-1, walked down the tree in order of depth, puts -1 (out-tree)
    or +1 (in-tree) on the rows of the tree path.  NumericsError unless
    B^-1 B is exactly I.  Every W solve from that tree and every
    curvature program of a pair (r, y), which uses the out-tree, starts
    from it; the record lives as long as dm.
    """
    key = (r, inward)
    basis = dm._root_bases.get(key)
    if basis is None:
        arcs = dm.arcs
        n = len(dm.d)
        if inward:
            near, far, depth, sign = arcs[:, 1], arcs[:, 0], dm.d[:, r], 1.0
        else:
            near, far, depth, sign = arcs[:, 0], arcs[:, 1], dm.d[r], -1.0
        tree = np.flatnonzero(depth[near] == depth[far] - 1)
        # far ends of the tree arcs cover every w != r; keep the first arc per far end
        _far, first = np.unique(far[tree], return_index=True)
        tree = tree[first]
        vertices = np.flatnonzero(np.arange(n) != r)
        row = np.arange(n) - (np.arange(n) > r)  # the row of vertex v once r's is dropped
        inverse = np.zeros((n - 1, n - 1))
        # in BFS order, the path of w is the path of its tree parent plus w's own arc
        for w in np.argsort(depth, kind="stable")[1:]:
            parent = near[tree[row[w]]]
            if parent != r:
                inverse[:, row[w]] = inverse[:, row[parent]]
            inverse[row[w], row[w]] = sign
        A = _incidence(n, arcs)[vertices]
        if not np.array_equal(inverse @ A[:, tree], np.eye(n - 1)):
            raise NumericsError(f"the tree path matrix of root {r} does not invert its basis")
        start = lp.Start.from_basis(np.ones(len(arcs)), A, tree, inverse)
        basis = RootBasis(start=start, vertices=vertices)
        for a in (*vars(start).values(), vertices):
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


def wasserstein(
    nu0: np.ndarray,
    nu1: np.ndarray,
    dm: DistanceMatrix,
    verify: bool = True,
    start: TransportPlan | ArcStart | None = None,
) -> TransportPlan:
    """Directed transport distance between two probability vectors.

    Solves the arc-flow program once, by a dual simplex.  Without start
    it starts from root_basis's start of the BFS in-tree of the largest
    deficit or the out-tree of the largest excess of nu0 - nu1,
    whichever is larger (the out-tree on a tie; see the module
    docstring), with the row of that tree's root r dropped.  start is a
    plan this function returned for other measures on the same dm, or
    the ArcStart kappa_lp kept on dm for an arc: the solve keeps its
    root r and tree direction and starts from its warm_start (the
    plan's final basis and tableau, lp.LpSolution.warm_start, or
    kappa's, each checked once, when it is formed, as root_basis checks
    a tree).  ValueError if start was solved on another DistanceMatrix,
    whose program is another one.  verify=True also reads the potential off that solve
    (RootBasis.potential, which raises NumericsError unless it is
    integral and f(w) - f(z) <= 1 on every arc, both exactly), shifted
    to f(0) = 0, and raises NumericsError unless
    |W - f.(nu1 - nu0)| <= lp.GAP_TOL, the one check where rounding
    enters; it then splits the flow, which lives on a tree and so is
    acyclic, into the coupling pi.  Fast mode, for the inner loops that
    call this often, returns the value alone, and forms its residual
    only when it is read.
    """
    n = dm.d.shape[0]
    nu0 = _check_probability(nu0, n, "nu0")
    nu1 = _check_probability(nu1, n, "nu1")
    arcs = dm.arcs
    excess = nu0 - nu1
    if start is None:
        r, inward = _start_tree(excess)
        tree = root_basis(dm, r, inward)
        solution = tree.solve(excess)
    else:
        r, inward = start.root, start.inward
        tree = dm._root_bases.get((r, inward))
        warm = start.warm_start()
        if tree is None or tree.start.A is not warm.A:
            raise ValueError("start is a plan solved on another DistanceMatrix")
        solution = tree.solve(excess, warm)
    value = float(solution.value)
    if not verify:
        return TransportPlan(
            value, root=r, inward=inward, flow=solution, _excess=excess, _arcs=arcs
        )

    f = tree.potential(solution, arcs)
    f = f - f[0]
    gap = abs(value - float(f @ (nu1 - nu0)))
    if gap > lp.GAP_TOL:
        raise NumericsError(f"transport duality gap {gap:.3e} exceeds {lp.GAP_TOL:.1e}")
    pi = _flow_to_coupling(arcs, solution.x, nu0, nu1)
    marginal_residual = max(
        float(np.abs(pi.sum(axis=1) - nu0).max()),
        float(np.abs(pi.sum(axis=0) - nu1).max()),
    )
    return TransportPlan(
        value=value,
        pi=pi,
        dual_f=f,
        duality_gap=gap,
        root=r,
        inward=inward,
        flow=solution,
        _pi_residual=marginal_residual,
    )
