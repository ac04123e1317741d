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
module's dual flows from x add their virtual columns to the out-tree
start of x, a row of them at once (lp.Start.with_columns).

A solve may start from another solve's final basis instead.  The
program's cost and incidence depend on the graph and r alone, so the
optimal tree of one pair of measures stays dual feasible for any other
pair on the same root, and the solve's final tableau is already that
tree's start (lp.LpSolution.warm_start).  A solve that took no pivot,
as most along a chain do, ended on its own start, which is handed on
unchanged; otherwise the final rows are carried into the next solve as
they stand, and only the inverse is formed, one m x m product off the
final tableau, and checked with them.  The heat module solves each arc
along increasing t, and the curvature module each pair along
increasing smoothing, each solve from the previous optimum: the
measures move little, and at small t the optimal tree mostly stops
changing.  The first heat-flow solve of an arc x -> y starts from the
arc's curvature optimum instead, when kappa_lp has solved it on the
same DistanceMatrix (ArcStart): as t -> 0,
p_x_t - p_y_t = (delta_x - delta_y) + t (L[y] - L[x]) + O(t^2), and
the curvature program is that first-order problem, so its optimal
basis, with the virtual arc y -> x swapped for x -> y, is optimal for
W at t -> 0 and usually still at the first t.  The start belongs to
the DistanceMatrix kappa_lp solved on, and one of another is refused.
Without it the chain starts from the BFS tree above.

Those chains are wasserstein's table form: given nu0 and nu1 of shape
(k, a, n), fast mode only, it solves column j as a chain of k measure
pairs, the first from start[j] (an ArcStart, or None for the column's
own BFS tree) and each later one from the previous pair's optimum.
Both stacks are checked once, the excess is formed once and gathered
onto each column's rows once, and a step hands its
LpSolution.warm_start() on; a column's last step forms no start.  The
heat module's time grids over the arcs, the curvature module's eps
grid and the concentration module's densities (cold columns of one
pair) are one table each.  A single pair is verify mode only, solved
by the same loop as a table of one pair, and reads its potential and
coupling off that solve.  The table is a form of wasserstein rather
than a function of its own so that every W solve runs under
wasserstein, called by the certificate that needs it: a tracer that
attributes each LP solve to the caller of wasserstein sees the same
solves under the same callers, one wasserstein call per table.

The row duals of the final basis are a Kantorovich potential f with
f(w) - f(z) <= 1 on every arc; summing along geodesics, that is
f(w) - f(z) <= d(z, w) on every ordered pair, so one solve yields both
sides of the duality and certifies each distance computed in verify
mode.  The basis is a spanning tree and every cost an integer, so f
is an integer vector, and RootBasis.potentials checks integrality and
the arc rows exactly; the curvature module reads its witnesses the
same way, a row of solves' duals as one product.  kantorovich_dual
keeps every ordered pair instead (one flow column per pair, started
from the star of pairs 0 -> w); it is the reference the tests pin the
flow potential to.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
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
    """Optimal transport of one pair of measures with its certificate (wasserstein's verify mode).

    pi is a coupling split from the optimal flow, dual_f the Kantorovich
    potential read off the same solve, duality_gap |W - f.(nu1 - nu0)|
    and marginal_residual the largest error in the marginals of pi.
    """

    value: float
    pi: np.ndarray
    dual_f: np.ndarray
    duality_gap: float
    marginal_residual: float


@dataclass(frozen=True, eq=False)
class TransportTable:
    """W over a table of measure pairs, wasserstein's table form (fast mode).

    values[i, j] is W of pair i of column j.  marginal_residual is the
    largest flow-balance error over every solve of the table, every
    vertex's outflow - inflow against its excess, formed on first read
    from the excess and the flows the table keeps, so a caller that
    reads only the values pays for none of it.  The table keeps no
    solve itself: a column of one pair per density would hold a final
    tableau per density.
    """

    values: np.ndarray
    _excess: np.ndarray = field(repr=False)
    # every solve's flow, column by column
    _x: list = field(repr=False)
    _arcs: np.ndarray = field(repr=False)

    @cached_property
    def marginal_residual(self) -> float:
        """The largest error in any vertex's flow balance, over every pair of the table."""
        n = self._excess.shape[-1]
        excess = self._excess.transpose(1, 0, 2).reshape(-1, n)
        flows = np.array(self._x).reshape(len(excess), len(self._arcs))
        return _balance_residual(flows, excess, self._arcs)


@dataclass(eq=False)
class ArcStart:
    """kappa_lp's optimum of an arc x -> y, kept as the start of the arc's W chains.

    The curvature program of the arc (root x, head y) is the arc-flow
    program of root x (program, root_basis's out-tree start of x) plus
    the virtual arc y -> x, whose column is +1 in the row of y at cost
    -1; the arc x -> y is -1 there at cost +1.  So when the virtual
    column is basic in kappa's final basis B_f, in row i say, swapping
    it for x -> y multiplies B_f by the sign flip of row i: B^-1 and the
    tableau rows [B^-1 A] get row i negated, the duals c_B B^-1 stay,
    and with them every reduced cost.  The swapped basis is dual
    feasible for W, and it is the optimum of W(delta_x, delta_y), the
    limit t -> 0 of the heat-flow W of the arc, whose first-order term
    is kappa's own right-hand side.  When the virtual column is
    nonbasic, B_f is a basis of W already and stays as it is.  The
    record keeps kappa's final basis and final tableau alone, not the
    solve and its start, which share one stack with the other programs
    of x's row.  warm_start forms the W start on first use in one step,
    off that basis, its inverse (B_f^-1 B_0) B_0^-1 and the final
    tableau without the virtual and b columns, checks it once
    (lp.Start.carried) and keeps it; kappa_lp pays for none of it.  A
    column of wasserstein's table form starts from it on root x's
    out-tree.
    """

    root: int
    head: int
    basis: np.ndarray = field(repr=False)
    tableau: np.ndarray = field(repr=False)
    program: lp.Start = field(repr=False)
    _start: lp.Start | None = field(default=None, init=False, repr=False)

    def warm_start(self) -> lp.Start:
        """The W start of kappa's final basis; lp.Start.carried checks it, once."""
        if self._start is None:
            program, basis = self.program, self.basis
            # B_f^-1 off the final rows' start-basis columns, as lp.LpSolution.basis_inverse
            inverse = self.tableau[:-1, program.basis] @ program.inverse
            # drop the virtual and b columns, the last two; every other column is W's
            tableau = self.tableau[:, :-2]
            rows = np.flatnonzero(basis == len(program.c))
            if rows.size:
                basis, tableau = basis.copy(), tableau.copy()
                # the arc x -> y: -1 in the row of y (x's row is dropped), 0 elsewhere
                arc = np.zeros(len(program.A))
                arc[self.head - (self.head > self.root)] = -1.0
                basis[rows] = np.flatnonzero((program.A == arc[:, None]).all(axis=0))
                # 0.0 - v, not -v: a zero entry must not become -0.0
                inverse[rows] = 0.0 - inverse[rows]
                tableau[rows] = 0.0 - tableau[rows]
            self._start = lp.Start.carried(program.c, program.A, basis, inverse, tableau)
        return self._start


def _check_probability(nu: np.ndarray, n: int, name: str, lead: tuple = ()) -> np.ndarray:
    """nu as a float array of shape lead + (n,); MarginalMismatchError unless each row is a
    probability vector on n vertices.

    A valid measure or stack passes in one pass: a NaN fails the min,
    and an inf fails the min or a mass.  Anything else goes through the
    checks in order, row by row (one measure is the one row of lead =
    ()), so the first rule that the first bad row breaks names the
    error, and a stack row's index names the row.
    """
    nu = np.asarray(nu, dtype=float)
    shape = (*lead, n)
    if nu.shape == shape and nu.min(initial=0.0) >= 0 and (
        abs(nu.sum(axis=-1) - 1.0) <= MASS_TOL
    ).all():
        return nu
    if nu.shape != shape:
        raise MarginalMismatchError(
            f"{name} must have shape {shape}" if lead else f"{name} must have length {n}"
        )
    for index in np.ndindex(lead):
        row, label = nu[index], f"{name}[{', '.join(map(str, index))}]" if lead else name
        if not np.isfinite(row).all():
            raise MarginalMismatchError(f"{label} has a non-finite entry")
        if row.min(initial=0.0) < 0:
            raise MarginalMismatchError(f"{label} has a negative entry")
        if abs(row.sum() - 1.0) > MASS_TOL:
            raise MarginalMismatchError(f"{label} has mass {row.sum():.17g}, expected 1")
    return nu


def _balance_residual(flows: np.ndarray, excess: np.ndarray, arcs: np.ndarray) -> float:
    """The largest error of any vertex's balance, outflow - inflow against excess, over the rows.

    Row i of flows is a flow over arcs for the balance in row i of
    excess; every vertex counts, the root's too, whose row the solve
    dropped.  Each end of the arcs is one bincount over all rows, whose
    bins gather in arc order, so each row has the bits of a bincount of
    its own.
    """
    rows, n = excess.shape
    offsets = n * np.arange(rows)[:, None]

    def through(ends: np.ndarray) -> np.ndarray:
        return np.bincount((ends + offsets).ravel(), flows.ravel(), rows * n).reshape(rows, n)

    balance = through(arcs[:, 0]) - through(arcs[:, 1])
    return float(np.abs(balance - excess).max(initial=0.0))


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
    array of the record is read-only.  The record holds the program's
    rows: solve maps a balance onto them (wasserstein's table form maps
    a whole column's balances at once, through vertices), and potentials
    reads the duals back as a vertex function.
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

    def potentials(self, solutions: Sequence[lp.LpSolution]) -> np.ndarray:
        """The potentials f = -(row duals) of solutions, one row each, with f(r) = 0.

        Each solution began on this tree's basis B_0 and inverse: from
        its start, or from the start plus columns that are not basic in
        it (lp.Start.with_columns).  So its duals y = c_B B_f^-1 are
        (c[b0] - its final cost row at b0) B_0^-1, as
        lp.LpSolution.duals forms them, and the duals of all of them
        are one product.  Every basis is a spanning tree (plus a
        curvature program's virtual arc) and every cost an integer, so
        each f is an integer vector (Ahuja, Magnanti & Orlin, ch. 11); a
        dual with f(head) - f(tail) <= 1 on every arc is 1-Lipschitz for
        the hop metric.  Both are checked exactly, over the stack at
        once: NumericsError unless every f is integral and none
        stretches an arc.  y A is f(head) - f(tail) on every arc, as
        the incidence A is +1 at the tail and -1 at the head, and an
        arc at r loses nothing with r's row, as f(r) = 0.
        """
        start = self.start
        b0 = start.basis
        costs = np.array([solution._tableau[-1] for solution in solutions])[:, b0]
        duals = (start.c[b0] - costs) @ start.inverse
        f = np.zeros((len(solutions), len(self.vertices) + 1))
        # 0.0 - v, not -v: a zero dual must not become -0.0
        f[:, self.vertices] = 0.0 - duals
        if not (f == f.round()).all():
            raise NumericsError(f"flow potential has a non-integral entry {f[f != f.round()][0]!r}")
        stretch = (duals @ start.A).max()
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
        inverse = np.zeros((n - 1, n - 1))
        # the tree parent of the vertex of each row, walked as Python ints
        parents = near[tree].tolist()
        # in BFS order, the path of w is the path of its tree parent plus w's own arc;
        # vertex v's row is v - (v > r) once r's is dropped
        for w in np.argsort(depth, kind="stable")[1:].tolist():
            i = w - (w > r)
            parent = parents[i]
            if parent != r:
                inverse[:, i] = inverse[:, parent - (parent > r)]
            inverse[i, i] = sign
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


def _start_trees(excess: np.ndarray) -> list[tuple[int, bool]]:
    """The root and direction of the BFS tree each W solve starts from, one per row of excess.

    The in-tree of the vertex of largest deficit when that deficit
    exceeds the largest excess, otherwise (ties included, so point
    masses too) the out-tree of the vertex of largest excess.  Every
    row is decided in the same few array operations.
    """
    rows = np.arange(len(excess))
    r = excess.argmax(axis=1)
    s = excess.argmin(axis=1)
    inward = -excess[rows, s] > excess[rows, r]
    return list(zip(np.where(inward, s, r).tolist(), inward.tolist()))


def _warm_tree(dm: DistanceMatrix, start: ArcStart) -> tuple[RootBasis, lp.Start]:
    """The out-tree of start's root on dm, and start's warm start.

    ValueError if start was solved on another DistanceMatrix, whose
    program is another one.
    """
    tree = dm._root_bases.get((start.root, False))
    warm = start.warm_start()
    if tree is None or tree.start.A is not warm.A:
        raise ValueError("start is an arc's curvature optimum on another DistanceMatrix")
    return tree, warm


def _chains(
    excess: np.ndarray, dm: DistanceMatrix, starts: Sequence[ArcStart | None]
) -> Iterator[tuple[RootBasis, lp.LpSolution]]:
    """Each solve of a table, column by column: its tree and its optimum.

    excess has shape (k, a, n).  Column j is a warm chain of k solves,
    the first from starts[j] (the BFS tree of _start_trees when None)
    and each later one from the previous solve's optimum.
    """
    for column, first, cold in zip(excess.transpose(1, 0, 2), starts, _start_trees(excess[0])):
        if first is None:
            tree = root_basis(dm, *cold)
            warm = tree.start
        else:
            tree, warm = _warm_tree(dm, first)
        solution = None
        for b in column[:, tree.vertices]:
            if solution is not None:
                warm = solution.warm_start()
            solution = lp.solve_lp(warm, b)
            yield tree, solution


def _table(
    nu0: np.ndarray,
    nu1: np.ndarray,
    dm: DistanceMatrix,
    start: Sequence[ArcStart | None] | None,
) -> TransportTable:
    """wasserstein's table form: column j is a warm chain of pairs from start[j]."""
    n = dm.d.shape[0]
    lead = np.shape(nu0)[:2]
    nu0 = _check_probability(nu0, n, "nu0", lead)
    nu1 = _check_probability(nu1, n, "nu1", lead)
    k, a = lead
    if not k:
        raise MarginalMismatchError("a table needs at least one pair of measures per column")
    starts = (None,) * a if start is None else tuple(start)
    if len(starts) != a:
        raise ValueError(f"a table of {a} columns takes {a} starts, got {len(starts)}")
    excess = nu0 - nu1
    solutions = [solution for _tree, solution in _chains(excess, dm, starts)]
    return TransportTable(
        values=np.array([s.value for s in solutions]).reshape(a, k).T,
        _excess=excess,
        _x=[s.x for s in solutions],
        _arcs=dm.arcs,
    )


def wasserstein(
    nu0: np.ndarray,
    nu1: np.ndarray,
    dm: DistanceMatrix,
    verify: bool = True,
    start: Sequence[ArcStart | None] | None = None,
) -> TransportPlan | TransportTable:
    """Directed transport distance between two probability vectors, or over a table of pairs.

    A single pair is verify mode only: ValueError with verify=False or
    a start, which belong to the table form.  It is solved as a table
    of one pair, from root_basis's start of the BFS in-tree of the
    largest deficit or the out-tree of the largest excess of
    nu0 - nu1, whichever is larger (the out-tree on a tie; see the
    module docstring), with the row of that tree's root dropped.  The
    potential is read off that solve (RootBasis.potentials, which
    raises NumericsError unless it is integral and f(w) - f(z) <= 1 on
    every arc, both exactly), shifted to f(0) = 0, and NumericsError
    unless |W - f.(nu1 - nu0)| <= lp.GAP_TOL, the one check where
    rounding enters; the flow, which lives on a tree and so is
    acyclic, is then split into the coupling pi.

    The table form, fast mode only (ValueError with verify=True), takes
    nu0 and nu1 of shape (k, a, n), k >= 1, and start as None or one
    start per column, each the ArcStart kappa_lp kept on dm for an arc
    or None.  Column j is a chain: pair 0 solves from start[j] (its
    warm_start on the out-tree of its root, checked once when it is
    formed) or, for None, from the BFS tree a single pair would take,
    and pair i from pair i - 1's optimal basis.  ValueError if a start
    was solved on another DistanceMatrix, whose program is another
    one.  Each row of both stacks is checked as a single measure is,
    once per table; the error names the first bad row, nu0[i, j] say.
    It returns a TransportTable: values of shape (k, a) and the
    residual over every solve.
    """
    if np.ndim(nu0) == 3:
        if verify:
            raise ValueError("the table form of wasserstein is fast mode only")
        return _table(nu0, nu1, dm, start)
    if not verify or start is not None:
        raise ValueError(
            "a single pair is verify mode only, without a start: "
            "solve pairs in fast mode as a table of shape (k, a, n)"
        )
    n = dm.d.shape[0]
    nu0 = _check_probability(nu0, n, "nu0")
    nu1 = _check_probability(nu1, n, "nu1")
    ((tree, solution),) = _chains((nu0 - nu1)[None, None], dm, (None,))
    value = float(solution.value)
    f = tree.potentials([solution])[0]
    f = f - f[0]
    gap = abs(value - float(f @ (nu1 - nu0)))
    if gap > lp.GAP_TOL:
        raise NumericsError(f"transport duality gap {gap:.3e} exceeds {lp.GAP_TOL:.1e}")
    pi = _flow_to_coupling(dm.arcs, solution.x, nu0, nu1)
    marginal_residual = max(
        float(np.abs(pi.sum(axis=1) - nu0).max()),
        float(np.abs(pi.sum(axis=0) - nu1).max()),
    )
    return TransportPlan(value, pi, f, gap, marginal_residual)
