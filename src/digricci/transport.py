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
c 1), checks it once (lp.Start.carried) and keeps it on the
DistanceMatrix, with the vertex of each row.  A spanning tree's
inverse incidence is its path matrix, so B^-1 comes from one walk down
the tree, with no factorisation, and B^-1 A is the path column of each
arc's tail minus that of its head: the tableau is exact path
differences, formed with no product.  A solve from the tree then only
forms B^-1 b, and its right-hand side, potential and coupling are
indexed through the row vertices.  The curvature program of a pair
(x, y) is this program too, root x's, for the excess of a push of
Lambda from x to y beside the first-order term of the heat flow (see
the curvature module), so it solves from the out-tree start of x as
it stands.

A solve may start from another solve's final basis instead.  The
program's cost and incidence depend on the graph and r alone, so the
optimal tree of one pair of measures stays dual feasible for any other
pair on the same root, and the solve's final rows are already that
tree's start (lp.LpSolution.warm_start).  A solve that took no pivot,
as most along a chain do, ended on its own start, which is handed on
unchanged; otherwise the final rows are carried into the next solve as
they stand, and only the inverse is formed, one m x m product off the
final rows, and checked with them (lp.Start.from_final).  The heat
module solves each arc along increasing t, each solve from the
previous optimum: the measures move little, and at small t the optimal
tree mostly stops changing.

The first solve of a column may start from a final basis of an earlier
solve too, kept as a ColumnStart: the root and direction of the tree
whose program it solved, a start of that program, the final basis and
the final rows.  Its start is lp.Start.from_final of those, the route
of every warm start, formed when a table first reads it and kept, so a
record nobody reads costs no product and no check.  Its basis is dual
feasible for every right-hand side of the tree's program, so any
measures solve from it to their optimum; when they are the measures
that basis ended on, it is already optimal and the solve is one B^-1 b
and a sign test, with no pivot.  A table makes one of each column's
last solve as it runs (TransportTable.column_starts): the heat
module's contraction table starts each arc from the small-time limit
table's last optimum of it, at the same time, and the concentration
module's transport checks ask the same densities five times over and
start every check after the first from the first one's optima.  The
first heat-flow solve of an arc x -> y may start from the arc's
curvature optimum instead, the ColumnStart that kappa_lp makes of it:
as t -> 0, p_x_t - p_y_t = t [(L[y] - L[x]) + (1/t) (delta_x - delta_y)]
+ O(t^2), and the curvature program is that problem with Lambda in the
role of 1/t, solved on root x's out-tree program, so its optimal basis
is a basis of the arc's W as it stands, optimal at t -> 0 and usually
still at the first t.  kappa_lp makes its record as a table makes one
of a column's last solve.  A ColumnStart belongs to the
DistanceMatrix it was solved on, and one of another is refused;
without one a column starts from the BFS tree above.

Those chains are wasserstein's table form: given nu0 and nu1 of shape
(k, a, n), fast mode only, it solves column j as a chain of k measure
pairs, the first from the start of the column's record (a ColumnStart,
or None for the column's own BFS tree) and each later one from the
previous pair's optimum.  The table reads the records one per column, as
the column begins, checks that the record belongs to its DistanceMatrix
before it reads the start, and holds it only until the column's first
solve: records handed over (handed_over), as analyze hands the
contraction table the limit table's, die one column at a time.  Both
stacks are checked once, the excess is formed once and gathered onto
each column's rows once, and a step hands its LpSolution.warm_start()
on.  The table takes the solves as the chains make them and keeps of
each its value and flow; of the LpSolutions, which hold their final
rows, it keeps only each row's first largest W, and of each column's
last solve its ColumnStart, so at most k + 2 solves are alive while it
runs.  The heat module's time grids over the arcs, the curvature
module's smoothing row (a column of one pair per target) and the
concentration module's densities (columns of one pair) are one table
each.  A single pair is verify mode only, solved by the same loop as a
table of one pair, and reads its potential and coupling off that solve.
The table is a form of wasserstein rather than a function of its own so
that every W solve runs under wasserstein, called by the certificate
that needs it: a tracer that attributes each LP solve to the caller of
wasserstein sees the same solves under the same callers, one
wasserstein call per table.

The row duals of the final basis are a Kantorovich potential f with
f(w) - f(z) <= 1 on every arc; summing along geodesics, that is
f(w) - f(z) <= d(z, w) on every ordered pair, so one solve yields both
sides of the duality and certifies each distance computed in verify
mode.  The basis is a spanning tree and every cost an integer, so f
is an integer vector, and RootBasis.potentials checks integrality and
the arc rows exactly, off the final cost rows of a stack of solves;
the curvature module reads its witnesses the same way, a row of
solves' duals as one product, and a table reads the potential of each
row's largest W on demand
(TransportTable.potentials).  kantorovich_dual keeps every ordered
pair instead (one flow column per pair, started from the star of pairs
0 -> w); it is the reference the tests pin the flow potential to.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sized
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
    reads only the values pays for none of it.  Of its solves the table
    keeps, and while it is built holds no other but the one that starts
    the next solve, per row the first of the row's largest W, with its
    tree.  potentials, formed on first read, is each of those solves'
    Kantorovich potential f*, read by RootBasis.potentials with its
    exact checks (integral, no arc stretched), f*(r) = 0 at its tree's
    root r: f*.(nu1 - nu0) is the row's largest W.  A table of no
    column has no solve to read.  column_starts holds each column's
    last optimum as a ColumnStart, made as the column ends, the start
    of its column in a later table.  The heat module's small-time limit
    returns its column_starts to its caller, which may hand them to the
    contraction table (analyze drops them once that table has
    returned); the concentration module keeps the column_starts of its
    density table.
    """

    values: np.ndarray
    column_starts: list[ColumnStart] = field(repr=False)
    _excess: np.ndarray = field(repr=False)
    # every solve's flow, column by column
    _x: list = field(repr=False)
    _arcs: np.ndarray = field(repr=False)
    # (tree, solve) of each row's largest W, the first of equal ones
    _binding: list = field(repr=False)

    @cached_property
    def marginal_residual(self) -> float:
        """The largest error in any vertex's flow balance, over every pair of the table."""
        n = self._excess.shape[-1]
        excess = self._excess.transpose(1, 0, 2).reshape(-1, n)
        flows = np.array(self._x).reshape(len(excess), len(self._arcs))
        return _balance_residual(flows, excess, self._arcs)

    @cached_property
    def potentials(self) -> np.ndarray:
        """f* of each row, shape (k, n): the potential of its largest W, f*(r) = 0 at its root."""
        return np.array([tree.potentials(solve.rows[-1:])[0] for tree, solve in self._binding])


@dataclass(frozen=True, eq=False)
class ColumnStart:
    """A final basis of a W program, kept as the first start of a column of a later table.

    root and inward name the BFS tree of the program (root_basis(dm,
    root, inward)), program is a start of its c and A, and basis and
    rows are the final basis and its rows [B_f^-1 A ; c - c_B B_f^-1 A].
    A table makes one of each column's last solve (its start, final
    basis and final rows), and kappa_lp one of each arc's optimum the
    same way, on root x's out-tree program, of which the curvature
    program of the arc is an instance.  start is lp.Start.from_final of
    the three, the route of every warm start: formed on first read and
    kept, so a record that no table reads costs no product and no
    check, and a record whose rows are its program's tableau (a last
    solve that took no pivot) hands that program on.  The program of a
    tree does not depend on the measures, so the basis is dual feasible
    for any pair: a column started from it solves every pair to its
    optimum, and the pair it ended on with no pivot.
    """

    root: int
    inward: bool
    program: lp.Start = field(repr=False)
    basis: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)

    @cached_property
    def start(self) -> lp.Start:
        """The W start of the final basis: program itself, or one lp.Start.carried checks once."""
        return lp.Start.from_final(self.program, self.basis, self.rows)


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


def kantorovich_dual(
    nu0: np.ndarray, nu1: np.ndarray, dm: DistanceMatrix
) -> tuple[float, np.ndarray]:
    """All-pairs oracle: max sum f (nu1 - nu0) with f(w)-f(z) <= d(z,w).

    Solved through its LP dual, a min-cost flow with one column of cost
    d(z, w) per ordered pair z -> w and the balance row of vertex 0
    dropped; lp.incidence builds its A.  The start basis is the star of
    pairs 0 -> w: B = -I, whose inverse Start.from_basis forms, and its
    potential d(0, .) prices z -> w at
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
    A = lp.incidence(n, pairs)[1:]
    start = lp.Start.from_basis(d[pairs[:, 0], pairs[:, 1]], A, np.arange(n - 1))
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

        start is a start of this program, by default the tree's own.
        lp.solve_lp raises LpFailureError if the solve ends without an
        optimum.
        """
        return lp.solve_lp(self.start if start is None else start, balance[self.vertices])

    def potentials(self, costs: np.ndarray) -> np.ndarray:
        """The potentials f = -(row duals), f(r) = 0, of solves off their final cost rows.

        costs stacks the final cost rows (lp.LpSolution.rows[-1]) of
        solves of this tree's program, from whatever start: the tree's
        own, a warm start carried off another solve of the program, or
        an arc's curvature optimum.  A final cost row is c - y A for its
        solve's duals y = c_B B_f^-1 whatever the start, so on this
        tree's basis B_0 it is c[b0] - y B_0: y is (c[b0] - that row at
        b0) B_0^-1, as lp.LpSolution.duals forms it off its own start,
        and the duals of all of them are one product.  Every basis is a
        spanning tree and every cost an integer, so each f is an
        integer vector (Ahuja, Magnanti
        & Orlin, ch. 11); a dual with f(head) - f(tail) <= 1 on every
        arc is 1-Lipschitz for the hop metric.  Both are checked
        exactly, over the stack at once: NumericsError unless every f is
        integral and none stretches an arc.  y A is f(head) - f(tail) on
        every arc, as the incidence A is +1 at the tail and -1 at the
        head, and an arc at r loses nothing with r's row, as f(r) = 0.
        """
        start = self.start
        b0 = start.basis
        duals = (start.c[b0] - costs[:, b0]) @ start.inverse
        f = np.zeros((len(costs), len(self.vertices) + 1))
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
    the first arc into each far end one level deeper than its near end.
    Walked down the tree in order of depth, the path of a vertex is its
    parent's plus its own arc, and -1 (out-tree) or +1 (in-tree) on the
    rows of that path is its column of B^-1, zero for r.  A's column of
    an arc is the unit row of its tail minus that of its head, so B^-1
    A's is the B^-1 column of its tail minus that of its head: A and
    B^-1 A are one difference of two column gathers, every entry -1, 0
    or 1, formed exactly with no product.  Every cost is 1, so a reduced
    cost is 1 minus a column sum of B^-1 A.  The start is built through
    lp.Start.carried's check, like every start: NumericsError unless
    B^-1 B is exactly I (the tree's
    columns of B^-1 A are the same path-matrix columns, so they are I
    too) and no reduced cost is negative, which a BFS tree's never is.
    Every W solve from that tree and every curvature program of a pair
    (r, y), a W program of the out-tree, starts from it; the record
    lives as long as dm.
    """
    key = (r, inward)
    basis = dm._root_bases.get(key)
    if basis is None:
        arcs = dm.arcs
        n = len(dm.d)
        m = n - 1
        if inward:
            near, far, depth, sign = arcs[:, 1], arcs[:, 0], dm.d[:, r], 1.0
        else:
            near, far, depth, sign = arcs[:, 0], arcs[:, 1], dm.d[r], -1.0
        down = (depth[near] == depth[far] - 1).nonzero()[0]
        # the first arc down into each far end, with its near end, as Python ints
        into: dict[int, tuple[int, int]] = {}
        for k, z, w in zip(down.tolist(), near[down].tolist(), far[down].tolist()):
            into.setdefault(w, (k, z))
        # the vertex of each row: every vertex but r, in order
        vertices = np.arange(1, n)
        vertices[:r] -= 1
        # a column per vertex: its unit row (r's row dropped) over its column of B^-1
        # over a spare row; the row of v is v - (v > r), and r's columns are zero
        ends = np.zeros((2 * m + 1, n))
        ends[np.arange(m), vertices] = 1.0
        # the rows of ends that hold each vertex's tree path, in BFS order
        path: dict[int, list[int]] = {r: []}
        on_path: list[int] = []
        for w in np.argsort(depth, kind="stable")[1:].tolist():
            path[w] = path[into[w][1]] + [m + w - (w > r)]
            on_path += [row * n + w for row in path[w]]
        ends.put(on_path, sign)
        # [A ; B^-1 A ; spare row], the last of which becomes the reduced costs
        differences = ends.take(arcs[:, 0], axis=1) - ends.take(arcs[:, 1], axis=1)
        A, tableau = differences[:m], differences[m:]
        tree = np.array([into[w][0] for w in vertices.tolist()])
        np.subtract(1.0, tableau[:-1].sum(axis=0), out=tableau[-1])
        inverse = ends[m:-1].take(vertices, axis=1)
        start = lp.Start.carried(np.ones(len(arcs)), A, tree, inverse, tableau)
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
    geodesics, so the coupling costs exactly sum(flow).  The support's
    arcs are walked as Python lists, and the mass at a vertex is one
    row of held, by origin.
    """
    n = nu0.shape[0]
    used = (flow > 0).nonzero()[0]
    out: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    waiting = [0] * n
    for z, w, g in zip(arcs[used, 0].tolist(), arcs[used, 1].tolist(), flow[used].tolist()):
        out[z].append((w, g))
        waiting[w] += 1
    ready = [v for v in range(n) if not waiting[v]]
    held = np.diag(nu0)  # held[v, s]: mass from origin s present at v
    pi = np.zeros((n, n))
    visited = 0
    while ready:
        v = ready.pop()
        visited += 1
        total = held[v].sum()
        if total > 0:
            share = held[v] / total
            pi[:, v] = share * nu1[v]
            for w, g in out[v]:
                held[w] += share * g
        for w, _g in out[v]:
            waiting[w] -= 1
            if not waiting[w]:
                ready.append(w)
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


def handed_over(starts: list) -> Iterator:
    """The entries of starts in order, each dropped from the list as it is read.

    A table reads its starts one per column and holds each only until
    the column's first solve, so a list handed over this way keeps no
    record alive past it: the list ends empty.
    """
    while starts:
        yield starts.pop(0)


def _chains(
    excess: np.ndarray, dm: DistanceMatrix, starts: Iterator[ColumnStart | None]
) -> Iterator[tuple[tuple[int, bool], RootBasis, lp.LpSolution]]:
    """Each solve of a table, column by column: its tree's (root, inward), the tree and the optimum.

    excess has shape (k, a, n).  Column j is a warm chain of k solves,
    the first from the start of the j-th record of starts on the tree of
    its root and direction (the BFS tree of _start_trees when None), and
    each later one from the previous solve's optimum.  starts yields one
    record per column, each read as its column begins and not held past
    the column's first solve.  ValueError if a start was solved on
    another graph's program: dm, whose root trees are its graph's, has
    no tree of the start's root and direction, or one whose incidence is
    not the start's.
    """
    for column, cold in zip(excess.transpose(1, 0, 2), _start_trees(excess[0])):
        first = next(starts)
        if first is None:
            key = cold
            tree = root_basis(dm, *cold)
            warm = tree.start
        else:
            key = (first.root, first.inward)
            tree = dm._root_bases.get(key)
            if tree is None or tree.start.A is not first.program.A:
                raise ValueError("start was solved on another DistanceMatrix")
            warm = first.start
        # the record's start lives on in warm and the first solve, the record no longer
        del first
        solution = None
        for b in column[:, tree.vertices]:
            if solution is not None:
                warm = solution.warm_start()
            solution = lp.solve_lp(warm, b)
            yield key, tree, solution


def _table(
    nu0: np.ndarray,
    nu1: np.ndarray,
    dm: DistanceMatrix,
    start: Iterable[ColumnStart | None] | None,
) -> TransportTable:
    """wasserstein's table form: column j is a warm chain of pairs from start's j-th record."""
    n = dm.d.shape[0]
    lead = np.shape(nu0)[:2]
    nu0 = _check_probability(nu0, n, "nu0", lead)
    nu1 = _check_probability(nu1, n, "nu1", lead)
    k, a = lead
    if not k:
        raise MarginalMismatchError("a table needs at least one pair of measures per column")
    starts = (None,) * a if start is None else start
    # a handed-over start has no len: its columns read it as it stands
    if isinstance(starts, Sized) and len(starts) != a:
        raise ValueError(f"a table of {a} columns takes {a} starts, got {len(starts)}")
    excess = nu0 - nu1
    # the solves stream in column by column; of each only what the table keeps stays
    values = np.empty((a, k))
    flows, binding, column_starts = [], {}, []
    for index, (key, tree, solution) in enumerate(_chains(excess, dm, iter(starts))):
        j, i = divmod(index, k)
        values[j, i] = solution.value
        flows.append(solution.x)
        # strictly larger: of equal W the first column's stays
        if not j or solution.value > binding[i][1].value:
            binding[i] = (tree, solution)
        if i == k - 1:
            column_starts.append(ColumnStart(*key, solution.start, solution.basis, solution.rows))
    return TransportTable(values=values.T, column_starts=column_starts, _excess=excess, _x=flows,
                          _arcs=dm.arcs, _binding=list(binding.values()))


def wasserstein(
    nu0: np.ndarray,
    nu1: np.ndarray,
    dm: DistanceMatrix,
    verify: bool = True,
    start: Iterable[ColumnStart | None] | None = None,
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
    nu0 and nu1 of shape (k, a, n), k >= 1, and start as None or an
    iterable of one start per column, each a ColumnStart (kappa_lp's of
    an arc, or an earlier table's of a column) or None.  Column j is a
    chain: pair 0 solves from the j-th record's start (on the tree of
    its root, checked once when it was formed) or, for None, from the
    BFS tree a single pair would take, and pair i from pair i - 1's
    optimal basis.  The table reads each record as its column begins
    and holds it only until the column's first solve, so records handed
    over (handed_over) die there, one column at a time.  ValueError if a
    start of a len does not hold one record per column, or if a start
    was solved on another DistanceMatrix, whose program is another one.
    Each row of both stacks is checked as a single measure is, once per
    table; the error names the first bad row, nu0[i, j] say.  It returns a
    TransportTable: values of shape (k, a), each column's last optimum
    as a ColumnStart, and the residual over every solve and the
    potential of each row's largest W, both formed on first read.
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
    ((_key, tree, solution),) = _chains((nu0 - nu1)[None, None], dm, iter((None,)))
    value = float(solution.value)
    f = tree.potentials(solution.rows[-1:])[0]
    f = f - f[0]
    gap = abs(value - float(f @ (nu1 - nu0)))
    if gap > lp.GAP_TOL:
        raise NumericsError(f"transport duality gap {gap:.3e} exceeds {lp.GAP_TOL:.1e}")
    pi = _flow_to_coupling(dm.arcs, solution.x, nu0, nu1)
    return TransportPlan(value, pi, f, gap, lp.marginal_residual(pi, nu0, nu1))
