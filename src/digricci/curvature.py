"""Coarse Ricci curvature of ordered vertex pairs, two independent ways.

kappa(x, y) compares how fast lazy random-walk clouds started at x and
at y approach each other relative to d(x, y).  The smoothing route
takes the smoothed curvature 1 - W(nu_x_eps, nu_y_eps) / d(x, y) with
nu_x_eps = (1 - eps) delta_x + eps Pbar(x, .) and divides it by eps;
the exact route solves a single linear program

    kappa(x, y) = inf { grad_xy (L f) : Lip f <= 1, grad_xy f = 1 }

whose feasible set contains f = d(x, .), so the program always has an
optimum.  The two must agree in the small-eps limit, which the tests
and the verification pipeline exercise against each other.

The exact program is solved through its LP dual, a min-cost flow over
the arcs like the one behind W.  With
c = (L[y] - L[x]) / d(x, y), it has one variable g >= 0 of cost 1 per
arc, one virtual arc y -> x carrying lambda >= 0 at cost -d(x, y), and
one balance row outflow - inflow = c(v) per vertex v != x.  Its row
duals are -f: the arc columns give f(w) - f(z) <= 1, the virtual one
f(y) - f(x) >= d(x, y), and the two together pin f(y) = d(x, y), so
the flow optimum is -kappa.  The BFS out-tree of x is a dual-feasible
starting basis for every pair: its potential d(x, .) prices each arc
at 1 + d(x, z) - d(x, w) >= 0 and the virtual arc at exactly 0.  No
phase 1 is needed.  That tree is the one transport.root_basis builds
for root x, so the n - 1 programs of a row x share its start: the
incidence, B^-1 and the tableau rows [B^-1 A ; c - c_B B^-1 A], built
and checked once.  The virtual arc is never a tree arc; with the row of
x dropped its column is the unit vector of y, so each program adds to
that start one tableau column, column y of B^-1 over the virtual arc's
reduced cost.  kappa_lp takes a row of targets y of root x, always an
array, and sets its programs up together: the objectives c are one
array, and the virtual columns' entries and reduced costs are formed as
one stack and checked once (lp.Start.with_columns).  Each program is
then one solve, which forms B^-1 b and pivots, and of which the row
keeps the value, the final cost row and, for an arc, the start of its
W column; after the row the duals of all the final bases are one
product off the cost rows and the witness checks run over the stack.
The root's transport.RootBasis maps c onto the rows and reads the
witnesses back off the duals, so this module indexes no row.

kappa_limit takes the same rows and solves each as one W table, a
column per target, each column the warm chain over EPS_GRID that the
pair's own row of one solves.  Both functions return arrays, one entry
per target, and kappa_lp also a list of starts, each arc target's
optimum as a transport.ColumnStart of root x's out-tree, the virtual
arc swapped for the arc: the heat module's W tables of the arc may
start from it, and curvature_matrix returns those of every arc.
curvature_matrix asks each for one row per root, verify-functional
asks kappa_lp for one per tail over its out-neighbours, and
curvature --pairs asks rows of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lp, transport
from .chain import MarkovData
from .digraph import DistanceMatrix
from .errors import EpsOutOfRangeError, NumericsError, SameVertexError

# smoothing grid: small enough to sit in the linear regime, two points
# so the spread reports whether that actually happened
EPS_GRID = (1e-3, 5e-4)
# largest |exact - smoothing limit| over the pairs that counts as agreement
SMOOTHING_AGREEMENT_TOL = 1e-4


@dataclass(frozen=True)
class CurvatureReport:
    """All ordered-pair curvatures with the global lower bound K.

    kappa has NaN on the diagonal.  When the smoothing cross-check ran,
    cross_check holds |lp - limit| per pair.  kappa_lp returns each
    pair's witness; the matrix keeps none.  arc_starts holds kappa_lp's
    optimum of each arc as a transport.ColumnStart, aligned with
    dm.arcs: the starts of the arcs' heat-flow W tables.
    """

    kappa: np.ndarray
    K: float
    cross_check: np.ndarray | None = None
    arc_starts: list = field(default_factory=list, repr=False, compare=False)


def smoothed_measure(x: int, eps: float, M: MarkovData) -> np.ndarray:
    """(1 - eps) delta_x + eps Pbar(x, .); a probability vector for eps in [0, 1]."""
    if not 0.0 <= eps <= 1.0:
        raise EpsOutOfRangeError(f"eps must lie in [0, 1], got {eps}")
    nu = eps * M.Pmean[x]
    nu[x] += 1.0 - eps
    return nu


def _row(x: int, ys: np.ndarray, dm: DistanceMatrix) -> tuple[np.ndarray, np.ndarray]:
    """A row of targets of root x as an int array, and d(x, y) over it.

    SameVertexError if x is among the targets.
    """
    ys = np.array(ys, dtype=int, ndmin=1)
    d = dm.d[x, ys]
    # d(x, y) = 0 exactly when y = x
    if not d.all():
        raise SameVertexError("curvature needs two distinct vertices")
    return ys, d


def kappa_lp(
    x: int, ys: np.ndarray, M: MarkovData, dm: DistanceMatrix
) -> tuple[np.ndarray, np.ndarray, list[transport.ColumnStart | None]]:
    """Exact curvature by the limit-free program, with an optimal witness, over a row of root x.

    The program of (x, y) minimises grad_xy (L f) over f with f(x) = 0,
    one Lipschitz row f(w) - f(z) <= 1 per arc z -> w, and
    f(y) = d(x, y).  The hop metric is a path metric, so the arc rows
    already imply f(w) - f(z) <= d(z, w) for every ordered pair (sum
    them along a geodesic).  One solve of its dual flow (see the module
    docstring), by a dual simplex from the BFS out-tree of x, gives
    kappa as minus the flow optimum and the witness f as minus the row
    duals, with f(x) = 0 (transport.RootBasis.potentials).  Every basis
    is a spanning tree plus the virtual arc and every cost an integer,
    so f is an integer vector, and three checks are exact:
    NumericsError unless f is integral, f(w) - f(z) <= 1 on every arc
    and f(y) == d(x, y).  The value gap is the one check with a
    tolerance, as the rounding of the right-hand side enters there:
    NumericsError unless |kappa - grad_xy (L f)| <= lp.GAP_TOL.

    ys is a row of targets, a 1-d array; a single pair is the row [y].
    It returns kappa of shape (k,), the witnesses of shape (k, n), one
    row per y, and a list of k starts: for an arc (d(x, y) = 1) its
    optimum as a transport.ColumnStart (_arc_start), made as the solve
    returns, which a heat-flow W table of the arc may start from, and
    None for any other target.  The record owns its copy of the final
    rows, so the row's stack of starts goes once kappa_lp returns, and
    forms its W start only when a table reads it, so a caller that
    drops it pays for none of it.  All three are empty for an empty
    row.  SameVertexError if x is among them.  The programs of a row
    share x's start, so they are set up once: the objectives c are one
    array, the virtual columns are added to the start and checked as
    one stack (lp.Start.with_columns).  Of each solve the row keeps its
    value and final cost row, so one solve is alive at a time, and
    after the solves the duals of all of them are one product off the
    cost rows and the checks above run over the stack.  Each
    program is still its own lp.solve_lp, called from here: the name
    stays the one span a tracer attributes every curvature solve to,
    however long the row.

    kappa is unique, the witness is not: the optimal potentials of the
    program often form a face, and the witness is the one integer
    vertex of it that the pivot sequence ends on (the duals of the
    final basis).  A change of pivot rule may return another witness
    with the same kappa.  What reads the witness itself sees that
    choice: curvature --pairs prints it.  No report of analyze or
    verify-functional reads a witness, only kappa.
    """
    ys, d = _row(x, ys, dm)
    if not ys.size:
        return np.empty(0), np.empty((0, M.n)), []
    c = (M.L.take(ys, axis=0) - M.L[x]) / d[:, None]
    tree = transport.root_basis(dm, x)
    # each virtual arc y -> x: +1 in the row of y, and x's row is dropped
    starts = tree.start.with_columns(-d, (tree.vertices[:, None] == ys).astype(float))
    # the column of each arc x -> y in x's program, by y
    out = np.flatnonzero(dm.arcs[:, 0] == x)
    columns = dict(zip(dm.arcs[out, 1].tolist(), out.tolist()))
    values, costs = np.empty(len(ys)), np.empty((len(ys), len(dm.arcs) + 1))
    arc_starts = []
    for i, (y, balance, start) in enumerate(zip(ys.tolist(), c, starts)):
        solution = tree.solve(balance, start)
        values[i], costs[i] = solution.value, solution.rows[-1]
        arc_starts.append(_arc_start(x, columns[y], tree.start, solution) if y in columns else None)
    # 0.0 - v, not -v: a zero optimum must not become -0.0
    kappa = 0.0 - values
    witness = tree.potentials(costs)
    fy = witness[:, ys].diagonal()
    if (fy != d).any():
        i = (fy != d).argmax()
        raise NumericsError(f"curvature witness has f(y) = {fy[i]:.17g}, not {d[i]:g}")
    gap = np.abs(kappa - (c * witness).sum(axis=1)).max()
    if gap > lp.GAP_TOL:
        raise NumericsError(f"curvature duality gap {gap:.3e} exceeds {lp.GAP_TOL:.1e}")
    return kappa, witness, arc_starts


def _arc_start(
    x: int, arc: int, program: lp.Start, solution: lp.LpSolution
) -> transport.ColumnStart:
    """kappa's optimum of the arc x -> y as the start of the arc's W column, on root x's out-tree.

    program is root x's tree start and arc the column of x -> y in it;
    solution solved the curvature program of (x, y), program plus the
    virtual arc y -> x, whose column, the last, is +1 in the row of y
    at cost -1, where the arc's is -1 at cost +1.  Where that column is
    basic, in row i say, the arc takes its place: B_f times the sign
    flip of row i, so row i of B^-1 A is negated, the duals c_B B^-1
    stay, and with them every reduced cost.  The swapped basis is dual
    feasible for W, and it is the optimum of W(delta_x, delta_y), the
    limit t -> 0 of the heat-flow W of the arc, whose first-order term
    is kappa's own right-hand side.  Where the virtual column is
    nonbasic, B_f is a basis of W already.  The record owns one copy of
    the final rows, swapped in place, and its rows are that copy's view
    without the virtual column, the last: the copy keeps the solve's
    width, which measured lower in analyze's RSS than a copy one column
    narrower, whose freed blocks missed the W tableaux of the next
    stage.
    """
    rows, basis = solution.rows.copy(), solution.basis.copy()
    # the row where the virtual column is basic, if any
    for i in (basis == len(program.c)).nonzero()[0].tolist():
        basis[i] = arc
        # 0.0 - v, not -v: a zero entry must not become -0.0
        rows[i] = 0.0 - rows[i]
    return transport.ColumnStart(x, False, program, basis, rows[:, :-1])


def kappa_limit(
    x: int, ys: np.ndarray, M: MarkovData, dm: DistanceMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """Over a row, the smoothed curvature over eps at the smallest eps of EPS_GRID, and the spread.

    The smoothed curvature of (x, y) is 1 - W(nu_x_eps, nu_y_eps) / d(x, y).
    Near zero it is linear in eps, so the quotients stabilise; the
    spread (max - min over the grid) reports how far into that regime
    the grid reached.  ys is a row of targets of root x, as kappa_lp
    takes it, and the limits and the spreads come back as two arrays
    of shape (k,), both empty for an empty row; SameVertexError if x is
    among the targets.  The row is one table (transport.wasserstein)
    with a column per target: column y is the W of (x, y) over the
    grid, in ascending eps, each from the previous eps's optimal basis,
    the same chain a row of one solves, so a target's limit and spread
    do not depend on the rest of its row.
    """
    ys, d = _row(x, ys, dm)
    if not ys.size:
        return np.empty(0), np.empty(0)
    grid = sorted(EPS_GRID)
    # the table's axes: (eps, column y, entry); every column starts at x
    nu_x = np.array([[smoothed_measure(x, e, M)] * len(ys) for e in grid])
    nu_y = np.array([[smoothed_measure(y, e, M) for y in ys.tolist()] for e in grid])
    w = transport.wasserstein(nu_x, nu_y, dm, verify=False).values
    quotients = (1.0 - w / d) / np.array(grid)[:, None]
    return quotients[0], quotients.max(axis=0) - quotients.min(axis=0)


def curvature_matrix(
    M: MarkovData, dm: DistanceMatrix, cross_check: bool = False
) -> CurvatureReport:
    """kappa over all ordered pairs; K is the minimum entry.

    The rows run in root order and each over its targets in order, so
    the arcs' ColumnStarts come out row-major, in the order of dm.arcs.
    """
    n = M.n
    kappa = np.full((n, n), np.nan)
    residuals = np.full((n, n), np.nan) if cross_check else None
    arc_starts = []
    for x in range(n):
        ys = np.flatnonzero(np.arange(n) != x)
        kappa[x, ys], _witness, starts = kappa_lp(x, ys, M, dm)
        arc_starts += [start for start in starts if start is not None]
        if cross_check:
            residuals[x, ys] = np.abs(kappa[x, ys] - kappa_limit(x, ys, M, dm)[0])
    return CurvatureReport(kappa, float(np.nanmin(kappa)), residuals, arc_starts)
