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

The exact program (the limit-free curvature of Muench & Wojciechowski,
Adv. Math. 356, 2019) is solved through its LP dual, a min-cost flow
over the arcs, and that flow is W's own: the program of (x, y) is root
x's arc-flow W program (transport.root_basis(dm, x)), with no added
column, solved for the excess e = c + Lambda (delta_x - delta_y), with
c = (L[y] - L[x]) / d(x, y) and

    Lambda = 1 + 2 sum_v |c(v)| max(d(x, v), d(v, x)).

Its row duals are -f with f(x) = 0 and f(w) - f(z) <= 1 on every arc,
so W(e) = max_f [Lambda f(y) - f.c].  Why Lambda is large enough: the
graph is strongly connected, so summing the arc rows along a geodesic
from x to v or from v to x gives |f(v)| <= max(d(x, v), d(v, x)) for
every such f, hence |f.c| <= (Lambda - 1) / 2, and the objectives f.c
of any two of them differ by at most Lambda - 1.  The program's A is
an incidence, so its optimal vertices are integral potentials, with
f(y) <= d = d(x, y).  One with f(y) <= d - 1 reaches at most
Lambda (d - 1) + (Lambda - 1) / 2; a tight one (f(y) = d, d(x, .)
say) at least Lambda d - (Lambda - 1) / 2, more by 1: it loses by
more than it can gain.  So only tight potentials are optimal, the
optimum minimises f.c over them, and W(e) = d Lambda - kappa.  For an
arc this is the heat flow's own problem as t -> 0:
p_x_t - p_y_t = t [c + (1/t) (delta_x - delta_y)] + O(t^2), with
Lambda in the role of 1/t.

The BFS out-tree of x, the start root_basis builds and checks once, is
dual feasible for every excess, so the n - 1 programs of a row x all
solve from it, each one solve, and no phase 1 is needed.  kappa is
read off the witness exactly: f is integral, so f.c is the sum of the
floats c(v), each counted |f(v)| times with the sign of f(v), which
math.fsum over the support of c rounds once.  kappa is the correctly
rounded f.c, whatever Lambda, and the primal value d Lambda - W is held
to it by lp.GAP_TOL.  kappa_lp takes a row of targets y of root x,
always an array: the objectives c and the excesses are one array
each, of each solve the row keeps the value, the final cost row and,
for an arc, its ColumnStart, and after the row the duals of all the
final bases are one product off the cost rows and the witness checks
run over the stack.  The root's transport.RootBasis maps the excess
onto the rows and reads the witnesses back off the duals, so this
module indexes no row.

kappa_limit takes the same rows and solves each as one W table, a
column per target, each column the warm chain over EPS_GRID that the
pair's own row of one solves.  Both functions return arrays, one entry
per target, and kappa_lp also a list of starts: an arc target's
optimum is a final basis of the arc's W program as it stands, so its
start is the transport.ColumnStart of its solve on root x's out-tree,
as a W table makes one of a column's last solve.  The heat module's W
tables of the arc may start from it, and curvature_matrix returns
those of every arc.
curvature_matrix asks each for one row per root, verify-functional
asks kappa_lp for one per tail over its out-neighbours, and
curvature --pairs asks rows of one.
"""

from __future__ import annotations

import math
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
    them along a geodesic).  It is solved as root x's W program of the
    excess c + Lambda (delta_x - delta_y) (see the module docstring),
    one solve by a dual simplex from the BFS out-tree of x, whose
    optimal potential is the witness f, minus the row duals, with
    f(x) = 0 (transport.RootBasis.potentials).  Every basis is a
    spanning tree and every cost an integer, so f is an integer vector,
    and three checks are exact: NumericsError unless f is integral,
    f(w) - f(z) <= 1 on every arc and f(y) == d(x, y).  kappa is f.c
    rounded once (math.fsum of c(v) counted |f(v)| times), and the
    value gap is the one check with a tolerance, as the rounding of the
    right-hand side enters there: NumericsError unless
    |d Lambda - W - kappa| <= lp.GAP_TOL.

    ys is a row of targets, a 1-d array; a single pair is the row [y].
    It returns kappa of shape (k,), the witnesses of shape (k, n), one
    row per y, and a list of k starts: for an arc (d(x, y) = 1) the
    transport.ColumnStart of its solve, its start, final basis and
    final rows, which a heat-flow W table of the arc may start from,
    and None for any other target.  The record holds the solve's own
    rows, no copy, and forms its W start only when a table reads it, so
    a caller that drops it pays for none of it.  All three are empty
    for an empty row.  SameVertexError if x is among them.  Of each
    solve the row keeps its value, final cost row and, for an arc, its
    record, so one solve is alive at a time, and after the solves the
    duals of all of them are one product off the cost rows and the
    checks above run over the stack.  Each program is still its own
    lp.solve_lp, called from here: the name stays the one span a tracer
    attributes every curvature solve to, however long the row.

    kappa is unique, the witness is not: the optimal potentials of the
    program often form a face, and the witness is the one integer
    vertex of it that the pivot sequence ends on (the duals of the
    final basis).  A change of pivot rule may return another witness
    with the same kappa, bit for bit, as kappa is the correctly rounded
    value of the one exact optimum.  What reads the witness itself sees
    that choice: curvature --pairs prints it.  No report of analyze or
    verify-functional reads a witness, only kappa.
    """
    ys, d = _row(x, ys, dm)
    if not ys.size:
        return np.empty(0), np.empty((0, M.n)), []
    k = np.arange(len(ys))
    c = (M.L.take(ys, axis=0) - M.L[x]) / d[:, None]
    # Lambda of each target: 1 + 2 sum_v |c(v)| max(d(x, v), d(v, x))
    push = 1.0 + 2.0 * (np.abs(c) @ np.maximum(dm.d[x], dm.d[:, x]))
    # the push's excess at x lies in the row the program drops
    excess = c.copy()
    excess[k, ys] -= push
    tree = transport.root_basis(dm, x)
    values, costs = np.empty(len(ys)), np.empty((len(ys), len(dm.arcs)))
    arc_starts = []
    for i, (balance, dxy) in enumerate(zip(excess, d.tolist())):
        solution = tree.solve(balance)
        values[i], costs[i] = solution.value, solution.rows[-1]
        # an arc's optimum is a final basis of the arc's W program as it stands
        arc_starts.append(transport.ColumnStart(
            x, False, solution.start, solution.basis, solution.rows) if dxy == 1 else None)
    witness = tree.potentials(costs)
    fy = witness[k, ys]
    if (fy != d).any():
        i = (fy != d).argmax()
        raise NumericsError(f"curvature witness has f(y) = {fy[i]:.17g}, not {d[i]:g}")
    # f.c rounded once: each c(v) of the support counted |f(v)| times, with the sign of f(v),
    # the terms of all the row's targets as one list, split by target
    counts = np.abs(witness).astype(int) * (c != 0.0)
    terms = np.repeat(np.sign(witness) * c, counts.ravel()).tolist()
    ends = counts.sum(axis=1).cumsum().tolist()
    kappa = np.array([math.fsum(terms[a:b]) for a, b in zip([0, *ends], ends)])
    gap = np.abs(d * push - values - kappa).max()
    if gap > lp.GAP_TOL:
        raise NumericsError(f"curvature duality gap {gap:.3e} exceeds {lp.GAP_TOL:.1e}")
    return kappa, witness, arc_starts


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
