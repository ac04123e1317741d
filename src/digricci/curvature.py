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
reduced cost.  kappa_lp takes a whole row of targets y at once and sets
its programs up together: the objectives c are one array, and the
virtual columns' entries and reduced costs are formed as one stack and
checked once (lp.Start.with_columns).  Each program is then one solve,
which forms B^-1 b and pivots, and after the row the duals of all the
final bases are one product and the witness checks run over the stack.
curvature_matrix asks for one row per root, verify-functional one per
tail over its out-neighbours, and a single pair is a row of one.  The
root's transport.RootBasis maps c onto the rows and reads the witnesses
back off the duals, so this module indexes no row.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    pair's witness; the matrix keeps none.
    """

    kappa: np.ndarray
    K: float
    cross_check: np.ndarray | None = None


def smoothed_measure(x: int, eps: float, M: MarkovData) -> np.ndarray:
    """(1 - eps) delta_x + eps Pbar(x, .); a probability vector for eps in [0, 1]."""
    if not 0.0 <= eps <= 1.0:
        raise EpsOutOfRangeError(f"eps must lie in [0, 1], got {eps}")
    nu = eps * M.Pmean[x]
    nu[x] += 1.0 - eps
    return nu


def kappa_lp(
    x: int, ys: int | np.ndarray, M: MarkovData, dm: DistanceMatrix
) -> tuple[float, np.ndarray] | tuple[np.ndarray, np.ndarray]:
    """Exact curvature by the limit-free program, with an optimal witness, for one pair or a row.

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
    NumericsError unless |kappa - grad_xy (L f)| <= lp.GAP_TOL.  For an
    arc (d(x, y) = 1) the optimum is kept on dm as a
    transport.ArcStart, its final basis and tableau as they stand: the
    heat module's W chains of the arc start from it.

    ys is one vertex y, an int, which returns (kappa, witness), or an
    array of them, a row of root x, which returns kappa of shape (k,)
    and the witnesses of shape (k, n), one row per y (empty for an
    empty row).  SameVertexError if x is among them.  The programs of a
    row share x's start, so they are set up once: the objectives c are
    one array, the virtual columns are added to the start and checked as
    one stack (lp.Start.with_columns), and after the solves the duals of
    all of them are one product and the checks above run over the
    stack.  Each program is still its own lp.solve_lp, called from here:
    the name stays the one span a tracer attributes every curvature
    solve to, whether a caller asks for one pair or a row.

    kappa is unique, the witness is not: the optimal potentials of the
    program often form a face, and the witness is the one integer
    vertex of it that the pivot sequence ends on (the duals of the
    final basis).  A change of pivot rule may return another witness
    with the same kappa.  What reads the witness itself sees that
    choice: curvature --pairs prints it.  No report of analyze or
    verify-functional reads a witness, only kappa.
    """
    single = isinstance(ys, (int, np.integer))
    ys = np.array(ys, dtype=int, ndmin=1)
    if not ys.size:
        return np.empty(0), np.empty((0, M.n))
    d = dm.d[x, ys]
    # d(x, y) = 0 exactly when y = x
    if not d.all():
        raise SameVertexError("curvature needs two distinct vertices")
    c = (M.L.take(ys, axis=0) - M.L[x]) / d[:, None]
    tree = transport.root_basis(dm, x)
    # each virtual arc y -> x: +1 in the row of y, and x's row is dropped
    starts = tree.start.with_columns(-d, (tree.vertices[:, None] == ys).astype(float))
    solutions = [tree.solve(balance, start) for balance, start in zip(c, starts)]
    # 0.0 - v, not -v: a zero optimum must not become -0.0
    kappa = 0.0 - np.array([solution.value for solution in solutions])
    witness = tree.potentials(solutions)
    fy = witness[:, ys].diagonal()
    if (fy != d).any():
        i = (fy != d).argmax()
        raise NumericsError(f"curvature witness has f(y) = {fy[i]:.17g}, not {d[i]:g}")
    gap = np.abs(kappa - (c * witness).sum(axis=1)).max()
    if gap > lp.GAP_TOL:
        raise NumericsError(f"curvature duality gap {gap:.3e} exceeds {lp.GAP_TOL:.1e}")
    for y, dxy, solution in zip(ys.tolist(), d.tolist(), solutions):
        if dxy == 1.0:
            dm._arc_starts[(x, y)] = transport.ArcStart(
                x, y, solution.basis, solution._tableau, tree.start
            )
    if single:
        return float(kappa[0]), witness[0]
    return kappa, witness


def kappa_limit(x: int, y: int, M: MarkovData, dm: DistanceMatrix) -> tuple[float, float]:
    """The smoothed curvature over eps at the smallest eps of EPS_GRID, and the spread.

    The smoothed curvature is 1 - W(nu_x_eps, nu_y_eps) / d(x, y).
    Near zero it is linear in eps, so the quotients stabilise; the
    spread (max - min over the grid) reports how far into that regime
    the grid reached.  The W of the grid are one program with moving
    measures, so they are solved as one column of a table
    (transport.wasserstein), in ascending eps, each from the previous
    eps's optimal basis.
    """
    grid = sorted(EPS_GRID)
    if x == y:
        raise SameVertexError("curvature needs two distinct vertices")
    # one column of pairs: axes (vertex x or y, eps, column, entry)
    nu = np.array([[[smoothed_measure(v, e, M)] for e in grid] for v in (x, y)])
    w = transport.wasserstein(nu[0], nu[1], dm, verify=False).values[:, 0].tolist()
    dxy = float(dm.d[x, y])
    quotients = [(1.0 - value / dxy) / e for value, e in zip(w, grid)]
    return quotients[0], float(max(quotients) - min(quotients))


def curvature_matrix(
    M: MarkovData, dm: DistanceMatrix, cross_check: bool = False
) -> CurvatureReport:
    """kappa over all ordered pairs; K is the minimum entry."""
    n = M.n
    kappa = np.full((n, n), np.nan)
    residuals = np.full((n, n), np.nan) if cross_check else None
    for x in range(n):
        ys = np.flatnonzero(np.arange(n) != x)
        kappa[x, ys] = kappa_lp(x, ys, M, dm)[0]
        if cross_check:
            for y in ys.tolist():
                limit, _spread = kappa_limit(x, y, M, dm)
                residuals[x, y] = abs(kappa[x, y] - limit)
    K = float(np.nanmin(kappa))
    return CurvatureReport(kappa=kappa, K=K, cross_check=residuals)
