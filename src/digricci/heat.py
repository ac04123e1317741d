"""Heat semigroup of the mean Laplacian and its contraction certificates.

P_t = exp(-t L) is computed by uniformization and squaring (Moler and
Van Loan, SIAM Rev. 45, 2003).  Since L = I - Pbar,

    P_tau = exp(-tau) sum_k tau^k Pbar^k / k!,

a series of non-negative terms whose k-th term has rows summing to
tau^k / k!.  It is summed at tau = t / 2^s <= 1/2 until adding a term
no longer changes the sum; then P_t = (P_tau)^(2^s) by s squarings.
Every operation adds or multiplies non-negative numbers, so the rows of
P_t are non-negative by construction and no clamp is needed, and at
t = 0 the series is the identity exactly.  Roundoff still moves each
row sum off 1 by a few ulps, and each squaring doubles that error: by
t = 1e6 (21 squarings) it reached 4e-10 on the test graphs, past the
mass tolerance that transport holds measures to.  So each squaring
divides the rows by their sums.  Squaring stops early once it leaves
the kernel unchanged, or once all rows are equal: the kernel is then a
row r repeated, which squaring maps to itself but for roundoff in the
last bits.  The row measures p_x_t of P_t are probability vectors;
transporting them against each other at small times recovers the
curvature of each pair, and at a global rate K the flow contracts both
Lipschitz constants and transport distances like exp(-K t).  The tests hold this route to two
independent ones, the spectral form of the m-symmetrised kernel
(tests/oracles.spectral_matrix) and scipy's expm.

The hop metric is a path metric, so the transport inequality is local:
a geodesic x = x_0 -> ... -> x_k = y splits d(x, y) = k into arcs, and
the triangle inequality for W bounds W(p_x_t, p_y_t) by the sum of the
W over those arcs.  If every arc satisfies W <= exp(-K t), every pair
satisfies W <= exp(-K t) d(x, y), so the contraction certificate is
checked over the arcs alone (Ollivier, J. Funct. Anal. 256, 2009).

The gradient estimate Lip(P_t f) <= exp(-K t) Lip(f) is the dual face
of that inequality (Kuwada, J. Funct. Anal. 258, 2010).  For
Lip f <= 1 and an arc x -> y, (P_t f)(y) - (P_t f)(x) is
f.(p_y_t - p_x_t) <= W(p_x_t, p_y_t), so no such f has Lip(P_t f)
above the largest arc W, and the Kantorovich potential f* of that
arc's W attains it.  verify_transport_contraction reads one f* per
time off its own table's solves, and verify_gradient_estimate smooths
each f* at its own time alone: the certificate's lhs at each time is
the exact sup, not a sampled one, and another time's f* can reach it
only up to roundoff, so one comparison per time is the whole check.

Both W certificates, the contraction and the small-time limit, solve
each arc at several times of one program: its cost and constraint
matrix do not depend on t, only the right-hand side p_x_t - p_y_t
does.  So each certificate's W are one call of transport.wasserstein
in its table form, times x arcs: each arc is a column solved along its
times in ascending order, each solve starting from the previous time's
optimal basis, which stays dual feasible and at small t is usually
optimal already: a solve that took no pivot hands its start on
unchanged, so such a step costs neither a product nor a check.  The
table checks every kernel row once.  Each certificate takes the first
time's starts as a value, one per column, each a
transport.ColumnStart, and a column without one starts from a BFS
tree.  analyze chains them along each arc: curvature_time_limit starts
from the arc's curvature optimum, the record kappa_lp makes of it.
The curvature program of the arc is root x's W program of the excess
c + Lambda (delta_x - delta_y), and p_x_t - p_y_t is
t [c + (1/t) (delta_x - delta_y)] + O(t^2) with c = L[y] - L[x]: the
same program with Lambda in the role of 1/t.  So the kappa optimum is
a basis of the arc's W as it stands, dual feasible at every time and
nearly optimal at the small ones.  curvature_time_limit returns its
columns' last optima, at t = 0.01, as the records its table made of
them; verify_transport_contraction starts from those, and its first
time is 0.01, so that solve is already optimal and takes no pivot.
The table runs inside wasserstein, under the certificate that asked
for it, so the solves stay counted under that certificate and under
wasserstein.
Each time's kernel matrix is built once per operator.

The times are fixed: TIME_GRID for the two contraction certificates
and LIMIT_GRID for the small-time limit, both positive.  Reports state
each grid in its own order; a W table runs over it in ascending order.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import transport
from .certificates import DEFAULT_TOL, InequalityCertificate, certificate_from_samples
from .chain import MarkovData
from .digraph import DistanceMatrix, lipschitz_constant
from .errors import HypothesisUnmetError, NegativeTimeError, SameVertexError

# times of the contraction certificates, ascending: their W table solves them in this order
TIME_GRID = (0.01, 0.1, 1.0, 5.0)
# times of the small-time curvature limit, in the order reports state them
LIMIT_GRID = (1e-2, 1e-3, 1e-4)
# largest |exact - heat limit| over the arcs that counts as agreement
HEAT_LIMIT_AGREEMENT_TOL = 1e-3


@dataclass(frozen=True)
class HeatOperator:
    """exp(-t L) for one chain: its mean kernel and the kernels built so far."""

    Pmean: np.ndarray
    # heat_kernel_matrix's kernels by time, built on first use
    _kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def apply(self, t: float, f: np.ndarray) -> np.ndarray:
        """P_t f on the kernel at time t.

        f may be a stack of functions, the vertex on the last axis; each
        is smoothed alone.
        """
        return np.asarray(f, dtype=float) @ heat_kernel_matrix(self, t).T


def heat_operator(M: MarkovData) -> HeatOperator:
    """The heat semigroup of M's mean kernel; kernels are built as times are read."""
    return HeatOperator(Pmean=M.Pmean)


def _uniformized(Pmean: np.ndarray, t: float) -> np.ndarray:
    """P_t by the series at tau = t / 2^s <= 1/2, then s squarings (module docstring)."""
    s = 0 if t <= 0.5 else math.frexp(t)[1] + 1
    # frexp and ldexp never form 2^s, which overflows once s > 1023 (the
    # largest float needs s = 1025); tau = t / 2^s is exact, since s > 0
    # leaves it in [1/4, 1/2)
    tau = math.ldexp(t, -s)
    total = np.eye(Pmean.shape[0])
    term = total
    k = 0
    while True:
        k += 1
        term = (term @ Pmean) * (tau / k)
        step = total + term
        if np.array_equal(step, total):
            break
        total = step
    kernel = total * math.exp(-tau)
    for _ in range(s):
        squared = kernel @ kernel
        squared /= squared.sum(axis=1, keepdims=True)
        if np.array_equal(squared, kernel):
            break
        kernel = squared
        if (kernel == kernel[0]).all():
            break
    return kernel


def heat_kernel_matrix(H: HeatOperator, t: float) -> np.ndarray:
    """All heat-kernel rows at time t: row x is p_x_t.

    The matrix is built once per operator and time, kept on H and
    read-only.  NegativeTimeError unless t is finite and >= 0.
    """
    kernel = H._kernels.get(t)
    if kernel is None:
        if not 0.0 <= t < math.inf:
            what = "non-negative" if t < 0 else "finite"
            raise NegativeTimeError(f"time must be {what}, got {t}")
        kernel = _uniformized(H.Pmean, t)
        kernel.flags.writeable = False
        H._kernels[t] = kernel
    return kernel


def verify_gradient_estimate(
    H: HeatOperator,
    dm: DistanceMatrix,
    K: float,
    potentials: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """Check Lip(P_t f*) <= exp(-K t) Lip(f*) at each time t of TIME_GRID, on that time's f*.

    potentials holds one function per time of TIME_GRID, row i for
    TIME_GRID[i]: the potentials verify_transport_contraction returns,
    at which Lip(P_t f) reaches its sup over every Lipschitz f (module
    docstring).  Each time makes one comparison, with f_index i the
    time's own row.  HypothesisUnmetError for any other row count.
    """
    potentials = np.atleast_2d(potentials)
    if len(potentials) != len(TIME_GRID):
        raise HypothesisUnmetError(f"need one potential per time, got {len(potentials)}")
    smoothed = [H.apply(t, f) for t, f in zip(TIME_GRID, potentials)]
    lip_fs, lip_heats = lipschitz_constant(np.stack([potentials, smoothed]), dm).tolist()
    comparisons = []
    for i, (t, lip_f, lip_heat) in enumerate(zip(TIME_GRID, lip_fs, lip_heats)):
        # a large negative K overflows the bound to inf: vacuous, and correct
        with np.errstate(over="ignore"):
            shrink = float(np.exp(-K * t))
        comparisons.append((lip_heat, shrink * lip_f, {"t": t, "f_index": i, "lip_f": lip_f}))
    return certificate_from_samples(
        "lipschitz_contraction", {"K": K, "times": list(TIME_GRID)}, comparisons, tol
    )


def _heat_flow_w(
    H: HeatOperator, dm: DistanceMatrix, times: Sequence[float], xs: np.ndarray, ys: np.ndarray,
    starts: Iterable[transport.ColumnStart | None] | None,
) -> transport.TransportTable:
    """W(p_x_t, p_y_t) at each of the ascending times (rows) for each pair (columns), as a table.

    One table (transport.wasserstein): every kernel is built before the
    first solve, and a pair's column starts from its entry of starts,
    or from a BFS tree when that is None or starts is.
    """
    kernels = np.stack([heat_kernel_matrix(H, t) for t in times])
    return transport.wasserstein(kernels[:, xs], kernels[:, ys], dm, verify=False, start=starts)


def verify_transport_contraction(
    H: HeatOperator,
    dm: DistanceMatrix,
    K: float,
    tol: float = DEFAULT_TOL,
    starts: Iterable[transport.ColumnStart | None] | None = None,
) -> tuple[InequalityCertificate, np.ndarray]:
    """Check W(p_x_t, p_y_t) <= exp(-K t) d(x, y) over all ordered pairs, t in TIME_GRID.

    The loop runs over the arcs (d(x, y) = 1) only; the module docstring
    says why that covers every pair.  A pair at distance k has at least
    the sum of the margins of the k arcs of a geodesic, so at tol = 0
    the verdict is the all-pairs verdict, and while every arc passes the
    worst pair margin is the worst arc margin (both up to the roundoff
    of the W solves).  With tol > 0, a pass bounds every pair's W by
    exp(-K t) d(x, y) within d(x, y) * tol.  When an arc fails, a pair at
    distance k may fail by up to k times the reported margin.

    The W form one table (transport.wasserstein): a column per arc, the
    times in ascending order, the first solve from the arc's entry of
    starts (one per arc of dm.arcs, in its order: the ColumnStarts
    curvature_time_limit returns for the arcs, the ones kappa_lp makes
    of them, or None for a BFS tree; all BFS trees without starts),
    each later one from the previous time's optimal basis (see the
    module docstring).  The table holds an entry only until its
    column's first solve, so starts handed over (transport.handed_over)
    die one arc at a time.  The comparisons are listed time by time,
    arcs in order within each.

    Returns the certificate and the potentials f*, shape
    (len(TIME_GRID), n): row i is the Kantorovich potential of the
    largest arc W at TIME_GRID[i], the first arc in order of equal ones,
    read off that arc's own solve (transport.TransportTable.potentials)
    with no solve added.  It is integral and 1-Lipschitz, both checked
    exactly, and Lip(P_t f*) is that largest W: the potentials
    verify_gradient_estimate checks, each at its own time.
    """
    table = _heat_flow_w(H, dm, TIME_GRID, *dm.arcs.T, starts)
    values = table.values.tolist()
    arcs = dm.arcs.tolist()
    comparisons = []
    for t, row in zip(TIME_GRID, values):
        # a large negative K overflows the bound to inf: vacuous, and correct
        with np.errstate(over="ignore"):
            shrink = float(np.exp(-K * t))
        comparisons += [
            (value, shrink, {"t": t, "pair": (x, y)}) for value, (x, y) in zip(row, arcs)
        ]
    certificate = certificate_from_samples(
        "transport_contraction",
        {"K": K, "times": list(TIME_GRID), "pairs": "arcs"},
        comparisons,
        tol,
    )
    return certificate, table.potentials


def curvature_time_limit(
    H: HeatOperator,
    dm: DistanceMatrix,
    xs: np.ndarray,
    ys: np.ndarray,
    starts: Iterable[transport.ColumnStart | None] | None = None,
) -> tuple[np.ndarray, np.ndarray, list[transport.ColumnStart]]:
    """Small-time curvature (1/t)(1 - W(p_x_t, p_y_t) / d(x, y)) of each pair (xs[j], ys[j]).

    The times are those of LIMIT_GRID.  Returns, per pair, the two-point
    Richardson extrapolation through the two smallest times together
    with the spread (max - min) of the finite-time estimates, which
    reports how settled the limit is, and the pair's last optimum, at
    the largest time, as a transport.ColumnStart.  The W form one table
    (transport.wasserstein): a column per pair over the times in
    ascending order, the first from the pair's entry of starts (the
    ColumnStart kappa_lp makes of an arc x -> y, or None for a BFS
    tree; all BFS trees without starts), each later one from the
    previous time's optimal basis (see the module docstring).  The
    largest time is TIME_GRID's first, so on the arcs the ColumnStarts
    are verify_transport_contraction's starts.  SameVertexError if a
    pair repeats a vertex.
    """
    ts = sorted(LIMIT_GRID)
    xs, ys = np.asarray(xs, dtype=int), np.asarray(ys, dtype=int)
    if (xs == ys).any():
        raise SameVertexError("curvature needs two distinct vertices")
    table = _heat_flow_w(H, dm, ts, xs, ys, starts)
    estimates = (1.0 - table.values / dm.d[xs, ys].astype(float)) / np.asarray(ts)[:, None]
    t1, t2 = ts[1], ts[0]
    g1, g2 = estimates[1], estimates[0]
    extrapolated = (t1 * g2 - t2 * g1) / (t1 - t2)
    return extrapolated, estimates.max(axis=0) - estimates.min(axis=0), table.column_starts
