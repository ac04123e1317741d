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

Both W certificates, the contraction and the small-time limit, solve
each arc at several times of one program: its cost and constraint
matrix do not depend on t, only the right-hand side p_x_t - p_y_t
does.  So each certificate's W are one call of transport.wasserstein
in its table form, times x arcs: each arc is a column solved along its
times in ascending order, each solve starting from the previous time's
optimal basis, which stays dual feasible and at small t is usually
optimal already: a solve that took no pivot hands its start on
unchanged, so such a step costs neither a product nor a check.  The
table checks every kernel row once.  The first time starts from the
arc's curvature optimum when kappa_lp has solved the arc on the same
DistanceMatrix (transport.ArcStart, formed and checked once): the
curvature program is the first-order problem of W as t -> 0, so that
basis is nearly optimal for every time.  Otherwise it starts from a
BFS tree.  The table runs inside wasserstein, under the certificate
that asked for it, so the solves stay counted under that certificate
and under wasserstein.  Each time's kernel matrix is built once per
operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import transport
from .certificates import InequalityCertificate, certificate_from_samples
from .chain import MarkovData
from .digraph import DistanceMatrix, lipschitz_constant
from .errors import NegativeTimeError, SameVertexError

# default times for the contraction certificates
DEFAULT_TIME_GRID = (0.01, 0.1, 1.0, 5.0)
# default times for the small-time curvature limit
DEFAULT_LIMIT_GRID = (1e-2, 1e-3, 1e-4)
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
    fs: np.ndarray,
    ts: tuple[float, ...] = DEFAULT_TIME_GRID,
    tol: float = 1e-9,
) -> InequalityCertificate:
    """Check Lip(P_t f) <= exp(-K t) Lip(f) on every sample and time.

    Each time smooths the whole stack of samples in one apply.
    NegativeTimeError, before any kernel is built, if ts is empty.
    """
    _require_times(ts)
    fs = np.atleast_2d(fs)
    lip_fs = lipschitz_constant(fs, dm).tolist()
    comparisons = []
    for t in ts:
        lip_heats = lipschitz_constant(H.apply(t, fs), dm).tolist()
        # a large negative K overflows the bound to inf: vacuous, and correct
        with np.errstate(over="ignore"):
            shrink = float(np.exp(-K * t))
        comparisons += [
            (lip_heat, shrink * lip_f, {"t": t, "f_index": i, "lip_f": lip_f})
            for i, (lip_heat, lip_f) in enumerate(zip(lip_heats, lip_fs))
        ]
    return certificate_from_samples(
        "lipschitz_contraction", {"K": K, "times": list(ts)}, comparisons, tol
    )


def _require_times(ts: tuple[float, ...]) -> None:
    """NegativeTimeError unless the time grid holds a time."""
    if not len(ts):
        raise NegativeTimeError("time grid must contain a time")


def _heat_flow_w(
    H: HeatOperator, dm: DistanceMatrix, times: list[float], xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """W(p_x_t, p_y_t) at each of the ascending times (rows) for each pair (columns).

    One table (transport.wasserstein): every kernel is built before the
    first solve, and a pair's column starts from its arc's kappa
    optimum when dm holds one, otherwise from a BFS tree.
    """
    kernels = np.stack([heat_kernel_matrix(H, t) for t in times])
    starts = [dm._arc_starts.get(pair) for pair in zip(xs.tolist(), ys.tolist())]
    table = transport.wasserstein(kernels[:, xs], kernels[:, ys], dm, verify=False, start=starts)
    return table.values


def verify_transport_contraction(
    H: HeatOperator,
    dm: DistanceMatrix,
    K: float,
    ts: tuple[float, ...] = DEFAULT_TIME_GRID,
    tol: float = 1e-9,
) -> InequalityCertificate:
    """Check W(p_x_t, p_y_t) <= exp(-K t) d(x, y) over all ordered pairs.

    The loop runs over the arcs (d(x, y) = 1) only; the module docstring
    says why that covers every pair.  A pair at distance k has at least
    the sum of the margins of the k arcs of a geodesic, so at tol = 0
    the verdict is the all-pairs verdict, and while every arc passes the
    worst pair margin is the worst arc margin (both up to the roundoff
    of the W solves).  With tol > 0, a pass bounds every pair's W by
    exp(-K t) d(x, y) within d(x, y) * tol.  When an arc fails, a pair at
    distance k may fail by up to k times the reported margin.

    The W form one table (transport.wasserstein): a column per arc, its
    distinct times in ascending order, the first solve from the arc's
    kappa optimum when dm holds one, each later one from the previous
    time's optimal basis (see the module docstring); the comparisons
    are listed as ts gives the times, arcs in order within each.  Every
    kernel is built before the first solve, so an empty grid or a
    negative time raises NegativeTimeError (the latter from
    heat_kernel_matrix) before any W is solved.
    """
    _require_times(ts)
    times = sorted(set(ts))
    values = _heat_flow_w(H, dm, times, *dm.arcs.T).tolist()
    arcs = dm.arcs.tolist()
    comparisons = []
    for t in ts:
        # a large negative K overflows the bound to inf: vacuous, and correct
        with np.errstate(over="ignore"):
            shrink = float(np.exp(-K * t))
        comparisons += [
            (value, shrink, {"t": t, "pair": (x, y)})
            for value, (x, y) in zip(values[times.index(t)], arcs)
        ]
    return certificate_from_samples(
        "transport_contraction",
        {"K": K, "times": list(ts), "pairs": "arcs"},
        comparisons,
        tol,
    )


def curvature_time_limit(
    H: HeatOperator,
    dm: DistanceMatrix,
    xs: np.ndarray,
    ys: np.ndarray,
    t_grid: tuple[float, ...] = DEFAULT_LIMIT_GRID,
) -> tuple[np.ndarray, np.ndarray]:
    """Small-time curvature (1/t)(1 - W(p_x_t, p_y_t) / d(x, y)) of each pair (xs[j], ys[j]).

    Returns, per pair, the two-point Richardson extrapolation through
    the two smallest distinct grid times together with the spread
    (max - min) of the finite-time estimates, which reports how settled
    the limit is; a grid of one distinct time gives its estimate and
    spread 0.  The W form one table (transport.wasserstein): a column
    per pair over the distinct times in ascending order, the first from
    the arc's kappa optimum when x -> y is an arc whose kappa dm holds,
    each later one from the previous time's optimal basis (see the
    module docstring).  NegativeTimeError unless the grid holds a time
    and every time is positive; SameVertexError if a pair repeats a
    vertex.
    """
    ts = sorted(set(t_grid))
    if not ts or ts[0] <= 0:
        raise NegativeTimeError("limit grid must contain positive times")
    xs, ys = np.asarray(xs, dtype=int), np.asarray(ys, dtype=int)
    if (xs == ys).any():
        raise SameVertexError("curvature needs two distinct vertices")
    w = _heat_flow_w(H, dm, ts, xs, ys)
    estimates = (1.0 - w / dm.d[xs, ys].astype(float)) / np.asarray(ts)[:, None]
    if len(ts) == 1:
        return estimates[0], np.zeros(len(xs))
    t1, t2 = ts[1], ts[0]
    g1, g2 = estimates[1], estimates[0]
    extrapolated = (t1 * g2 - t2 * g1) / (t1 - t2)
    return extrapolated, estimates.max(axis=0) - estimates.min(axis=0)
