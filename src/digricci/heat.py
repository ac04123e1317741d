"""Heat semigroup of the mean Laplacian and its contraction certificates.

P_t = exp(-t L) is computed spectrally: conjugating Pbar by the square
root of the stationary measure gives a symmetric matrix, so one real
eigendecomposition evaluates the semigroup at every time exactly (up to
roundoff) and keeps the semigroup law and self-adjointness tight.  The
row measures p_x_t of P_t are probability vectors; transporting them
against each other at small times recovers the curvature of each pair,
and at a global rate K the flow contracts both Lipschitz constants and
transport distances like exp(-K t).  The tests hold this route to an
independent one, the truncated series exp(-t) sum_k t^k Pbar^k / k!
(tests/oracles.uniformization_matrix).

The hop metric is a path metric, so the transport inequality is local:
a geodesic x = x_0 -> ... -> x_k = y splits d(x, y) = k into arcs, and
the triangle inequality for W bounds W(p_x_t, p_y_t) by the sum of the
W over those arcs.  If every arc satisfies W <= exp(-K t), every pair
satisfies W <= exp(-K t) d(x, y), so the contraction certificate is
checked over the arcs alone (Ollivier, J. Funct. Anal. 256, 2009).

Both W certificates, the contraction and the small-time limit, solve
each arc at several times of one program: its cost and constraint
matrix do not depend on t, only the right-hand side p_x_t - p_y_t
does.  So each arc is solved along its times in ascending order, each
solve starting from the previous time's optimal basis
(transport.wasserstein's start), which stays dual feasible and at
small t is usually optimal already.  The first time starts from the
arc's curvature optimum when kappa_lp has solved the arc on the same
DistanceMatrix (transport.ArcStart): the curvature program is the
first-order problem of W as t -> 0, so that basis is nearly optimal
for every time.  Otherwise it starts from a BFS tree.  Each time's
kernel matrix is built once per operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import transport
from .certificates import InequalityCertificate, certificate_from_samples
from .chain import MarkovData
from .digraph import DistanceMatrix, lipschitz_constant
from .errors import NegativeTimeError, NonSymmetricResidualError, NumericsError

# symmetry required of the conjugated kernel before eigendecomposition
SYMMETRY_TOL = 1e-10
# eigenvalues of L must land in [0, 2] within this slack
SPECTRUM_TOL = 1e-10
# kernel rows may dip this far below zero before renormalisation refuses
KERNEL_NEG_CLAMP = 1e-12
# largest |P_0 - I| entry the spectral form may leave
IDENTITY_TOL = 1e-10
# default times for the contraction certificates
DEFAULT_TIME_GRID = (0.01, 0.1, 1.0, 5.0)
# default times for the small-time curvature limit
DEFAULT_LIMIT_GRID = (1e-2, 1e-3, 1e-4)
# largest |exact - heat limit| over the arcs that counts as agreement
HEAT_LIMIT_AGREEMENT_TOL = 1e-3


@dataclass(frozen=True)
class HeatOperator:
    """Spectral form of exp(-t L) for one chain."""

    m: np.ndarray
    sqrt_m: np.ndarray
    Q: np.ndarray
    eigenvalues: np.ndarray  # of L, ascending
    # heat_kernel_matrix's clamped kernels by time, built on first use
    _kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.m.shape[0]

    def matrix(self, t: float) -> np.ndarray:
        """Dense P_t; rows are the heat-kernel measures before clamping."""
        if t < 0:
            raise NegativeTimeError(f"time must be non-negative, got {t}")
        decay = np.exp(-t * self.eigenvalues)
        core = (self.Q * decay[None, :]) @ self.Q.T
        return (core * self.sqrt_m[None, :]) / self.sqrt_m[:, None]

    def apply(self, t: float, f: np.ndarray) -> np.ndarray:
        """P_t f without forming the full matrix.

        f may be a stack of functions, the vertex on the last axis; each
        is smoothed alone.
        """
        if t < 0:
            raise NegativeTimeError(f"time must be non-negative, got {t}")
        f = np.asarray(f, dtype=float)
        coeff = (self.sqrt_m * f) @ self.Q
        coeff *= np.exp(-t * self.eigenvalues)
        return (coeff @ self.Q.T) / self.sqrt_m


def heat_operator(M: MarkovData) -> HeatOperator:
    """Eigendecompose the measure-symmetrised mean kernel.

    Conjugating back by sqrt(m) scales the eigenvector roundoff in
    entry (x, y) of P_t by sqrt(m(y) / m(x)), which a stationary measure
    spread over hundreds of orders of magnitude makes large.  So the
    operator is checked at t = 0: NumericsError unless every entry of
    P_0 is within IDENTITY_TOL of the identity's, naming the worst
    entry and max m / min m.
    """
    sqrt_m = np.sqrt(M.m)
    S = (sqrt_m[:, None] * M.Pmean) / sqrt_m[None, :]
    asym = float(np.abs(S - S.T).max())
    if asym > SYMMETRY_TOL:
        raise NonSymmetricResidualError(
            f"symmetrised kernel asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.1e}"
        )
    S = 0.5 * (S + S.T)
    sigma, Q = np.linalg.eigh(S)
    eigenvalues = (1.0 - sigma)[::-1].copy()  # ascending in L
    Q = Q[:, ::-1].copy()
    if eigenvalues[0] < -SPECTRUM_TOL or eigenvalues[-1] > 2.0 + SPECTRUM_TOL:
        raise NumericsError(
            f"Laplacian spectrum [{eigenvalues[0]:.3e}, {eigenvalues[-1]:.3e}] leaves [0, 2]"
        )
    if M.n > 1 and eigenvalues[1] <= SPECTRUM_TOL:
        raise NumericsError("zero eigenvalue of L is not simple; chain not irreducible?")
    eigenvalues[0] = 0.0
    for a in (sqrt_m, Q, eigenvalues):
        a.flags.writeable = False
    H = HeatOperator(m=M.m, sqrt_m=sqrt_m, Q=Q, eigenvalues=eigenvalues)
    off = H.matrix(0.0) - np.eye(M.n)
    x, y = np.unravel_index(np.abs(off).argmax(), off.shape)
    if not abs(off[x, y]) <= IDENTITY_TOL:
        raise NumericsError(
            f"heat operator misses P_0 = I by {off[x, y]:.3e} at entry ({x}, {y});"
            f" max m / min m = {float(M.m.max()) / float(M.m.min()):.3e}"
        )
    return H


def heat_kernel_matrix(H: HeatOperator, t: float) -> np.ndarray:
    """All heat-kernel rows at time t, clamped and renormalised: row x is p_x_t.

    Entries may round slightly negative; dips beyond KERNEL_NEG_CLAMP
    mean something upstream broke and raise instead of being hidden.
    The matrix is built once per operator and time, kept on H and
    read-only.
    """
    kernel = H._kernels.get(t)
    if kernel is None:
        rows = H.matrix(t)
        worst = float(rows.min())
        if worst < -KERNEL_NEG_CLAMP:
            raise NumericsError(f"heat kernel entry {worst:.3e} below clamp threshold")
        rows = np.maximum(rows, 0.0)
        kernel = rows / rows.sum(axis=1, keepdims=True)
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
    """
    fs = np.atleast_2d(fs)
    lip_fs = lipschitz_constant(fs, dm).tolist()
    comparisons = []
    for t in ts:
        lip_heats = lipschitz_constant(H.apply(t, fs), dm).tolist()
        shrink = float(np.exp(-K * t))
        comparisons += [
            (lip_heat, shrink * lip_f, {"t": t, "f_index": i, "lip_f": lip_f})
            for i, (lip_heat, lip_f) in enumerate(zip(lip_heats, lip_fs))
        ]
    return certificate_from_samples(
        "lipschitz_contraction", {"K": K, "times": list(ts)}, comparisons, tol
    )


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

    Each arc is solved once per distinct time, in ascending order, the
    first solve from the arc's kappa optimum when dm holds one, each
    later one from the previous time's optimal basis (see the module
    docstring); the comparisons are listed as ts gives the times, arcs
    in order within each.  Every kernel is built before the first
    solve, so a negative time raises NegativeTimeError (from
    HeatOperator.matrix) before any W is solved.
    """
    times = sorted(set(ts))
    kernels = [heat_kernel_matrix(H, t) for t in times]
    arcs = dm.arcs.tolist()
    w = np.empty((len(times), len(arcs)))
    for k, (x, y) in enumerate(arcs):
        plan = dm._arc_starts.get((x, y))
        for i, kernel in enumerate(kernels):
            plan = transport.wasserstein(kernel[x], kernel[y], dm, verify=False, start=plan)
            w[i, k] = plan.value
    comparisons = []
    for t in ts:
        shrink = float(np.exp(-K * t))
        comparisons += [
            (value, shrink, {"t": t, "pair": (x, y)})
            for value, (x, y) in zip(w[times.index(t)].tolist(), arcs)
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
    x: int,
    y: int,
    t_grid: tuple[float, ...] = DEFAULT_LIMIT_GRID,
) -> tuple[float, float]:
    """Small-time curvature (1/t)(1 - W(p_x_t, p_y_t) / d(x, y)).

    Returns the two-point Richardson extrapolation through the two
    smallest distinct grid times together with the spread (max - min)
    of the finite-time estimates, which reports how settled the limit
    is; a grid of one distinct time gives its estimate and spread 0.
    The W are solved over the distinct times in ascending order, the
    first from the arc's kappa optimum when x -> y is an arc whose kappa
    dm holds, each later one from the previous time's optimal basis (see
    the module docstring).
    """
    ts = sorted(set(t_grid))
    if not ts or ts[0] <= 0:
        raise NegativeTimeError("limit grid must contain positive times")
    dxy = float(dm.d[x, y])
    estimates = []
    plan = dm._arc_starts.get((x, y))
    for t in ts:
        kernel = heat_kernel_matrix(H, t)
        plan = transport.wasserstein(kernel[x], kernel[y], dm, verify=False, start=plan)
        estimates.append((1.0 - plan.value / dxy) / t)
    if len(estimates) == 1:
        return estimates[0], 0.0
    t1, t2 = ts[1], ts[0]
    g1, g2 = estimates[1], estimates[0]
    extrapolated = (t1 * g2 - t2 * g1) / (t1 - t2)
    return float(extrapolated), float(max(estimates) - min(estimates))
