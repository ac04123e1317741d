"""Random-walk kernels, the stationary measure, and the mean Laplacian.

The walk steps from x with probability proportional to outgoing arc
weight: P(x, y) = mu_xy / mu(x).  On a strongly connected graph P has a
unique stationary probability measure m (all entries positive).  The
time reversal Prev(x, y) = m(y) P(y, x) / m(x) is again a kernel, and
the mean kernel Pbar = (P + Prev) / 2 is reversible with respect to m.
Everything downstream works with the operator L = I - Pbar, which is
self-adjoint in the inner product (f, g) = sum f g m, and with the
symmetric edge weights m_xy = m(x) Pbar(x, y).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .digraph import DirectedGraph
from .errors import SingularSystemError

# residual tolerance for the stationary balance equations
BALANCE_TOL = 1e-12


@dataclass(frozen=True)
class MarkovData:
    """Kernel, stationary measure, mean kernel, edge weights, and L = I - Pbar.

    Every array is read-only: markov_data keeps one MarkovData per graph
    and hands it to every run on that graph.
    """

    P: np.ndarray
    m: np.ndarray
    Pmean: np.ndarray
    mxy: np.ndarray
    L: np.ndarray

    @property
    def n(self) -> int:
        return self.m.shape[0]


def transition_kernel(g: DirectedGraph) -> np.ndarray:
    """Row-stochastic kernel of the outgoing-weight random walk.

    build_graph made every out-weight sum finite and, by strong
    connectivity, positive, so each row divides by a positive number.
    """
    return g.mu / g.mu.sum(axis=1)[:, None]


def perron_measure(P: np.ndarray) -> np.ndarray:
    """Unique stationary probability measure of an irreducible kernel.

    Solves (P^T - I) m = 0 directly with one row replaced by the
    normalisation sum(m) = 1.  A direct solve is used on purpose:
    periodic kernels (a directed cycle, say) make power iteration
    oscillate, while the linear system stays nonsingular whenever P is
    irreducible.
    """
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        m = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"stationary system is singular: {exc}") from None
    residual = float(np.abs(m @ P - m).max())
    if residual > BALANCE_TOL or m.min() <= 0:
        raise SingularSystemError(
            f"stationary solve failed: balance residual {residual:.3e}, min entry {m.min():.3e}"
        )
    return m


def mean_kernel(P: np.ndarray, m: np.ndarray) -> MarkovData:
    """Assemble the mean kernel, the edge weights and the mean Laplacian.

    The symmetric weights are built as m_xy = (m(x) P(x,y) + m(y) P(y,x)) / 2,
    which is exactly symmetric in floating point; Pbar is recovered from
    the average of P and Prev, so m(x) Pbar(x,y) agrees with m_xy to
    roundoff (tests hold the reversibility residual to 1e-14).
    """
    P = np.asarray(P, dtype=float)
    m = np.asarray(m, dtype=float)
    Prev = (m[None, :] * P.T) / m[:, None]
    Pmean = 0.5 * (P + Prev)
    w = m[:, None] * P
    mxy = 0.5 * (w + w.T)
    L = np.eye(P.shape[0]) - Pmean
    for a in (P, Pmean, mxy, L, m):
        a.flags.writeable = False
    return MarkovData(P=P, m=m, Pmean=Pmean, mxy=mxy, L=L)


def markov_data(g: DirectedGraph) -> MarkovData:
    """transition_kernel + perron_measure + mean_kernel in one call.

    Built on the graph's first call and kept on it (DirectedGraph._derived):
    every later call returns the same read-only MarkovData.
    """
    M = g._derived.get("markov")
    if M is None:
        P = transition_kernel(g)
        M = mean_kernel(P, perron_measure(P))
        g._derived["markov"] = M
    return M


def gamma(f0: np.ndarray, f1: np.ndarray, M: MarkovData) -> np.ndarray:
    """Carre du champ: Gamma(f0, f1)(x) = (1/2) sum_y df0 df1 Pbar(x, y).

    f0 and f1 may be stacks of functions, the vertex on the last axis;
    the result then has one row per pair.  The sum runs one vertex x at
    a time, as a (count, n) product summed over the last axis, so no
    count x n x n array is formed and each row gets the bits of a 1-D
    call.
    """
    f0 = np.asarray(f0, dtype=float)
    f1 = np.asarray(f1, dtype=float)
    out = np.empty(np.broadcast_shapes(f0.shape, f1.shape))
    for x in range(M.n):
        d0 = f0 - f0[..., x, None]
        d1 = f1 - f1[..., x, None]
        out[..., x] = (d0 * d1 * M.Pmean[x]).sum(axis=-1)
    return 0.5 * out


def inner(f0: np.ndarray, f1: np.ndarray, m: np.ndarray) -> float | np.ndarray:
    """Stationary inner product (f0, f1) = sum f0 f1 m.

    On stacks, the vertex on the last axis, the result is an array of
    one product per row, each with the bits of a 1-D call.
    """
    total = (np.asarray(f0) * np.asarray(f1) * m).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def mean(f: np.ndarray, m: np.ndarray) -> float | np.ndarray:
    """Stationary mean m(f) = sum f m.

    On a stack, the vertex on the last axis, the result is an array of
    one mean per row, each with the bits of a 1-D call.
    """
    total = (np.asarray(f) * m).sum(axis=-1)
    return float(total) if total.ndim == 0 else total
