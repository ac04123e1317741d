"""Output checks that do not trust the code under test.

Hop distances come from this file's own breadth-first search over the
generated arc list, every check reads the CLI's JSON output with the
standard library, and the bound on K comes from this file's own
potentials.  Each check returns None when the output is right, or one
line saying what is wrong.
"""

from __future__ import annotations

import json
import math
from collections import deque

import numpy as np

# the chain-level tolerance the CLI promises for the Perron balance
PERRON_SUM_TOL = 1e-12
HEAT_ROW_SUM_TOL = 1e-12
# smoothing route against the exact LP; analyze uses the same threshold
CURVATURE_LIMIT_TOL = 1e-4
# slack on witness and dual potentials, which come out of an LP
POTENTIAL_TOL = 1e-9


def hop_distances(n: int, arcs) -> list[list[int]]:
    """All-pairs directed hop distances by BFS; -1 marks unreachable."""
    out: list[list[int]] = [[] for _ in range(n)]
    for x, y, _w in arcs:
        out[x].append(y)
    dist = []
    for s in range(n):
        row = [-1] * n
        row[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in out[v]:
                if row[w] == -1:
                    row[w] = row[v] + 1
                    queue.append(w)
        dist.append(row)
    return dist


def curvature_upper_bound(n: int, arcs, dist) -> float:
    """An upper bound on K from explicit feasible potentials, one per pair.

    kappa(x, y) is the least grad_xy(L f) over 1-Lipschitz f with
    f(x) = 0 and f(y) = d(x, y), so any such f bounds kappa(x, y), and
    hence K, from above.  For each pair this takes the largest feasible
    value where Pbar(y, .) outweighs Pbar(x, .) and the smallest
    elsewhere, then the largest 1-Lipschitz minorant of that choice,
    which keeps both normalisations.  Arrays are indexed [x, y, z].
    """
    mu = np.zeros((n, n))
    for x, y, w in arcs:
        mu[x, y] = w
    P = mu / mu.sum(axis=1, keepdims=True)
    A = P.T - np.eye(n)
    A[-1] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    m = np.linalg.solve(A, rhs)
    Pbar = 0.5 * (P + (m[None, :] * P.T) / m[:, None])
    d = np.asarray(dist, dtype=float)
    dxy = d[:, :, None]
    hi = np.minimum(d[:, None, :], dxy + d[None, :, :])
    lo = np.maximum(-d.T[:, None, :], dxy - d.T[None, :, :])
    coef = Pbar[None, :, :] - Pbar[:, None, :]
    choice = np.where(coef > 0, hi, lo)
    f = (choice[:, :, :, None] + d[None, None, :, :]).min(axis=2)
    off = ~np.eye(n, dtype=bool)
    values = (d - (coef * f).sum(axis=2))[off] / d[off]
    return float(values.min())


def _load(code: int, text: str):
    if code != 0:
        raise ValueError(f"exit code {code}, expected 0")
    return json.loads(text)


def _lipschitz_violation(f, dist) -> float:
    """Largest f(w) - f(z) - d(z, w) over ordered pairs; <= 0 when Lip f <= 1."""
    n = len(f)
    return max(f[w] - f[z] - dist[z][w] for z in range(n) for w in range(n) if z != w)


def _kappa_matrix_problem(kappa, K, graph) -> str | None:
    n = graph.n
    if len(kappa) != n or any(len(row) != n for row in kappa):
        return "kappa is not n x n"
    if any(kappa[x][x] is not None for x in range(n)):
        return "kappa diagonal is not null"
    off = [kappa[x][y] for x in range(n) for y in range(n) if x != y]
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v)
           for v in off):
        return "off-diagonal kappa is not finite"
    if K != min(off):
        return f"K = {K!r} is not the minimum off-diagonal kappa {min(off)!r}"
    if graph.exact_k is not None and K != graph.exact_k:
        return f"K = {K!r}, expected exactly {graph.exact_k!r}"
    if K > graph.k_upper + POTENTIAL_TOL:
        return f"K = {K!r} exceeds the bound {graph.k_upper!r} of an explicit potential"
    if graph.expect_sign != 0 and ((K > 0) != (graph.expect_sign > 0) or K == 0):
        return f"K = {K!r} does not have the expected sign {graph.expect_sign:+d}"
    return None


def check_analyze(graph, code: int, text: str) -> str | None:
    doc = _load(code, text)
    if doc.get("all_pass") is not True:
        failed = [c["name"] for c in doc["certificates"] if not c["pass"]]
        return f"all_pass is not true; failed certificates {failed}"
    if doc["graph"]["n"] != graph.n or doc["graph"]["arcs"] != len(graph.arcs):
        return "reported graph size differs from the generated graph"
    curv = doc["curvature"]
    return _kappa_matrix_problem(curv["kappa"], curv["K"], graph)


def check_curvature_matrix(graph, code: int, text: str) -> str | None:
    doc = _load(code, text)
    return _kappa_matrix_problem(doc["kappa"], doc["K"], graph)


def check_wasserstein(dist, x: int, y: int, code: int, text: str) -> str | None:
    """W(dirac x, dirac y) is exactly d(x, y) and the plan is the point mass (x, y)."""
    doc = _load(code, text)
    if doc["value"] != dist[x][y]:
        return f"W(dirac:{x}, dirac:{y}) = {doc['value']!r}, hop distance is {dist[x][y]}"
    n = len(dist)
    for i in range(n):
        for j in range(n):
            want = 1.0 if (i, j) == (x, y) else 0.0
            if doc["plan"][i][j] != want:
                return f"plan[{i}][{j}] = {doc['plan'][i][j]!r}, expected {want}"
    f = doc["dual_potential"]
    if abs(f[y] - f[x] - dist[x][y]) > POTENTIAL_TOL:
        return "dual potential does not attain d(x, y)"
    if _lipschitz_violation(f, dist) > POTENTIAL_TOL:
        return "dual potential is not 1-Lipschitz for the hop metric"
    return None


def check_pair_curvature(dist, x: int, y: int, code: int, text: str) -> str | None:
    """The witness is an optimal-program feasible point; both routes agree."""
    doc = _load(code, text)
    if doc["pair"] != [x, y]:
        return f"pair {doc['pair']} returned for ({x}, {y})"
    witness = doc["witness"]
    if witness[x] != 0.0 or abs(witness[y] - dist[x][y]) > POTENTIAL_TOL:
        return "curvature witness is not normalised to f(x) = 0, f(y) = d(x, y)"
    if _lipschitz_violation(witness, dist) > POTENTIAL_TOL:
        return "curvature witness is not 1-Lipschitz for the hop metric"
    if not abs(doc["kappa"] - doc["kappa_limit"]) <= CURVATURE_LIMIT_TOL:
        return f"kappa {doc['kappa']!r} and smoothing limit {doc['kappa_limit']!r} disagree"
    return None


def check_heat_row(n: int, x: int, code: int, text: str) -> str | None:
    doc = _load(code, text)
    row = doc["kernel_row"]
    if doc["x"] != x or len(row) != n:
        return "heat kernel row has the wrong vertex or length"
    if min(row) < 0.0:
        return f"heat kernel row has a negative entry {min(row)!r}"
    if abs(math.fsum(row) - 1.0) > HEAT_ROW_SUM_TOL:
        return f"heat kernel row sums to {math.fsum(row)!r}"
    return None


def check_perron(graph, balance_tol: float, code: int, text: str) -> str | None:
    """The reported measure is a probability vector balanced under the walk."""
    doc = _load(code, text)
    m = doc["perron"]
    if doc["balance_residual"] > balance_tol:
        return f"reported balance residual {doc['balance_residual']!r} exceeds {balance_tol}"
    if len(m) != graph.n or min(m) <= 0.0 or abs(math.fsum(m) - 1.0) > PERRON_SUM_TOL:
        return "Perron vector is not a positive probability vector"
    out_weight = [0.0] * graph.n
    for x, _y, w in graph.arcs:
        out_weight[x] += w
    flow = [0.0] * graph.n
    for x, y, w in graph.arcs:
        flow[y] += m[x] * w / out_weight[x]
    residual = max(abs(f - mx) for f, mx in zip(flow, m))
    if residual > balance_tol:
        return f"recomputed balance residual {residual!r} exceeds {balance_tol}"
    return None
