"""Weighted directed graphs: validation, hop distances, Lipschitz calculus.

The distance d(x, y) is the least number of arcs on a directed path from
x to y, so d is in general non-symmetric.  Arc weights never enter d;
they only shape the random walk built downstream.  The symmetrised
distance D(x, y) = max(d(x, y), d(y, x)) and its maximum over the
neighbourhood of x (out- and in-neighbours together) control the
constants in every concentration statement, so both are precomputed
here alongside the raw hop counts.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    NegativeWeightError,
    NotStronglyConnectedError,
    ParseError,
    SameVertexError,
    SelfLoopError,
)


@dataclass(frozen=True)
class DirectedGraph:
    """Simple weighted directed graph on vertices 0..n-1.

    mu[x, y] > 0 exactly when the arc x -> y exists.  The diagonal is
    zero (no self loops) and all weights are non-negative.  Strong
    connectivity is checked once at construction and recorded.
    """

    n: int
    mu: np.ndarray
    strongly_connected: bool
    labels: tuple[str, ...] | None = None

    @property
    def arc_count(self) -> int:
        return int(np.count_nonzero(self.mu))

    def out_weight(self) -> np.ndarray:
        """Total outgoing weight mu(x) = sum_y mu[x, y] per vertex."""
        return self.mu.sum(axis=1)

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels is not None else str(x)


@dataclass(frozen=True)
class DistanceMatrix:
    """Hop distances plus the symmetrised quantities derived from them.

    d[x, y]    directed hop distance (non-symmetric in general)
    dsym[x, y] max(d[x, y], d[y, x])
    dvert[x]   max of dsym[x, y] over neighbours y of x (both directions)
    lam        max of dvert over all vertices
    arcs[k]    (tail, head) of the k-th arc, the pairs with d = 1 in row-major order

    _root_bases holds transport.root_basis's flow bases, one per root
    and tree direction, built on first use; it is private to that
    function and never compared.
    """

    d: np.ndarray
    dsym: np.ndarray
    dvert: np.ndarray
    lam: int
    arcs: np.ndarray
    _root_bases: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def build_graph(mu: np.ndarray, labels: tuple[str, ...] | None = None) -> DirectedGraph:
    """Validate a weight matrix and wrap it in a DirectedGraph."""
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 2 or mu.shape[0] != mu.shape[1]:
        raise ParseError(f"weight matrix must be square, got shape {mu.shape}")
    n = mu.shape[0]
    if n == 0:
        raise ParseError("graph must have at least one vertex")
    if not np.isfinite(mu).all():
        x, y = np.argwhere(~np.isfinite(mu))[0]
        raise ParseError(f"arc {x} -> {y} has non-finite weight {mu[x, y]}")
    if np.any(mu < 0):
        x, y = np.argwhere(mu < 0)[0]
        raise NegativeWeightError(f"arc {x} -> {y} has negative weight {mu[x, y]}")
    if np.any(np.diag(mu) != 0):
        x = int(np.nonzero(np.diag(mu))[0][0])
        raise SelfLoopError(f"vertex {x} has a self loop")
    if labels is not None:
        labels = tuple(str(s) for s in labels)
        if len(labels) != n:
            raise ParseError(f"expected {n} labels, got {len(labels)}")
    mu = mu.copy()
    mu.flags.writeable = False
    components = strongly_connected_components(mu)
    return DirectedGraph(n=n, mu=mu, strongly_connected=len(components) == 1, labels=labels)


def strongly_connected_components(mu: np.ndarray) -> list[list[int]]:
    """Tarjan's algorithm, iterative, single pass.

    Returns the components as vertex lists in reverse topological order.
    """
    n = mu.shape[0]
    adj = [np.nonzero(mu[x] > 0)[0].tolist() for x in range(n)]
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        # explicit DFS stack of (vertex, iterator position)
        work = [(root, 0)]
        while work:
            v, pos = work.pop()
            if pos == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pos, len(adj[v])):
                w = adj[v][i]
                if index[w] == -1:
                    work.append((v, i + 1))
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(comp)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return components


def reversed_graph(g: DirectedGraph) -> DirectedGraph:
    """The graph with every arc flipped; weights carried along."""
    return build_graph(np.array(g.mu.T), labels=g.labels)


def distances(g: DirectedGraph) -> DistanceMatrix:
    """All-pairs hop distances by BFS from every source.

    Requires strong connectivity, which also guarantees every vertex has
    at least one out- and one in-neighbour once n >= 2.
    """
    if not g.strongly_connected:
        raise NotStronglyConnectedError("distances need a strongly connected graph")
    n = g.n
    adj = [np.nonzero(g.mu[x] > 0)[0].tolist() for x in range(n)]
    d = np.zeros((n, n), dtype=int)
    for s in range(n):
        seen = np.full(n, -1, dtype=int)
        seen[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if seen[w] == -1:
                    seen[w] = seen[v] + 1
                    queue.append(w)
        d[s] = seen
    dsym = np.maximum(d, d.T)
    nbr = (g.mu > 0) | (g.mu.T > 0)
    dvert = np.where(nbr, dsym, 0).max(axis=1)
    arcs = np.argwhere(d == 1)
    for a in (d, dsym, dvert, arcs):
        a.flags.writeable = False
    return DistanceMatrix(
        d=d, dsym=dsym, dvert=dvert, lam=int(dvert.max()) if n > 1 else 0, arcs=arcs
    )


def gradient(f: np.ndarray, x: int, y: int, dm: DistanceMatrix) -> float:
    """Difference quotient (f(y) - f(x)) / d(x, y) along the ordered pair."""
    if x == y:
        raise SameVertexError(f"gradient needs two distinct vertices, got {x}")
    return float((f[y] - f[x]) / dm.d[x, y])


def gradient_matrix(f: np.ndarray, dm: DistanceMatrix) -> np.ndarray:
    """All difference quotients at once; the diagonal is set to -inf."""
    f = np.asarray(f, dtype=float)
    n = f.shape[0]
    diff = f[None, :] - f[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        grad = diff / dm.d
    np.fill_diagonal(grad, -np.inf)
    return grad


def lipschitz_constant(f: np.ndarray, dm: DistanceMatrix) -> float:
    """sup over ordered pairs x != y of the difference quotient.

    A function is c-Lipschitz exactly when this value is <= c; note the
    sup runs over both orientations of every pair, which matters because
    d is non-symmetric.  The hop metric is a path metric, so the sup is
    the largest f(w) - f(z) over the arcs z -> w: along a geodesic from
    x to y, f(y) - f(x) is a sum of d(x, y) arc differences.  Only
    rounding separates this from the max of gradient_matrix, the
    all-pairs form, which it never exceeds.
    """
    if dm.d.shape[0] < 2:
        return 0.0
    f = np.asarray(f, dtype=float)
    return float((f[dm.arcs[:, 1]] - f[dm.arcs[:, 0]]).max())


def sample_lipschitz_functions(
    dm: DistanceMatrix,
    count: int,
    rng: np.random.Generator,
    scale: tuple[float, float] | None = None,
) -> np.ndarray:
    """Random 1-Lipschitz functions, optionally rescaled.

    Each sample is f(z) = min over a random anchor set A of d(a, z) + c_a
    with random offsets c_a.  Every piece satisfies the directed triangle
    inequality, and a pointwise min of 1-Lipschitz functions is again
    1-Lipschitz, so Lip f <= 1 by construction.  When scale = (lo, hi)
    each sample is multiplied by an independent uniform draw from it.
    """
    n = dm.d.shape[0]
    out = np.empty((count, n))
    for i in range(count):
        k = int(rng.integers(1, n + 1))
        anchors = rng.choice(n, size=k, replace=False)
        offsets = rng.uniform(0.0, dm.lam + 1.0, size=k)
        out[i] = (dm.d[anchors] + offsets[:, None]).min(axis=0)
        if scale is not None:
            out[i] *= rng.uniform(scale[0], scale[1])
    return out


def _weight_matrix(n: int) -> np.ndarray:
    """The n x n zero weight matrix; ParseError when n vertices cannot be held."""
    try:
        return np.zeros((n, n))
    except (ValueError, MemoryError):
        raise ParseError(f"{n} vertices are too many for a dense weight matrix") from None


def _parse_edge_list(text: str) -> tuple[np.ndarray, None]:
    arcs: dict[tuple[int, int], float] = {}
    max_vertex = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"line {lineno}: expected 'src dst [weight]', got {raw!r}")
        try:
            src, dst = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: vertex ids must be integers") from None
        if src < 0 or dst < 0:
            raise ParseError(f"line {lineno}: vertex ids must be non-negative")
        weight = 1.0
        if len(parts) == 3:
            try:
                weight = float(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: bad weight {parts[2]!r}") from None
        if src == dst:
            raise SelfLoopError(f"line {lineno}: self loop at vertex {src}")
        if weight < 0:
            raise NegativeWeightError(f"line {lineno}: negative weight {weight}")
        if weight == 0:
            raise ParseError(f"line {lineno}: zero-weight arc; omit the line instead")
        if (src, dst) in arcs:
            raise ParseError(f"line {lineno}: duplicate arc {src} -> {dst}")
        arcs[(src, dst)] = weight
        max_vertex = max(max_vertex, src, dst)
    if not arcs:
        raise ParseError("no arcs found")
    n = max_vertex + 1
    mu = _weight_matrix(n)
    for (src, dst), weight in arcs.items():
        mu[src, dst] = weight
    return mu, None


def _is_int(value) -> bool:
    """A JSON integer; bool is a subclass of int, but true is no number."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_json_document(text: str) -> tuple[np.ndarray, tuple[str, ...] | None]:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "n" not in doc or "arcs" not in doc:
        raise ParseError('JSON graph needs keys "n" and "arcs"')
    n = doc["n"]
    if not _is_int(n) or n <= 0:
        raise ParseError(f'"n" must be a positive integer, got {n!r}')
    if not isinstance(doc["arcs"], list):
        raise ParseError('"arcs" must be a list of arcs')
    mu = _weight_matrix(n)
    for k, arc in enumerate(doc["arcs"]):
        if not isinstance(arc, (list, tuple)) or len(arc) not in (2, 3):
            raise ParseError(f"arc #{k}: expected [src, dst] or [src, dst, weight]")
        src, dst = arc[0], arc[1]
        weight = arc[2] if len(arc) == 3 else 1.0
        if not (_is_int(weight) or isinstance(weight, float)):
            raise ParseError(f"arc #{k}: weight must be a number, got {json.dumps(weight)}")
        try:
            weight = float(weight)
        except OverflowError:
            raise ParseError(f"arc #{k}: weight is too large for a float") from None
        if not _is_int(src) or not _is_int(dst):
            raise ParseError(f"arc #{k}: vertex ids must be integers")
        if not (0 <= src < n and 0 <= dst < n):
            raise ParseError(f"arc #{k}: vertex id out of range for n={n}")
        if src == dst:
            raise SelfLoopError(f"arc #{k}: self loop at vertex {src}")
        if weight < 0:
            raise NegativeWeightError(f"arc #{k}: negative weight {weight}")
        if weight == 0:
            raise ParseError(f"arc #{k}: zero-weight arc; omit it instead")
        if mu[src, dst] != 0:
            raise ParseError(f"arc #{k}: duplicate arc {src} -> {dst}")
        mu[src, dst] = weight
    if mu.max(initial=0.0) == 0.0:
        raise ParseError("no arcs found")
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != n:
            raise ParseError(f'"labels" must list {n} names')
        labels = tuple(str(s) for s in labels)
    return mu, labels


def load_graph(source: str | Path) -> DirectedGraph:
    """Parse a graph from edge-list text, a JSON document, or a file path.

    Edge-list lines look like "src dst weight" with the weight optional
    (default 1.0); '#' starts a comment and blank lines are skipped.
    A JSON document is an object {"n": ..., "arcs": [[src, dst, w], ...]}
    with an optional "labels" list.  A Path, or a string naming an
    existing file, is read first and then parsed the same way.
    """
    pathlike = False
    if isinstance(source, Path):
        text = source.read_text(encoding="utf-8")
    else:
        text = source
        if "\n" not in source and len(source) < 4096:
            pathlike = True
            p = Path(source)
            try:
                if p.is_file():
                    text = p.read_text(encoding="utf-8")
                    pathlike = False
            except OSError:
                pass
    stripped = text.lstrip()
    if not stripped:
        raise ParseError("empty graph input")
    try:
        if stripped.startswith("{"):
            mu, labels = _parse_json_document(text)
        else:
            mu, labels = _parse_edge_list(text)
    except ParseError:
        if pathlike:
            raise ParseError(f"no such file and not valid edge text: {source!r}") from None
        raise
    return build_graph(mu, labels=labels)
