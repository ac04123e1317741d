"""Weighted directed graphs: validation, hop distances, Lipschitz calculus.

The distance d(x, y) is the least number of arcs on a directed path from
x to y, so d is in general non-symmetric.  Arc weights never enter d;
they only shape the random walk built downstream.  The symmetrised
distance D(x, y) = max(d(x, y), d(y, x)) and its maximum over the
neighbourhood of x (out- and in-neighbours together) control the
constants in every concentration statement, so both are precomputed
here alongside the raw hop counts.

build_graph is the one place that decides what a valid graph is:
square, finite, non-negative, no self loop, at least one arc, finite
out-weight sums, and strongly connected.  Every DirectedGraph holds
these by construction, so it has n >= 2 and an in- and an out-arc at
every vertex, and nothing downstream checks them again.  Strong
connectivity takes one search from vertex 0 along the arcs and one
against them, each linear in the vertices and arcs, both over the arc
list of one nonzero() of the weight matrix.  The hop counts of
all ordered pairs are built only by distances, by one frontier
expansion over all sources at once, one matrix product per
breadth-first level; the heat flow and the Perron measure never read
them, so they never pay for them.

Everything downstream is a function of the graph alone, so a graph
pays its set-up once: distances and chain.markov_data keep what they
build on the DirectedGraph, and load_graph keeps the graph of the last
text it parsed, so that commands asked of one file in one process
share it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    NegativeWeightError,
    NotStronglyConnectedError,
    ParseError,
    SelfLoopError,
)


@dataclass(frozen=True)
class DirectedGraph:
    """Simple, strongly connected weighted directed graph on vertices 0..n-1.

    mu[x, y] > 0 exactly when the arc x -> y exists.  The diagonal is
    zero (no self loops), all weights are finite and non-negative, and
    every row sums to a finite positive value.  build_graph, the one
    constructor, checks all of this and strong connectivity, so n >= 2.

    _derived holds what distances and chain.markov_data build of the
    graph, each on first use and read-only, so a graph pays for its hop
    counts, its root trees and its Markov data once however many runs
    read them.  It is not compared, and no run's own state (a family's
    density starts, a heat operator's kernels, a solve) is kept there.
    """

    n: int
    mu: np.ndarray
    labels: tuple[str, ...] | None = None
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def arc_count(self) -> int:
        return int(np.count_nonzero(self.mu))


@dataclass(frozen=True)
class DistanceMatrix:
    """Hop distances plus the symmetrised quantities derived from them.

    d[x, y]    directed hop distance (non-symmetric in general)
    dvert[x]   max of max(d[x, y], d[y, x]) over neighbours y of x (both directions)
    lam        max of dvert over all vertices
    arcs[k]    (tail, head) of the k-th arc, the pairs with d = 1 in row-major order

    _root_bases holds transport.root_basis's flow starts, one per root
    and tree direction, built on first use: a function of d alone, so
    every DistanceMatrix that distances returns for one graph shares
    the graph's, as it shares the read-only arrays.  _density_starts
    holds, per family of densities a transport check of the concentration
    module solved, keyed by the exact bytes of m and of the stack of
    measures rho m, the table's optima as transport.ColumnStarts, the
    starts of the same family's W in every later check.  It is this
    DistanceMatrix's own and starts empty: a W re-solved from another
    run's optimum may move in its last bits.  Neither is compared.
    Every other column start, a ColumnStart of an arc's curvature
    optimum or of a heat-flow table's column, is passed as a value from
    the solve that made it to the table that starts from it.
    """

    d: np.ndarray
    dvert: np.ndarray
    lam: int
    arcs: np.ndarray
    _root_bases: dict = field(default_factory=dict, repr=False, compare=False)
    _density_starts: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def build_graph(mu: np.ndarray, labels: tuple[str, ...] | None = None) -> DirectedGraph:
    """Validate a weight matrix and wrap it in a DirectedGraph.

    Every graph rule is decided here, in this order: ParseError unless
    mu is square and finite, NegativeWeightError on a negative weight,
    SelfLoopError on a diagonal entry, ParseError("no arcs found") when
    no weight is positive, ParseError when a vertex's out-weights sum
    past the float range or labels does not name n vertices, and
    NotStronglyConnectedError when some vertex cannot reach another.
    That last check is one search from vertex 0 along the arcs and one
    against them, both over the arcs of one mu.nonzero(): the graph is
    strongly connected exactly when 0 reaches every vertex and every
    vertex reaches 0.  Otherwise the error names
    the first ordered pair in row-major order with no path, which is
    (0, v) for the least v that 0 cannot reach, or failing that (v, 0)
    for the least v that cannot reach 0.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 2 or mu.shape[0] != mu.shape[1]:
        raise ParseError(f"weight matrix must be square, got shape {mu.shape}")
    n = mu.shape[0]
    if not np.isfinite(mu).all():
        x, y = np.argwhere(~np.isfinite(mu))[0]
        raise ParseError(f"arc {x} -> {y} has non-finite weight {mu[x, y]}")
    if (mu < 0).any():
        x, y = np.argwhere(mu < 0)[0]
        raise NegativeWeightError(f"arc {x} -> {y} has negative weight {mu[x, y]}")
    if mu.diagonal().any():
        x = int(np.nonzero(np.diag(mu))[0][0])
        raise SelfLoopError(f"vertex {x} has a self loop")
    if not mu.any():
        raise ParseError("no arcs found")
    with np.errstate(over="ignore"):
        out = mu.sum(axis=1)
    if not np.isfinite(out).all():
        x = int(np.nonzero(~np.isfinite(out))[0][0])
        raise ParseError(f"vertex {x} has out-weights whose sum is not a finite float")
    if labels is not None:
        labels = tuple(str(s) for s in labels)
        if len(labels) != n:
            raise ParseError(f"expected {n} labels, got {len(labels)}")
    mu = mu.copy()
    mu.flags.writeable = False
    tails, heads = (ends.tolist() for ends in mu.nonzero())
    for forward in (True, False):
        v = _first_unreached(n, tails, heads) if forward else _first_unreached(n, heads, tails)
        if v is not None:
            x, y = (0, v) if forward else (v, 0)
            raise NotStronglyConnectedError(
                f"graph is not strongly connected: no path from {x} to {y}"
            )
    return DirectedGraph(n=n, mu=mu, labels=labels)


def _first_unreached(n: int, tails: list[int], heads: list[int]) -> int | None:
    """The least of n vertices that 0 cannot reach along the arcs tails[k] -> heads[k], or None.

    One depth-first search over adjacency lists, linear in the vertices
    and arcs.
    """
    out: list[list[int]] = [[] for _ in range(n)]
    for x, y in zip(tails, heads):
        out[x].append(y)
    seen = [True] + [False] * (n - 1)
    stack = [0]
    while stack:
        for y in out[stack.pop()]:
            if not seen[y]:
                seen[y] = True
                stack.append(y)
    return None if all(seen) else seen.index(False)


def _hop_matrix(mu: np.ndarray) -> np.ndarray:
    """Hop counts from every source at once; -1 where the head is unreachable.

    Row s of the frontier marks the vertices first reached from s at the
    current level, so the next level is (frontier @ A > 0) & ~reached
    for the 0/1 arc matrix A: one n x n product per level, at most n
    levels.  The products count paths of 0/1 matrices, so they are exact
    integers in float64, which goes through BLAS where integer products
    do not.
    """
    n = mu.shape[0]
    adjacency = (mu > 0).astype(float)
    d = np.full((n, n), -1, dtype=int)
    np.fill_diagonal(d, 0)
    reached = np.eye(n, dtype=bool)
    frontier = np.eye(n)
    level = 0
    while True:
        level += 1
        new = (frontier @ adjacency > 0) & ~reached
        if not new.any():
            return d
        d[new] = level
        reached |= new
        frontier = new.astype(float)


def distances(g: DirectedGraph) -> DistanceMatrix:
    """All-pairs hop distances (_hop_matrix) and the quantities derived from them.

    They are built on the graph's first call and kept on it; each call
    returns a new DistanceMatrix over the same read-only arrays and root
    trees, with a _density_starts of its own.
    """
    kept = g._derived.get("distances")
    if kept is None:
        d = _hop_matrix(g.mu)
        dsym = np.maximum(d, d.T)
        nbr = (g.mu > 0) | (g.mu.T > 0)
        dvert = np.where(nbr, dsym, 0).max(axis=1)
        arcs = np.argwhere(d == 1)
        for a in (d, dvert, arcs):
            a.flags.writeable = False
        kept = DistanceMatrix(d=d, dvert=dvert, lam=int(dvert.max()), arcs=arcs)
        g._derived["distances"] = kept
    return dataclasses.replace(kept)


def lipschitz_constant(f: np.ndarray, dm: DistanceMatrix) -> float | np.ndarray:
    """sup over ordered pairs x != y of the difference quotient.

    A function is c-Lipschitz exactly when this value is <= c; note the
    sup runs over both orientations of every pair, which matters because
    d is non-symmetric.  The hop metric is a path metric, so the sup is
    the largest f(w) - f(z) over the arcs z -> w: along a geodesic from
    x to y, f(y) - f(x) is a sum of d(x, y) arc differences.  Only
    rounding separates this from the max over all pairs, which it never
    exceeds.  f may be a stack of functions, the vertex on the last
    axis; the result is then an array of one constant per function.
    """
    f = np.asarray(f, dtype=float)
    lip = (f[..., dm.arcs[:, 1]] - f[..., dm.arcs[:, 0]]).max(axis=-1)
    return lip if f.ndim > 1 else float(lip)


def sample_lipschitz_functions(
    dm: DistanceMatrix, count: int, rng: np.random.Generator
) -> np.ndarray:
    """count random 1-Lipschitz functions, one per row.

    Each sample is f(z) = min over a random anchor set A of d(a, z) + c_a
    with random offsets c_a.  Every piece satisfies the directed triangle
    inequality, and a pointwise min of 1-Lipschitz functions is again
    1-Lipschitz, so Lip f <= 1 by construction.  The functional suite
    draws its Lipschitz samples here (concentration's
    centered_lipschitz_samples); a caller that wants another Lipschitz
    constant scales the rows itself.

    The family is drawn as arrays, in this order: the anchor counts
    k ~ U{1, ..., n}, one per sample; keys U[0, 1) of shape (count, n),
    whose k smallest in a row pick a uniform k-subset of anchors; and
    offsets U[0, lam + 1) of shape (count, n), of which the anchors' are
    used.  The min runs over the n anchor rows in turn, so no
    count x n x n array is formed.
    """
    n = dm.d.shape[0]
    k = rng.integers(1, n + 1, size=count)
    keys = rng.random((count, n))
    offsets = rng.uniform(0.0, dm.lam + 1.0, size=(count, n))
    # a vertex is an anchor of its sample when its key ranks below k
    anchor = keys.argsort(axis=1).argsort(axis=1) < k[:, None]
    offsets = np.where(anchor, offsets, np.inf)
    out = np.full((count, n), np.inf)
    for a in range(n):
        np.minimum(out, offsets[:, a, None] + dm.d[a], out=out)
    return out


def _weight_matrix(n: int, arcs: dict[tuple[int, int], float]) -> np.ndarray:
    """The n x n weight matrix of arcs; ParseError when n vertices cannot be held."""
    try:
        mu = np.zeros((n, n))
    except (ValueError, MemoryError):
        raise ParseError(f"{n} vertices are too many for a dense weight matrix") from None
    for (src, dst), weight in arcs.items():
        mu[src, dst] = weight
    return mu


def _add_arc(
    arcs: dict[tuple[int, int], float], src: int, dst: int, weight: float, where: str, k: int
) -> None:
    """Record arc src -> dst in arcs, the one per-arc check of both parsers.

    A self loop, a negative or zero weight and an arc given twice are
    refused as the arc is read, so each error starts with where and k
    ("line 3", "arc #2"); build_graph checks the graph as a whole.
    """
    if src == dst:
        raise SelfLoopError(f"{where}{k}: self loop at vertex {src}")
    if weight < 0:
        raise NegativeWeightError(f"{where}{k}: negative weight {weight}")
    if weight == 0:
        raise ParseError(f"{where}{k}: zero-weight arc; omit it instead")
    if (src, dst) in arcs:
        raise ParseError(f"{where}{k}: duplicate arc {src} -> {dst}")
    arcs[(src, dst)] = weight


def _parse_edge_list(text: str) -> tuple[np.ndarray, None]:
    """The weight matrix of edge-list text, one line at a time; ParseError at the first bad line.

    A line's fields are its whitespace-separated tokens before any '#',
    so a line of none is skipped; the vertex count is one past the
    largest id of any arc.
    """
    arcs: dict[tuple[int, int], float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = (raw[: raw.index("#")] if "#" in raw else raw).split()
        if not parts:
            continue
        fields = len(parts)
        if fields != 2 and fields != 3:
            raise ParseError(f"line {lineno}: expected 'src dst [weight]', got {raw!r}")
        try:
            src, dst = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: vertex ids must be integers") from None
        if src < 0 or dst < 0:
            raise ParseError(f"line {lineno}: vertex ids must be non-negative")
        try:
            weight = float(parts[2]) if fields == 3 else 1.0
        except ValueError:
            raise ParseError(f"line {lineno}: bad weight {parts[2]!r}") from None
        _add_arc(arcs, src, dst, weight, "line ", lineno)
    return _weight_matrix(max(map(max, arcs), default=-1) + 1, arcs), None


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
    arcs: dict[tuple[int, int], float] = {}
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
        _add_arc(arcs, src, dst, weight, "arc #", k)
    mu = _weight_matrix(n, arcs)
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != n:
            raise ParseError(f'"labels" must list {n} names')
        labels = tuple(str(s) for s in labels)
    return mu, labels


class _Unparsed(Exception):
    """A parser's error, carried out of the memo so that load_graph can say which source failed."""


@functools.lru_cache(maxsize=1)
def _graph_of_text(text: str) -> DirectedGraph:
    """The graph of text, kept for the last text that gave one.

    The key is the text itself, so a file rewritten with other arcs is
    parsed again.  A text that does not parse raises _Unparsed, with
    the parser's error, and one that builds no graph raises
    build_graph's error; either way nothing is stored and the graph
    kept before stays.
    """
    parse = _parse_json_document if text.lstrip().startswith("{") else _parse_edge_list
    try:
        mu, labels = parse(text)
    except ParseError as exc:
        raise _Unparsed(exc) from None
    return build_graph(mu, labels=labels)


def load_graph(source: str | Path) -> DirectedGraph:
    """Parse a graph from edge-list text, a JSON document, or a file path.

    Edge-list lines look like "src dst weight" with the weight optional
    (default 1.0); '#' starts a comment and blank lines are skipped.
    A JSON document is an object {"n": ..., "arcs": [[src, dst, w], ...]}
    with an optional "labels" list.  A Path, or a string naming an
    existing file, is read first and then parsed the same way.  A
    one-line string that names no file and does not parse either raises
    ParseError("no such file and not valid edge text: ...") followed by
    the parser's own message.

    The source is read on every call, but the graph of the last text
    parsed is kept (_graph_of_text): while the text is unchanged, every
    call returns that same DirectedGraph, and with it what distances
    and chain.markov_data keep on it.
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
    if not text.strip():
        raise ParseError("empty graph input")
    try:
        return _graph_of_text(text)
    except _Unparsed as unparsed:
        (exc,) = unparsed.args
        if pathlike:
            raise ParseError(f"no such file and not valid edge text: {source!r}: {exc}") from None
        raise exc from None
