"""Shared fixtures: the three hand-checked graphs and a random corpus.

Hand-derived reference values for the fixtures live in oracles.py and
were frozen before the library code was written; tests compare against
those, not against the library's own output.
"""

from __future__ import annotations

import numpy as np
import pytest

from digricci import DirectedGraph, NotStronglyConnectedError, build_graph, digraph, lp, transport

# default seed everywhere so failures replay exactly
SEED = 424242

C3_EDGES = "0 1\n1 2\n2 0\n"
TRI_EDGES = "0 1\n1 0\n1 2\n2 0\n"
K3_EDGES = "0 1\n1 0\n1 2\n2 1\n0 2\n2 0\n"
# the bidirected 4-cycle, unit weights: K = 1, and W = exp(-t) on every arc at every time
C4_EDGES = "".join(f"{x} {(x + step) % 4}\n" for x in range(4) for step in (1, 3))
# 7 vertices, 27 arcs: W from the BFS in-tree of vertex 6 switches to Bland's rule
# (test_lp.py::TestKernel::test_blands_rule_picks_the_leaving_row_after_the_switch)
BLAND_MU = np.array(
    [
        [0, 1, 0, 0, 0, 2, 1],
        [0, 0, 1, 2, 2, 1, 0],
        [1, 0, 0, 2, 2, 1, 1],
        [1, 2, 0, 0, 1, 1, 1],
        [0, 2, 0, 2, 0, 2, 2],
        [2, 2, 1, 0, 0, 0, 1],
        [2, 0, 2, 0, 0, 0, 0],
    ],
    dtype=float,
)


def _mu_from_edges(text: str, n: int) -> np.ndarray:
    mu = np.zeros((n, n))
    for line in text.strip().splitlines():
        parts = line.split()
        mu[int(parts[0]), int(parts[1])] = float(parts[2]) if len(parts) > 2 else 1.0
    return mu


@pytest.fixture(scope="session")
def g_c3() -> DirectedGraph:
    """Directed 3-cycle, unit weights."""
    return build_graph(_mu_from_edges(C3_EDGES, 3))


@pytest.fixture(scope="session")
def g_tri() -> DirectedGraph:
    """Triangle with one doubled arc: 0->1, 1->0, 1->2, 2->0."""
    return build_graph(_mu_from_edges(TRI_EDGES, 3))


@pytest.fixture(scope="session")
def g_k3() -> DirectedGraph:
    """Complete bidirected triangle."""
    return build_graph(_mu_from_edges(K3_EDGES, 3))


def random_strongly_connected(
    rng: np.random.Generator, n_max: int = 7, n_min: int = 3
) -> DirectedGraph:
    """Rejection-sample a simple strongly connected weighted digraph."""
    while True:
        n = int(rng.integers(n_min, n_max + 1))
        p = rng.uniform(0.3, 0.7)
        mask = rng.random((n, n)) < p
        np.fill_diagonal(mask, False)
        if not mask.any():
            continue
        mu = np.where(mask, rng.uniform(0.5, 2.0, size=(n, n)), 0.0)
        try:
            return build_graph(mu)
        except NotStronglyConnectedError:
            continue


@pytest.fixture(scope="session")
def corpus() -> list[DirectedGraph]:
    """30 random strongly connected graphs, n between 3 and 7."""
    rng = np.random.default_rng(SEED)
    return [random_strongly_connected(rng) for _ in range(30)]


@pytest.fixture(scope="session")
def small_corpus(corpus) -> list[DirectedGraph]:
    return corpus[:10]


@pytest.fixture(autouse=True)
def fresh_load_graph():
    """Each test starts with load_graph's memo empty: no test sees a graph another loaded."""
    digraph._graph_of_text.cache_clear()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(SEED)


@pytest.fixture()
def lp_solves(monkeypatch) -> list[tuple[bool, int]]:
    """Every LP solve from here on, as (made under transport.wasserstein, its pivots).

    wasserstein solves a single pair or a whole table of pairs in one
    call, so its solves, not its calls, count the transports.
    """
    solves, depth = [], [0]
    solve_lp, wasserstein = lp.solve_lp, transport.wasserstein

    def counting_solve(start, b):
        solution = solve_lp(start, b)
        solves.append((depth[0] > 0, solution.iterations))
        return solution

    def counting_wasserstein(*args, **kwargs):
        depth[0] += 1
        try:
            return wasserstein(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(lp, "solve_lp", counting_solve)
    monkeypatch.setattr(transport, "wasserstein", counting_wasserstein)
    return solves
