"""Curvature of undirected graphs against published values.

On an undirected graph with unit weights the mean kernel is the simple
random walk and kappa is the Lin-Lu-Yau curvature in its limit-free
form (Lin, Lu & Yau, Tohoku Math. J. 63, 2011; Munch & Wojciechowski,
Adv. Math. 356, 2019).  Cycles: C3 3/2, C4 1, C5 1/2, C6 and C7 0.
Complete graphs K_n: n / (n - 1).  The 3-cube: 2/3.  On a tree an edge
xy has 2/d_x + 2/d_y - 2: 1/2 on the star K_{1,4}, and 1, 0, 1 along
the path P4.  Each fixture checks kappa on every arc by the LP within
1e-12 and by the smoothing limit within 1e-9, and K against the
minimum over the arcs.
"""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest

from digricci import (
    build_graph,
    curvature_matrix,
    distances,
    kappa_limit,
    kappa_lp,
    markov_data,
)
from digricci.cli import main


def _cycle(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def _complete(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


# the 3-cube: vertices are 3-bit words, edges flip one bit
CUBE = [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4) if v < v ^ bit]

# name -> (undirected edges, kappa of each edge, the same in both directions)
FIXTURES = {
    "C3": (_cycle(3), 1.5),
    "C4": (_cycle(4), 1.0),
    "C5": (_cycle(5), 0.5),
    "C6": (_cycle(6), 0.0),
    "C7": (_cycle(7), 0.0),
    "K4": (_complete(4), 4.0 / 3.0),
    "K5": (_complete(5), 5.0 / 4.0),
    "Q3": (CUBE, 2.0 / 3.0),
    "K1,4": ([(0, leaf) for leaf in range(1, 5)], 0.5),
    "P4": ([(0, 1), (1, 2), (2, 3)], {(0, 1): 1.0, (1, 2): 0.0, (2, 3): 1.0}),
}


def _undirected(edges: list[tuple[int, int]]):
    n = 1 + max(max(e) for e in edges)
    mu = np.zeros((n, n))
    for x, y in edges:
        mu[x, y] = mu[y, x] = 1.0
    return build_graph(mu)


@pytest.mark.parametrize("name", FIXTURES)
def test_arc_curvature_matches_published_value(name):
    edges, published = FIXTURES[name]
    g = _undirected(edges)
    M, dm = markov_data(g), distances(g)
    expected = {}
    for x, y in edges:
        value = published[(x, y)] if isinstance(published, dict) else published
        expected[(x, y)] = expected[(y, x)] = value
    assert sorted(expected) == sorted(map(tuple, dm.arcs.tolist()))
    for (x, y), value in expected.items():
        assert abs(kappa_lp(x, [y], M, dm)[0][0] - value) <= 1e-12
        assert abs(kappa_limit(x, [y], M, dm)[0] - value) <= 1e-9
    assert abs(curvature_matrix(M, dm).K - min(expected.values())) <= 1e-12


def _assert_c6_prints_no_negative_zero(directory, capsys):
    path = directory / "c6.edges"
    path.write_text("".join(f"{x} {y}\n{y} {x}\n" for x, y in _cycle(6)), encoding="utf-8")
    negative_zero = re.compile(r"(?<![\de.])-0(?![\d.])")
    # every number is printed outside the JSON strings, which hold names and paths
    json_string = re.compile(r'"(?:[^"\\]|\\.)*"')
    for argv in (["analyze", str(path)], ["curvature", str(path), "--format", "csv"]):
        code = main(argv)
        text = json_string.sub('""', capsys.readouterr().out)
        found = negative_zero.search(text)
        # on failure, name the exit code, the match and the text around it
        context = found and (found.group(), text[max(0, found.start() - 60) : found.end() + 60])
        assert code == 0 and not found, (argv, code, context)


def test_zero_curvature_prints_no_negative_zero(tmp_path, capsys):
    """On C6 kappa and K are exactly zero, and print as 0, never -0."""
    _assert_c6_prints_no_negative_zero(tmp_path, capsys)


def test_negative_zero_check_does_not_read_the_graph_path(tmp_path, capsys):
    """The report echoes the graph's path, and pytest names the first base
    temp directory on a machine pytest-0: that path is no number."""
    directory = tmp_path / "pytest-0"
    directory.mkdir()
    _assert_c6_prints_no_negative_zero(directory, capsys)
