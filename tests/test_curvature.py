"""Ricci curvature: the exact LP route and the smoothing limit route."""

from __future__ import annotations

import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_strongly_connected
from digricci import (
    DirectedGraph,
    EpsOutOfRangeError,
    SameVertexError,
    build_graph,
    curvature_matrix,
    distances,
    kappa_limit,
    kappa_lp,
    lipschitz_constant,
    load_graph,
    markov_data,
    smoothed_measure,
    wasserstein,
)
from digricci.curvature import EPS_MAX

BENCH = Path(__file__).resolve().parent.parent / "bench"


def lambdas(x, ys, M, dm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """kappa over the row, d(x, y) and Lambda = 1 + 2 sum_v |c(v)| max(d(x, v), d(v, x)).

    c = (L[y] - L[x]) / d(x, y), formed here pair by pair.
    """
    ys = np.asarray(ys)
    d = dm.d[x, ys].astype(float)
    reach = np.maximum(dm.d[x], dm.d[:, x])
    push = np.array([1.0 + 2.0 * np.abs((M.L[y] - M.L[x]) / dxy) @ reach
                     for y, dxy in zip(ys.tolist(), d.tolist())])
    return kappa_lp(x, ys, M, dm)[0], d, push


def agreement_bound(n: int, eps: np.ndarray) -> np.ndarray:
    """((2 n + 5) / eps + 10 n) u: how far the quotient at eps may round off kappa.

    The bound curvature's docstring derives, u = 2^-52.
    """
    return ((2 * n + 5) / eps + 10 * n) * 2.0**-52


def cycle(n: int, chords=()) -> DirectedGraph:
    """The directed n-cycle 0 -> 1 -> ... -> 0 plus the arcs of chords, every weight 1."""
    mu = np.zeros((n, n))
    mu[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    for x, y in chords:
        mu[x, y] = 1.0
    return build_graph(mu)


def smoothed_quotients(x, y, eps_grid, M, dm) -> np.ndarray:
    """(1 - W(nu_x_eps, nu_y_eps) / d(x, y)) / eps for each eps, the W solved as one table."""
    nu = np.array([[[smoothed_measure(v, eps, M)] for eps in eps_grid] for v in (x, y)])
    w = wasserstein(nu[0], nu[1], dm, verify=False).values[:, 0]
    return (1.0 - w / dm.d[x, y]) / np.asarray(eps_grid)


class TestSmoothedMeasure:
    def test_interpolates(self, g_c3):
        M = markov_data(g_c3)
        nu = smoothed_measure(0, 0.25, M)
        expected = 0.75 * np.array([1.0, 0.0, 0.0]) + 0.25 * M.Pmean[0]
        assert np.abs(nu - expected).max() <= 1e-15
        assert nu.sum() == pytest.approx(1.0, abs=1e-15)

    def test_eps_zero_is_point_mass(self, g_c3):
        M = markov_data(g_c3)
        assert np.array_equal(smoothed_measure(1, 0.0, M), np.array([0.0, 1.0, 0.0]))

    def test_eps_out_of_range(self, g_c3):
        M = markov_data(g_c3)
        with pytest.raises(EpsOutOfRangeError):
            smoothed_measure(0, 1.5, M)
        with pytest.raises(EpsOutOfRangeError):
            smoothed_measure(0, -0.1, M)


class TestFixtureExactness:
    def test_c3_lp_value(self, g_c3):
        M = markov_data(g_c3)
        dm = distances(g_c3)
        for x in range(3):
            for y in range(3):
                if x != y:
                    (value,), _, _ = kappa_lp(x, [y], M, dm)
                    assert abs(value - oracles.HAND["c3"]["kappa"]) <= 1e-6

    def test_k3_lp_value(self, g_k3):
        M = markov_data(g_k3)
        dm = distances(g_k3)
        for x in range(3):
            for y in range(3):
                if x != y:
                    (value,), _, _ = kappa_lp(x, [y], M, dm)
                    assert abs(value - oracles.HAND["k3"]["kappa"]) <= 1e-6

    def test_c3_smoothing_is_exactly_linear(self, g_c3):
        # on the cycle the smoothed curvature over eps is constant in eps
        M = markov_data(g_c3)
        dm = distances(g_c3)
        quotients = smoothed_quotients(0, 1, (1e-3, 1e-2, 0.1), M, dm)
        assert np.abs(quotients - 1.5).max() <= 1e-10

    def test_limit_route_agrees_on_fixtures(self, g_c3, g_k3):
        for g, key in ((g_c3, "c3"), (g_k3, "k3")):
            M = markov_data(g)
            dm = distances(g)
            for x in range(3):
                for y in range(3):
                    if x != y:
                        (limit,) = kappa_limit(x, [y], M, dm)
                        assert abs(limit - oracles.HAND[key]["kappa"]) <= 1e-4


class TestLpWitness:
    def test_witness_certifies_value(self, corpus):
        for g in corpus[:10]:
            M = markov_data(g)
            dm = distances(g)
            for x in range(g.n):
                for y in range(g.n):
                    if x == y:
                        continue
                    (value,), (f,), _ = kappa_lp(x, [y], M, dm)
                    assert f[x] == pytest.approx(0.0, abs=1e-12)
                    assert oracles.gradient(f, x, y, dm) == pytest.approx(1.0, abs=1e-9)
                    assert lipschitz_constant(f, dm) <= 1.0 + 1e-9
                    lf = M.L @ f
                    assert oracles.gradient(lf, x, y, dm) == pytest.approx(value, abs=1e-9)

    def test_distance_row_is_feasible_never_better(self, corpus):
        # f = d(x, .) satisfies the constraints, so kappa <= its objective
        for g in corpus[:5]:
            M = markov_data(g)
            dm = distances(g)
            for x in range(g.n):
                for y in range(g.n):
                    if x == y:
                        continue
                    (value,), _, _ = kappa_lp(x, [y], M, dm)
                    lf = M.L @ dm.d[x]
                    assert value <= oracles.gradient(lf, x, y, dm) + 1e-9

    def test_same_vertex_rejected(self, g_c3):
        M = markov_data(g_c3)
        dm = distances(g_c3)
        with pytest.raises(SameVertexError):
            kappa_lp(1, [1], M, dm)


class TestCurvatureMatrix:
    def test_c3_matrix(self, g_c3):
        M = markov_data(g_c3)
        dm = distances(g_c3)
        report = curvature_matrix(M, dm)
        off = ~np.eye(3, dtype=bool)
        assert np.abs(report.kappa[off] - 1.5).max() <= 1e-6
        assert np.isnan(report.kappa[~off]).all()
        assert report.K == pytest.approx(1.5, abs=1e-6)

    def test_cross_check_residuals(self, g_tri):
        M = markov_data(g_tri)
        dm = distances(g_tri)
        report = curvature_matrix(M, dm, cross_check=True)
        off = ~np.eye(3, dtype=bool)
        assert (report.cross_check[off] <= report.cross_check_tol[off]).all()
        assert report.cross_check_tol[off].max() <= 1e-4

    def test_permutation_invariance(self, rng):
        g = random_strongly_connected(rng, n_max=6)
        mu = np.asarray(g.mu)
        perm = rng.permutation(g.n)
        gp = build_graph(mu[np.ix_(perm, perm)])
        k1 = curvature_matrix(markov_data(g), distances(g)).kappa
        k2 = curvature_matrix(markov_data(gp), distances(gp)).kappa
        off = ~np.eye(g.n, dtype=bool)
        diff = np.abs(k2 - k1[np.ix_(perm, perm)])
        assert np.nanmax(diff[off]) <= 1e-12

    def test_weight_scaling_invariance(self, rng):
        # the walk only sees weight ratios, so a global rescale changes nothing
        g = random_strongly_connected(rng, n_max=5)
        mu = np.asarray(g.mu)
        k1 = curvature_matrix(markov_data(g), distances(g)).kappa
        g2 = build_graph(3.0 * mu)
        k2 = curvature_matrix(markov_data(g2), distances(g2)).kappa
        off = ~np.eye(g.n, dtype=bool)
        assert np.abs((k1 - k2)[off]).max() <= 1e-12


class TestEpsRoute:
    def test_quotient_near_lp_on_tri(self, g_tri):
        M = markov_data(g_tri)
        dm = distances(g_tri)
        for x in range(3):
            for y in range(3):
                if x == y:
                    continue
                (lp_value,), _, _ = kappa_lp(x, [y], M, dm)
                (limit,) = kappa_limit(x, [y], M, dm)
                assert abs(limit - lp_value) <= 1e-4

    def test_eps_one_is_full_smoothing(self, g_k3):
        M = markov_data(g_k3)
        dm = distances(g_k3)
        (value,) = smoothed_quotients(0, 1, (1.0,), M, dm)
        # nu_x^1 = Pbar(x, .); on the bidirected triangle these couple at cost 1/2
        assert value == pytest.approx(0.5, abs=1e-9)


def assert_rows_are_rows_of_one(g):
    """Each root's kappa_limit row is its rows of one bit for bit, and so is the cross-check.

    The rows of one run on a DistanceMatrix of their own, so no record
    the row leaves on dm reaches them.  Each pair's bound is the one
    curvature's docstring derives, at eps = min(EPS_MAX, 1 / (d Lambda)).
    """
    M, dm = markov_data(g), distances(g)
    report = curvature_matrix(M, dm, cross_check=True)
    ref_dm = distances(g)
    for x in range(g.n):
        ys = np.flatnonzero(np.arange(g.n) != x)
        limits = kappa_limit(x, ys, M, dm)
        assert limits.shape == ys.shape
        ones = np.array([kappa_limit(x, [y], M, ref_dm)[0] for y in ys.tolist()])
        assert limits.tobytes() == ones.tobytes()
        kappas = np.array([kappa_lp(x, [y], M, ref_dm)[0][0] for y in ys.tolist()])
        assert report.cross_check[x, ys].tobytes() == np.abs(kappas - ones).tobytes()
        # Lambda summed here in another order may differ in its last bits
        _kappa, d, push = lambdas(x, ys, M, dm)
        tols = agreement_bound(g.n, np.minimum(EPS_MAX, 1.0 / (d * push)))
        assert report.cross_check_tol[x, ys] == pytest.approx(tols, rel=1e-12)


def assert_quotients_within_their_bound(g, x, ys) -> float:
    """At eps = min(EPS_MAX, 1 / (d Lambda)) each quotient is kappa within its rounding bound.

    Returns the largest d Lambda of the row.
    """
    M, dm = markov_data(g), distances(g)
    kappa, d, push = lambdas(x, ys, M, dm)
    eps = np.minimum(EPS_MAX, 1.0 / (d * push))
    limits = kappa_limit(x, ys, M, dm)
    assert (np.abs(limits - kappa) <= agreement_bound(g.n, eps)).all()
    return float((d * push).max())


class TestSmoothingIsExact:
    """The smoothing quotient at each pair's eps is kappa, up to the bound of its rounding."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_on_random_graphs(self, seed):
        g = random_strongly_connected(np.random.default_rng(seed), n_min=2, n_max=9)
        for x in range(g.n):
            assert_quotients_within_their_bound(g, x, np.flatnonzero(np.arange(g.n) != x))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(30, 300), st.data())
    @example(300, None)
    def test_on_long_cycles(self, n, data):
        """The pair (0, n - 3) of C_n has the largest d Lambda, 7 n - 17: past 1e3 from n = 146.

        There eps = 1 / (d Lambda) < EPS_MAX, and the bound grows with it.
        """
        g = cycle(n)
        # every pair of C_n is a rotation of one (0, y): the arc, (0, n - 3) and two others
        drawn = [] if data is None else data.draw(st.sets(st.integers(2, n - 1), max_size=2))
        ys = sorted({1, n - 3, *drawn})
        assert assert_quotients_within_their_bound(g, 0, ys) == pytest.approx(7 * n - 17)

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from([40, 80]), st.data())
    def test_on_cycles_with_two_chords(self, n, data):
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: (p[1] - p[0]) % n > 1)
        g = cycle(n, data.draw(st.lists(pairs, min_size=2, max_size=2, unique=True)))
        x = data.draw(st.integers(0, n - 1))
        ys = data.draw(st.lists(st.integers(0, n - 1).filter(lambda y: y != x),
                                min_size=1, max_size=8, unique=True))
        assert_quotients_within_their_bound(g, x, ys)


class TestLimitRows:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_a_row_is_its_rows_of_one(self, seed):
        assert_rows_are_rows_of_one(
            random_strongly_connected(np.random.default_rng(seed), n_min=2)
        )

    def test_a_row_is_its_rows_of_one_on_the_bench_graphs(self, monkeypatch):
        """The 44 graphs of the benchmark's four workloads at seeds 1-4."""
        monkeypatch.syspath_prepend(str(BENCH))
        workloads = importlib.import_module("workloads")
        graphs = [graph for name in ("analyze_dense", "analyze_sparse", "curvature_sparse",
                                     "queries")
                  for seed in (1, 2, 3, 4) for graph in workloads.build(name, seed).graphs]
        assert len(graphs) == 44
        for graph in graphs:
            assert_rows_are_rows_of_one(load_graph(graph.text()))

    def test_an_empty_row_and_a_row_through_the_root(self, g_tri):
        M, dm = markov_data(g_tri), distances(g_tri)
        assert kappa_limit(0, [], M, dm).shape == (0,)
        with pytest.raises(SameVertexError):
            kappa_limit(0, [1, 0], M, dm)
