"""Ricci curvature: the exact LP route and the smoothing limit route."""

from __future__ import annotations

import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_strongly_connected
from digricci import (
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

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
                    (value,), _ = kappa_lp(x, [y], M, dm)
                    assert abs(value - oracles.HAND["c3"]["kappa"]) <= 1e-6

    def test_k3_lp_value(self, g_k3):
        M = markov_data(g_k3)
        dm = distances(g_k3)
        for x in range(3):
            for y in range(3):
                if x != y:
                    (value,), _ = kappa_lp(x, [y], M, dm)
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
                        (limit,), (spread,) = kappa_limit(x, [y], M, dm)
                        assert abs(limit - oracles.HAND[key]["kappa"]) <= 1e-4
                        assert spread <= 1e-6


class TestLpWitness:
    def test_witness_certifies_value(self, corpus):
        for g in corpus[:10]:
            M = markov_data(g)
            dm = distances(g)
            for x in range(g.n):
                for y in range(g.n):
                    if x == y:
                        continue
                    (value,), (f,) = kappa_lp(x, [y], M, dm)
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
                    (value,), _ = kappa_lp(x, [y], M, dm)
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
        assert np.nanmax(report.cross_check[off]) <= 1e-4

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
                (lp_value,), _ = kappa_lp(x, [y], M, dm)
                (limit,), (spread,) = kappa_limit(x, [y], M, dm)
                assert abs(limit - lp_value) <= 1e-4
                assert spread <= 1e-6

    def test_eps_one_is_full_smoothing(self, g_k3):
        M = markov_data(g_k3)
        dm = distances(g_k3)
        (value,) = smoothed_quotients(0, 1, (1.0,), M, dm)
        # nu_x^1 = Pbar(x, .); on the bidirected triangle these couple at cost 1/2
        assert value == pytest.approx(0.5, abs=1e-9)


def assert_rows_are_rows_of_one(g):
    """Each root's kappa_limit row is its rows of one bit for bit, and so is the cross-check.

    The rows of one run on a DistanceMatrix of their own, so no record
    the row leaves on dm reaches them.
    """
    M, dm = markov_data(g), distances(g)
    report = curvature_matrix(M, dm, cross_check=True)
    ref_dm = distances(g)
    for x in range(g.n):
        ys = np.flatnonzero(np.arange(g.n) != x)
        limits, spreads = kappa_limit(x, ys, M, dm)
        assert limits.shape == spreads.shape == ys.shape
        ones = np.array([kappa_limit(x, [y], M, ref_dm) for y in ys.tolist()])[:, :, 0]
        assert limits.tobytes() == ones[:, 0].tobytes()
        assert spreads.tobytes() == ones[:, 1].tobytes()
        kappas = np.array([kappa_lp(x, [y], M, ref_dm)[0][0] for y in ys.tolist()])
        assert report.cross_check[x, ys].tobytes() == np.abs(kappas - ones[:, 0]).tobytes()


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
        limits, spreads = kappa_limit(0, [], M, dm)
        assert limits.shape == spreads.shape == (0,)
        with pytest.raises(SameVertexError):
            kappa_limit(0, [1, 0], M, dm)
