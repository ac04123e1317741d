"""Random-walk kernel, stationary measure, symmetrization, Laplacian, Gamma."""

from __future__ import annotations

import numpy as np
import pytest

import oracles
from digricci import (
    NotStronglyConnectedError,
    build_graph,
    gamma,
    inner,
    markov_data,
    mean,
    mean_kernel,
    perron_measure,
    transition_kernel,
)
from digricci.chain import BALANCE_TOL


class TestTransitionKernel:
    def test_c3_is_cyclic_permutation(self, g_c3):
        P = transition_kernel(g_c3)
        assert np.array_equal(P, np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float))

    def test_rows_sum_to_one(self, corpus):
        for g in corpus:
            assert np.allclose(transition_kernel(g).sum(axis=1), 1.0, atol=1e-15)

    def test_zero_out_degree_rejected(self):
        # vertex 1 has no outgoing arc, so no kernel row: build_graph refuses the graph
        mu = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotStronglyConnectedError, match="no path from 1 to 0"):
            build_graph(mu)


class TestPerron:
    def test_c3_uniform(self, g_c3):
        m = perron_measure(transition_kernel(g_c3))
        assert np.abs(m - oracles.HAND["c3"]["perron"]).max() <= 1e-15

    def test_tri_hand_value(self, g_tri):
        m = perron_measure(transition_kernel(g_tri))
        assert np.abs(m - oracles.HAND["tri"]["perron"]).max() <= 1e-12

    def test_periodic_chain_is_fine(self):
        # direct solve is immune to the period-3 oscillation of iteration
        g = build_graph(np.array([[0, 2.0, 0], [0, 0, 0.5], [3.0, 0, 0]]))
        m = perron_measure(transition_kernel(g))
        assert np.abs(m - 1.0 / 3.0).max() <= 1e-15

    def test_one_vertex_kernel_is_solved_as_any_other(self):
        # A = P^T - I with its last row replaced by the normalisation is [[1]]
        assert perron_measure(np.ones((1, 1))).tolist() == [1.0]

    def test_matches_nullspace_oracle(self, corpus):
        for g in corpus:
            P = transition_kernel(g)
            m = perron_measure(P)
            assert np.abs(m - oracles.perron_nullspace(P)).max() <= 1e-10

    def test_balance_residual(self, corpus):
        for g in corpus:
            P = transition_kernel(g)
            m = perron_measure(P)
            assert np.abs(m @ P - m).max() <= BALANCE_TOL
            assert m.sum() == pytest.approx(1.0, abs=1e-15)
            assert (m > 0).all()


class TestMeanKernel:
    def test_c3_pmean(self, g_c3):
        M = markov_data(g_c3)
        assert np.abs(M.Pmean - oracles.HAND["c3"]["pmean"]).max() <= 1e-15

    def test_tri_pmean_and_mxy(self, g_tri):
        M = markov_data(g_tri)
        assert np.abs(M.Pmean - oracles.HAND["tri"]["pmean"]).max() <= 1e-15
        assert np.abs(M.mxy - oracles.HAND["tri"]["mxy"]).max() <= 1e-15

    def test_matches_reference_construction(self, corpus):
        for g in corpus:
            M = markov_data(g)
            P, m, Pmean, mxy = oracles.reference_chain(np.asarray(g.mu))
            assert np.abs(M.P - P).max() <= 1e-14
            assert np.abs(M.m - m).max() <= 1e-10
            assert np.abs(M.Pmean - Pmean).max() <= 1e-10
            assert np.abs(M.mxy - mxy).max() <= 1e-10

    def test_edge_weights_exactly_symmetric(self, corpus):
        for g in corpus:
            M = markov_data(g)
            assert np.array_equal(M.mxy, M.mxy.T)

    def test_reversibility(self, corpus):
        for g in corpus:
            M = markov_data(g)
            lhs = M.m[:, None] * M.Pmean
            assert np.abs(lhs - lhs.T).max() <= oracles.REVERSIBILITY_TOL

    def test_edge_weights_recover_vertex_weights(self, corpus):
        for g in corpus:
            M = markov_data(g)
            assert np.abs(M.mxy.sum(axis=1) - M.m).max() <= 1e-14

    def test_mean_rows_are_stochastic(self, corpus):
        for g in corpus:
            M = markov_data(g)
            assert np.abs(M.Pmean.sum(axis=1) - 1.0).max() <= 1e-12
            assert (M.Pmean >= 0).all()
            assert (np.diag(M.Pmean) == 0).all()


class TestLaplacian:
    def test_hand_value(self, g_c3):
        M = markov_data(g_c3)
        f = np.array([0.0, 1.0, 2.0])
        assert (M.L @ f)[0] == oracles.HAND["c3"]["lf0_of_identity"]

    def test_spectrum_frozen(self, g_c3, g_tri):
        for g, key in ((g_c3, "c3"), (g_tri, "tri")):
            L = markov_data(g).L
            eigs = np.sort(np.linalg.eigvals(L).real)
            assert np.abs(eigs - oracles.HAND[key]["laplacian_eigs"]).max() <= 1e-12

    def test_self_adjoint(self, corpus, rng):
        checked = 0
        for g in corpus:
            M = markov_data(g)
            for _ in range(4):
                f0 = rng.normal(size=g.n)
                f1 = rng.normal(size=g.n)
                left = inner(M.L @ f0, f1, M.m)
                right = inner(f0, M.L @ f1, M.m)
                assert abs(left - right) <= oracles.ADJOINTNESS_TOL
                checked += 1
        assert checked >= 100

    def test_kills_constants(self, corpus):
        for g in corpus:
            M = markov_data(g)
            assert np.abs(M.L @ np.ones(g.n)).max() <= 1e-15


class TestGamma:
    def test_hand_value(self, g_c3):
        M = markov_data(g_c3)
        ind1 = np.array([0.0, 1.0, 0.0])
        assert gamma(ind1, ind1, M)[0] == oracles.HAND["c3"]["gamma_ind1_at0"]

    def test_nonnegative_on_diagonal(self, corpus, rng):
        for g in corpus:
            M = markov_data(g)
            f = rng.normal(size=g.n)
            assert (gamma(f, f, M) >= 0).all()

    def test_two_routes_agree(self, corpus, rng):
        for g in corpus:
            M = markov_data(g)
            for _ in range(4):
                f0 = rng.normal(size=g.n)
                f1 = rng.normal(size=g.n)
                assert np.abs(gamma(f0, f1, M) - oracles.gamma_via_delta(f0, f1, M)).max() <= 1e-12

    def test_pairing_with_laplacian(self, corpus, rng):
        # (L f0, f1) = m(Gamma(f0, f1))
        for g in corpus:
            M = markov_data(g)
            f0 = rng.normal(size=g.n)
            f1 = rng.normal(size=g.n)
            left = inner(M.L @ f0, f1, M.m)
            middle = mean(gamma(f0, f1, M), M.m)
            assert abs(left - middle) <= 1e-12


class TestIntegrationByParts:
    def test_hand_case_single_vertex(self, g_tri):
        M = markov_data(g_tri)
        delta0 = np.array([1.0, 0.0, 0.0])
        report = oracles.check_integration_by_parts(M, [0], delta0, delta0)
        assert report.lhs == pytest.approx(0.4, abs=1e-15)
        assert report.interior == pytest.approx(0.0, abs=1e-15)
        assert report.boundary == pytest.approx(-0.4, abs=1e-15)
        assert report.subset_residual <= 1e-15

    def test_full_vertex_set_has_no_boundary(self, g_tri, rng):
        M = markov_data(g_tri)
        f0 = rng.normal(size=3)
        f1 = rng.normal(size=3)
        report = oracles.check_integration_by_parts(M, range(3), f0, f1)
        assert report.boundary == 0.0
        assert report.max_residual <= 1e-10

    def test_random_subsets(self, corpus, rng):
        checked = 0
        for g in corpus:
            M = markov_data(g)
            for _ in range(4):
                k = int(rng.integers(1, g.n + 1))
                omega = rng.choice(g.n, size=k, replace=False)
                f0 = rng.normal(size=g.n)
                f1 = rng.normal(size=g.n)
                report = oracles.check_integration_by_parts(M, omega, f0, f1)
                assert report.max_residual <= 1e-10
                checked += 1
        assert checked >= 100

    def test_empty_subset_rejected(self, g_tri):
        M = markov_data(g_tri)
        with pytest.raises(oracles.EmptySubsetError):
            oracles.check_integration_by_parts(M, [], np.zeros(3), np.zeros(3))


def test_mean_kernel_rejects_shape_mismatch():
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    M = mean_kernel(P, np.array([0.5, 0.5]))
    assert M.n == 2
