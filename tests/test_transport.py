"""Wasserstein distance under the directed hop cost, primal and dual."""

from __future__ import annotations

import re

import numpy as np
import pytest

import oracles
from conftest import SEED
from digricci import (
    MarginalMismatchError,
    distances,
    lp,
    kantorovich_dual,
    wasserstein,
)
from digricci.lp import GAP_TOL


def dirac(i: int, n: int) -> np.ndarray:
    v = np.zeros(n)
    v[i] = 1.0
    return v


class TestHandValues:
    def test_c3_asymmetry(self, g_c3):
        dm = distances(g_c3)
        assert wasserstein(dirac(0, 3), dirac(1, 3), dm).value == pytest.approx(
            oracles.HAND["c3"]["w_d0_d1"], abs=1e-12
        )
        assert wasserstein(dirac(1, 3), dirac(0, 3), dm).value == pytest.approx(
            oracles.HAND["c3"]["w_d1_d0"], abs=1e-12
        )

    def test_identical_measures(self, g_tri, rng):
        dm = distances(g_tri)
        nu = rng.dirichlet(np.ones(3))
        assert wasserstein(nu, nu, dm).value == pytest.approx(0.0, abs=1e-12)

    def test_point_masses_recover_distance(self, corpus):
        for g in corpus[:10]:
            dm = distances(g)
            for x in range(g.n):
                for y in range(g.n):
                    w = wasserstein(dirac(x, g.n), dirac(y, g.n), dm, verify=True)
                    assert w.value == pytest.approx(dm.d[x, y], abs=1e-12)


class TestSolverContract:
    def test_residuals_on_random_measures(self, corpus, rng):
        for g in corpus[:10]:
            dm = distances(g)
            for _ in range(3):
                nu0 = rng.dirichlet(np.ones(g.n))
                nu1 = rng.dirichlet(np.ones(g.n))
                plan = wasserstein(nu0, nu1, dm)
                assert plan.marginal_residual <= 1e-10
                assert plan.duality_gap <= GAP_TOL
                assert (plan.pi >= 0).all()

    def test_matches_scipy(self, corpus, rng):
        for g in corpus[:10]:
            dm = distances(g)
            for _ in range(3):
                nu0 = rng.dirichlet(np.ones(g.n))
                nu1 = rng.dirichlet(np.ones(g.n))
                ours = wasserstein(nu0, nu1, dm, verify=True).value
                ref = oracles.linprog_transport(dm.d, nu0, nu1)
                assert ours == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("verify", [True, False])
    def test_single_vertex_program_has_no_rows(self, verify):
        # the flow program of one vertex: its row is dropped, so none is left.
        # build_graph refuses a one-vertex graph, so the program is built here;
        # verify also restarts it from its final basis
        start = lp.Start.from_basis(np.zeros(0), np.zeros((0, 0)), [], np.zeros((0, 0)))
        solution = lp.solve_lp(start, np.zeros(0))
        if verify:
            solution = lp.solve_lp(solution.warm_start(), np.zeros(0))
        assert solution.status == "optimal" and solution.iterations == 0
        assert solution.value == 0.0 and solution.duality_gap == 0.0
        assert solution.x.shape == (0,) and solution.duals.shape == (0,)
        assert solution.feasibility_residual == 0.0

    def test_mass_mismatch_rejected(self, g_c3):
        dm = distances(g_c3)
        with pytest.raises(MarginalMismatchError):
            wasserstein(np.array([0.5, 0.5, 0.1]), dirac(0, 3), dm)


class TestDual:
    def test_dual_value_matches_primal(self, corpus, rng):
        for g in corpus[:10]:
            dm = distances(g)
            nu0 = rng.dirichlet(np.ones(g.n))
            nu1 = rng.dirichlet(np.ones(g.n))
            primal = wasserstein(nu0, nu1, dm, verify=True).value
            value, f = kantorovich_dual(nu0, nu1, dm)
            assert value == pytest.approx(primal, abs=1e-9)
            assert float(f @ (nu1 - nu0)) == pytest.approx(value, abs=1e-12)

    def test_dual_witness_is_one_lipschitz(self, corpus, rng):
        for g in corpus[:10]:
            dm = distances(g)
            nu0 = rng.dirichlet(np.ones(g.n))
            nu1 = rng.dirichlet(np.ones(g.n))
            _, f = kantorovich_dual(nu0, nu1, dm)
            assert oracles.is_one_lipschitz(f, dm.d)

    def test_verify_mode_reports_gap(self, g_tri, rng):
        dm = distances(g_tri)
        nu0 = rng.dirichlet(np.ones(3))
        nu1 = rng.dirichlet(np.ones(3))
        plan = wasserstein(nu0, nu1, dm, verify=True)
        assert plan.dual_f is not None
        assert plan.duality_gap <= GAP_TOL


class TestMetricStructure:
    def test_directed_triangle_inequality(self, corpus):
        rng = np.random.default_rng(SEED + 3)
        checked = 0
        graphs = corpus[:10]
        while checked < 100:
            g = graphs[checked % len(graphs)]
            dm = distances(g)
            nus = [rng.dirichlet(np.ones(g.n)) for _ in range(3)]
            w02 = wasserstein(nus[0], nus[2], dm, verify=True).value
            w01 = wasserstein(nus[0], nus[1], dm, verify=True).value
            w12 = wasserstein(nus[1], nus[2], dm, verify=True).value
            assert w02 <= w01 + w12 + 1e-9
            checked += 1

    def test_zero_iff_equal(self, corpus, rng):
        for g in corpus[:5]:
            dm = distances(g)
            nu0 = rng.dirichlet(np.ones(g.n))
            nu1 = rng.dirichlet(np.ones(g.n))
            w = wasserstein(nu0, nu1, dm, verify=True).value
            if np.abs(nu0 - nu1).max() > 1e-9:
                assert w > 0


@pytest.mark.parametrize(
    "nu, message",
    [
        ([0.5, 0.5], "nu0 must have length 3"),
        ([0.5, np.nan, 0.5], "nu0 has a non-finite entry"),
        ([0.5, np.inf, 0.0], "nu0 has a non-finite entry"),
        ([0.5, -np.inf, 0.5], "nu0 has a non-finite entry"),
        ([0.75, -0.25, 0.5], "nu0 has a negative entry"),
        ([0.5, 0.25, 0.25 + 2e-12], None),
        ([0.5, 0.25, 0.25 - 2e-12], None),
    ],
    ids=["length", "nan", "inf", "-inf", "negative", "mass+2e-12", "mass-2e-12"],
)
def test_a_bad_measure_names_the_first_rule_it_breaks(g_tri, nu, message):
    """A valid measure passes in one pass; any other takes the ordered checks and their message."""
    nu = np.asarray(nu)
    if message is None:
        message = f"nu0 has mass {nu.sum():.17g}, expected 1"
    with pytest.raises(MarginalMismatchError, match=f"^{re.escape(message)}$") as excinfo:
        wasserstein(nu, dirac(0, 3), distances(g_tri))
    assert excinfo.type is MarginalMismatchError


def test_a_table_names_its_first_bad_row(g_tri):
    """A table checks both stacks once, row by row on failure: the first bad row names the error.

    nu0[0, 1] breaks the mass rule and nu0[1, 0] comes later with a
    negative entry; a single measure's rules and messages apply, with
    the row's index in the name.  nu1 is checked after nu0.
    """
    dm = distances(g_tri)
    third = np.full(3, 1 / 3)
    nu0 = np.tile(third, (2, 2, 1))
    nu1 = np.tile(dirac(0, 3), (2, 2, 1))
    nu0[0, 1] = [0.5, 0.25, 0.5]
    nu0[1, 0] = [0.75, -0.25, 0.5]
    with pytest.raises(MarginalMismatchError, match=r"^nu0\[0, 1\] has mass 1.25, expected 1$"):
        wasserstein(nu0, nu1, dm, verify=False)
    nu0 = np.tile(third, (2, 2, 1))
    nu1[1, 1, 2] = np.nan
    with pytest.raises(MarginalMismatchError, match=r"^nu1\[1, 1\] has a non-finite entry$"):
        wasserstein(nu0, nu1, dm, verify=False)
    with pytest.raises(MarginalMismatchError, match=r"^nu1 must have shape \(2, 2, 3\)$"):
        wasserstein(nu0, nu1[:, :1], dm, verify=False)


def test_a_table_is_fast_mode_with_a_pair_and_a_start_per_column(g_tri):
    dm = distances(g_tri)
    nu0, nu1 = np.tile(dirac(0, 3), (1, 2, 1)), np.tile(dirac(2, 3), (1, 2, 1))
    assert wasserstein(nu0, nu1, dm, verify=False).values.tolist() == [[2.0, 2.0]]
    with pytest.raises(ValueError, match="fast mode only"):
        wasserstein(nu0, nu1, dm)
    with pytest.raises(ValueError, match="takes 2 starts, got 1"):
        wasserstein(nu0, nu1, dm, verify=False, start=[None])
    with pytest.raises(MarginalMismatchError, match="at least one pair"):
        wasserstein(nu0[:0], nu1[:0], dm, verify=False)


def test_a_single_pair_is_verify_mode_only_without_a_start(g_tri):
    """Fast mode and starts belong to the table form; a single pair asks for neither."""
    dm = distances(g_tri)
    nu0, nu1 = dirac(0, 3), dirac(2, 3)
    with pytest.raises(ValueError, match="verify mode only"):
        wasserstein(nu0, nu1, dm, verify=False)
    with pytest.raises(ValueError, match="verify mode only"):
        wasserstein(nu0, nu1, dm, start=[None])
    assert wasserstein(nu0, nu1, dm).value == 2.0
