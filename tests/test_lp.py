"""The coupling solver: one dual simplex from a spanning-tree basis.

solve_transport drops the row sum of row 0 and starts from a tree of
the complete bipartite graph that is dual feasible for every cost, so
there is no phase 1.  These tests hold it to scipy's HiGHS solver and
to its own certificate, on random costs and on the degenerate families
where Bland's rule has to earn its keep.
"""

from __future__ import annotations

import numpy as np
import pytest

import oracles
from conftest import SEED
from digricci import MarginalMismatchError, solve_transport
from digricci.lp import GAP_TOL, MARGINAL_TOL, assemble_transport_lp


def sparse_measure(rng: np.random.Generator, n: int) -> np.ndarray:
    """A probability vector with about a third of its entries exactly zero."""
    w = rng.dirichlet(np.ones(n)) * (rng.random(n) > 1 / 3)
    if not w.any():
        w[rng.integers(n)] = 1.0
    return w / w.sum()


def degenerate_instances(rng: np.random.Generator, per_family: int):
    """(family, cost, nu0, nu1) drawn from the families that degenerate a tableau.

    Integer costs in {0, 1, 2} (ties in every row and column), equal
    measures (every basic flow off the diagonal is zero), one-row and
    one-column shapes (a single feasible coupling) and measures with
    zero-mass entries; shapes are rectangular unless the family needs
    them square.
    """
    for _ in range(per_family):
        n0, n1 = (int(k) for k in rng.integers(1, 8, size=2))
        ties = rng.integers(0, 3, size=(n0, n1)).astype(float)
        yield "integer ties", ties, rng.dirichlet(np.ones(n0)), rng.dirichlet(np.ones(n1))
        nu = rng.dirichlet(np.ones(n0))
        yield "equal", rng.integers(0, 3, size=(n0, n0)).astype(float), nu, nu.copy()
        yield "equal", rng.uniform(0.0, 3.0, size=(n0, n0)), nu, nu.copy()
        k = int(rng.integers(1, 9))
        yield "1 x k", rng.uniform(0.0, 3.0, size=(1, k)), np.ones(1), rng.dirichlet(np.ones(k))
        yield "k x 1", rng.uniform(0.0, 3.0, size=(k, 1)), rng.dirichlet(np.ones(k)), np.ones(1)
        yield "zero mass", ties, sparse_measure(rng, n0), sparse_measure(rng, n1)


class TestDegenerateSweep:
    def test_degenerate_families_are_solved_and_certified(self):
        rng = np.random.default_rng(SEED + 5)
        seen = set()
        for family, cost, nu0, nu1 in degenerate_instances(rng, 50):
            seen.add(family)
            sol = solve_transport(cost, nu0, nu1)
            ref = oracles.linprog_transport(cost, nu0, nu1, tight=True)
            assert abs(sol.value - ref) <= 1e-9, family
            assert sol.duality_gap <= GAP_TOL, family
            assert sol.marginal_residual <= MARGINAL_TOL, family
            assert (sol.pi >= 0).all(), family
            # the returned potentials price every entry at a non-negative reduced cost
            reduced = cost - sol.row_duals[:, None] - sol.col_duals[None, :]
            assert reduced.min() >= -1e-9, family
            assert sol.row_duals[0] == 0.0
        assert seen == {"integer ties", "equal", "1 x k", "k x 1", "zero mass"}


class TestKernel:
    def test_matches_the_reference_loop_on_the_degenerate_families(self):
        """The lean pivot loop ends on the reference loop's tableau, bit for bit."""
        rng = np.random.default_rng(SEED + 5)
        for _family, cost, nu0, nu1 in degenerate_instances(rng, 20):
            oracles.assert_kernel_matches_reference(assemble_transport_lp(cost, nu0, nu1))


class TestTransport:
    def test_marginals_and_value(self):
        rng = np.random.default_rng(SEED)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            cost = rng.uniform(0.0, 3.0, size=(n, n))
            np.fill_diagonal(cost, 0.0)
            nu0 = rng.dirichlet(np.ones(n))
            nu1 = rng.dirichlet(np.ones(n))
            sol = solve_transport(cost, nu0, nu1)
            assert sol.marginal_residual <= MARGINAL_TOL
            assert sol.duality_gap <= GAP_TOL
            assert (sol.pi >= 0).all()
            ref = oracles.linprog_transport(cost, nu0, nu1)
            assert sol.value == pytest.approx(ref, abs=1e-9)

    def test_identical_measures_cost_zero(self):
        cost = np.array([[0.0, 1.0], [2.0, 0.0]])
        nu = np.array([0.3, 0.7])
        sol = solve_transport(cost, nu, nu)
        assert sol.value == pytest.approx(0.0, abs=1e-12)

    def test_mass_mismatch_rejected(self):
        cost = np.zeros((2, 2))
        with pytest.raises(MarginalMismatchError):
            solve_transport(cost, np.array([0.5, 0.5]), np.array([0.5, 0.6]))

    def test_negative_mass_rejected(self):
        cost = np.zeros((2, 2))
        with pytest.raises(MarginalMismatchError):
            solve_transport(cost, np.array([-0.1, 1.1]), np.array([0.5, 0.5]))
