"""The coupling solver: one dual simplex from a spanning-tree basis.

solve_transport drops the row sum of row 0 and starts from a tree of
the complete bipartite graph that is dual feasible for every cost, so
there is no phase 1.  These tests hold it to scipy's HiGHS solver and
to its own certificate, on random costs and on the degenerate families
where the pivot rule has to earn its keep: the most-infeasible leaving
row, and the Bland's-rule fallback it takes after a run of pivots that
leave the objective unchanged.  The kernel is held bit for bit to the
plain reference loop in oracles, on those families and on a pinned
instance where the fallback fires.  A solve that is not optimal raises,
and a solve's feasibility residual shows a final basis that is
infeasible in exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

import oracles
from conftest import SEED
from digricci import (
    MarginalMismatchError,
    build_graph,
    distances,
    kappa_lp,
    markov_data,
    solve_transport,
)
from digricci import lp, transport
from digricci.errors import LpFailureError
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
        """The lean pivot loop ends on the reference loop's tableau, bit for bit.

        The duals read off the cost row through the start basis's
        inverse (np.linalg.inv of the coupling tree, not an exact path
        matrix) stay within 1e-12 of the LU solve on the final basis.
        """
        rng = np.random.default_rng(SEED + 5)
        for _family, cost, nu0, nu1 in degenerate_instances(rng, 20):
            start, b = assemble_transport_lp(cost, nu0, nu1)
            oracles.assert_kernel_matches_reference(start, b, duals_tol=1e-12)

    def test_switches_to_blands_rule_on_a_degenerate_coupling(self):
        """An "equal" instance: the 224th draw of degenerate_instances at seed 22.

        Equal measures make every off-diagonal basic flow zero; 13 pivots
        in a row leave the objective unchanged, as many as the program
        has rows, so the solve ends under Bland's rule.
        """
        cost = np.array(
            [
                [0, 2, 0, 0, 0, 1, 0],
                [1, 0, 1, 1, 2, 1, 1],
                [1, 2, 2, 0, 0, 0, 0],
                [0, 0, 0, 2, 1, 0, 0],
                [1, 1, 1, 0, 2, 0, 0],
                [0, 0, 0, 2, 2, 1, 0],
                [1, 1, 2, 1, 1, 1, 1],
            ],
            dtype=float,
        )
        nu = np.array(
            [
                0.07541569565692668,
                0.0028576476099587407,
                0.13186527212850307,
                0.01008539859705576,
                0.19465995720799975,
                0.1388785913418996,
                0.4462374374576564,
            ]
        )
        start, b = assemble_transport_lp(cost, nu, nu)
        expected = oracles.linprog_transport(cost, nu, nu, tight=True)
        assert_solved_under_blands_rule(start, b, expected, pivots=19)

    def test_blands_rule_picks_the_leaving_row_after_the_switch(self):
        """min x4 + x7 over [I | N] x = b, x >= 0, from the slack basis.

        The first three pivots have ratio 0.  Then rows 1 and 2 are short,
        holding x5 = -11/3 and x3 = -10/3.  The most-infeasible rule would
        take row 1 and need two more pivots.  Bland's rule takes row 2,
        the lower variable index, and ends in one.
        """
        N = np.array([[2, -2, 1, 2, 3], [0, 2, -3, -3, 1], [-3, -2, 3, 0, -1]], dtype=float)
        A = np.hstack([np.eye(3), N])
        c = np.array([0, 0, 0, 0, 1, 0, 0, 1], dtype=float)
        start = lp.Start.from_basis(c, A, basis=np.arange(3), basis_inverse=np.eye(3))
        b = np.array([-1, -3, -1], dtype=float)
        expected = oracles.linprog_general(c, A_eq=A, b_eq=b).fun
        assert_solved_under_blands_rule(start, b, expected, pivots=4)


def assert_solved_under_blands_rule(start, b, expected: float, pivots: int) -> None:
    """The reference switches; the kernel matches it bit for bit and scipy within 1e-9."""
    assert oracles.assert_kernel_matches_reference(start, b, duals_tol=1e-12)
    solution = lp.solve_lp(start, b)
    assert solution.status == "optimal"
    assert solution.iterations == pivots
    assert abs(solution.value - expected) <= 1e-9


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


def ring_chords(n: int, seed: int):
    """A directed n-cycle plus chords random((n, n)) < 3/n, weights U(0.5, 2), one rng."""
    rng = np.random.default_rng(seed)
    ring = {(x, (x + 1) % n) for x in range(n)}
    chords = rng.random((n, n)) < 3.0 / n
    pairs = sorted(ring | {(x, y) for x in range(n) for y in range(n) if x != y and chords[x, y]})
    mu = np.zeros((n, n))
    for (x, y), w in zip(pairs, rng.uniform(0.5, 2.0, size=len(pairs))):
        mu[x, y] = w
    return build_graph(mu)


# the whole message solve_lp raises when x0 + x1 = -1 ends its first pricing
NOT_OPTIMAL = r"^solve ended with status 'infeasible' after 0 pivots$"


class TestCertificate:
    def test_a_solve_that_is_not_optimal_has_no_certificate(self):
        """x0 + x1 = -1 has no solution with x >= 0: infeasible after 0 pivots.

        solve_lp returns optimal solves only, so it raises, naming the
        status and the pivot count, and no certificate is formed.
        """
        start = lp.Start.from_basis(np.zeros(2), np.ones((1, 2)), [0], np.eye(1))
        with pytest.raises(LpFailureError, match=NOT_OPTIMAL):
            lp.solve_lp(start, [-1.0])

    def test_a_solve_that_is_not_optimal_has_no_warm_start(self):
        """x0 + x1 = -1 is infeasible after 0 pivots: no final basis to start from or invert.

        Its pivot count is the one a zero-pivot optimum hands its own
        start on for, so solve_lp raises before any solution exists;
        RootBasis.solve lets that error through as it is.
        """
        start = lp.Start.from_basis([1.0, 1.0], [[1.0, 1.0]], [0], [[1.0]])
        with pytest.raises(LpFailureError, match=NOT_OPTIMAL):
            lp.solve_lp(start, [-1.0])
        tree = transport.RootBasis(start=start, vertices=np.array([1]))
        with pytest.raises(LpFailureError, match=NOT_OPTIMAL):
            tree.solve(np.array([0.0, -1.0]))

    def test_the_residual_shows_an_exactly_infeasible_final_basis(self, monkeypatch):
        """kappa(1, 11) on ring+chords n=16 (seed 1) ends on a basis that is infeasible.

        One basic variable is negative in exact arithmetic: the basis
        inverse is a 0/+-1 matrix, so B^-1 b is exact in Fractions.  It
        lies above -PRIMAL_TOL, so the solve reads it as zero and clips
        it out of x; the residual is taken before the clip and shows it.
        """
        g = ring_chords(16, 1)
        solutions = []
        solve = lp.solve_lp

        def keep(start, b):
            solutions.append(solve(start, b))
            return solutions[-1]

        monkeypatch.setattr(lp, "solve_lp", keep)
        kappa_lp(1, [11], markov_data(g), distances(g))
        (solution,) = solutions
        basic = solution._tableau[:-1, -1]
        inverse = solution.basis_inverse
        assert set(np.unique(inverse)) <= {-1.0, 0.0, 1.0}
        exact = [sum(Fraction(int(a)) * Fraction(float(v)) for a, v in zip(row, solution.b))
                 for row in inverse]
        assert min(exact) < 0
        assert -lp.PRIMAL_TOL <= basic.min() < 0
        assert solution.x.min() == 0.0
        assert solution.feasibility_residual > 0
        assert solution.feasibility_residual >= -basic.min()
