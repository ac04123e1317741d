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

import importlib
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import BLAND_MU, SEED
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
        """W(nu0, nu1) on a 7-vertex graph of 27 arcs, from the BFS in-tree of vertex 6.

        Pivots 3 to 8 have ratio 0, as many as the program has rows, so
        the ninth is under Bland's rule.  Rows 1 and 2 are short then,
        holding arc 3 (1 -> 2) at -3/63 and arc 1 (0 -> 5) at -2/63.  The
        most-infeasible rule would take row 1 and end in two more pivots,
        10 in all.  Bland's rule takes row 2, the lower arc index, and
        ends in three, 11 in all, at W = 11/63.
        """
        nu0 = np.array([1, 2, 1, 0, 2, 1, 2]) / 9
        nu1 = np.array([1, 2, 1, 0, 1, 1, 1]) / 7
        tree = transport.root_basis(distances(build_graph(BLAND_MU)), 6, inward=True)
        start, b = tree.start, (nu0 - nu1)[tree.vertices]
        expected = oracles.linprog_general(start.c, A_eq=start.A, b_eq=b).fun
        assert expected == pytest.approx(11 / 63, abs=1e-12)
        assert_solved_under_blands_rule(start, b, expected, pivots=11)

    def test_raises_an_infeasible_end_after_a_pivot_on_the_reference_tableau(self):
        """min x2 over x0 - x2 = -1, x1 + x2 = 1/2, x >= 0, from the slack basis.

        Row 0 is short and x2 enters.  The pivot sets x2 = 1 + x0, which
        leaves row 1 at x0 + x1 = -1/2 with no negative entry: x2 >= 1
        and x2 <= 1/2 cannot both hold.  The kernel raises from inside
        its loop after 1 pivot, on the reference loop's tableau and
        basis, bit for bit.
        """
        A = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 1.0]])
        start = lp.Start.from_basis([0.0, 0.0, 1.0], A, basis=(0, 1))
        b = np.array([-1.0, 0.5])
        with pytest.raises(LpFailureError, match=NOT_OPTIMAL.replace("0 pivots", "1 pivots")):
            lp.solve_lp(start, b)
        assert not oracles.assert_kernel_matches_reference(start, b)


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


def bench_graph(workload: str, index: int, seed: int, monkeypatch):
    """Graph index of the benchmark's workload at seed, as bench/workloads draws it."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    graph = importlib.import_module("workloads").build(workload, seed).graphs[index]
    mu = np.zeros((graph.n, graph.n))
    for x, y, w in graph.arcs:
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
        start = lp.Start.from_basis(np.zeros(2), np.ones((1, 2)), [0])
        with pytest.raises(LpFailureError, match=NOT_OPTIMAL):
            lp.solve_lp(start, [-1.0])

    def test_a_solve_that_is_not_optimal_has_no_warm_start(self):
        """x0 + x1 = -1 is infeasible after 0 pivots: no final basis to start from or invert.

        A zero-pivot optimum ends on its start's tableau, which its warm
        start hands on as that start, so solve_lp raises before any
        solution exists; RootBasis.solve lets that error through as it
        is.
        """
        start = lp.Start.from_basis([1.0, 1.0], [[1.0, 1.0]], [0])
        with pytest.raises(LpFailureError, match=NOT_OPTIMAL):
            lp.solve_lp(start, [-1.0])
        tree = transport.RootBasis(start=start, vertices=np.array([1]))
        with pytest.raises(LpFailureError, match=NOT_OPTIMAL):
            tree.solve(np.array([0.0, -1.0]))

    def test_the_residual_shows_an_exactly_infeasible_final_basis(self, monkeypatch):
        """kappa(2, 8) on curvature_sparse's second graph (seed 1) ends on an infeasible basis.

        One basic variable is negative in exact arithmetic: the basis
        inverse is a 0/+-1 matrix, so B^-1 b is exact in Fractions.  It
        lies above -PRIMAL_TOL, so the solve reads it as zero and clips
        it out of x; the residual is taken before the clip and shows it.
        """
        g = bench_graph("curvature_sparse", 1, 1, monkeypatch)
        solutions = []
        solve = lp.solve_lp

        def keep(start, b):
            solutions.append(solve(start, b))
            return solutions[-1]

        monkeypatch.setattr(lp, "solve_lp", keep)
        kappa_lp(2, [8], markov_data(g), distances(g))
        (solution,) = solutions
        basic = solution._basic
        inverse = solution.rows[:-1, solution.start.basis] @ solution.start.inverse
        assert set(np.unique(inverse)) <= {-1.0, 0.0, 1.0}
        exact = [sum(Fraction(int(a)) * Fraction(float(v)) for a, v in zip(row, solution.b))
                 for row in inverse]
        assert min(exact) < 0
        assert -lp.PRIMAL_TOL <= basic.min() < 0
        assert solution.x.min() == 0.0
        assert solution.feasibility_residual > 0
        assert solution.feasibility_residual >= -basic.min()
