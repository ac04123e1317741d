"""The dense simplex core, cross-checked against scipy's HiGHS solver."""

from __future__ import annotations

import numpy as np
import pytest

import oracles
from conftest import SEED
from digricci import LinearProgram, MarginalMismatchError, solve_lp, solve_transport
from digricci.lp import GAP_TOL, MARGINAL_TOL, _standard_form, assemble_transport_lp


def random_lp(rng: np.random.Generator) -> LinearProgram:
    m = int(rng.integers(1, 7))
    n = int(rng.integers(1, 7))
    A = rng.normal(size=(m, n))
    b = rng.normal(size=m)
    c = rng.normal(size=n)
    senses = tuple(rng.choice(["<=", "="]) for _ in range(m))
    bounds = []
    for _ in range(n):
        kind = rng.integers(0, 4)
        if kind == 0:
            bounds.append((0.0, None))
        elif kind == 1:
            bounds.append((None, None))
        elif kind == 2:
            lo = float(rng.normal())
            bounds.append((lo, lo + float(rng.uniform(0.5, 3.0))))
        else:
            bounds.append((float(rng.normal()), None))
    return LinearProgram(c, A, b, senses, tuple(bounds), maximize=bool(rng.integers(0, 2)))


def scipy_solve(lp: LinearProgram):
    # presolve stays off: with it on, HiGHS reports some unbounded
    # problems as infeasible, and this oracle needs the exact status
    sign = -1.0 if lp.maximize else 1.0
    ub = [i for i, s in enumerate(lp.senses) if s == "<="]
    eq = [i for i, s in enumerate(lp.senses) if s == "="]
    return oracles.linprog_general(
        sign * lp.c,
        A_ub=lp.A[ub] if ub else None,
        b_ub=lp.b[ub] if ub else None,
        A_eq=lp.A[eq] if eq else None,
        b_eq=lp.b[eq] if eq else None,
        bounds=list(lp.bounds),
        presolve=False,
    )


class TestHandLps:
    def test_tiny_max(self):
        # max 3x + 2y, x + y <= 4, x <= 2 -> x = 2, y = 2, value 10
        lp = LinearProgram(
            c=[3.0, 2.0],
            A=[[1.0, 1.0], [1.0, 0.0]],
            b=[4.0, 2.0],
            senses=("<=", "<="),
            maximize=True,
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(10.0, abs=1e-12)
        assert np.allclose(sol.x, [2.0, 2.0], atol=1e-12)

    def test_equality_and_free_variable(self):
        # min x - y with x + y = 1, y free in [-2, 2] -> x = 0, y = 1? No:
        # y <= 2 allows x = -1? x >= 0 holds, so push y up: y = 2 infeasible
        # with x >= 0 unless x = -1; best is x = 0, y = 1, value -1.
        lp = LinearProgram(
            c=[1.0, -1.0],
            A=[[1.0, 1.0]],
            b=[1.0],
            senses=("=",),
            bounds=((0.0, None), (-2.0, 2.0)),
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(-1.0, abs=1e-12)

    def test_infeasible(self):
        lp = LinearProgram(
            c=[1.0],
            A=[[1.0], [1.0]],
            b=[2.0, -1.0],
            senses=("=", "="),
        )
        assert solve_lp(lp).status == "infeasible"

    def test_unbounded(self):
        # max x subject only to x >= -1: no ceiling
        lp = LinearProgram(c=[1.0], A=[[-1.0]], b=[1.0], senses=("<=",), maximize=True,
                           bounds=((None, None),))
        assert solve_lp(lp).status == "unbounded"

    def test_degenerate_cycling_guard(self):
        # classic Beale-style degeneracy; Bland's rule must terminate
        lp = LinearProgram(
            c=[-0.75, 150.0, -0.02, 6.0],
            A=[
                [0.25, -60.0, -0.04, 9.0],
                [0.5, -90.0, -0.02, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ],
            b=[0.0, 0.0, 1.0],
            senses=("<=", "<=", "<="),
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(-0.05, abs=1e-12)


class TestAgainstScipy:
    def test_random_lps_match(self):
        rng = np.random.default_rng(SEED)
        statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
        for _ in range(300):
            lp = random_lp(rng)
            ours = solve_lp(lp)
            ref = scipy_solve(lp)
            if ref.status == 0:
                ref_value = (-1.0 if lp.maximize else 1.0) * ref.fun
                assert ours.status == "optimal"
                assert ours.value == pytest.approx(ref_value, abs=1e-7)
            elif ref.status == 2:
                assert ours.status == "infeasible"
            elif ref.status == 3:
                assert ours.status == "unbounded"
            statuses[ours.status] += 1
        # the sweep must exercise all three outcomes to mean anything
        assert min(statuses.values()) >= 5

    def test_optimality_certificates(self):
        rng = np.random.default_rng(SEED + 1)
        seen = 0
        while seen < 100:
            lp = random_lp(rng)
            sol = solve_lp(lp)
            if sol.status != "optimal":
                continue
            seen += 1
            assert sol.duality_gap <= GAP_TOL
            assert sol.complementarity <= 1e-7
            assert sol.feasibility_residual <= 1e-9


def loop_standard_form(problem: LinearProgram):
    """The standard form built one variable and one row at a time.

    The reference that _standard_form's array operations must match
    entry for entry, so that the tableau, and with it the pivot
    sequence, stays the same.
    """
    m0, n0 = problem.A.shape
    c_sign = -1.0 if problem.maximize else 1.0
    cols, costs, src, sign = [], [], [], []
    base = np.zeros(n0)
    box_cols, box_rhs = [], []
    for j, (lo, hi) in enumerate(problem.bounds):
        a = problem.A[:, j]
        if lo is not None and hi is not None and hi < lo:
            return None
        signs = (1.0, -1.0) if lo is None and hi is None else (1.0,) if lo is not None else (-1.0,)
        if lo is not None:
            base[j] = lo
            if hi is not None:
                box_cols.append(len(cols))
                box_rhs.append(hi - lo)
        elif hi is not None:
            base[j] = hi
        for s in signs:
            cols.append(a if s > 0 else -a)
            costs.append(c_sign * problem.c[j] if s > 0 else -c_sign * problem.c[j])
            src.append(j)
            sign.append(s)
    A = np.column_stack(cols) if cols else np.zeros((m0, 0))
    b = problem.b - problem.A @ base
    senses = list(problem.senses)
    for k, rhs in zip(box_cols, box_rhs):
        row = np.zeros(len(cols))
        row[k] = 1.0
        A = np.vstack([A, row])
        b = np.concatenate([b, [rhs]])
        senses.append("<=")
    m = A.shape[0]
    n_le = senses.count("<=")
    A_std = np.hstack([A, np.zeros((m, n_le))])
    slack_basis = np.full(m, -1)
    k = len(cols)
    for i, s in enumerate(senses):
        if s == "<=":
            A_std[i, k] = 1.0
            slack_basis[i] = k
            k += 1
    row_sign = np.ones(m)
    for i in range(m):
        if b[i] < 0:
            A_std[i] *= -1.0
            b[i] *= -1.0
            row_sign[i] = -1.0
            slack_basis[i] = -1
    return (A_std, b, np.concatenate([np.asarray(costs), np.zeros(n_le)]), row_sign,
            slack_basis, np.asarray(src), np.asarray(sign), base,
            float(c_sign * problem.c @ base))


class TestStandardForm:
    def test_matches_the_loop_reference_bit_for_bit(self):
        rng = np.random.default_rng(SEED + 3)
        for _ in range(300):
            lp = random_lp(rng)
            # random_lp draws no upper-bound-only variables; add some
            lp.bounds = tuple(
                (None, float(rng.normal())) if rng.random() < 0.2 else bd for bd in lp.bounds
            )
            ours, ref = _standard_form(lp), loop_standard_form(lp)
            assert (ours is None) == (ref is None)
            if ours is None:
                continue
            for name, got, want in zip(ours._fields, ours, ref):
                got, want = np.asarray(got), np.asarray(want)
                assert got.shape == want.shape, name
                assert got.tobytes() == want.astype(got.dtype).tobytes(), name


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

    def test_agrees_with_generic_path(self):
        # the dedicated entry point and the explicit LP assembly coincide
        rng = np.random.default_rng(SEED + 2)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            cost = rng.uniform(0.0, 3.0, size=(n, n))
            nu0 = rng.dirichlet(np.ones(n))
            nu1 = rng.dirichlet(np.ones(n))
            sol = solve_transport(cost, nu0, nu1)
            generic = solve_lp(assemble_transport_lp(cost, nu0, nu1))
            assert generic.status == "optimal"
            assert abs(sol.value - generic.value) <= 1e-9

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
