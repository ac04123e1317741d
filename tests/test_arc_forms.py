"""The arc-local programs against their all-pairs forms and scipy.

The hop metric is a path metric, so two programs shrink to the arcs:
transport becomes a min-cost flow with one variable per arc, and the
curvature program keeps one Lipschitz row per arc.  These properties
pin both to the programs that enumerate every ordered pair, over
random strongly connected graphs and random (often sparse) measures.
The flow program is solved by a dual simplex from a BFS-tree basis,
the out-tree of the largest excess or the in-tree of the largest
deficit, built once per root and direction with its inverse, the
tree's path matrix; further properties pin that inverse to be exact
for every root, the solve from either tree to scipy and the pivot
kernel to the reference loop, and unit tests pin how bad starting
bases and inverses fail.
The curvature program is solved through its dual flow from the same
kind of basis; its witness is checked for optimality on its own.
Transport contraction along the heat flow is checked over the arcs
only; a property pins its verdict and margin to the all-pairs loop.
The Lipschitz constant is taken over the arcs too, pinned to the
all-pairs difference quotients.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from digricci import (
    LinearProgram,
    NumericsError,
    build_graph,
    curvature_matrix,
    distances,
    gradient_matrix,
    heat_kernel_matrix,
    heat_operator,
    kantorovich_dual,
    kappa_lp,
    lipschitz_constant,
    lp,
    markov_data,
    solve_lp,
    solve_transport,
    verify_transport_contraction,
    wasserstein,
)
from digricci import transport
from digricci.transport import root_basis

PROPERTY_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)


@st.composite
def graphs(draw, n_max: int = 7):
    """A simple strongly connected digraph with weights in [0.5, 2]."""
    n = draw(st.integers(2, n_max))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
    weights = np.array(
        draw(st.lists(st.floats(0.5, 2.0), min_size=n * n, max_size=n * n))
    )
    mu = np.where(mask, weights, 0.0).reshape(n, n)
    np.fill_diagonal(mu, 0.0)
    g = build_graph(mu)
    assume(g.strongly_connected)
    return g


def measures(n: int):
    """Probability vectors with some entries exactly zero (point masses included)."""
    entry = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    return (
        st.lists(entry, min_size=n, max_size=n)
        .filter(lambda w: sum(w) > 0)
        .map(lambda w: np.asarray(w) / sum(w))
    )


@st.composite
def transport_instances(draw):
    g = draw(graphs())
    return g, draw(measures(g.n)), draw(measures(g.n))


@st.composite
def curvature_instances(draw):
    g = draw(graphs())
    x, y = draw(st.permutations(range(g.n)))[:2]
    return g, x, y


@PROPERTY_SETTINGS
@given(transport_instances())
def test_flow_value_matches_coupling_lp_and_scipy(instance):
    g, nu0, nu1 = instance
    dm = distances(g)
    flow = wasserstein(nu0, nu1, dm, verify=False).value
    assert flow == pytest.approx(solve_transport(dm.d, nu0, nu1).value, abs=1e-9)
    assert flow == pytest.approx(oracles.linprog_transport(dm.d, nu0, nu1), abs=1e-9)


@PROPERTY_SETTINGS
@given(transport_instances())
def test_flow_potential_is_an_optimal_kantorovich_potential(instance):
    g, nu0, nu1 = instance
    dm = distances(g)
    plan = wasserstein(nu0, nu1, dm, verify=True)
    f = plan.dual_f
    assert f[0] == 0.0
    assert oracles.is_one_lipschitz(f, oracles.hop_distances(oracles.mu_of(g)))
    assert float(f @ (nu1 - nu0)) == pytest.approx(plan.value, abs=1e-9)
    assert kantorovich_dual(nu0, nu1, dm)[0] == pytest.approx(plan.value, abs=1e-9)


@PROPERTY_SETTINGS
@given(transport_instances())
def test_decomposed_plan_is_an_optimal_coupling(instance):
    g, nu0, nu1 = instance
    dm = distances(g)
    plan = wasserstein(nu0, nu1, dm, verify=True)
    pi = plan.pi
    assert (pi >= 0).all()
    assert np.abs(pi.sum(axis=1) - nu0).max() <= 1e-12
    assert np.abs(pi.sum(axis=0) - nu1).max() <= 1e-12
    assert plan.marginal_residual <= 1e-12
    assert float((pi * dm.d).sum()) == pytest.approx(plan.value, abs=1e-9)


@PROPERTY_SETTINGS
@given(curvature_instances())
def test_kappa_arc_rows_match_all_pairs_rows_and_scipy(instance):
    g, x, y = instance
    dm = distances(g)
    value, witness = kappa_lp(x, y, markov_data(g), dm)

    _P, _m, Pmean, _mxy = oracles.reference_chain(oracles.mu_of(g))
    L = np.eye(g.n) - Pmean
    c, A_ub, b_ub, A_eq, b_eq = oracles.kappa_all_pairs_program(L, dm.d, x, y)
    ref = oracles.linprog_general(c, A_ub, b_ub, A_eq, b_eq, bounds=(None, None))
    assert ref.status == 0, ref.message
    assert value == pytest.approx(ref.fun, abs=1e-9)
    # the arc-row witness is feasible for the all-pairs program
    f = np.delete(witness, x)
    assert (A_ub @ f <= b_ub + 1e-9).all()
    assert witness[y] == pytest.approx(dm.d[x, y], abs=1e-9)


@PROPERTY_SETTINGS
@given(curvature_instances())
def test_kappa_witness_is_an_optimal_potential(instance):
    g, x, y = instance
    value, f = kappa_lp(x, y, markov_data(g), distances(g))
    mu = oracles.mu_of(g)
    d = oracles.hop_distances(mu)
    _P, _m, Pmean, _mxy = oracles.reference_chain(mu)
    L = np.eye(g.n) - Pmean
    assert f[x] == 0.0 and not np.signbit(f[x])
    assert abs(f[y] - d[x, y]) <= 1e-12
    assert oracles.is_one_lipschitz(f, d, slack=1e-12)
    assert abs(float((L[y] - L[x]) @ f) / d[x, y] - value) <= 1e-12


def test_kappa_lp_solves_the_flow_dual_from_a_basis(g_tri, monkeypatch):
    """One solve per pair: n - 1 balance rows, a column per arc plus the virtual one."""
    problems = []
    solve_lp = lp.solve_lp

    def recording_solve(problem):
        problems.append(problem)
        return solve_lp(problem)

    monkeypatch.setattr(lp, "solve_lp", recording_solve)
    kappa_lp(0, 2, markov_data(g_tri), distances(g_tri))
    (problem,) = problems
    assert problem.basis is not None
    assert problem.A.shape == (g_tri.n - 1, g_tri.arc_count + 1)


@PROPERTY_SETTINGS
@given(graphs())
def test_contraction_over_arcs_matches_all_pairs(g):
    """At K and above it, the arc check and the all-pairs check agree."""
    M, dm = markov_data(g), distances(g)
    H = heat_operator(M)
    K = curvature_matrix(M, dm).K
    for rate in (K, K + 0.05, K + 0.5):
        arcs = verify_transport_contraction(H, dm, rate, tol=0.0)
        ref = oracles.transport_contraction_all_pairs(H, dm, rate, tol=0.0)
        assert arcs.passed == ref.passed
        if arcs.passed:
            assert abs(arcs.margin - ref.margin) <= 1e-12


@st.composite
def tree_basis_instances(draw):
    """Measures that stress the tree-basis start.

    Point masses (the tree path is already optimal), heat-kernel rows at
    a small and a large time (nearly equal rows, tiny flows), equal
    measures (zero right-hand side: every pivot would be degenerate),
    equal measures but for 1e-9 of mass moved from x to y (tree flows of
    -1e-9 that must still leave) and random sparse measures.
    """
    g = draw(graphs())
    n = g.n
    kind = draw(st.sampled_from(["dirac", "heat_1e-4", "heat_5", "equal", "nudged", "random"]))
    x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if kind == "dirac":
        nu0, nu1 = np.eye(n)[x], np.eye(n)[y]
    elif kind.startswith("heat"):
        rows = heat_kernel_matrix(heat_operator(markov_data(g)), float(kind[5:]))
        nu0, nu1 = rows[x], rows[y]
    elif kind in ("equal", "nudged"):
        nu0 = draw(measures(n))
        nu1 = nu0.copy()
        if kind == "nudged" and x != y and nu0[x] > 0:
            nu1[x] -= 1e-9
            nu1[y] += 1e-9
    else:
        nu0, nu1 = draw(measures(n)), draw(measures(n))
    return g, nu0, nu1


@PROPERTY_SETTINGS
@given(tree_basis_instances())
def test_tree_basis_solve_matches_scipy(instance):
    """wasserstein is exactly this solve; scipy agrees to its own accuracy.

    HiGHS cannot go below 1e-10 feasibility tolerance, and heat rows at
    t = 1e-4 hold entries near 1e-9, so scipy is held to 1e-9.  The two
    properties below bound W from both sides to 1e-12 without it: the
    potential attains W from below, the plan from above.
    """
    g, nu0, nu1 = instance
    dm = distances(g)
    excess = nu0 - nu1
    problem = transport._flow_program(dm, excess, *transport._start_tree(excess))
    tree = solve_lp(problem)
    assert tree.status == "optimal"
    assert abs(tree.value - oracles.linprog_transport(dm.d, nu0, nu1, tight=True)) <= 1e-9
    assert wasserstein(nu0, nu1, dm, verify=False).value == tree.value


def both_starts(excess: np.ndarray) -> list[tuple[int, bool]]:
    """The out-tree of argmax excess and the in-tree of argmin excess."""
    return [(int(np.argmax(excess)), False), (int(np.argmin(excess)), True)]


@PROPERTY_SETTINGS
@given(tree_basis_instances())
def test_either_start_tree_gives_the_same_w(instance):
    """The out-tree of argmax e and the in-tree of argmin e, e = nu0 - nu1, agree."""
    g, nu0, nu1 = instance
    dm = distances(g)
    excess = nu0 - nu1
    values = []
    for r, inward in both_starts(excess):
        solution = solve_lp(transport._flow_program(dm, excess, r, inward))
        assert solution.status == "optimal"
        values.append(solution.value)
    assert abs(values[0] - values[1]) <= 1e-12
    ref = oracles.linprog_transport(dm.d, nu0, nu1, tight=True)
    assert all(abs(v - ref) <= 1e-9 for v in values)


def test_start_rule_takes_the_tree_of_the_larger_imbalance():
    """In-tree of the largest deficit only when it beats the largest excess."""
    third = np.full(3, 1 / 3)
    # point masses tie: the out-tree of the source, as for every Dirac pair
    assert transport._start_tree(np.eye(3)[0] - np.eye(3)[2]) == (0, False)
    assert transport._start_tree(third - np.eye(3)[2]) == (2, True)
    assert transport._start_tree(np.eye(3)[1] - third) == (1, False)
    assert transport._start_tree(np.zeros(3)) == (0, False)


@PROPERTY_SETTINGS
@given(tree_basis_instances())
def test_dual_simplex_kernel_is_the_reference_loop_on_flow_programs(instance):
    """Both W starts and every kappa_lp program of the graph pivot bit for bit alike."""
    g, nu0, nu1 = instance
    dm = distances(g)
    excess = nu0 - nu1
    for r, inward in both_starts(excess):
        oracles.assert_kernel_matches_reference(transport._flow_program(dm, excess, r, inward))
    problems = []
    solve = lp.solve_lp

    def recording_solve(problem):
        problems.append(problem)
        return solve(problem)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "solve_lp", recording_solve)
        curvature_matrix(markov_data(g), dm)
    assert len(problems) == g.n * (g.n - 1)
    for problem in problems:
        oracles.assert_kernel_matches_reference(problem)


@PROPERTY_SETTINGS
@given(tree_basis_instances())
def test_tree_basis_potential_is_lipschitz_and_attains_w(instance):
    g, nu0, nu1 = instance
    plan = wasserstein(nu0, nu1, distances(g), verify=True)
    f = plan.dual_f
    assert f[0] == 0.0
    assert oracles.is_one_lipschitz(f, oracles.hop_distances(oracles.mu_of(g)), slack=1e-12)
    assert abs(float(f @ (nu1 - nu0)) - plan.value) <= 1e-12


@PROPERTY_SETTINGS
@given(tree_basis_instances())
def test_tree_basis_plan_has_the_marginals_and_costs_w(instance):
    g, nu0, nu1 = instance
    dm = distances(g)
    plan = wasserstein(nu0, nu1, dm, verify=True)
    pi = plan.pi
    assert (pi >= 0).all()
    assert np.abs(pi.sum(axis=1) - nu0).max() <= 1e-12
    assert np.abs(pi.sum(axis=0) - nu1).max() <= 1e-12
    assert abs(float((pi * dm.d).sum()) - plan.value) <= 1e-12


@PROPERTY_SETTINGS
@given(graphs())
def test_root_basis_inverts_the_tree_exactly_for_every_root(g):
    """The path matrix is B^-1 with no rounding, and the record is the one of r."""
    dm = distances(g)
    n, arcs = g.n, dm.arcs
    incidence = np.zeros((n, len(arcs)))
    incidence[arcs[:, 0], np.arange(len(arcs))] = 1.0
    incidence[arcs[:, 1], np.arange(len(arcs))] = -1.0
    for r in range(n):
        basis = root_basis(dm, r)
        assert np.array_equal(basis.A, np.delete(incidence, r, axis=0))
        # one tree arc into each w != r, in vertex order, one BFS level down
        tails, heads = arcs[basis.tree, 0], arcs[basis.tree, 1]
        assert np.array_equal(heads, np.delete(np.arange(n), r))
        assert (dm.d[r, tails] == dm.d[r, heads] - 1).all()
        assert np.array_equal(basis.inverse @ basis.A[:, basis.tree], np.eye(n - 1))
        assert set(np.unique(basis.inverse)) <= {-1.0, 0.0}
        assert not any(a.flags.writeable for a in basis)


@PROPERTY_SETTINGS
@given(graphs())
def test_in_tree_basis_inverts_the_tree_exactly_for_every_sink(g):
    """The in-tree of s: one arc out of each w != s, one BFS level toward s."""
    dm = distances(g)
    n, arcs = g.n, dm.arcs
    incidence = np.zeros((n, len(arcs)))
    incidence[arcs[:, 0], np.arange(len(arcs))] = 1.0
    incidence[arcs[:, 1], np.arange(len(arcs))] = -1.0
    for s in range(n):
        basis = root_basis(dm, s, inward=True)
        assert np.array_equal(basis.A, np.delete(incidence, s, axis=0))
        tails, heads = arcs[basis.tree, 0], arcs[basis.tree, 1]
        assert np.array_equal(tails, np.delete(np.arange(n), s))
        assert (dm.d[heads, s] == dm.d[tails, s] - 1).all()
        # the first such arc out of each tail
        for w, k in zip(tails, basis.tree):
            toward = (arcs[:, 0] == w) & (dm.d[arcs[:, 1], s] == dm.d[w, s] - 1)
            assert k == np.flatnonzero(toward)[0]
        assert np.array_equal(basis.inverse @ basis.A[:, basis.tree], np.eye(n - 1))
        assert set(np.unique(basis.inverse)) <= {0.0, 1.0}
        assert not np.signbit(basis.inverse).any() and not np.signbit(basis.A[basis.A == 0]).any()
        assert not any(a.flags.writeable for a in basis)
        assert root_basis(dm, s, inward=True) is basis
        assert root_basis(dm, s) is not basis


def test_root_basis_is_built_once_per_root_and_distance_matrix(g_tri, monkeypatch):
    built = []
    build = transport._build_root_basis

    def recording_build(d, arcs, r):
        built.append(r)
        return build(d, arcs, r)

    monkeypatch.setattr(transport, "_build_root_basis", recording_build)
    dm = distances(g_tri)
    nu0, nu1 = np.eye(3)[0], np.eye(3)[2]
    first = wasserstein(nu0, nu1, dm, verify=True).value
    assert wasserstein(nu0, nu1, dm, verify=False).value == first
    kappa_lp(0, 1, markov_data(g_tri), dm)
    assert built == [0]
    kappa_lp(1, 0, markov_data(g_tri), dm)
    assert built == [0, 1]
    # a second distances() result holds its own records
    other = distances(g_tri)
    assert root_basis(other, 0) is not root_basis(dm, 0)
    assert built == [0, 1, 0]


class TestStartingBasis:
    """min x0 + 2 x1 subject to x0 + x1 = b, x >= 0, from a given basis."""

    @staticmethod
    def program(b=1.0, basis=(0,), **kwargs):
        A = np.array([[1.0, 1.0]])
        # both columns are 1, so every one-column basis has this inverse
        kwargs.setdefault("basis_inverse", np.linalg.inv(A[:, :1]))
        return LinearProgram(c=[1.0, 2.0], A=A, b=[b], basis=basis, **kwargs)

    def test_dual_feasible_basis_is_the_hand_optimum(self):
        # {x0} prices x1 at 2 - 1 >= 0 and holds x0 = 1: optimal before any pivot
        sol = solve_lp(self.program())
        assert sol.status == "optimal"
        assert np.array_equal(sol.x, [1.0, 0.0])
        assert np.array_equal(sol.duals, [1.0])
        assert sol.value == 1.0
        assert sol.duality_gap == 0.0 and sol.iterations == 0

    def test_not_dual_feasible_raises(self):
        # under the basis {x1} the dual is 2, pricing x0 at 1 - 2 < 0
        with pytest.raises(NumericsError, match="not dual feasible"):
            solve_lp(self.program(basis=(1,)))

    def test_wrong_basis_inverse_raises(self):
        # the columns of a singular basis have no inverse; any matrix offered is wrong
        A = np.array([[1.0, 1.0], [2.0, 2.0]])
        problem = LinearProgram(
            c=[1.0, 1.0], A=A, b=[1.0, 2.0], basis=(0, 1),
            basis_inverse=np.linalg.pinv(A),
        )
        with pytest.raises(NumericsError, match="does not invert"):
            solve_lp(problem)
        # an inverse of other columns, here of a permuted basis
        A = np.array([[1.0, 0.0, 1.0], [0.0, 2.0, 1.0]])
        problem = LinearProgram(
            c=[1.0, 1.0, 1.0], A=A, b=[1.0, 1.0], basis=(0, 1),
            basis_inverse=np.linalg.inv(A[:, [1, 0]]),
        )
        with pytest.raises(NumericsError, match="does not invert"):
            solve_lp(problem)

    def test_basis_needs_its_inverse(self):
        with pytest.raises((TypeError, ValueError), match="basis_inverse"):
            LinearProgram(c=[1.0, 2.0], A=[[1.0, 1.0]], b=[1.0], basis=(0,))
        with pytest.raises(ValueError, match="basis_inverse"):
            self.program(basis_inverse=np.eye(2))

    @pytest.mark.parametrize("basis", [(0, 1), (), (2,), (-1,)])
    def test_basis_of_wrong_length_or_range_raises(self, basis):
        with pytest.raises(ValueError, match="one column index per row"):
            self.program(basis=basis)

    def test_infeasible_program(self):
        # x0 + x1 = -1 has no non-negative solution; the leaving row has no negative entry
        assert solve_lp(self.program(b=-1.0)).status == "infeasible"

    def test_dual_simplex_pivots_to_the_optimum(self):
        # the basis {x0} of x0 - x1 = -1 gives x0 = -1; one pivot brings in x1
        problem = LinearProgram(c=[1.0, 2.0], A=[[1.0, -1.0]], b=[-1.0], basis=(0,),
                                basis_inverse=[[1.0]])
        sol = solve_lp(problem)
        assert sol.status == "optimal" and sol.iterations == 1
        assert np.array_equal(sol.x, [0.0, 1.0])
        assert sol.value == 2.0


@PROPERTY_SETTINGS
@given(st.data())
def test_lipschitz_constant_over_arcs_matches_all_pairs(data):
    """The arc maximum never exceeds the all-pairs one and differs by rounding only."""
    g = data.draw(graphs())
    dm = distances(g)
    f = np.asarray(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=g.n, max_size=g.n)))
    arcs = lipschitz_constant(f, dm)
    all_pairs = float(gradient_matrix(f, dm).max())
    assert arcs <= all_pairs
    assert all_pairs - arcs <= 1e-15 * abs(all_pairs)
