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
for every root, each start, formed as path differences, to the one
products built (oracles.root_basis_reference), a tree that is not
dual feasible to fail, the solve from either tree to scipy and the pivot
kernel to the reference loop, and unit tests pin how bad starting
bases and inverses fail, an inverse off the exact one by 3e-11
included.  Each tree's start tableau is built once and
reused, each curvature program's too, as the curvature program is
root x's own W program of a push of Lambda from x to y; a property
pins every such start to the tableau multiplied out for its own
program.  A column of a W table solves each pair from the previous
pair's final basis, as the heat flow's W of one arc do along t: that
chain is pinned to cold solves and scipy, the carried final tableau to
the one its basis multiplies out, and a warm start from a wrong
inverse or a tableau that is not dual feasible fails.  An arc's column
may start from the arc's kappa optimum instead, a final basis of the
arc's W program as it stands: that chain is pinned to cold solves and
scipy, the start to the one its basis multiplies out, and a start of
another graph fails.  A solve that took no pivot hands its own start
on, and an arc's start is formed and checked once: each column is
pinned, step by step and bit for bit, to the chain of single solves
and to a chain that re-forms and re-checks every start.  The heat-flow
certificates take their starts as arguments: a table's values and
pivots do not depend on what ran on its DistanceMatrix before, and the
contraction table started from the small-time limit's last optima
takes no pivot at its first time and keeps each W within roundoff,
(m + |A|) eps max(1, W), of the tables started from the kappa optima
and from BFS trees.
The curvature program is solved through its dual flow from the same
kind of basis; its witness is checked for optimality on its own,
kappa is the virtual-arc program's to 1e-12 and the correctly rounded
f.c of its tight witness bit for bit, whatever push past Lambda, and
the least arc kappa, verify-functional's K, is the all-pairs K bit for
bit.
Transport contraction along the heat flow is checked over the arcs
only; a property pins its verdict and margin to the all-pairs loop.
The Lipschitz constant is taken over the arcs too, pinned to the
all-pairs difference quotients, and the gradient estimate smooths each
time's function at that time alone, pinned to the per-sample loop.  A
solve forms its duals, gap and residual only when read, and a W table
its marginal residual: a table forms none of them, and each one read
is the eager formula's, bit for bit.  A solve that took no pivot ends
on its start's tableau itself, and every piece of a solve is that of a
solve that formed its tableau before it tested B^-1 b
(oracles.eager_solve).  Every start off a final basis, a warm start or
an arc's, goes through Start.carried, and an arc's record holds its
own solve's final rows, so no other kappa tableau outlives kappa_lp.
"""

from __future__ import annotations

import dataclasses
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import BLAND_MU
from digricci import (
    NotStronglyConnectedError,
    NumericsError,
    ParseError,
    build_graph,
    curvature_matrix,
    curvature_time_limit,
    distances,
    heat_kernel_matrix,
    heat_operator,
    kantorovich_dual,
    kappa_lp,
    lipschitz_constant,
    lp,
    markov_data,
    sample_lipschitz_functions,
    solve_lp,
    solve_transport,
    verify_gradient_estimate,
    verify_transport_contraction,
    wasserstein,
)
from digricci import transport
from digricci.errors import LpFailureError, SameVertexError
from digricci.heat import LIMIT_GRID, TIME_GRID
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
    try:
        return build_graph(mu)
    except (ParseError, NotStronglyConnectedError):  # no arc, or not strongly connected
        assume(False)


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
    flow = wasserstein(nu0, nu1, dm, verify=True).value
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
    (value,), (witness,), _ = kappa_lp(x, [y], markov_data(g), dm)

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
    (value,), (f,), _ = kappa_lp(x, [y], markov_data(g), distances(g))
    mu = oracles.mu_of(g)
    d = oracles.hop_distances(mu)
    _P, _m, Pmean, _mxy = oracles.reference_chain(mu)
    L = np.eye(g.n) - Pmean
    assert f[x] == 0.0 and not np.signbit(f[x])
    assert abs(f[y] - d[x, y]) <= 1e-12
    assert oracles.is_one_lipschitz(f, d, slack=1e-12)
    assert abs(float((L[y] - L[x]) @ f) / d[x, y] - value) <= 1e-12


@PROPERTY_SETTINGS
@given(graphs(n_max=9))
def test_least_arc_kappa_is_the_all_pairs_k(g):
    """verify-functional's K over the arcs is analyze's K over every ordered pair, bit for bit."""
    M, dm = markov_data(g), distances(g)
    arc_k = min(kappa_lp(x, [y], M, dm)[0][0] for x, y in dm.arcs.tolist())
    assert arc_k == curvature_matrix(M, dm).K


@PROPERTY_SETTINGS
@given(graphs(), st.data())
def test_kappa_is_the_correctly_rounded_value_of_its_tight_witness(g, data):
    """Over a row of root x, each kappa is exact off its witness and holds against the reference.

    The witness is tight, f(y) = d(x, y) exactly; kappa is f.c summed
    in Fractions and rounded once, bit for bit; it is the virtual-arc
    program's (oracles.kappa_virtual_arc) to 1e-12; and the W program
    with the push doubled to 2 Lambda (oracles.kappa_w_pair) gives the
    same bits.
    """
    M, dm = markov_data(g), distances(g)
    x = data.draw(st.integers(0, g.n - 1))
    ys = np.delete(np.arange(g.n), x)
    for y, kappa, f in zip(ys.tolist(), *kappa_lp(x, ys, M, dm)[:2], strict=True):
        c = (M.L[y] - M.L[x]) / dm.d[x, y]
        assert f[y] == dm.d[x, y]
        exact = float(sum(Fraction(int(v)) * Fraction(float(e)) for v, e in zip(f, c)))
        assert np.float64(kappa).tobytes() == np.float64(exact).tobytes()
        assert abs(kappa - oracles.kappa_virtual_arc(x, y, M, dm)[0]) <= 1e-12
        doubled = oracles.kappa_w_pair(x, y, M, dm, scale=2.0)[0]
        assert np.float64(doubled).tobytes() == np.float64(kappa).tobytes()


def test_kappa_lp_solves_the_flow_dual_from_a_basis(g_tri, monkeypatch):
    """One solve per pair, of root x's own W program: n - 1 balance rows and a column per arc."""
    problems = []
    solve_lp = lp.solve_lp

    def recording_solve(start, b):
        problems.append((start, b))
        return solve_lp(start, b)

    monkeypatch.setattr(lp, "solve_lp", recording_solve)
    kappa_lp(0, [2], markov_data(g_tri), distances(g_tri))
    ((start, b),) = problems
    assert start.A.shape == (g_tri.n - 1, g_tri.arc_count) and b.shape == (g_tri.n - 1,)


@PROPERTY_SETTINGS
@given(graphs())
def test_contraction_over_arcs_matches_all_pairs(g):
    """At K and above it, the arc check and the all-pairs check agree."""
    M, dm = markov_data(g), distances(g)
    H = heat_operator(M)
    K = curvature_matrix(M, dm).K
    for rate in (K, K + 0.05, K + 0.5):
        arcs, _potentials = verify_transport_contraction(H, dm, rate, tol=0.0)
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
    tree = solve_lp(*flow_program(dm, excess, *transport._start_trees(excess[None])[0]))
    assert tree.status == "optimal"
    assert abs(tree.value - oracles.linprog_transport(dm.d, nu0, nu1, tight=True)) <= 1e-9
    assert wasserstein(nu0, nu1, dm, verify=True).value == tree.value


def flow_program(dm, excess: np.ndarray, r: int, inward: bool) -> tuple[lp.Start, np.ndarray]:
    """The start and b of the arc-flow program of excess from root_basis(dm, r, inward).

    wasserstein solves the same program from the same start.
    """
    tree = root_basis(dm, r, inward)
    return tree.start, excess[tree.vertices]


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
        solution = solve_lp(*flow_program(dm, excess, r, inward))
        assert solution.status == "optimal"
        values.append(solution.value)
    assert abs(values[0] - values[1]) <= 1e-12
    ref = oracles.linprog_transport(dm.d, nu0, nu1, tight=True)
    assert all(abs(v - ref) <= 1e-9 for v in values)


def test_start_rule_takes_the_tree_of_the_larger_imbalance():
    """In-tree of the largest deficit only when it beats the largest excess."""
    third = np.full(3, 1 / 3)
    rows = [np.eye(3)[0] - np.eye(3)[2], third - np.eye(3)[2], np.eye(3)[1] - third, np.zeros(3)]
    # point masses tie: the out-tree of the source, as for every Dirac pair
    assert transport._start_trees(np.array(rows)) == [(0, False), (2, True), (1, False), (0, False)]


@st.composite
def warm_chains(draw):
    """A graph, an arc x -> y and the measure pairs of one W chain on it.

    "heat": p_x_t and p_y_t at every time of both heat grids in
    ascending order, as the heat module solves them; "random": three
    unrelated pairs, whose optimal trees may share nothing.
    """
    g = draw(graphs())
    dm = distances(g)
    x, y = (int(v) for v in dm.arcs[draw(st.integers(0, len(dm.arcs) - 1))])
    if draw(st.booleans()):
        H = heat_operator(markov_data(g))
        times = sorted(set(TIME_GRID + LIMIT_GRID))
        pairs = [(heat_kernel_matrix(H, t)[x], heat_kernel_matrix(H, t)[y]) for t in times]
    else:
        pairs = [(draw(measures(g.n)), draw(measures(g.n))) for _ in range(3)]
    return g, (x, y), pairs


def chain_table(pairs, dm, start=None):
    """W of the pairs as one column of a table, each from the previous pair's optimum."""
    nu0, nu1 = (np.array([pair[i] for pair in pairs])[:, None] for i in (0, 1))
    return wasserstein(nu0, nu1, dm, verify=False, start=None if start is None else [start])


@PROPERTY_SETTINGS
@given(warm_chains())
def test_warm_chain_matches_cold_solves_and_scipy(instance):
    """Each W of a table's column: a cold solve within 1e-12, scipy within 1e-9."""
    g, _arc, pairs = instance
    dm = distances(g)
    for (nu0, nu1), value in zip(pairs, chain_table(pairs, dm).values[:, 0], strict=True):
        assert abs(value - wasserstein(nu0, nu1, dm, verify=True).value) <= 1e-12
        assert abs(value - oracles.linprog_transport(dm.d, nu0, nu1, tight=True)) <= 1e-9


@PROPERTY_SETTINGS
@given(warm_chains())
def test_kappa_started_chain_matches_cold_solves_and_scipy(instance):
    """The arc's column from kappa_lp's optimum: a cold solve within 1e-12, scipy within 1e-9.

    Every solve of it keeps root x and the out-tree direction, kappa's.
    """
    g, (x, y), pairs = instance
    dm = distances(g)
    (arc_start,) = kappa_lp(x, [y], markov_data(g), dm)[2]
    table, solves = recorded_solves(lambda: chain_table(pairs, dm, arc_start))
    assert all(solution.start.A is root_basis(dm, x).start.A for solution in solves)
    for (nu0, nu1), value in zip(pairs, table.values[:, 0], strict=True):
        assert abs(value - wasserstein(nu0, nu1, dm, verify=True).value) <= 1e-12
        assert abs(value - oracles.linprog_transport(dm.d, nu0, nu1, tight=True)) <= 1e-9


@PROPERTY_SETTINGS
@given(graphs(), st.data())
def test_a_kappa_row_solves_each_program_as_the_per_pair_route(g, data):
    """A kappa_lp row makes, program by program, the solves of oracles.kappa_w_pair, bit for bit.

    The row reads its solves' duals as one product and kappa off each
    witness by math.fsum; the reference reads each solve's own duals
    and sums f.c in Fractions.  Rows over every other vertex, over one,
    and over the root's out-neighbours agree with it in kappa, witness,
    final basis and pivot count, one lp.solve_lp per program, and each
    arc's record, a ColumnStart of root x's out-tree, holds its solve's
    start, final basis and rows and gives the W start that
    oracles.carried_warm_start forms off the reference solve; a target
    that is no arc gets None.  A row of one [y] returns the same
    kappa, witness and start kind as arrays of one entry, a row that
    holds x raises, and an empty row returns empty arrays.
    """
    M, dm = markov_data(g), distances(g)
    x = data.draw(st.integers(0, g.n - 1))
    others = [y for y in range(g.n) if y != x]
    ys = data.draw(st.sampled_from([
        others, [data.draw(st.sampled_from(others))], dm.arcs[dm.arcs[:, 0] == x, 1].tolist(),
    ]))
    (kappas, witnesses, starts), solves = recorded_solves(
        lambda: kappa_lp(x, np.array(ys), M, dm)
    )
    assert kappas.shape == (len(ys),) and witnesses.shape == (len(ys), g.n)
    ref_dm = distances(g)
    arcs = dm.arcs.tolist()
    for y, kappa, witness, start, solution in zip(
        ys, kappas, witnesses, starts, solves, strict=True
    ):
        ref_kappa, ref_witness, ref = oracles.kappa_w_pair(x, y, M, ref_dm)
        assert np.float64(kappa).tobytes() == np.float64(ref_kappa).tobytes()
        assert witness.tobytes() == ref_witness.tobytes()
        assert solution.basis.tobytes() == ref.basis.tobytes()
        assert solution.iterations == ref.iterations
        values, singles, (single,) = kappa_lp(x, [y], M, distances(g))
        assert values.shape == (1,) and singles.shape == (1, g.n)
        assert values[0] == kappa and singles[0].tobytes() == witness.tobytes()
        assert (start is None) == (single is None) == ([x, y] not in arcs)
        if start is not None:
            assert (start.root, start.inward) == (x, False)
            assert start.program is solution.start is root_basis(dm, x).start
            assert start.basis is solution.basis and start.rows is solution.rows
            assert same_start(start.start, oracles.carried_warm_start(ref))
    with pytest.raises(SameVertexError):
        kappa_lp(x, np.array([*ys, x]), M, dm)
    kappas, witnesses, starts = kappa_lp(x, np.array([], dtype=int), M, dm)
    assert kappas.shape == (0,) and witnesses.shape == (0, g.n) and starts == []


@PROPERTY_SETTINGS
@given(graphs())
def test_kappa_start_is_the_start_its_basis_multiplies_out(g):
    """Each arc's W start, formed off kappa's final tableau, is Start.from_basis's, bit for bit.

    curvature_matrix returns the optima of the arcs alone, in the order
    of dm.arcs, each a final basis of root x's own c and A.  The push
    of Lambda from x to y crosses the arc x -> y, a geodesic, so the
    arc carries flow and is basic in each.  Its inverse, formed as a
    product off kappa's final tableau, is the one from_basis forms by
    LAPACK and rounds (its entries are integers, so the rounded inverse
    is exact), and its tableau the one from_basis multiplies out with
    that.  The record's rows are its solve's final rows, with no copy,
    and the start, formed on first use, once, takes them as its
    tableau.
    """
    dm = distances(g)
    report, solves = recorded_solves(lambda: curvature_matrix(markov_data(g), dm))
    arcs = dm.arcs.tolist()
    pairs = [[x, y] for x in range(g.n) for y in range(g.n) if x != y]
    arc_solves = [solve for pair, solve in zip(pairs, solves, strict=True) if pair in arcs]
    for (x, y), arc_start, solve in zip(arcs, report.arc_starts, arc_solves, strict=True):
        assert (arc_start.root, arc_start.inward) == (x, False)
        assert "start" not in vars(arc_start) and arc_start.rows is solve.rows
        start = arc_start.start
        program = root_basis(dm, x).start
        assert start.c is program.c and start.A is program.A
        assert start.tableau is arc_start.rows
        assert arcs.index([x, y]) in start.basis
        ref = lp.Start.from_basis(program.c, program.A, start.basis)
        assert start.inverse.tobytes() == ref.inverse.tobytes()
        assert start.tableau.tobytes() == ref.tableau.tobytes()
        assert arc_start.start is start


def test_a_kappa_optimum_that_took_no_pivot_hands_on_the_roots_own_start(g_tri):
    """A kappa optimum on the BFS out-tree of x itself is the W start of the arc as it stands.

    On the triangle, the W program of kappa(0, 1) is optimal on root
    0's out-tree before any pivot, so the solve ends on the tree's
    start: the arc's record holds that start's basis and tableau, and
    its W start is the tree's start itself, with no product and no
    check.  The chain from it gives the cold chain's W.
    """
    dm, M = distances(g_tri), markov_data(g_tri)
    x, y = (int(v) for v in dm.arcs[0])
    tree = root_basis(dm, x)
    (_kappa, _witness, (arc_start,)), (kappa,) = recorded_solves(
        lambda: kappa_lp(x, [y], M, dm)
    )
    assert kappa.iterations == 0
    assert arc_start.basis is tree.start.basis and arc_start.rows is tree.start.tableau
    assert arc_start.start is tree.start
    H = heat_operator(M)
    kernels = [heat_kernel_matrix(H, t) for t in LIMIT_GRID[::-1] + TIME_GRID]
    pairs = [(kernel[x], kernel[y]) for kernel in kernels]
    for (nu0, nu1), value in zip(pairs, chain_table(pairs, dm, arc_start).values[:, 0]):
        assert abs(value - wasserstein(nu0, nu1, dm, verify=True).value) <= 1e-12


@PROPERTY_SETTINGS
@given(graphs())
def test_arc_starts_hold_their_solves_rows_and_no_other_tableau_lives(g):
    """Every arc's record holds its own solve's final rows; no other pivoted tableau outlives kappa_lp.

    kappa_lp keeps of a solve its value and final cost row and, for an
    arc, a ColumnStart of its start, final basis and final rows: the
    tableau the solve pivoted, or its start's when it took none, with
    no copy.  Once curvature_matrix returns, each tableau pivoted for
    a target that is no arc is gone, while the arcs' records hold
    theirs.
    """
    dm = distances(g)
    rows, solve_lp = [], lp.solve_lp

    def recording(start, b):
        solution = solve_lp(start, b)
        tableau = weakref.ref(solution.rows.base) if solution.iterations else None
        rows.append((weakref.ref(solution.rows), tableau))
        return solution

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "solve_lp", recording)
        report = curvature_matrix(markov_data(g), dm)
    records = iter(report.arc_starts)
    pairs = [(x, y) for x in range(g.n) for y in range(g.n) if x != y]
    for (x, y), (held, tableau) in zip(pairs, rows, strict=True):
        if dm.d[x, y] == 1:
            record = next(records)
            assert record.rows is held() and (tableau is None or record.rows.base is tableau())
        elif tableau is not None:
            assert tableau() is None
    assert next(records, None) is None


@PROPERTY_SETTINGS
@given(warm_chains())
def test_every_start_off_a_final_basis_goes_through_carried(instance):
    """An arc record's start and each warm start of a solve that pivoted are Start.carried's.

    Start.from_final ends in carried, once per start; a solve that took
    no pivot hands its own start on, with no check, kappa's solve of
    the arc included.  So along a column started from an arc's kappa
    optimum, carried returns the arc's start if kappa's solve pivoted,
    and then the start of each solve after one that pivoted, in order,
    and nothing else.
    """
    g, (x, y), pairs = instance
    dm = distances(g)
    (arc_start,) = kappa_lp(x, [y], markov_data(g), dm)[2]
    carried, checked = lp.Start.carried.__func__, []

    def recording(cls, *args):
        checked.append(carried(cls, *args))
        return checked[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp.Start, "carried", classmethod(recording))
        _table, solves = recorded_solves(lambda: chain_table(pairs, dm, arc_start))
    pivoted = arc_start.rows is not arc_start.program.tableau
    expected = [arc_start.start] * pivoted + [
        later.start for solve, later in zip(solves, solves[1:]) if solve.iterations
    ]
    assert len(checked) == len(expected)
    assert all(start is ref for start, ref in zip(checked, expected))


@PROPERTY_SETTINGS
@given(tree_basis_instances())
def test_fast_mode_residual_is_formed_on_read_as_it_was_at_once(instance):
    """A W table forms no marginal residual until it is read; then the eager one, bit for bit."""
    g, nu0, nu1 = instance
    dm = distances(g)
    table, (flow,) = recorded_solves(
        lambda: wasserstein(nu0[None, None], nu1[None, None], dm, verify=False)
    )
    assert "marginal_residual" not in vars(table)
    eager = oracles.flow_balance_residual(dm.arcs, flow.x, nu0, nu1)
    assert np.float64(table.marginal_residual).tobytes() == np.float64(eager).tobytes()
    assert "marginal_residual" in vars(table)


@PROPERTY_SETTINGS
@given(tree_basis_instances(), st.booleans())
def test_the_lp_certificate_is_formed_on_read_as_it_was_at_once(instance, verify):
    """A W table forms no duals, gap or residual; once read, each is the eager one, bit for bit."""
    g, nu0, nu1 = instance
    pair = (nu0, nu1) if verify else (nu0[None, None], nu1[None, None])
    _result, (flow,) = recorded_solves(lambda: wasserstein(*pair, distances(g), verify=verify))
    if not verify:
        assert not {"duals", "duality_gap", "feasibility_residual"} & vars(flow).keys()
    duals, gap, residual = oracles.eager_certificate(flow)
    assert flow.duals.tobytes() == duals.tobytes()
    assert np.float64(flow.duality_gap).tobytes() == np.float64(gap).tobytes()
    assert np.float64(flow.feasibility_residual).tobytes() == np.float64(residual).tobytes()


@PROPERTY_SETTINGS
@given(warm_chains())
def test_a_zero_pivot_solve_reads_its_pieces_as_an_eager_solve(instance):
    """A solve that took no pivot ends on its start's tableau; every piece is the eager one.

    The chain's last pair repeats the one before it, so at least its
    last solve takes no pivot, and its final rows are its start's
    tableau itself.  Each solve of the column is held, bit for bit, to
    oracles.eager_solve of its start and b, which forms its tableau and
    runs the pivot kernel whatever B^-1 b holds: x, value, basis, the
    final rows and basic values, duals, gap, residual and the warm
    start.
    """
    g, _arc, pairs = instance
    _table, solves = recorded_solves(lambda: chain_table([*pairs, pairs[-1]], distances(g)))
    assert solves[-1].iterations == 0
    for flow in solves:
        eager = oracles.eager_solve(flow.start, flow.b)
        assert flow.iterations == eager.iterations
        assert (flow.rows is flow.start.tableau) == (not flow.iterations)
        assert flow.x.tobytes() == eager.x.tobytes()
        assert np.float64(flow.value).tobytes() == np.float64(eager.value).tobytes()
        assert np.array_equal(flow.basis, eager.basis)
        for piece in ("rows", "_basic", "duals"):
            assert getattr(flow, piece).tobytes() == getattr(eager, piece).tobytes(), piece
        for piece in ("duality_gap", "feasibility_residual"):
            assert np.float64(getattr(flow, piece)).tobytes() == np.float64(
                getattr(eager, piece)).tobytes(), piece
        warm, eager_warm = flow.warm_start(), eager.warm_start()
        for piece in ("basis", "inverse", "tableau"):
            assert getattr(warm, piece).tobytes() == getattr(eager_warm, piece).tobytes(), piece


@PROPERTY_SETTINGS
@given(transport_instances())
def test_warm_start_from_its_own_optimum_takes_no_pivot(instance):
    """The final basis is optimal for its own measures: 0 pivots, the same basis and W.

    The pair is a column's first and second pair, so the second solve
    starts from the first one's optimum.
    """
    g, nu0, nu1 = instance
    dm = distances(g)
    table, (first, again) = recorded_solves(lambda: chain_table([(nu0, nu1)] * 2, dm))
    assert again.iterations == 0
    assert np.array_equal(again.basis, first.basis)
    assert abs(table.values[1, 0] - table.values[0, 0]) <= 1e-15


@PROPERTY_SETTINGS
@given(warm_chains())
def test_warm_start_carries_the_tableau_its_final_basis_multiplies_out(instance):
    """The carried final tableau is B_f^-1 [A | b] of the final basis, bit for bit.

    A warm start reuses the final rows instead of multiplying B_f^-1 A
    out again; on these network programs the two agree exactly, so the
    chain pivots as it would from the multiplied-out tableau.
    """
    g, _arc, pairs = instance
    _table, solves = recorded_solves(lambda: chain_table(pairs, distances(g)))
    for flow, b in zip(solves, [later.b for later in solves[1:]]):
        warm = flow.warm_start()
        ref = oracles.start_tableau(flow.start.c, flow.start.A, b, flow.basis, warm.inverse)
        T = lp._start_tableau(warm, warm.inverse @ b)
        assert T[:, :-1].tobytes() == ref[:, :-1].tobytes()
        assert T[:-1, -1].tobytes() == ref[:-1, -1].tobytes()


def same_start(start: lp.Start, ref: lp.Start) -> bool:
    """The two starts hold the same program, basis, inverse and tableau, bit for bit."""
    return all(getattr(start, name).tobytes() == getattr(ref, name).tobytes()
               for name in ("c", "A", "basis", "inverse", "tableau"))


@PROPERTY_SETTINGS
@given(warm_chains(), st.booleans())
def test_warm_chains_match_the_chains_that_re_form_every_start(instance, from_kappa):
    """Each W of a table's column solves as from a start re-formed and re-checked, bit for bit.

    A solve that took no pivot hands on its own start, and an arc's
    start is kappa's final basis of the arc's W program as it stands;
    the reference chain, oracles.w_chain with re_form, re-forms every
    start by oracles.carried_warm_start, the arc's off kappa's solve.
    At every step the
    start, value, final basis, pivot count and final tableau agree.
    The column starts from a BFS tree or from the arc's kappa optimum.
    """
    g, (x, y), pairs = instance
    dm = distances(g)
    arc_start = kappa = None
    if from_kappa:
        (_kappa, _witness, (arc_start,)), (kappa,) = recorded_solves(
            lambda: kappa_lp(x, [y], markov_data(g), dm)
        )
    _table, solves = recorded_solves(lambda: chain_table(pairs, dm, arc_start))
    nu0, nu1 = np.array(pairs).transpose(1, 0, 2)
    refs = oracles.w_chain(dm, nu0, nu1, arc_start, re_form=True, kappa=kappa)
    for i, (flow, ref) in enumerate(zip(solves, refs, strict=True)):
        assert same_start(flow.start, ref.start)
        if i and not solves[i - 1].iterations:
            assert flow.start is solves[i - 1].start
        assert np.float64(flow.value).tobytes() == np.float64(ref.value).tobytes()
        assert flow.basis.tobytes() == ref.basis.tobytes()
        assert flow.iterations == ref.iterations
        assert flow.rows.tobytes() == ref.rows.tobytes()
        assert flow._basic.tobytes() == ref._basic.tobytes()


def recorded_solves(run):
    """run()'s result, and every solution lp.solve_lp returned meanwhile, in call order."""
    solutions, solve_lp = [], lp.solve_lp

    def recording(start, b):
        solutions.append(solve_lp(start, b))
        return solutions[-1]

    lp.solve_lp = recording
    try:
        return run(), solutions
    finally:
        lp.solve_lp = solve_lp


@st.composite
def tables(draw, k: int, a: int):
    """A graph, a table of k x a measure pairs, and per column an arc and a start kind.

    "bfs" leaves the column to its own BFS tree and "arc" starts it
    from its arc's kappa optimum.  Half the tables are heat-flow grids
    over the columns' arcs, as the heat module solves them; the other
    half are random pairs, whose optimal trees may share nothing.
    """
    g = draw(graphs())
    arcs = distances(g).arcs.tolist()
    arcs = [arcs[draw(st.integers(0, len(arcs) - 1))] for _ in range(a)]
    kinds = draw(st.lists(st.sampled_from(["bfs", "arc"]), min_size=a, max_size=a))
    if draw(st.booleans()):
        grid = st.sampled_from(sorted(set(TIME_GRID + LIMIT_GRID)))
        times = sorted(draw(st.lists(grid, min_size=k, max_size=k, unique=True)))
        H = heat_operator(markov_data(g))
        kernels = np.stack([heat_kernel_matrix(H, t) for t in times])
        xs, ys = np.array(arcs).T
        nu0, nu1 = kernels[:, xs], kernels[:, ys]
    else:
        nu0, nu1 = (np.array([[draw(measures(g.n)) for _ in range(a)] for _ in range(k)])
                    for _ in range(2))
    return g, arcs, kinds, nu0, nu1


@pytest.mark.parametrize("k, a", [(1, 1), (1, 3), (3, 1), (3, 3)])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_a_table_solves_each_column_as_the_chain_of_single_solves(k, a, data):
    """Each column of a W table makes the solves of the chain of single solves, bit for bit.

    The reference, oracles.w_chain, solves column j pair by pair with
    root_basis(...).solve from the column's start, a BFS tree or the
    arc's kappa optimum, and each later pair from the previous
    optimum's LpSolution.warm_start.  Every solve has the same value,
    final basis and pivot count, and the table's residual is the
    largest flow-balance residual of the chain's solves.
    """
    g, arcs, kinds, nu0, nu1 = data.draw(tables(k, a))
    dm, M = distances(g), markov_data(g)
    starts = []
    for kind, (x, y) in zip(kinds, arcs):
        if kind == "arc":
            starts += kappa_lp(x, [y], M, dm)[2]
        else:
            starts.append(None)

    table, solves = recorded_solves(lambda: wasserstein(nu0, nu1, dm, verify=False, start=starts))
    ref = [oracles.w_chain(dm, nu0[:, j], nu1[:, j], start) for j, start in enumerate(starts)]
    assert table.values.shape == (k, a) and len(solves) == k * a
    # the solves run column by column
    for solution, expected in zip(solves, [s for column in ref for s in column], strict=True):
        assert np.float64(solution.value).tobytes() == np.float64(expected.value).tobytes()
        assert solution.basis.tobytes() == expected.basis.tobytes()
        assert solution.iterations == expected.iterations
    assert table.values.T.tobytes() == np.array([[s.value for s in c] for c in ref]).tobytes()
    residual = max(
        oracles.flow_balance_residual(dm.arcs, ref[j][i].x, nu0[i, j], nu1[i, j])
        for i in range(k) for j in range(a)
    )
    assert np.float64(table.marginal_residual).tobytes() == np.float64(residual).tobytes()


# 0 -> 1, 1 -> 3, 2 -> 0 (2), 2 -> 3 (2), 2 -> 5 (0.5), 3 -> 2, 3 -> 4 (2), 4 -> 1,
# 5 -> 4, 5 -> 6, 6 -> 0: its chained and BFS-started contraction W differ by
# 1.11e-15 at W = 1.017
ROUNDOFF_GRAPH = build_graph(np.array([
    [0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0],
    [2, 0, 0, 2, 0, 0.5, 0],
    [0, 0, 1, 0, 2, 0, 0],
    [0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 1],
    [1, 0, 0, 0, 0, 0, 0],
], dtype=float))


@PROPERTY_SETTINGS
@given(graphs())
@example(ROUNDOFF_GRAPH)
def test_the_contraction_table_runs_on_from_the_limit_tables_optima(g):
    """Each arc's contraction column starts from its small-time limit column's last optimum.

    That optimum, a ColumnStart the limit table made as the column
    ended, forms its start only when the contraction table reads it.
    It is at t = 0.01, the contraction's first time, on the same
    kernel, so the column's first solve takes no pivot, and the table
    still makes one solve per arc and time.  Its W are those of
    the table started from the arcs' kappa optima and from BFS trees
    up to roundoff: the bases differ, the programs do not, so the exact
    optima agree and each computed W is off the optimum by roundoff
    alone.  A W program has m = n - 1 rows and |A| arc columns, and W
    is the sum of the flows, whose basic ones are x_B = B^-1 b.  B^-1
    holds only -1, 0 and 1, so each of the m entries of B^-1 b is a
    signed sum of balances, a tree arc's flow of at most the unit mass
    moved; the bound budgets one rounding of u max(1, W) for each,
    u = eps/2 the unit roundoff, and one of u W for each of the |A|
    terms of the flow sum.  Each W is then within (m + |A|) u max(1, W)
    of the optimum, and two runs' W within (m + |A|) eps max(1, W).
    """
    M, dm = markov_data(g), distances(g)
    H = heat_operator(M)
    xs, ys = dm.arcs.T
    kappa = curvature_matrix(M, dm).arc_starts
    chained = curvature_time_limit(H, dm, xs, ys, kappa)[2]
    # a record forms its start when a table first reads it, not before
    assert not any("start" in vars(start) for start in chained)
    assert LIMIT_GRID[0] == TIME_GRID[0] == max(LIMIT_GRID)
    solves = {}
    for name, starts in (("chained", chained), ("kappa", kappa), ("bfs", None)):
        _run, solves[name] = recorded_solves(
            lambda: verify_transport_contraction(H, dm, 0.0, starts=starts)
        )
        assert len(solves[name]) == len(TIME_GRID) * len(dm.arcs)
    firsts = solves["chained"][:: len(TIME_GRID)]
    assert all(first.start is start.start for first, start in zip(firsts, chained, strict=True))
    assert [first.iterations for first in firsts] == [0] * len(dm.arcs)
    values = {name: np.array([solution.value for solution in run]) for name, run in solves.items()}
    bound = (g.n - 1 + len(dm.arcs)) * np.finfo(float).eps * np.maximum(1.0, values["chained"])
    assert (np.abs(values["chained"] - values["kappa"]) <= bound).all()
    assert (np.abs(values["chained"] - values["bfs"]) <= bound).all()


@PROPERTY_SETTINGS
@given(graphs())
def test_a_heat_flow_table_does_not_depend_on_what_ran_on_dm_before(g):
    """A table's starts are its arguments: curvature_matrix on dm first moves no bit or pivot.

    Both heat-flow tables run from BFS trees and from the arcs' kappa
    optima (one kappa_lp row per tail), before and after
    curvature_matrix solved every pair on the same dm, and each value,
    potential and pivot count of the second run is the first's.
    """
    M, dm = markov_data(g), distances(g)
    H = heat_operator(M)
    xs, ys = dm.arcs.T
    kappa = [start for x in range(g.n) for start in kappa_lp(x, ys[xs == x], M, dm)[2]]
    runs = []
    for kappa_ran in (False, True):
        if kappa_ran:
            curvature_matrix(M, dm)
        for starts in (None, kappa):
            (limits, spreads, _), limit_solves = recorded_solves(
                lambda: curvature_time_limit(H, dm, xs, ys, starts)
            )
            (cert, potentials), solves = recorded_solves(
                lambda: verify_transport_contraction(H, dm, 0.1, starts=starts)
            )
            pivots = [solution.iterations for solution in limit_solves + solves]
            runs.append((limits.tobytes(), spreads.tobytes(), repr(cert), potentials.tobytes(),
                         pivots))
    assert runs[2:] == runs[:2]


@PROPERTY_SETTINGS
@given(warm_chains())
def test_flow_tableaus_stay_integral(instance):
    """After every kappa solve and every warm-chained W solve, B^-1 A is in {-1, 0, 1}.

    Every basis is a spanning tree of the arc incidence, kappa's too,
    and every cost is an integer, so the final
    tableau's body is the incidence seen from a tree and its cost row is
    integral; only the b column carries rounding.
    """
    g, _arc, pairs = instance
    dm = distances(g)
    solutions = []
    solve = lp.solve_lp

    def recording_solve(start, b):
        solutions.append(solve(start, b))
        return solutions[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "solve_lp", recording_solve)
        curvature_matrix(markov_data(g), dm)
        chain_table(pairs, dm)
    assert len(solutions) == g.n * (g.n - 1) + len(pairs)
    for solution in solutions:
        body, costs = solution.rows[:-1], solution.rows[-1]
        assert set(np.unique(body)) <= {-1.0, 0.0, 1.0}
        assert np.array_equal(costs, np.round(costs))


@PROPERTY_SETTINGS
@given(graphs())
def test_the_pivot_loop_meets_only_unit_entries(g):
    """Every tableau the pivot loop gets, and every start's inverse, holds only -1, 0 and 1.

    The loop reads each ratio off the cost row and negates the pivot
    row, which is exact only where every entering entry is -1.  The
    tableaus are those of curvature_matrix with its smoothing
    cross-check (kappa_limit's rows) and of both heat-flow tables,
    started as analyze starts them; each is held before and after its
    solve, so no pivot takes an entry off the units.  The starts are
    every one those runs form (root_basis's out-trees, the warm
    starts, each arc's ColumnStart.start and the limit table's
    column_starts) and root_basis's in- and out-tree of every root:
    each inverse B^-1 holds only -1, 0 and 1, and B^-1 B is I exactly.
    """
    M, dm = markov_data(g), distances(g)
    H = heat_operator(M)
    bodies, starts = [], []
    pivot, carried = lp._run_dual_simplex, lp.Start.carried.__func__

    def recording_pivot(T, basis):
        bodies.append(T[:-1, :-1].copy())
        iterations = pivot(T, basis)
        bodies.append(T[:-1, :-1].copy())
        return iterations

    def recording_carried(cls, *args):
        starts.append(carried(cls, *args))
        return starts[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_run_dual_simplex", recording_pivot)
        patch.setattr(lp.Start, "carried", classmethod(recording_carried))
        report = curvature_matrix(M, dm, cross_check=True)
        column_starts = curvature_time_limit(H, dm, *dm.arcs.T, report.arc_starts)[2]
        verify_transport_contraction(H, dm, report.K, starts=column_starts)
        starts += [root_basis(dm, r, inward).start for r in range(g.n) for inward in (False, True)]
    starts += [column.start for column in column_starts]
    for body in [*bodies, *(start.inverse for start in starts)]:
        assert ((body == -1.0) | (body == 0.0) | (body == 1.0)).all()
    for start in starts:
        assert (start.inverse @ start.A[:, start.basis] == np.eye(len(start.basis))).all()


@pytest.mark.parametrize(
    "solve",
    [
        lambda M, dm: kappa_lp(0, [1], M, dm),
        lambda M, dm: wasserstein(np.eye(3)[0], np.eye(3)[2], dm, verify=True),
    ],
    ids=["kappa_lp", "wasserstein"],
)
@pytest.mark.parametrize("move, error", [(1e-12, "non-integral"), (-2.0, "stretches an arc")])
def test_a_dual_moved_off_the_integers_raises(g_tri, monkeypatch, solve, move, error):
    """The potentials are checked exactly: a dual moved by 1e-12 is no integer.

    That move is far inside lp.GAP_TOL, so a check within that
    tolerance would pass it.  Moved by -2 instead, the dual stays
    integral but lifts f at vertex 1 by 2, which stretches its in-arcs.
    Both routes read the duals off the final cost row c - y A (a kappa
    row reads all of its rows as one stack), so the move goes there:
    y + move in row 0 is the cost row less move times A's row 0.
    """
    lp_solve = lp.solve_lp

    def moved_solve(start, b):
        solution = lp_solve(start, b)
        # a copy: the rows of a solve that took no pivot are its start's
        solution.rows = solution.rows.copy()
        solution.rows[-1] -= move * start.A[0]
        return solution

    M, dm = markov_data(g_tri), distances(g_tri)
    monkeypatch.setattr(lp, "solve_lp", moved_solve)
    with pytest.raises(NumericsError, match=error):
        solve(M, dm)


def test_start_from_an_arc_start_of_another_distance_matrix_raises():
    """The 4-cycle with chord 0 -> 2 and with chord 0 -> 3: same shapes, other programs.

    W(dirac 0, dirac 3) is 2 on the first and 1 on the second.  Started
    from the first graph's kappa optimum of the arc 0 -> 1, the second
    graph's column would solve the first graph's program and return 2.
    """
    def graph(chord):
        mu = np.zeros((4, 4))
        for x, y in ((0, 1), (1, 2), (2, 3), (3, 0), chord):
            mu[x, y] = 1.0
        return build_graph(mu)

    g1 = graph((0, 2))
    dm1, dm2 = distances(g1), distances(graph((0, 3)))
    start = kappa_lp(0, [1], markov_data(g1), dm1)[2]
    nu0, nu1 = np.eye(4)[0][None, None], np.eye(4)[3][None, None]
    assert wasserstein(nu0, nu1, dm1, verify=False, start=start).values[0, 0] == 2.0
    with pytest.raises(ValueError, match="another DistanceMatrix"):
        wasserstein(nu0, nu1, dm2, verify=False, start=start)
    assert wasserstein(nu0, nu1, dm2, verify=False).values[0, 0] == 1.0
    # the same graph's distances computed twice are two DistanceMatrix records
    with pytest.raises(ValueError, match="another DistanceMatrix"):
        wasserstein(nu0, nu1, distances(g1), verify=False, start=start)


class TestWarmStart:
    """Warm starts on 0 -> 1, 0 -> 2, 1 -> 0, 1 -> 2, 2 -> 0 (arcs in this order).

    dirac(0) to dirac(2) solves from the BFS out-tree of 0,
    {0 -> 1, 0 -> 2}, which is optimal already.  A solve that took no
    pivot hands its own start on, so the tests that spoil its final
    pieces mark it as one that pivoted, whose warm start is formed and
    checked, as a W table forms the start of each later pair.
    """

    @staticmethod
    def flow():
        mu = np.zeros((3, 3))
        for x, y in ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0)):
            mu[x, y] = 1.0
        flow = root_basis(distances(build_graph(mu)), 0).solve(np.eye(3)[0] - np.eye(3)[2])
        assert flow.value == 1.0 and flow.iterations == 0
        return flow

    def test_final_inverse_is_the_exact_inverse_of_the_final_basis(self):
        flow = self.flow()
        start = lp.Start.from_final(flow.start, flow.basis, flow.rows)
        assert np.array_equal(start.inverse @ flow.start.A[:, flow.basis], np.eye(2))

    def test_wrong_inverse_raises(self):
        # final rows off by 1e-6 make an inverse off by as much
        solved = self.flow()
        flow = dataclasses.replace(solved, iterations=1, rows=solved.rows + 1e-6)
        with pytest.raises(NumericsError, match="does not invert"):
            flow.warm_start()

    def test_basis_that_is_not_dual_feasible_raises(self):
        # the tree 0 -> 1 -> 2 prices the arc 0 -> 2 at 1 + 0 - 2 < 0.  A warm
        # start carries the final rows, so the flow ends on that tree's rows
        # here; the inverse follows from them.
        solved = self.flow()
        tree = np.array([0, 3])
        A = solved.start.A
        body = np.linalg.inv(A[:, tree]) @ A
        rows = np.vstack((body, 1.0 - body.sum(axis=0)))
        flow = dataclasses.replace(solved, iterations=1, basis=tree, rows=rows)
        with pytest.raises(NumericsError, match="not dual feasible"):
            flow.warm_start()


@PROPERTY_SETTINGS
@given(tree_basis_instances())
def test_dual_simplex_kernel_is_the_reference_loop_on_flow_programs(instance):
    """Both W starts and every kappa_lp program of the graph pivot bit for bit alike."""
    g, nu0, nu1 = instance
    dm = distances(g)
    excess = nu0 - nu1
    for r, inward in both_starts(excess):
        oracles.assert_kernel_matches_reference(*flow_program(dm, excess, r, inward))
    problems = []
    solve = lp.solve_lp

    def recording_solve(start, b):
        problems.append((start, b))
        return solve(start, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "solve_lp", recording_solve)
        curvature_matrix(markov_data(g), dm)
    assert len(problems) == g.n * (g.n - 1)
    for start, b in problems:
        oracles.assert_kernel_matches_reference(start, b)


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


def assert_root_basis_is_the_reference(dm, r: int, inward: bool) -> None:
    """root_basis's start of (r, inward) is oracles.root_basis_reference's, bit for bit."""
    record = root_basis(dm, r, inward)
    ref, vertices = oracles.root_basis_reference(dm, r, inward)
    for piece in ("c", "A", "basis", "inverse", "tableau"):
        new, old = getattr(record.start, piece), getattr(ref, piece)
        assert (new.dtype, new.shape) == (old.dtype, old.shape), piece
        assert new.tobytes() == old.tobytes(), piece
    assert record.vertices.dtype == vertices.dtype
    assert record.vertices.tobytes() == vertices.tobytes()


@PROPERTY_SETTINGS
@given(graphs())
def test_root_basis_inverts_the_tree_exactly_for_every_root(g):
    """The path matrix is B^-1 with no rounding, and the record is the one of r.

    The start is oracles.root_basis_reference's, bit for bit.
    """
    dm = distances(g)
    n, arcs = g.n, dm.arcs
    incidence = np.zeros((n, len(arcs)))
    incidence[arcs[:, 0], np.arange(len(arcs))] = 1.0
    incidence[arcs[:, 1], np.arange(len(arcs))] = -1.0
    for r in range(n):
        record = root_basis(dm, r)
        basis = record.start
        assert np.array_equal(record.vertices, np.delete(np.arange(n), r))
        assert np.array_equal(basis.A, np.delete(incidence, r, axis=0))
        # one tree arc into each w != r, in vertex order, one BFS level down
        tails, heads = arcs[basis.basis, 0], arcs[basis.basis, 1]
        assert np.array_equal(heads, record.vertices)
        assert (dm.d[r, tails] == dm.d[r, heads] - 1).all()
        assert np.array_equal(basis.inverse @ basis.A[:, basis.basis], np.eye(n - 1))
        assert set(np.unique(basis.inverse)) <= {-1.0, 0.0}
        assert not any(a.flags.writeable for a in (*vars(basis).values(), record.vertices))
        assert_root_basis_is_the_reference(dm, r, False)


@PROPERTY_SETTINGS
@given(graphs())
def test_in_tree_basis_inverts_the_tree_exactly_for_every_sink(g):
    """The in-tree of s: one arc out of each w != s, one BFS level toward s.

    The start is oracles.root_basis_reference's, bit for bit.
    """
    dm = distances(g)
    n, arcs = g.n, dm.arcs
    incidence = np.zeros((n, len(arcs)))
    incidence[arcs[:, 0], np.arange(len(arcs))] = 1.0
    incidence[arcs[:, 1], np.arange(len(arcs))] = -1.0
    for s in range(n):
        record = root_basis(dm, s, inward=True)
        basis = record.start
        assert np.array_equal(basis.A, np.delete(incidence, s, axis=0))
        tails, heads = arcs[basis.basis, 0], arcs[basis.basis, 1]
        assert np.array_equal(tails, record.vertices)
        assert np.array_equal(tails, np.delete(np.arange(n), s))
        assert (dm.d[heads, s] == dm.d[tails, s] - 1).all()
        # the first such arc out of each tail
        for w, k in zip(tails, basis.basis):
            toward = (arcs[:, 0] == w) & (dm.d[arcs[:, 1], s] == dm.d[w, s] - 1)
            assert k == np.flatnonzero(toward)[0]
        assert np.array_equal(basis.inverse @ basis.A[:, basis.basis], np.eye(n - 1))
        assert set(np.unique(basis.inverse)) <= {0.0, 1.0}
        assert not np.signbit(basis.inverse).any() and not np.signbit(basis.A[basis.A == 0]).any()
        assert not any(a.flags.writeable for a in (*vars(basis).values(), record.vertices))
        assert root_basis(dm, s, inward=True) is record
        assert root_basis(dm, s) is not record
        assert_root_basis_is_the_reference(dm, s, True)


def test_root_basis_is_the_product_built_start_over_the_corpus(corpus):
    """Path differences give the start that products give, for every root, out and in.

    B^-1 A formed as differences of path columns, and the reduced costs
    as 1 minus its column sums, are exact, so the start must be the
    reference's bit for bit: basis, inverse, tableau, incidence and the
    vertex of each row.
    """
    for g in corpus:
        dm = distances(g)
        for r in range(g.n):
            for inward in (False, True):
                assert_root_basis_is_the_reference(dm, r, inward)


def test_root_basis_refuses_a_tree_that_is_not_dual_feasible():
    """Distances that are no BFS distances give a tree with a negative reduced cost.

    On 0 -> 1 -> 2 -> 0 plus the chord 0 -> 2, a row d(0, .) = (0, 1, 2)
    makes 0 -> 1 -> 2 the out-tree of 0, a true spanning tree whose
    path matrix inverts it, but prices the chord at 1 + 0 - 2 = -1.
    """
    mu = np.zeros((3, 3))
    for x, y in ((0, 1), (0, 2), (1, 2), (2, 0)):
        mu[x, y] = 1.0
    dm = distances(build_graph(mu))
    d = dm.d.copy()
    d[0, 2] = 2
    with pytest.raises(NumericsError, match="not dual feasible"):
        root_basis(dataclasses.replace(dm, d=d), 0)



@PROPERTY_SETTINGS
@given(graphs())
def test_starts_are_the_start_tableau_of_each_program(g):
    """Every root start and every kappa start is oracles.start_tableau, bit for bit.

    A start is built once per root and direction, and a kappa program
    is root x's W program, solved from the out-tree start of x for the
    excess c + Lambda (delta_x - delta_y); the tableau each solve begins
    from must still be B^-1 [A | b] of its own program multiplied out,
    the b column included.
    """
    dm = distances(g)
    M = markov_data(g)
    n, arcs = g.n, dm.arcs
    incidence = np.zeros((n, len(arcs)))
    incidence[arcs[:, 0], np.arange(len(arcs))] = 1.0
    incidence[arcs[:, 1], np.arange(len(arcs))] = -1.0
    b = np.arange(n) / 7.0 - 0.3
    for r in range(n):
        for inward in (False, True):
            start = root_basis(dm, r, inward).start
            A, rhs = np.delete(incidence, r, axis=0), np.delete(b, r)
            ref = oracles.start_tableau(np.ones(len(arcs)), A, rhs, start.basis, start.inverse)
            assert start.tableau.tobytes() == ref[:, :-1].tobytes()
            T = lp._start_tableau(start, start.inverse @ rhs)
            assert T[:-1, -1].tobytes() == ref[:-1, -1].tobytes()
    problems = []
    solve = lp.solve_lp

    def recording_solve(start, b):
        problems.append((start, b))
        return solve(start, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "solve_lp", recording_solve)
        curvature_matrix(M, dm)
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    L = M.L
    for (x, y), (start, b) in zip(pairs, problems, strict=True):
        tree = root_basis(dm, x).start
        A = np.delete(incidence, x, axis=0)
        c = np.ones(len(arcs))
        # the W excess: c off y, and c(y) less the push Lambda at y (x's row is dropped)
        excess = (L[y] - L[x]) / float(dm.d[x, y])
        push = 1.0 + 2.0 * sum(abs(e) * max(dm.d[x, v], dm.d[v, x]) for v, e in enumerate(excess))
        at_y = np.delete(np.arange(n), x) == y
        rhs = np.delete(excess, x)
        assert b[~at_y].tobytes() == rhs[~at_y].tobytes()
        assert abs(b[at_y][0] - (rhs[at_y][0] - push)) <= 1e-12
        rhs = b
        ref = oracles.start_tableau(c, A, rhs, tree.basis, tree.inverse)
        assert start is tree and np.array_equal(start.A, A) and np.array_equal(start.c, c)
        assert b.tobytes() == rhs.tobytes()
        assert start.tableau.tobytes() == ref[:, :-1].tobytes()
        assert (start.inverse @ b).tobytes() == ref[:-1, -1].tobytes()


def test_root_basis_is_built_once_per_root_and_distance_matrix(g_tri, monkeypatch):
    """One tree and one start per root, direction and DistanceMatrix.

    Every later solve from that tree reuses its start, a kappa
    program's too, and a warm start carries the final tableau
    (or, after no pivot, is the start itself), so neither multiplies
    B^-1 A out again.  Each DistanceMatrix here keeps its records in a
    dict that notes every record stored in it: each note is one root's
    start built, and built() names the (root, inward) of each.
    """
    builds, solved_from = [], []
    solve = lp.solve_lp

    class Recording(dict):
        def __setitem__(self, key, record):
            builds.append((key, record.start))
            super().__setitem__(key, record)

    def recorded(dm):
        object.__setattr__(dm, "_root_bases", Recording())
        return dm

    def recording_solve(start, b):
        solved_from.append(start)
        return solve(start, b)

    def built():
        return [key for key, _start in builds]

    monkeypatch.setattr(lp, "solve_lp", recording_solve)
    dm = recorded(distances(g_tri))
    M = markov_data(g_tri)
    nu0, nu1 = np.eye(3)[0], np.eye(3)[2]
    plan = wasserstein(nu0, nu1, dm, verify=True)
    # a column of two pairs: the first solve, as the plan's, takes no pivot,
    # so its warm start is the root's start, handed on to the second
    table = wasserstein(np.stack([[nu0], [nu1]]), np.stack([[nu1], [nu0]]), dm, verify=False)
    assert table.values[0, 0] == plan.value
    kappa_lp(0, [1], M, dm)
    kappa_lp(0, [2], M, dm)
    assert built() == [(0, False)]
    ((_key, start),) = builds
    assert start is root_basis(dm, 0).start
    # the two kappa programs of root 0 solve from its start too
    assert len(solved_from) == 5 and all(solved is start for solved in solved_from)
    kappa_lp(1, [0], M, dm)
    assert built() == [(0, False), (1, False)]
    # the in-tree of 2 has its own record, built once too
    third = np.full(3, 1 / 3)
    for _ in range(2):
        wasserstein(third, nu1, dm, verify=True)
        assert solved_from[-1] is root_basis(dm, 2, inward=True).start
    assert built() == [(0, False), (1, False), (2, True)]
    # a second distances() result holds its own records
    other = recorded(distances(g_tri))
    assert root_basis(other, 0) is not root_basis(dm, 0)
    assert built() == [(0, False), (1, False), (2, True), (0, False)]
    assert builds[-1][1] is root_basis(other, 0).start and len(builds) == 4


class TestStartingBasis:
    """min x0 + 2 x1 subject to x0 + x1 = b, x >= 0, from a given basis."""

    @staticmethod
    def program(b=1.0, basis=(0,)):
        return lp.Start.from_basis([1.0, 2.0], [[1.0, 1.0]], basis), [b]

    def test_dual_feasible_basis_is_the_hand_optimum(self):
        # {x0} prices x1 at 2 - 1 >= 0 and holds x0 = 1: optimal before any pivot
        sol = solve_lp(*self.program())
        assert sol.status == "optimal"
        assert np.array_equal(sol.x, [1.0, 0.0])
        assert np.array_equal(sol.duals, [1.0])
        assert sol.value == 1.0
        assert sol.duality_gap == 0.0 and sol.iterations == 0

    def test_not_dual_feasible_raises(self):
        # under the basis {x1} the dual is 2, pricing x0 at 1 - 2 < 0
        with pytest.raises(NumericsError, match="not dual feasible"):
            solve_lp(*self.program(basis=(1,)))

    def test_wrong_basis_inverse_raises(self):
        # the arcs 1 -> 2 and 2 -> 1 (root 0's row dropped) close a cycle, so they are
        # a singular basis with no inverse: from_basis finds none to form, and any
        # matrix a caller offers carried is wrong
        A = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(ValueError):
            lp.Start.from_basis([1.0, 1.0], A, basis=(0, 1))
        with pytest.raises(NumericsError, match="does not invert"):
            lp.Start.carried(np.ones(2), A, np.array([0, 1]), np.linalg.pinv(A), np.zeros((3, 2)))
        # an inverse of other columns, here of a permuted basis: the arcs 1 -> 0 and
        # 2 -> 0 of the star into root 0 are I, and the inverse offered is of I's columns swapped
        A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, -1.0]])
        with pytest.raises(NumericsError, match="does not invert"):
            lp.Start.carried(
                np.ones(3), A, np.array([0, 1]), np.linalg.inv(A[:, [1, 0]]), np.zeros((3, 3))
            )
        # an inverse within 1e-9 of the exact one but not exact: the in-tree of vertex 6 of
        # the graph where Bland's rule takes over, its path matrix scaled by 1 - 3e-11
        tree = root_basis(distances(build_graph(BLAND_MU)), 6, inward=True).start
        with pytest.raises(NumericsError, match="does not invert"):
            lp.Start.carried(tree.c, tree.A, tree.basis, tree.inverse * (1 - 3e-11), tree.tableau)

    def test_a_column_that_is_not_an_arcs_raises(self):
        # an arc's column holds at most one 1 and one -1, zero elsewhere; an entry of 2, 0.5
        # or NaN, a second 1 or a second -1 is refused
        for column in ([2.0], [0.5], [np.nan]):
            with pytest.raises(ValueError, match="not an arc's"):
                lp.Start.from_basis([1.0, 2.0], [[1.0, column[0]]], (0,))
        for column in ([1.0, 1.0], [-1.0, -1.0]):
            with pytest.raises(ValueError, match="not an arc's"):
                lp.Start.from_basis([1.0, 1.0, 1.0], np.c_[np.eye(2), column], (0, 1))
        # the arcs 1 -> 2 and 2 -> 1, root 0's row dropped, are arcs' columns
        assert len(lp.Start.from_basis(np.ones(4), np.c_[np.eye(2), [1.0, -1.0], [-1.0, 1.0]],
                                       (0, 1)).c) == 4

    @pytest.mark.parametrize("basis", [(0, 1), (), (2,), (-1,)])
    def test_basis_of_wrong_length_or_range_raises(self, basis):
        with pytest.raises(ValueError, match="one column index per row"):
            self.program(basis=basis)

    @pytest.mark.parametrize("b", [[], [1.0, 2.0], [[1.0]]])
    def test_right_hand_side_of_the_wrong_shape_raises(self, b):
        start, _b = self.program()
        with pytest.raises(ValueError, match="right-hand side"):
            solve_lp(start, b)

    def test_infeasible_program(self):
        # x0 + x1 = -1 has no non-negative solution; the leaving row has no negative entry
        with pytest.raises(LpFailureError, match="'infeasible' after 0 pivots"):
            solve_lp(*self.program(b=-1.0))

    def test_dual_simplex_pivots_to_the_optimum(self):
        # the basis {x0} of x0 - x1 = -1 gives x0 = -1; one pivot brings in x1
        start = lp.Start.from_basis([1.0, 2.0], [[1.0, -1.0]], basis=(0,))
        sol = solve_lp(start, [-1.0])
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
    all_pairs = float(oracles.gradient_matrix(f, dm).max())
    assert arcs <= all_pairs
    assert all_pairs - arcs <= 1e-15 * abs(all_pairs)


@PROPERTY_SETTINGS
@given(graphs(), st.integers(0, 2**32 - 1), st.floats(-2.0, 2.0))
def test_batched_gradient_estimate_matches_the_per_sample_loop(g, seed, K):
    """One comparison per time, row i at TIME_GRID[i]: the per-sample loop's, bit for bit.

    Each time's comparison is the certificate the per-sample loop
    builds for that time's row alone, and the certificate is the first
    of them at least margin, its witness naming the row.
    """
    dm = distances(g)
    H = heat_operator(markov_data(g))
    rng = np.random.default_rng(seed)
    count = len(TIME_GRID)
    fs = sample_lipschitz_functions(dm, count, rng) * rng.uniform(0.5, 2.0, size=(count, 1))
    cert = verify_gradient_estimate(H, dm, K, fs)
    alone = [oracles.gradient_estimate_per_sample(H, dm, K, fs[[i]], ts=(t,))
             for i, t in enumerate(TIME_GRID)]
    i = int(np.argmin([ref.margin for ref in alone]))
    ref = alone[i]
    assert repr((cert.lhs, cert.rhs, cert.margin)) == repr((ref.lhs, ref.rhs, ref.margin))
    assert cert.passed == ref.passed
    assert cert.witness == {**ref.witness, "f_index": i}
    assert cert.hypothesis == {"K": K, "times": list(TIME_GRID)}
