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
bases and inverses fail.  Each tree's start tableau is built once and
reused, and each curvature program adds its virtual column to it; a
property pins every such start to the tableau multiplied out for its
own program.  A column of a W table solves each pair from the previous
pair's final basis, as the heat flow's W of one arc do along t: that
chain is pinned to cold solves and scipy, the carried final tableau to
the one its basis multiplies out, and a warm start from a wrong
inverse or a tableau that is not dual feasible fails.  An arc's column
may start from the arc's kappa optimum instead, its virtual column
swapped for the arc: that chain is pinned to cold solves and scipy,
the swapped start to the one its basis multiplies out, and a start of
another graph fails.  A solve that took no pivot hands its own start
on, and an arc's start is formed and checked once: each column is
pinned, step by step and bit for bit, to the chain of single solves
and to a chain that re-forms and re-checks every start.
The curvature program is solved through its dual flow from the same
kind of basis; its witness is checked for optimality on its own, and
the least arc kappa, verify-functional's K, is the all-pairs K bit for
bit.
Transport contraction along the heat flow is checked over the arcs
only; a property pins its verdict and margin to the all-pairs loop.
The Lipschitz constant is taken over the arcs too, pinned to the
all-pairs difference quotients, and the gradient estimate smooths each
time's function at that time alone, pinned to the per-sample loop.  A
solve forms its duals, gap and residual only when read, and a W table
its marginal residual: a table forms none of them, and each one read
is the eager formula's, bit for bit.  A solve that took no pivot forms
its final tableau only when read, and every piece then read is that of
a solve that formed it before it tested B^-1 b (oracles.eager_solve).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from digricci import (
    NotStronglyConnectedError,
    NumericsError,
    ParseError,
    build_graph,
    curvature_matrix,
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
    (value,), (witness,) = kappa_lp(x, [y], markov_data(g), dm)

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
    (value,), (f,) = kappa_lp(x, [y], markov_data(g), distances(g))
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


def test_kappa_lp_solves_the_flow_dual_from_a_basis(g_tri, monkeypatch):
    """One solve per pair: n - 1 balance rows, a column per arc plus the virtual one."""
    problems = []
    solve_lp = lp.solve_lp

    def recording_solve(start, b):
        problems.append((start, b))
        return solve_lp(start, b)

    monkeypatch.setattr(lp, "solve_lp", recording_solve)
    kappa_lp(0, [2], markov_data(g_tri), distances(g_tri))
    ((start, b),) = problems
    assert start.basis is not None
    assert start.A.shape == (g_tri.n - 1, g_tri.arc_count + 1)


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
    kappa_lp(x, [y], markov_data(g), dm)
    table, solves = recorded_solves(lambda: chain_table(pairs, dm, dm._arc_starts[(x, y)]))
    assert all(solution.start.A is root_basis(dm, x).start.A for solution in solves)
    for (nu0, nu1), value in zip(pairs, table.values[:, 0], strict=True):
        assert abs(value - wasserstein(nu0, nu1, dm, verify=True).value) <= 1e-12
        assert abs(value - oracles.linprog_transport(dm.d, nu0, nu1, tight=True)) <= 1e-9


@PROPERTY_SETTINGS
@given(graphs(), st.data())
def test_a_kappa_row_solves_each_program_as_the_per_pair_route(g, data):
    """A kappa_lp row makes, program by program, the solves of oracles.kappa_pair, bit for bit.

    The row sets up its programs as one stack and reads their duals as
    one product; the reference gives each program its own start
    (oracles.with_column) and reads each solve's own duals.  Rows over
    every other vertex, over one, and over the root's out-neighbours
    agree with it in kappa, witness, final basis and pivot count, one
    lp.solve_lp per program, and each arc's ArcStart gives the W start
    that oracles.two_step_arc_start forms off the reference solve.  A
    row of one [y] returns the same kappa and witness as arrays of one
    entry, a row that holds x raises, and an empty row returns empty
    arrays.
    """
    M, dm = markov_data(g), distances(g)
    x = data.draw(st.integers(0, g.n - 1))
    others = [y for y in range(g.n) if y != x]
    ys = data.draw(st.sampled_from([
        others, [data.draw(st.sampled_from(others))], dm.arcs[dm.arcs[:, 0] == x, 1].tolist(),
    ]))
    (kappas, witnesses), solves = recorded_solves(lambda: kappa_lp(x, np.array(ys), M, dm))
    assert kappas.shape == (len(ys),) and witnesses.shape == (len(ys), g.n)
    ref_dm = distances(g)
    arcs = dm.arcs.tolist()
    for y, kappa, witness, solution in zip(ys, kappas, witnesses, solves, strict=True):
        ref_kappa, ref_witness, ref = oracles.kappa_pair(x, y, M, ref_dm)
        assert np.float64(kappa).tobytes() == np.float64(ref_kappa).tobytes()
        assert witness.tobytes() == ref_witness.tobytes()
        assert solution.basis.tobytes() == ref.basis.tobytes()
        assert solution.iterations == ref.iterations
        values, singles = kappa_lp(x, [y], M, distances(g))
        assert values.shape == (1,) and singles.shape == (1, g.n)
        assert values[0] == kappa and singles[0].tobytes() == witness.tobytes()
        if [x, y] in arcs:
            program = root_basis(ref_dm, x).start
            ref_start = transport.ArcStart(x, y, ref.basis, ref._tableau, program)
            assert same_start(dm._arc_starts[(x, y)].warm_start(),
                              oracles.two_step_arc_start(ref_start))
    assert sorted(dm._arc_starts) == sorted((x, y) for y in ys if [x, y] in arcs)
    with pytest.raises(SameVertexError):
        kappa_lp(x, np.array([*ys, x]), M, dm)
    kappas, witnesses = kappa_lp(x, np.array([], dtype=int), M, dm)
    assert kappas.shape == (0,) and witnesses.shape == (0, g.n)


@PROPERTY_SETTINGS
@given(graphs())
def test_kappa_start_is_the_start_its_basis_multiplies_out(g):
    """Each arc's W start, formed off kappa's final tableau, is Start.from_basis's, bit for bit.

    kappa_lp keeps its optimum for the arcs alone.  The virtual column
    y -> x is basic in each (the nonbasic case has its own test), so the
    start holds the arc x -> y in its place, on root x's own c and A.
    The inverse is the swapped basis's exact inverse (its entries are
    integers, so the rounded LU inverse is exact), and the tableau is
    the one from_basis multiplies out with it.  The start is formed on
    first use, once.
    """
    dm = distances(g)
    curvature_matrix(markov_data(g), dm)
    arcs = dm.arcs.tolist()
    assert sorted(dm._arc_starts) == sorted(map(tuple, arcs))
    for (x, y), arc_start in dm._arc_starts.items():
        assert arc_start._start is None
        start = arc_start.warm_start()
        program = root_basis(dm, x).start
        assert start.c is program.c and start.A is program.A
        assert arcs.index([x, y]) in start.basis
        inverse = np.linalg.inv(program.A[:, start.basis]).round() + 0.0
        ref = lp.Start.from_basis(program.c, program.A, start.basis, inverse)
        assert start.inverse.tobytes() == ref.inverse.tobytes()
        assert start.tableau.tobytes() == ref.tableau.tobytes()
        assert arc_start.warm_start() is start


def test_kappa_start_with_the_virtual_arc_nonbasic_is_kappas_basis_as_it_stands(g_tri):
    """A kappa optimum that holds no virtual column is a basis of W already.

    No kappa_lp optimum drawn ends that way, so this one is made to: a
    right-hand side that the BFS out-tree of x carries with positive
    flow is optimal on that tree before any pivot.  The W start is then
    the tree's own start, bit for bit, and the chain from it gives the
    cold chain's W.
    """
    dm, M = distances(g_tri), markov_data(g_tri)
    x, y = (int(v) for v in dm.arcs[0])
    tree = root_basis(dm, x)
    program = oracles.with_column(tree.start, -1.0, (tree.vertices == y).astype(float))
    kappa = solve_lp(program, program.A[:, program.basis].sum(axis=1))
    assert kappa.iterations == 0 and len(tree.start.c) not in kappa.basis
    arc_start = transport.ArcStart(x, y, kappa.basis, kappa._tableau, tree.start)
    start = arc_start.warm_start()
    for name in ("c", "A", "basis", "inverse", "tableau"):
        assert getattr(start, name).tobytes() == getattr(tree.start, name).tobytes(), name
    H = heat_operator(M)
    kernels = [heat_kernel_matrix(H, t) for t in LIMIT_GRID[::-1] + TIME_GRID]
    pairs = [(kernel[x], kernel[y]) for kernel in kernels]
    for (nu0, nu1), value in zip(pairs, chain_table(pairs, dm, arc_start).values[:, 0]):
        assert abs(value - wasserstein(nu0, nu1, dm, verify=True).value) <= 1e-12


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
    """A solve that took no pivot forms no tableau until read; then every piece is the eager one.

    The chain's last pair repeats the one before it, so at least its
    last solve takes no pivot.  Each solve of the column is held, bit
    for bit, to oracles.eager_solve of its start and b: x, value,
    basis, the final tableau, duals, gap, residual, the final inverse
    and the warm start.
    """
    g, _arc, pairs = instance
    _table, solves = recorded_solves(lambda: chain_table([*pairs, pairs[-1]], distances(g)))
    assert solves[-1].iterations == 0
    for flow in solves:
        eager = oracles.eager_solve(flow.start, flow.b)
        assert flow.iterations == eager.iterations
        if not flow.iterations:
            assert flow._final is None
        assert flow.x.tobytes() == eager.x.tobytes()
        assert np.float64(flow.value).tobytes() == np.float64(eager.value).tobytes()
        assert np.array_equal(flow.basis, eager.basis)
        for piece in ("_tableau", "duals", "basis_inverse"):
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
        ref = oracles.start_tableau(flow.start.c, flow.start.A, b, flow.basis, flow.basis_inverse)
        warm = flow.warm_start()
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
    start is formed off kappa's final solve in one step; the reference
    chain, oracles.w_chain with re_form, re-forms every start by
    oracles.carried_warm_start, and the arc's by
    oracles.two_step_arc_start.  At every step the start, value, final
    basis, pivot count and final tableau agree.  The column starts from
    a BFS tree or from the arc's kappa optimum.
    """
    g, (x, y), pairs = instance
    dm = distances(g)
    arc_start = None
    if from_kappa:
        kappa_lp(x, [y], markov_data(g), dm)
        arc_start = dm._arc_starts[(x, y)]
    _table, solves = recorded_solves(lambda: chain_table(pairs, dm, arc_start))
    nu0, nu1 = np.array(pairs).transpose(1, 0, 2)
    refs = oracles.w_chain(dm, nu0, nu1, arc_start, re_form=True)
    for i, (flow, ref) in enumerate(zip(solves, refs, strict=True)):
        assert same_start(flow.start, ref.start)
        if i and not solves[i - 1].iterations:
            assert flow.start is solves[i - 1].start
        assert np.float64(flow.value).tobytes() == np.float64(ref.value).tobytes()
        assert flow.basis.tobytes() == ref.basis.tobytes()
        assert flow.iterations == ref.iterations
        assert flow._tableau.tobytes() == ref._tableau.tobytes()


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
            kappa_lp(x, [y], M, dm)
            starts.append(dm._arc_starts[(x, y)])
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


@PROPERTY_SETTINGS
@given(warm_chains())
def test_flow_tableaus_stay_integral(instance):
    """After every kappa solve and every warm-chained W solve, B^-1 A is in {-1, 0, 1}.

    Every basis is a spanning tree of the arc incidence, plus the
    virtual arc for kappa, and every cost is an integer, so the final
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
        body, costs = solution._tableau[:-1, :-1], solution._tableau[-1, :-1]
        assert set(np.unique(body)) <= {-1.0, 0.0, 1.0}
        assert np.array_equal(costs, np.round(costs))


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
        solution._tableau[-1, :-1] -= move * start.A[0]
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
    kappa_lp(0, [1], markov_data(g1), dm1)
    start = [dm1._arc_starts[(0, 1)]]
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
        assert np.array_equal(flow.basis_inverse @ flow.start.A[:, flow.basis], np.eye(2))

    def test_wrong_inverse_raises(self):
        solved = self.flow()
        flow = dataclasses.replace(solved, iterations=1)
        flow.basis_inverse = solved.basis_inverse + 1e-6
        with pytest.raises(NumericsError, match="does not invert"):
            flow.warm_start()

    def test_basis_that_is_not_dual_feasible_raises(self):
        # the tree 0 -> 1 -> 2 prices the arc 0 -> 2 at 1 + 0 - 2 < 0.  A warm
        # start carries the final tableau, so the flow ends on that tree's
        # tableau here; its basis_inverse follows from it.
        solved = self.flow()
        tree = np.array([0, 3])
        A = solved.start.A
        rows = np.linalg.inv(A[:, tree]) @ A
        tableau = np.zeros((3, 6))
        tableau[:2, :5] = rows
        tableau[2, :5] = 1.0 - rows.sum(axis=0)
        flow = dataclasses.replace(solved, iterations=1, basis=tree, _final=tableau)
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
    adds its virtual column y -> x to the out-tree start of x; the
    tableau each solve begins from must still be B^-1 [A | b] of its own
    program multiplied out, the b column included.
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
        virtual = np.delete(np.eye(n)[y], x)[:, None]
        A = np.hstack([np.delete(incidence, x, axis=0), virtual])
        c = np.append(np.ones(len(arcs)), -float(dm.d[x, y]))
        rhs = np.delete((L[y] - L[x]) / float(dm.d[x, y]), x)
        ref = oracles.start_tableau(c, A, rhs, tree.basis, tree.inverse)
        assert np.array_equal(start.A, A) and np.array_equal(start.c, c)
        assert b.tobytes() == rhs.tobytes()
        assert start.tableau.tobytes() == ref[:, :-1].tobytes()
        assert (start.inverse @ b).tobytes() == ref[:-1, -1].tobytes()


def test_root_basis_is_built_once_per_root_and_distance_matrix(g_tri, monkeypatch):
    """One tree and one start per root, direction and DistanceMatrix.

    Every later solve from that tree reuses its start; a kappa program
    adds its column to it, and a warm start carries the final tableau
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
    assert all(solved is start for solved in solved_from[:3])
    # each kappa start is the root's tableau with the virtual column beside it
    for kappa_start in solved_from[3:]:
        assert kappa_start.tableau[:, :-1].tobytes() == start.tableau.tobytes()
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
    def program(b=1.0, basis=(0,), **kwargs):
        A = np.array([[1.0, 1.0]])
        # both columns are 1, so every one-column basis has this inverse
        kwargs.setdefault("basis_inverse", np.linalg.inv(A[:, :1]))
        return lp.Start.from_basis([1.0, 2.0], A, basis, **kwargs), [b]

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
        # the columns of a singular basis have no inverse; any matrix offered is wrong
        A = np.array([[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(NumericsError, match="does not invert"):
            lp.Start.from_basis([1.0, 1.0], A, basis=(0, 1), basis_inverse=np.linalg.pinv(A))
        # an inverse of other columns, here of a permuted basis
        A = np.array([[1.0, 0.0, 1.0], [0.0, 2.0, 1.0]])
        with pytest.raises(NumericsError, match="does not invert"):
            lp.Start.from_basis(
                [1.0, 1.0, 1.0], A, basis=(0, 1), basis_inverse=np.linalg.inv(A[:, [1, 0]])
            )

    def test_basis_needs_its_inverse(self):
        with pytest.raises((TypeError, ValueError), match="basis_inverse"):
            lp.Start.from_basis([1.0, 2.0], [[1.0, 1.0]], basis=(0,))
        with pytest.raises(ValueError, match="basis_inverse"):
            self.program(basis_inverse=np.eye(2))

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
        start = lp.Start.from_basis([1.0, 2.0], [[1.0, -1.0]], basis=(0,), basis_inverse=[[1.0]])
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
