"""The arc-local programs against their all-pairs forms and scipy.

The hop metric is a path metric, so two programs shrink to the arcs:
transport becomes a min-cost flow with one variable per arc, and the
curvature program keeps one Lipschitz row per arc.  These properties
pin both to the programs that enumerate every ordered pair, over
random strongly connected graphs and random (often sparse) measures.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from digricci import (
    LinearProgram,
    build_graph,
    distances,
    kantorovich_dual,
    kappa_lp,
    markov_data,
    solve_lp,
    solve_transport,
    wasserstein,
)

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
    all_pairs = solve_lp(
        LinearProgram(
            c=c,
            A=np.vstack([A_ub, A_eq]),
            b=np.concatenate([b_ub, b_eq]),
            senses=("<=",) * len(b_ub) + ("=",),
            bounds=((None, None),) * len(c),
        )
    )
    ref = oracles.linprog_general(c, A_ub, b_ub, A_eq, b_eq, bounds=(None, None))
    assert ref.status == 0, ref.message
    assert value == pytest.approx(all_pairs.value, abs=1e-9)
    assert value == pytest.approx(ref.fun, abs=1e-9)
    # the arc-row witness is feasible for the all-pairs program
    f = np.delete(witness, x)
    assert (A_ub @ f <= b_ub + 1e-9).all()
    assert witness[y] == pytest.approx(dm.d[x, y], abs=1e-9)
