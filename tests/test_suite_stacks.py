"""The functional suite's array forms against its per-sample loops, bit for bit.

chain.gamma, chain.mean and chain.inner take stacks of functions; each
row must get the bits of a 1-D call, and a 1-D call the bits of the
n x n form gamma had before.  DensityFixture.of_stack checks and
measures a stack of densities in one pass; each record must equal the
one built from its row alone, and a stack with bad rows must raise what
the row-by-row check raises first.  The moment, tail and chain-rule
checks build lhs and rhs over the whole family; each certificate must
equal the one its per-sample loop in oracles.py builds, field for field.
So must the Bobkov-Goetze link, whose moment side is the Laplace
certificate it is given.
Every graph here is strongly connected with K > 0, the suite's domain.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from digricci import (
    DensityFixture,
    HypothesisUnmetError,
    MarkovData,
    NotLipschitzError,
    build_graph,
    centered_lipschitz_samples,
    check_bobkov_goetze,
    check_exp_chain_rule_bound,
    check_exp_square_chain_rule_bound,
    check_laplace_bound,
    concentration_tail,
    curvature_matrix,
    distances,
    gamma,
    inner,
    markov_data,
    mean,
    random_densities,
    sample_lipschitz_functions,
)
from digricci import concentration

STACK_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)


@st.composite
def positive_graphs(draw):
    """(M, dm, K, rng): a complete bidirected graph on 2 to 10 vertices, maybe less one arc.

    Weights are U(0.5, 2); dropping one arc of a complete graph on three
    or more vertices keeps it strongly connected.  Only K > 0 is kept.
    """
    n = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mu = rng.uniform(0.5, 2.0, size=(n, n))
    np.fill_diagonal(mu, 0.0)
    if n >= 3 and draw(st.booleans()):
        x, y = rng.choice(n, size=2, replace=False)
        mu[x, y] = 0.0
    g = build_graph(mu)
    M, dm = markov_data(g), distances(g)
    K = curvature_matrix(M, dm).K
    assume(K > 0)
    return M, dm, K, rng


def assert_same(cert, ref) -> None:
    """Every field equal, floats by repr, so -0.0 and 0.0 differ."""
    assert repr(dataclasses.asdict(cert)) == repr(dataclasses.asdict(ref))


def assert_same_record(record: DensityFixture, ref: DensityFixture) -> None:
    assert record.provenance == ref.provenance
    for field in ("rho", "measure"):
        assert getattr(record, field).tobytes() == getattr(ref, field).tobytes()
    for field in ("entropy", "fisher_information", "edge_variation"):
        assert repr(getattr(record, field)) == repr(getattr(ref, field))


@STACK_SETTINGS
@given(positive_graphs(), st.integers(1, 6))
def test_chain_helpers_on_a_stack_equal_row_by_row_calls(graph, count):
    M, _dm, _K, rng = graph
    f0 = rng.normal(0.0, 2.0, size=(count, M.n))
    f1 = np.exp(rng.normal(0.0, 1.0, size=(count, M.n)))
    stacked = gamma(f0, f1, M)
    assert stacked.shape == (count, M.n)
    means, inners = mean(f0, M.m), inner(f0, f1, M.m)
    assert means.shape == inners.shape == (count,)
    for i in range(count):
        row = gamma(f0[i], f1[i], M)
        assert row.tobytes() == stacked[i].tobytes()
        assert row.tobytes() == oracles.gamma_dense(f0[i], f1[i], M).tobytes()
        assert gamma(f0[i : i + 1], f1[i : i + 1], M)[0].tobytes() == row.tobytes()
        one_mean, one_inner = mean(f0[i], M.m), inner(f0[i], f1[i], M.m)
        assert type(one_mean) is float and type(one_inner) is float
        assert repr(one_mean) == repr(float(np.sum(f0[i] * M.m))) == repr(float(means[i]))
        assert repr(one_inner) == repr(float(np.sum(f0[i] * f1[i] * M.m)))
        assert repr(one_inner) == repr(float(inners[i]))


@STACK_SETTINGS
@given(positive_graphs(), st.integers(1, 6), st.booleans())
def test_moment_tail_and_chain_checks_equal_their_per_sample_loops(graph, count, one_d):
    """lhs, rhs, margin, pass and witness of each check equal its loop's, on a stack or one f."""
    M, dm, K, rng = graph
    centred = centered_lipschitz_samples(M, dm, count, rng)
    lipschitz = sample_lipschitz_functions(dm, count, rng) * rng.uniform(0.5, 1.0, size=(count, 1))
    free = rng.normal(0.0, 2.0, size=(count, M.n))
    if one_d:
        centred, lipschitz, free = centred[0], lipschitz[0], free[0]
    # K / 2 and 4 K bracket the curvature, so both verdicts occur
    for k in (K / 2.0, K, 4.0 * K):
        assert_same(check_laplace_bound(M, dm, k, centred),
                    oracles.laplace_bound_per_sample(M, dm, k, centred))
        assert_same(concentration_tail(M, dm, k, lipschitz),
                    oracles.tail_per_sample(M, dm, k, lipschitz))
    assert_same(check_exp_chain_rule_bound(M, free), oracles.exp_chain_rule_per_sample(M, free))
    # a constant row ties at margin 0 with every lambda, and so does a copy of it: the
    # sample-major order makes the first copy bind at the first lambda of LAMBDA_GRID,
    # not the second copy there nor the first at a later lambda
    tied = np.vstack([free, np.full((2, M.n), 0.3)])
    cert = check_exp_chain_rule_bound(M, tied)
    assert_same(cert, oracles.exp_chain_rule_per_sample(M, tied))
    assert cert.witness == {"f_index": len(tied) - 2, "lambda": concentration.LAMBDA_GRID[0]}
    assert_same(check_exp_square_chain_rule_bound(M, free),
                oracles.exp_square_chain_rule_per_sample(M, free))
    rhos = random_densities(M, 2, rng)
    # c = 2K / Lambda^2 at K / 2, K and 10 K; the link's moment side is the Laplace certificate.
    # The loop solves each W cold, so each link runs on a DistanceMatrix of its own, which
    # holds no optimum of these densities from the link before it
    for k in (K / 2.0, K, 10.0 * K):
        laplace = check_laplace_bound(M, dm, k, centred)
        assert_same(check_bobkov_goetze(M, dataclasses.replace(dm), k, rhos, laplace),
                    oracles.bobkov_goetze_per_sample(M, dm, k, rhos, centred))


@STACK_SETTINGS
@given(positive_graphs(), st.integers(0, 8), st.integers(0, 2**32 - 1))
def test_random_densities_equal_one_row_records_and_per_row_draws(graph, count, seed):
    M, _dm, _K, _rng = graph
    batched, per_row = np.random.default_rng(seed), np.random.default_rng(seed)
    records = random_densities(M, count, batched)
    draws = [per_row.gamma(shape=2.0, scale=1.0, size=M.n) + 1e-3 for _ in range(count)]
    # the one (count, n) draw left the stream where count draws of n leave it
    assert batched.random() == per_row.random()
    rows = [g / mean(g, M.m) for g in draws]
    for x in range(M.n):
        rho = np.zeros(M.n)
        rho[x] = 1.0 / M.m[x]
        rows.append(rho)
    names = [f"random[{i}]" for i in range(count)] + [f"point_mass[{x}]" for x in range(M.n)]
    assert len(records) == len(rows)
    for record, rho, name in zip(records, rows, names):
        assert_same_record(record, DensityFixture.of(M, rho, name))
        assert_same_record(record, oracles.density_record_per_row(M, rho, name))


def _bad(rho: np.ndarray, rule: str) -> np.ndarray:
    """rho broken by rule; "negative" also moves its m-mass, which must not be the rule named."""
    rho = rho.copy()
    if rule == "nan":
        rho[0] = np.nan
    elif rule == "inf":
        rho[-1] = np.inf
    elif rule == "negative":
        rho[-1] = -rho[-1] - 0.25
    elif rule == "mass":
        rho *= 1.0 + 1e-6
    elif rule == "nan and negative":
        rho[0], rho[-1] = -1.0, np.nan
    return rho


def _first_error(M: MarkovData, rows: np.ndarray) -> str:
    """The message the row-by-row check raises first."""
    for rho in rows:
        try:
            oracles.density_record_per_row(M, rho, "rho")
        except HypothesisUnmetError as exc:
            return str(exc)
    raise AssertionError("no row is bad")


RULES = ("nan", "inf", "negative", "mass", "nan and negative")


@STACK_SETTINGS
@given(positive_graphs(), st.integers(1, 6), st.data())
def test_a_stack_with_bad_rows_raises_the_first_bad_rows_first_rule(graph, count, data):
    M, _dm, _K, rng = graph
    rows = np.vstack([record.rho for record in random_densities(M, count, rng)])
    bad = data.draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.sampled_from(RULES)),
                             min_size=1, max_size=3, unique_by=lambda item: item[0]))
    for i, rule in bad:
        rows[i] = _bad(rows[i], rule)
    expected = _first_error(M, rows)
    names = [f"row[{i}]" for i in range(len(rows))]
    with pytest.raises(HypothesisUnmetError) as error:
        DensityFixture.of_stack(M, rows, names)
    assert str(error.value) == expected
    i = min(i for i, _rule in bad)
    with pytest.raises(HypothesisUnmetError) as error:
        DensityFixture.of(M, rows[i], names[i])
    assert str(error.value) == _first_error(M, rows[i : i + 1])


@STACK_SETTINGS
@given(positive_graphs(), st.integers(0, 3), st.sampled_from((None,) + RULES))
def test_fisher_routes_out_of_sync_raise_for_the_first_row_they_split_on(graph, at, other):
    """Edge weights scaled away from the mean kernel split the two routes on every non-uniform
    density; the uniform ones before it pass, and a row broken before it names its own rule."""
    M, _dm, _K, rng = graph
    skewed = MarkovData(P=M.P, m=M.m, Pmean=M.Pmean, mxy=M.mxy * 1.5, L=M.L)
    rows = np.vstack([np.ones((at, M.n)),
                      [record.rho for record in random_densities(M, 2, rng)]])
    if other is not None:
        rows[-1] = _bad(rows[-1], other)
    expected = _first_error(skewed, rows)
    assert expected.startswith("Fisher information routes disagree")
    with pytest.raises(HypothesisUnmetError) as error:
        DensityFixture.of_stack(skewed, rows, ["rho"] * len(rows))
    assert str(error.value) == expected
    if other is not None:
        rows[at] = _bad(rows[at], other)
        with pytest.raises(HypothesisUnmetError) as error:
            DensityFixture.of_stack(skewed, rows, ["rho"] * len(rows))
        assert str(error.value) == _first_error(skewed, rows)
        assert not str(error.value).startswith("Fisher")


def test_a_stack_of_the_wrong_width_is_not_densities(g_k3):
    M = markov_data(g_k3)
    for rows in (np.ones((2, 4)), np.ones(3), np.ones((1, 1, 3))):
        with pytest.raises(HypothesisUnmetError, match="density must be 3 finite numbers"):
            DensityFixture.of_stack(M, rows, ["a", "b"])
    assert DensityFixture.of_stack(M, np.ones((0, 3)), []) == []


@STACK_SETTINGS
@given(positive_graphs(), st.integers(3, 8), st.data())
def test_tail_names_the_first_steep_index(graph, count, data):
    M, dm, K, rng = graph
    fs = sample_lipschitz_functions(dm, count, rng)
    steep = sorted(data.draw(st.sets(st.integers(0, count - 1), min_size=1, max_size=3)))
    for i in steep:
        fs[i] = 3.0 * dm.d[i % M.n]
    with pytest.raises(NotLipschitzError) as expected:
        oracles.tail_per_sample(M, dm, K, fs)
    assert str(expected.value).endswith(f"at f_index {steep[0]}")
    with pytest.raises(NotLipschitzError) as error:
        concentration_tail(M, dm, K, fs)
    assert str(error.value) == str(expected.value)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 30), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_masses_sum_each_rows_chosen_entries_as_one_row_alone(n, rows, seed, p):
    """The tail masses: every row's sum has the bits of m[row].sum(), whatever its count."""
    rng = np.random.default_rng(seed)
    m = rng.random(n)
    mask = rng.random((rows, n)) < p
    masses = concentration._masses(m, mask)
    assert [repr(v) for v in masses.tolist()] == [repr(float(m[row].sum())) for row in mask]
