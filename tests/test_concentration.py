"""Concentration, moment bounds, Fisher information, entropy, transport links."""

from __future__ import annotations

import functools
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_strongly_connected
from digricci import (
    DensityFixture,
    HypothesisUnmetError,
    NotLipschitzError,
    centered_lipschitz_samples,
    check_bobkov_goetze,
    check_exp_chain_rule_bound,
    check_exp_square_chain_rule_bound,
    check_info_to_entropy,
    check_laplace_bound,
    check_transport_entropy,
    check_transport_information,
    check_transport_l1_bound,
    concentration_tail,
    curvature_matrix,
    distances,
    heat_operator,
    lipschitz_constant,
    markov_data,
    random_densities,
    verify_gradient_estimate,
)
from digricci.chain import mean
from digricci.cli import functional_certificates, main
from digricci.report import RunConfig


@pytest.fixture(scope="module")
def tri_setup(request):
    g = request.getfixturevalue("g_tri")
    M = markov_data(g)
    dm = distances(g)
    K = curvature_matrix(M, dm).K
    return M, dm, K


class TestSamplers:
    def test_densities_are_densities(self, g_tri, rng):
        M = markov_data(g_tri)
        for fixture in random_densities(M, 30, rng):
            rho = fixture.rho
            assert (rho >= 0).all()
            assert mean(rho, M.m) == pytest.approx(1.0, abs=1e-12)
        names = [f.provenance for f in random_densities(M, 2, rng)]
        assert names[0].startswith("random")

    def test_point_masses_included(self, g_tri, rng):
        M = markov_data(g_tri)
        fixtures = random_densities(M, 5, rng)
        point = [f for f in fixtures if f.provenance.startswith("point_mass")]
        assert len(point) == 3

    def test_centered_samples_contract(self, corpus, rng):
        for g in corpus[:8]:
            M = markov_data(g)
            dm = distances(g)
            fs = centered_lipschitz_samples(M, dm, 30, rng)
            for f in fs:
                assert abs(mean(f, M.m)) <= 1e-12
                assert lipschitz_constant(f, dm) <= 1.0 + 1e-12


class TestLaplaceBound:
    def test_passes_on_fixtures(self, g_c3, g_k3, rng):
        for g, lam in ((g_c3, 2.0), (g_k3, 1.0)):
            M = markov_data(g)
            dm = distances(g)
            cert = check_laplace_bound(M, dm, 1.5, centered_lipschitz_samples(M, dm, 100, rng))
            assert cert.hypothesis["Lambda"] == lam
            assert cert.passed
            assert cert.name == "laplace_moment_bound"

    def test_sampled_margin_bounded_by_analytic_worst(self, g_c3, g_k3, rng):
        # worst case over the mean-zero 1-Lipschitz polytope at lambda = 1,
        # found by hand: pushing one coordinate as high as the slopes allow
        for g, key in ((g_c3, "c3"), (g_k3, "k3")):
            M = markov_data(g)
            dm = distances(g)
            analytic = oracles.HAND[key]["laplace_margin_lam1"]
            bound = np.exp(1.0 * dm.lam**2 / (4.0 * 1.5))
            sampled = oracles.laplace_lower_bound(M, dm, 1.0, 200, rng)
            margin = bound - sampled
            assert margin >= analytic - 1e-12

    def test_cycle_margin_exceeds_complete_margin(self):
        # the complete triangle runs strictly closer to its bound than the
        # cycle does at the same lambda, this ordering is checked exactly
        assert (
            oracles.HAND["c3"]["laplace_margin_lam1"]
            > oracles.HAND["k3"]["laplace_margin_lam1"]
        )
        assert oracles.HAND["k3"]["laplace_margin_lam1"] > 0

    def test_sampled_functional_is_log_convex(self, g_tri):
        M = markov_data(g_tri)
        dm = distances(g_tri)
        values = {
            lam: oracles.laplace_lower_bound(M, dm, lam, 100, np.random.default_rng(5))
            for lam in (0.5, 1.0, 1.5)
        }
        assert values[1.0] ** 2 <= values[0.5] * values[1.5] + 1e-12

    def test_needs_positive_curvature(self, g_tri, rng):
        M = markov_data(g_tri)
        dm = distances(g_tri)
        with pytest.raises(HypothesisUnmetError):
            check_laplace_bound(M, dm, 0.0, centered_lipschitz_samples(M, dm, 100, rng))


class TestTailBound:
    def test_hand_tail_on_cycle(self, g_c3):
        M = markov_data(g_c3)
        dm = distances(g_c3)
        f = dm.d[0] - 1.0  # (-1, 0, 1), m-mean zero, Lipschitz constant 1
        cert = concentration_tail(M, dm, 1.5, f, r_grid=(0.5, 1.0))
        assert cert.passed
        # exact tail at either r is the single vertex mass 1/3; the kept
        # witness is the tighter radius r = 1, whose bound is exp(-K / Lambda^2), Lambda = 2
        assert cert.lhs == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert cert.witness["r"] == 1.0
        assert cert.rhs == pytest.approx(np.exp(-1.5 / 4.0), abs=1e-15)

    def test_zero_violations_on_corpus_when_positive(self, corpus, rng):
        for g in corpus[:8]:
            M = markov_data(g)
            dm = distances(g)
            K = curvature_matrix(M, dm).K
            if K <= 0:
                continue
            for f in centered_lipschitz_samples(M, dm, 20, rng):
                assert concentration_tail(M, dm, K, f).passed

    def test_steep_function_rejected(self, g_c3):
        M = markov_data(g_c3)
        dm = distances(g_c3)
        with pytest.raises(NotLipschitzError):
            concentration_tail(M, dm, 1.5, np.array([0.0, 5.0, 0.0]))


class TestChainRuleBounds:
    def test_zero_function_gives_equality(self, g_tri):
        M = markov_data(g_tri)
        cert = check_exp_chain_rule_bound(M, np.zeros(3), (1.0,))
        assert cert.passed
        assert cert.lhs == pytest.approx(cert.rhs, abs=1e-15)

    def test_holds_for_arbitrary_functions(self, corpus, rng):
        # not just Lipschitz ones: any f, any positive lambda
        for g in corpus:
            M = markov_data(g)
            for _ in range(4):
                f = rng.normal(0.0, 2.0, size=g.n)
                for lam in (0.5, 1.0, 2.0):
                    assert check_exp_chain_rule_bound(M, f, (lam,)).passed
                assert check_exp_square_chain_rule_bound(M, f).passed


class TestFisherEntropy:
    def test_hand_values_on_tri(self, g_tri):
        M = markov_data(g_tri)
        rho2 = DensityFixture.of(M, np.array([0.0, 0.0, 5.0]), "rho2")
        assert rho2.fisher_information == pytest.approx(
            oracles.HAND["tri"]["fisher_rho2"], abs=1e-12
        )
        assert rho2.entropy == pytest.approx(oracles.HAND["tri"]["entropy_rho2"], abs=1e-12)
        rho0 = DensityFixture.of(M, np.array([2.5, 0.0, 0.0]), "rho0")
        assert rho0.entropy == pytest.approx(
            oracles.HAND["tri"]["entropy_rho0"], abs=1e-12
        )

    def test_fisher_never_exceeds_eight(self, corpus, rng):
        # identity: the squared-difference sum plus the squared-sum term
        # is a fixed multiple of total mass, capping the information at 8
        for g in corpus:
            M = markov_data(g)
            for fixture in random_densities(M, 10, rng):
                assert fixture.fisher_information <= 8.0 + 1e-12

    def test_entropy_nonnegative_zero_iff_uniform(self, corpus, rng):
        for g in corpus[:8]:
            M = markov_data(g)
            assert DensityFixture.of(M, np.ones(g.n), "uniform").entropy == 0.0
            for fixture in random_densities(M, 5, rng):
                assert fixture.entropy >= 0.0

    def test_entropy_handles_zeros(self, g_tri):
        M = markov_data(g_tri)
        rho = np.array([0.0, 2.0, 1.0])
        rho = rho / mean(rho, M.m)
        value = DensityFixture.of(M, rho, "rho").entropy
        assert np.isfinite(value)
        assert value > 0

    def test_dual_pairing_never_beats_entropy(self, g_tri, rng):
        M = markov_data(g_tri)
        for fixture in random_densities(M, 10, rng):
            ent = fixture.entropy
            for _ in range(5):
                f = rng.normal(size=3)
                g_fun = f - np.log(mean(np.exp(f), M.m))  # m(exp g) = 1
                pairing = oracles.entropy_dual_pairing(M, fixture.rho, g_fun)
                assert pairing <= ent + 1e-10

    def test_dual_pairing_attained_at_log_density(self, g_tri, rng):
        M = markov_data(g_tri)
        fixture = random_densities(M, 1, rng)[0]
        pairing = oracles.entropy_dual_pairing(M, fixture.rho, np.log(fixture.rho))
        assert pairing == pytest.approx(fixture.entropy, abs=1e-12)

    def test_dual_pairing_rejects_oversized_witness(self, g_tri):
        M = markov_data(g_tri)
        with pytest.raises(HypothesisUnmetError):
            oracles.entropy_dual_pairing(M, np.ones(3), np.ones(3))


class TestTransportInequalities:
    def test_tri_point_mass_hand_numbers(self, tri_setup):
        M, dm, K = tri_setup
        assert K > 0
        rhos = [DensityFixture.of(M, np.array([0.0, 0.0, 5.0]), "hand")]
        l1 = check_transport_l1_bound(M, dm, K, rhos)
        info = check_transport_information(M, dm, K, rhos)
        ent = check_transport_entropy(M, dm, K, rhos)
        assert l1.passed and info.passed and ent.passed
        # every bound sees the same exact transport cost 6/5
        assert l1.lhs == pytest.approx(1.2, abs=1e-9)
        assert info.lhs == pytest.approx(1.44, abs=1e-9)
        assert ent.lhs == pytest.approx(1.44, abs=1e-9)
        # hand values: edge variation 2, Fisher 4, entropy log 5
        assert l1.rhs == pytest.approx(2.0 / K, abs=1e-9)
        assert info.witness["fisher_information"] == pytest.approx(4.0, abs=1e-12)

    def test_zero_violations_on_corpus(self, corpus, rng):
        for g in corpus[:8]:
            M = markov_data(g)
            dm = distances(g)
            K = curvature_matrix(M, dm).K
            if K <= 0:
                continue
            for fixture in random_densities(M, 8, rng):
                assert check_transport_l1_bound(M, dm, K, [fixture]).passed
                assert check_transport_information(M, dm, K, [fixture]).passed
                assert check_transport_entropy(M, dm, K, [fixture]).passed

    def test_refined_information_branch_binds(self, tri_setup, rng):
        # with I < 8 the refined bound is strictly tighter, so it is the
        # comparison the certificate keeps as its worst case
        M, dm, K = tri_setup
        rhos = random_densities(M, 1, rng)[:1]
        assert rhos[0].fisher_information < 8.0
        cert = check_transport_information(M, dm, K, rhos)
        assert cert.witness["form"] == "refined"

    def test_uniform_density_trivial(self, tri_setup):
        M, dm, K = tri_setup
        uniform = [DensityFixture.of(M, np.ones(3), "uniform")]
        cert = check_transport_entropy(M, dm, K, uniform)
        assert cert.passed
        assert cert.lhs == pytest.approx(0.0, abs=1e-12)

    def test_density_mass_is_held_to_the_transport_tolerance(self, g_k3):
        # m-mass 1 + 5e-11 is off by more than transport.MASS_TOL, which W
        # holds rho m to: the record refuses it up front
        M = markov_data(g_k3)
        rho = (1.0 + 5e-11) * np.ones(3)
        with pytest.raises(HypothesisUnmetError, match="m-mass 1.00000000005"):
            DensityFixture.of(M, rho, "heavy")
        assert DensityFixture.of(M, (1.0 + 1e-13) * np.ones(3), "close").entropy >= 0.0

    @pytest.mark.parametrize("rho", [[1.0, 1.0], [1.0, np.nan, 2.0], [3.0, 0.0, np.inf]])
    def test_density_of_wrong_length_or_not_finite_raises(self, g_k3, rho):
        with pytest.raises(HypothesisUnmetError, match="3 finite numbers"):
            DensityFixture.of(markov_data(g_k3), np.array(rho), "bad")


class TestSampledImplications:
    def test_bobkov_goetze_on_fixtures(self, g_c3, g_tri, rng):
        for g in (g_c3, g_tri):
            M = markov_data(g)
            dm = distances(g)
            K = curvature_matrix(M, dm).K
            rhos = random_densities(M, 20, rng)
            cert = check_bobkov_goetze(M, dm, K, rhos, centered_lipschitz_samples(M, dm, 100, rng))
            assert cert.passed
            assert cert.witness["necessary_conditions_only"] is True

    def test_bobkov_goetze_with_a_tiny_numpy_K_is_vacuous_and_silent(self, g_c3, rng):
        """K = np.float64(2e-310) on C3 (Lambda = 2) makes c = 1e-310, which overflows
        both bounds to inf, as a Python float does, silently."""
        M, dm = markov_data(g_c3), distances(g_c3)
        rhos = random_densities(M, 5, rng)
        fs = centered_lipschitz_samples(M, dm, 10, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = check_bobkov_goetze(M, dm, np.float64(2e-310), rhos, fs)
        assert cert.hypothesis["c"] == 1e-310
        assert cert.passed and cert.rhs == np.inf

    def test_info_to_entropy_on_fixtures(self, g_c3, g_tri, rng):
        for g in (g_c3, g_tri):
            M = markov_data(g)
            dm = distances(g)
            K = curvature_matrix(M, dm).K
            rhos = random_densities(M, 20, rng)
            cert = check_info_to_entropy(M, dm, K, rhos)
            assert cert.passed
            assert cert.witness["hypothesis_met"] <= cert.witness["total"]

    def test_info_to_entropy_passes_vacuously_when_no_density_meets_its_hypothesis(
        self, g_c3, rng
    ):
        """K = 1000 on C_3 shrinks the hypothesis bound I/c^2 below every density's W^2.

        Densities were given, so the check passes at margin 0 and counts
        them; an empty family raises instead (EMPTY_CASES).
        """
        M, dm = markov_data(g_c3), distances(g_c3)
        rhos = random_densities(M, 2, rng)
        cert = check_info_to_entropy(M, dm, 1e3, rhos)
        assert cert.passed and (cert.lhs, cert.rhs, cert.margin) == (0.0, 0.0, 0.0)
        assert cert.witness == {"hypothesis_met": 0, "total": len(rhos)} and rhos

    @pytest.mark.parametrize("K", [0.0, -0.5])
    def test_link_checks_need_positive_K(self, g_c3, rng, K):
        M, dm = markov_data(g_c3), distances(g_c3)
        rhos = random_densities(M, 2, rng)
        fs = centered_lipschitz_samples(M, dm, 5, rng)
        with pytest.raises(HypothesisUnmetError, match="needs K > 0"):
            check_bobkov_goetze(M, dm, K, rhos, fs)
        with pytest.raises(HypothesisUnmetError, match="needs K > 0"):
            check_info_to_entropy(M, dm, K, rhos)


def test_every_suite_certificate_states_the_graphs_Lambda(g_c3, g_tri, rng):
    """The suite's checks read Lambda from dm: each one that states it states dm.lam."""
    for g in (g_c3, g_tri):
        M, dm = markov_data(g), distances(g)
        K = curvature_matrix(M, dm).K
        assert K > 0
        config = RunConfig(function_samples=5, density_samples=3)
        certs = functional_certificates(M, dm, K, config, rng)
        stated = {cert.name: cert.hypothesis["Lambda"] for cert in certs
                  if "Lambda" in cert.hypothesis}
        assert stated == dict.fromkeys(
            ["laplace_moment_bound", "lipschitz_tail_bound", "transport_edge_variation_bound",
             "transport_information_bound", "transport_entropy_bound",
             "information_to_entropy_bound"],
            dm.lam,
        )


# each case empties one sample family or grid of a check that is otherwise valid
EMPTY_CASES = {
    "laplace fs": lambda M, dm, K, fs, rhos: check_laplace_bound(M, dm, K, fs[:0]),
    "laplace lambda_grid": lambda M, dm, K, fs, rhos: check_laplace_bound(
        M, dm, K, fs, lambda_grid=()),
    "tail fs": lambda M, dm, K, fs, rhos: concentration_tail(M, dm, K, fs[:0]),
    "tail r_grid": lambda M, dm, K, fs, rhos: concentration_tail(M, dm, K, fs, r_grid=()),
    "exp chain fs": lambda M, dm, K, fs, rhos: check_exp_chain_rule_bound(M, fs[:0]),
    "exp chain lambda_grid": lambda M, dm, K, fs, rhos: check_exp_chain_rule_bound(
        M, fs, lambda_grid=()),
    "exp square fs": lambda M, dm, K, fs, rhos: check_exp_square_chain_rule_bound(M, fs[:0]),
    "l1 rhos": lambda M, dm, K, fs, rhos: check_transport_l1_bound(M, dm, K, []),
    "information rhos": lambda M, dm, K, fs, rhos: check_transport_information(M, dm, K, []),
    "entropy rhos": lambda M, dm, K, fs, rhos: check_transport_entropy(M, dm, K, []),
    "info-to-entropy rhos": lambda M, dm, K, fs, rhos: check_info_to_entropy(M, dm, K, []),
    "bobkov-goetze fs": lambda M, dm, K, fs, rhos: check_bobkov_goetze(M, dm, K, rhos, fs[:0]),
    "bobkov-goetze rhos": lambda M, dm, K, fs, rhos: check_bobkov_goetze(M, dm, K, [], fs),
    "bobkov-goetze lambda_grid": lambda M, dm, K, fs, rhos: check_bobkov_goetze(
        M, dm, K, rhos, fs, lambda_grid=()),
    "gradient estimate fs": lambda M, dm, K, fs, rhos: verify_gradient_estimate(
        heat_operator(M), dm, K, fs[:0]),
}


@pytest.mark.parametrize("case", list(EMPTY_CASES))
def test_an_empty_family_or_grid_is_an_unmet_hypothesis(tri_setup, rng, case):
    """An empty family or grid certifies nothing: HypothesisUnmetError, from the one reducer."""
    M, dm, K = tri_setup
    fs = centered_lipschitz_samples(M, dm, 4, rng)
    rhos = random_densities(M, 2, rng)
    with pytest.raises(HypothesisUnmetError, match="needs at least one comparison"):
        EMPTY_CASES[case](M, dm, K, fs, rhos)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.floats(0.05, 20.0))
def test_family_checks_are_their_worst_one_sample_check(seed, count, K):
    """One certificate per family: the first one-sample certificate of least margin.

    Same lhs, rhs and margin; passed exactly when every sample passed
    alone; and the witness names that sample, by f_index or by "rho".
    K runs past the curvature of the drawn graph, so both verdicts occur.
    """
    rng = np.random.default_rng(seed)
    g = random_strongly_connected(rng, n_max=5, n_min=2)
    M, dm = markov_data(g), distances(g)
    fs = centered_lipschitz_samples(M, dm, count, rng)
    free_fs = rng.normal(0.0, 2.0, size=(count, g.n))
    rhos = random_densities(M, count, rng)
    # each check with its family, and that family split into families of one
    cases = [
        (functools.partial(concentration_tail, M, dm, K), fs, list(fs)),
        (functools.partial(check_exp_chain_rule_bound, M), free_fs, list(free_fs)),
        (functools.partial(check_exp_square_chain_rule_bound, M), free_fs, list(free_fs)),
    ]
    cases += [
        (functools.partial(check, M, dm, K), rhos, [[rho] for rho in rhos])
        for check in (check_transport_l1_bound, check_transport_information,
                      check_transport_entropy)
    ]
    for check, family, alone in cases:
        together = check(family)
        singles = [check(sample) for sample in alone]
        i = int(np.argmin([cert.margin for cert in singles]))
        worst = singles[i]
        assert (together.lhs, together.rhs, together.margin) == (worst.lhs, worst.rhs, worst.margin)
        assert together.passed == all(cert.passed for cert in singles)
        if family is rhos:
            assert together.witness == worst.witness
            assert together.witness["rho"] == rhos[i].provenance
        else:
            assert together.witness == {**worst.witness, "f_index": i}


def test_functional_suite_checks_each_density_once(tmp_path, lp_solves, monkeypatch, capsys):
    """verify-functional builds one record per density: one density check,
    one two-route Fisher information and one entropy each, while each of
    the five transport checks still solves W(m, rho m) once per density.

    DensityFixture.of_stack is where a density is checked and where its
    I and Ent are computed; DensityFixture.of goes through it too.  So the rows that pass through
    it count the density checks, the Fisher informations and the
    entropies alike, and the whole family passes through in one call.
    A transport check solves its densities' W as one wasserstein table,
    so the W are counted as the LP solves under wasserstein."""
    path = tmp_path / "k4.edges"
    path.write_text("".join(f"{x} {y}\n" for x in range(4) for y in range(4) if x != y),
                    encoding="utf-8")
    counts = dict.fromkeys(("of_stack calls", "density rows"), 0)
    of_stack = DensityFixture.of_stack.__func__

    def counting_of_stack(cls, M, rhos, provenances):
        counts["of_stack calls"] += 1
        counts["density rows"] += len(rhos)
        return of_stack(cls, M, rhos, provenances)

    monkeypatch.setattr(DensityFixture, "of_stack", classmethod(counting_of_stack))
    samples = 7
    argv = ["verify-functional", str(path), "--density-samples", str(samples),
            "--function-samples", "5"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["curvature"]["K"] > 0
    densities = samples + 4
    counts["W solves"] = sum(w for w, _pivots in lp_solves)
    assert counts == {"of_stack calls": 1, "density rows": densities,
                      "W solves": 5 * densities}
