"""Heat semigroup: the series route against its oracles, and the contraction certificates.

The gradient estimate checks the contraction table's potentials f*,
each at its own time.  Kuwada's duality makes that exact: each f* is
integral and 1-Lipschitz, attains its binding arc's W, and
Lip(P_t f*) is the largest arc W, on random graphs and on the
benchmark's graphs; no other time's f* smooths to a larger Lipschitz
constant at t beyond roundoff, and no function of the sampled family
analyze took before (oracles.sampled_gradient_family) has a larger
ratio.  On the bidirected 4-cycle both contraction certificates are
tight at every time: W = exp(-t) on every arc, and K = 1.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import C4_EDGES, random_strongly_connected
from digricci import (
    NegativeTimeError,
    SameVertexError,
    curvature_matrix,
    curvature_time_limit,
    distances,
    heat_kernel_matrix,
    heat_operator,
    kappa_lp,
    lipschitz_constant,
    load_graph,
    markov_data,
    verify_gradient_estimate,
    verify_transport_contraction,
    wasserstein,
)
from digricci.cli import main
from digricci.heat import TIME_GRID

BENCH = Path(__file__).resolve().parent.parent / "bench"


# the times every kernel is pinned at: zero, the least positive float,
# the certificates' grids, and the largest float
EXACTNESS_TIMES = (0.0, 5e-324, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 1e6, 1.7976931348623157e308)


class TestOperator:
    def test_matches_expm_oracle(self, corpus):
        for g in corpus[:10]:
            M = markov_data(g)
            H = heat_operator(M)
            for t in (0.05, 0.7, 3.0):
                ref = oracles.expm_heat(M.Pmean, t)
                assert np.abs(heat_kernel_matrix(H, t) - ref).max() <= 1e-10

    def test_series_route_agrees(self, corpus):
        # the library's uniformized series against the spectral oracle
        for g in corpus[:10]:
            M = markov_data(g)
            H = heat_operator(M)
            for t in (0.1, 1.0):
                assert np.abs(heat_kernel_matrix(H, t) - oracles.spectral_matrix(M, t)).max() <= 1e-12

    def test_c3_closed_form(self, g_c3):
        # every non-constant mode decays at rate exactly 3/2
        M = markov_data(g_c3)
        H = heat_operator(M)
        for t in (0.25, 0.5, 2.0):
            decay = np.exp(-1.5 * t)
            row0 = np.array([1 + 2 * decay, 1 - decay, 1 - decay]) / 3.0
            assert np.abs(heat_kernel_matrix(H, t)[0] - row0).max() <= 1e-14

    def test_time_zero_is_identity(self, g_tri):
        H = heat_operator(markov_data(g_tri))
        assert (heat_kernel_matrix(H, 0.0) == np.eye(3)).all()

    def test_kernels_are_stochastic_exactly(self, corpus):
        """Entries >= 0 and P_0 = I bit for bit, row sums within 1e-14 of 1, at every time."""
        for g in corpus:
            H = heat_operator(markov_data(g))
            for t in EXACTNESS_TIMES:
                kernel = heat_kernel_matrix(H, t)
                assert kernel.min() >= 0.0
                assert np.abs(kernel.sum(axis=1) - 1.0).max() <= 1e-14
            assert (heat_kernel_matrix(H, 0.0) == np.eye(g.n)).all()

    def test_extreme_weights_are_answered(self, tmp_path, capsys):
        """m = (0.5, 5e-301, 0.5): weights 1e-300 and 1e300 side by side.

        A spectral form conjugated by sqrt(m) scales its roundoff by up
        to 1e150 there; the series has no such step, so every command
        answers, and P_0 is the identity.
        """
        path = tmp_path / "extreme.edges"
        path.write_text("0 1 1e-300\n1 2 1e300\n2 0 1\n0 2 1\n", encoding="utf-8")
        for command, *options in (
            ["analyze"], ["heat", "--t", "0.5", "--kernel", "0"], ["perron"], ["curvature"]
        ):
            assert main([command, str(path), *options]) == 0
            capsys.readouterr()
        assert main(["heat", str(path), "--t", "0", "--f", "dirac:0"]) == 0
        assert json.loads(capsys.readouterr().out)["heat_of_f"] == [1, 0, 0]

    def test_negative_time_rejected(self, g_tri):
        H = heat_operator(markov_data(g_tri))
        with pytest.raises(NegativeTimeError):
            H.apply(-0.1, np.zeros(3))

    @pytest.mark.parametrize("t", [float("inf"), float("nan")])
    def test_non_finite_time_rejected(self, g_tri, t):
        H = heat_operator(markov_data(g_tri))
        with pytest.raises(NegativeTimeError, match=f"time must be finite, got {t}"):
            heat_kernel_matrix(H, t)

    def test_spectrum_contract(self, corpus):
        for g in corpus:
            M = markov_data(g)
            _, eigs, _ = oracles.spectral_decomposition(M)
            assert abs(eigs[0]) <= 1e-12
            assert eigs[1] > 1e-12
            assert eigs[-1] <= 2.0 + 1e-12
            assert oracles.spectral_gap(M) == eigs[1]


class TestKernelProperties:
    def test_mass_conservation(self, corpus, rng):
        checked = 0
        for g in corpus:
            H = heat_operator(markov_data(g))
            for t in rng.uniform(0.01, 5.0, size=4):
                kernel = heat_kernel_matrix(H, float(t))
                assert np.abs(kernel.sum(axis=1) - 1.0).max() <= 1e-10
                assert (kernel >= 0).all()
                checked += 1
        assert checked >= 100

    def test_detailed_balance_of_kernel(self, corpus, rng):
        # m(x) p_x^t(y) = m(y) p_y^t(x)
        checked = 0
        for g in corpus:
            M = markov_data(g)
            H = heat_operator(M)
            for t in rng.uniform(0.01, 5.0, size=4):
                kernel = heat_kernel_matrix(H, float(t))
                weighted = M.m[:, None] * kernel
                assert np.abs(weighted - weighted.T).max() <= 1e-10
                checked += 1
        assert checked >= 100

    def test_self_adjoint_pairing(self, corpus, rng):
        checked = 0
        for g in corpus:
            M = markov_data(g)
            H = heat_operator(M)
            for _ in range(4):
                t = float(rng.uniform(0.01, 3.0))
                f0 = rng.normal(size=g.n)
                f1 = rng.normal(size=g.n)
                left = float(np.sum(H.apply(t, f0) * f1 * M.m))
                right = float(np.sum(f0 * H.apply(t, f1) * M.m))
                assert abs(left - right) <= 1e-10
                checked += 1
        assert checked >= 100

    def test_semigroup_law(self, corpus, rng):
        checked = 0
        for g in corpus:
            M = markov_data(g)
            H = heat_operator(M)
            for _ in range(4):
                s, t = rng.uniform(0.05, 2.0, size=2)
                f = rng.normal(size=g.n)
                once = H.apply(float(s + t), f)
                twice = H.apply(float(s), H.apply(float(t), f))
                assert np.abs(once - twice).max() <= 1e-9
                checked += 1
        assert checked >= 100

    def test_kernel_matrix_is_built_once_per_time_and_read_only(self, g_tri):
        H = heat_operator(markov_data(g_tri))
        kernel = heat_kernel_matrix(H, 0.5)
        assert heat_kernel_matrix(H, 0.5) is kernel
        assert heat_kernel_matrix(H, 0.25) is not kernel
        assert not kernel.flags.writeable
        assert heat_kernel_matrix(heat_operator(markov_data(g_tri)), 0.5) is not kernel

    def test_pairing_against_kernel_row(self, g_tri, rng):
        M = markov_data(g_tri)
        H = heat_operator(M)
        for _ in range(20):
            t = float(rng.uniform(0.01, 2.0))
            f = rng.normal(size=3)
            for x in range(3):
                paired = float(heat_kernel_matrix(H, t)[x] @ f)
                assert abs(H.apply(t, f)[x] - paired) <= 1e-10


class TestContractionCertificates:
    def test_gradient_estimate_at_exact_rate(self, g_c3):
        M = markov_data(g_c3)
        dm = distances(g_c3)
        H = heat_operator(M)
        _contraction, potentials = verify_transport_contraction(H, dm, 1.5)
        cert = verify_gradient_estimate(H, dm, 1.5, potentials)
        assert cert.passed
        assert cert.name == "lipschitz_contraction"
        # on the cycle the bound is an equality, so the margin is ~0
        assert abs(cert.margin) <= 1e-12

    def test_gradient_estimate_fails_above_rate(self, g_c3):
        M = markov_data(g_c3)
        dm = distances(g_c3)
        H = heat_operator(M)
        _contraction, potentials = verify_transport_contraction(H, dm, 1.6)
        cert = verify_gradient_estimate(H, dm, 1.6, potentials)
        assert not cert.passed

    def test_transport_contraction_both_sides_of_rate(self, g_c3):
        M = markov_data(g_c3)
        dm = distances(g_c3)
        H = heat_operator(M)
        assert verify_transport_contraction(H, dm, 1.5)[0].passed
        cert, _potentials = verify_transport_contraction(H, dm, 1.6)
        assert not cert.passed
        assert cert.name == "transport_contraction"

    def test_certificate_carries_worst_witness(self, g_tri):
        """The witness names the binding time and that time's own potential."""
        M = markov_data(g_tri)
        dm = distances(g_tri)
        H = heat_operator(M)
        _contraction, potentials = verify_transport_contraction(H, dm, 0.1)
        cert = verify_gradient_estimate(H, dm, 0.1, potentials)
        assert cert.passed
        assert set(cert.witness) == {"t", "f_index", "lip_f"}
        assert cert.witness["f_index"] == TIME_GRID.index(cert.witness["t"])


class TestTimeLimit:
    def test_fixtures_reach_kappa(self, g_c3, g_k3):
        for g, key in ((g_c3, "c3"), (g_k3, "k3")):
            M = markov_data(g)
            dm = distances(g)
            H = heat_operator(M)
            xs, ys = np.nonzero(~np.eye(3, dtype=bool))
            limits, spreads, _ = curvature_time_limit(H, dm, xs, ys)
            assert limits.shape == spreads.shape == (6,)
            assert (np.abs(limits - oracles.HAND[key]["kappa"]) <= 1e-3).all()
            # raw finite-time estimates drift at order t * kappa^2 / 2
            assert (spreads <= 0.05).all()

    def test_matches_lp_on_tri(self, g_tri):
        M = markov_data(g_tri)
        dm = distances(g_tri)
        H = heat_operator(M)
        for x in range(3):
            for y in range(3):
                if x != y:
                    (value,), _, _ = kappa_lp(x, [y], M, dm)
                    (limit,), _, _ = curvature_time_limit(H, dm, [x], [y])
                    assert abs(limit - value) <= 1e-3

    def test_kappa_started_chains_move_w_by_roundoff_only(self, corpus):
        """Started from the arcs' kappa optima instead of BFS trees, each arc's W moves by roundoff.

        The bases differ, so W may differ in its last bits; the heat
        limit divides that by t and extrapolates, and the contraction
        margin takes it as it is.
        """
        for g in corpus[:8]:
            M, dm = markov_data(g), distances(g)
            H = heat_operator(M)
            kappa = curvature_matrix(M, dm).arc_starts
            xs, ys = dm.arcs.T
            limits = [np.array(curvature_time_limit(H, dm, xs, ys, starts)[:2])
                      for starts in (None, kappa)]
            assert np.abs(np.subtract(*limits)).max() <= 1e-9
            certs = [verify_transport_contraction(H, dm, 0.1, starts=starts)[0]
                     for starts in (None, kappa)]
            assert certs[0].passed == certs[1].passed
            assert abs(certs[0].margin - certs[1].margin) <= 1e-14

    def test_a_pair_needs_two_vertices(self, g_tri):
        H, dm = heat_operator(markov_data(g_tri)), distances(g_tri)
        with pytest.raises(SameVertexError):
            curvature_time_limit(H, dm, [0, 1], [1, 1])


def exact_family(g):
    """analyze's set-up on g and the contraction's f*.

    As in analyze, each arc's W chain runs from its kappa optimum
    through the small-time limit's times to the contraction's.
    """
    M, dm = markov_data(g), distances(g)
    H = heat_operator(M)
    tails, heads = dm.arcs.T
    kappa = [start for x in range(g.n) for start in kappa_lp(x, heads[tails == x], M, dm)[2]]
    starts = curvature_time_limit(H, dm, tails, heads, kappa)[2]
    _certificate, potentials = verify_transport_contraction(H, dm, 0.0, starts=starts)
    return H, dm, potentials


def family_ratios(H, dm, fs) -> np.ndarray:
    """Lip(P_t f) / Lip(f) of each f of fs (0 for a constant f), one row per time of TIME_GRID."""
    lip_fs = lipschitz_constant(fs, dm)
    return np.array([
        np.divide(lipschitz_constant(H.apply(t, fs), dm), lip_fs, out=np.zeros(len(fs)),
                  where=lip_fs > 0)
        for t in TIME_GRID
    ])


def assert_kuwada_duality(g) -> None:
    """Each f*_t is integral and 1-Lipschitz, attains the largest arc W_t, and Lip(P_t f*_t) = W_t.

    The arc W are solved apart, as a table from BFS trees, not from
    the small-time limit's optima the contraction table starts from.  The
    gradient estimate's lhs at each time, the family's largest ratio,
    is that W too.
    """
    H, dm, potentials = exact_family(g)
    tails, heads = dm.arcs.T
    kernels = np.stack([heat_kernel_matrix(H, t) for t in TIME_GRID])
    w = wasserstein(kernels[:, tails], kernels[:, heads], dm, verify=False).values
    largest = w.max(axis=1)
    assert potentials.shape == (len(TIME_GRID), g.n)
    for f, kernel, w_t, top in zip(potentials, kernels, w, largest):
        assert (f == f.round()).all()
        assert (f[heads] - f[tails] <= 1.0).all()
        paired = (kernel[heads] - kernel[tails]) @ f
        assert (paired <= w_t + 1e-12).all()
        # f* attains W on some arcs, and among them on one of the largest W
        attained = np.abs(paired - w_t) <= 1e-12
        assert abs(w_t[attained].max(initial=-np.inf) - top) <= 1e-12
    lips = [lipschitz_constant(H.apply(t, f), dm) for t, f in zip(TIME_GRID, potentials)]
    assert np.abs(np.array(lips) - largest).max() <= 1e-12
    assert np.abs(family_ratios(H, dm, potentials).max(axis=1) - largest).max() <= 1e-12
    # the gradient estimate smooths f*_i at t_i alone: another time's f*_j may reach
    # Lip(P_t_i f*_i) there, but never exceeds it beyond roundoff
    smoothed = np.array([lipschitz_constant(H.apply(t, potentials), dm) for t in TIME_GRID])
    assert (smoothed <= np.diag(smoothed)[:, None] + 1e-12).all()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_the_contraction_potentials_attain_the_lipschitz_sup(seed):
    assert_kuwada_duality(random_strongly_connected(np.random.default_rng(seed), n_min=2))


def test_the_contraction_potentials_attain_the_lipschitz_sup_on_the_bench_graphs(monkeypatch):
    """The 44 graphs of the benchmark's four workloads at seeds 1-4."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    graphs = [graph for name in ("analyze_dense", "analyze_sparse", "curvature_sparse", "queries")
              for seed in (1, 2, 3, 4) for graph in workloads.build(name, seed).graphs]
    assert len(graphs) == 44
    for graph in graphs:
        assert_kuwada_duality(load_graph(graph.text()))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(2618963476)
def test_the_exact_family_bounds_every_sampled_ratio(seed):
    """At each time the exact lhs W_t bounds every ratio of the 200 scaled samples and witnesses.

    It is checked undivided, Lip(P_t f) <= W_t Lip(f), to within
    1e-13 |f|_inf: the rounding of P_t f, and of W_t Lip(f), scales
    with the size of f, not with 1 / Lip(f).  At n <= 7 it is below
    about (2n + 4n(n - 1)) eps |f|_inf = 4e-14 |f|_inf.  Divided, a
    sample of Lip f = 1.7e-4 and |f|_inf = 2.5 on K_2 (the example)
    turned a 3.9e-16 rounding into a 2.3e-12 excess of the ratio.
    """
    rng = np.random.default_rng(seed)
    g = random_strongly_connected(rng, n_min=2)
    H, dm, potentials = exact_family(g)
    exact = family_ratios(H, dm, potentials).max(axis=1)
    fs = oracles.sampled_gradient_family(markov_data(g), dm, rng)
    lip_fs, rounding = lipschitz_constant(fs, dm), 1e-13 * np.abs(fs).max(axis=1)
    for t, top in zip(TIME_GRID, exact.tolist()):
        assert (lipschitz_constant(H.apply(t, fs), dm) <= top * lip_fs + rounding).all()


def test_the_4_cycle_contracts_at_exactly_exp_minus_t(tmp_path, capsys):
    """On C4, K = 1 and every arc has W(p_x_t, p_y_t) = exp(-t) at every time of TIME_GRID.

    Each time's Lip(P_t f*_t) is exp(-t) too, so both contraction
    certificates are tight at every time: analyze at a rate 1e-6 above
    K fails both, at t = 1 by exp(-1) 1e-6, and 1e-6 below passes both,
    at t = 0.01 by exp(-0.01) 1e-8.
    """
    g = load_graph(C4_EDGES)
    M, dm = markov_data(g), distances(g)
    H = heat_operator(M)
    assert curvature_matrix(M, dm).K == 1.0
    tails, heads = dm.arcs.T
    kernels = np.stack([heat_kernel_matrix(H, t) for t in TIME_GRID])
    w = wasserstein(kernels[:, tails], kernels[:, heads], dm, verify=False).values
    decay = np.exp(-np.asarray(TIME_GRID))
    assert np.abs(w - decay[:, None]).max() <= 1e-15
    _certificate, potentials = verify_transport_contraction(H, dm, 1.0)
    lips = [lipschitz_constant(H.apply(t, f), dm) for t, f in zip(TIME_GRID, potentials)]
    assert np.abs(np.array(lips) - decay).max() <= 1e-15

    path = tmp_path / "c4.edges"
    path.write_text(C4_EDGES, encoding="utf-8")
    for rate, code, margin in (("1.000001", 1, -np.exp(-1.0) * 1e-6),
                               ("0.999999", 0, np.exp(-0.01) * 1e-8)):
        argv = ["analyze", str(path), "--k-override", rate, "--certificate-tol", "1e-12"]
        assert main(argv) == code
        report = json.loads(capsys.readouterr().out)
        certificates = {cert["name"]: cert for cert in report["certificates"]}
        for name in ("lipschitz_contraction", "transport_contraction"):
            assert certificates[name]["pass"] is (code == 0)
            assert abs(certificates[name]["margin"] - margin) <= 1e-3 * abs(margin)
