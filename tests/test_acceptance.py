"""End-to-end acceptance gates.

Eight criteria, each printing one verdict line (run with -s to see them
on success).  Heavy per-graph state is shared through session fixtures.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from conftest import SEED
from digricci import (
    centered_lipschitz_samples,
    check_exp_chain_rule_bound,
    check_exp_square_chain_rule_bound,
    check_info_to_entropy,
    check_laplace_bound,
    check_transport_entropy,
    check_transport_information,
    check_transport_l1_bound,
    concentration_tail,
    curvature_matrix,
    curvature_time_limit,
    distances,
    heat_kernel_matrix,
    heat_operator,
    kappa_limit,
    kappa_lp,
    lipschitz_constant,
    markov_data,
    perron_measure,
    random_densities,
    solve_transport,
    transition_kernel,
    verify_gradient_estimate,
    verify_transport_contraction,
    wasserstein,
)
from digricci.heat import TIME_GRID


def verdict(label: str, ok: bool, detail: str) -> bool:
    print(f"\n[{label}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="session")
def bundles(corpus):
    """Curvature, distances, kernels, and heat data for the whole corpus."""
    out = []
    for g in corpus:
        M = markov_data(g)
        dm = distances(g)
        curv = curvature_matrix(M, dm)
        H = heat_operator(M)
        out.append(SimpleNamespace(g=g, M=M, dm=dm, curv=curv, H=H))
    return out


def test_criterion_1_fixture_exactness(g_c3, g_k3, g_tri):
    start = time.perf_counter()
    worst_lp = 0.0
    worst_limit = 0.0
    for g in (g_c3, g_k3):
        M = markov_data(g)
        dm = distances(g)
        for x in range(3):
            for y in range(3):
                if x == y:
                    continue
                (value,), _ = kappa_lp(x, [y], M, dm)
                worst_lp = max(worst_lp, abs(value - 1.5))
                (limit,), _ = kappa_limit(x, [y], M, dm)
                worst_limit = max(worst_limit, abs(limit - 1.5))
    m = perron_measure(transition_kernel(g_tri))
    perron_err = float(np.abs(m - np.array([0.4, 0.4, 0.2])).max())
    elapsed = time.perf_counter() - start
    ok = worst_lp <= 1e-6 and worst_limit <= 1e-4 and perron_err <= 1e-12 and elapsed < 1.0
    assert verdict(
        "criterion 1",
        ok,
        f"kappa = 3/2 on both triangles (lp err {worst_lp:.2e}, "
        f"smoothing err {worst_limit:.2e}), stationary measure err "
        f"{perron_err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_route_equivalence(bundles):
    start = time.perf_counter()
    worst = 0.0
    pairs = 0
    for b in bundles:
        for x in range(b.g.n):
            for y in range(b.g.n):
                if x == y:
                    continue
                (limit,), _ = kappa_limit(x, [y], b.M, b.dm)
                worst = max(worst, abs(b.curv.kappa[x, y] - limit))
                pairs += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 60.0
    assert verdict(
        "criterion 2",
        ok,
        f"lp vs smoothing route within {worst:.2e} on {pairs} ordered pairs "
        f"across 30 graphs, {elapsed:.1f}s",
    )


def test_criterion_3_contraction_certificates(bundles):
    start = time.perf_counter()
    all_pass = True
    sharp_fail = True
    degenerate = 0
    t_min = TIME_GRID[0]
    for b in bundles:
        K = b.curv.K
        pairs = [(x, y) for x in range(b.g.n) for y in range(b.g.n) if x != y]
        # the exact family: the potential f* of each time's binding arc, as analyze takes it
        trans, potentials = verify_transport_contraction(b.H, b.dm, K)
        grad = verify_gradient_estimate(b.H, b.dm, K, potentials)
        all_pass = all_pass and grad.passed and trans.passed

        # sharpness: does some check break at the rate K + 0.1?  At the
        # smallest time of the grid it must when an argmin witness still
        # decays at a rate within 0.05 of K there (the non-degenerate
        # case), so the certificates over the whole grid fail too;
        # otherwise the graph is skipped and counted.
        argmins = [p for p in pairs if abs(b.curv.kappa[p] - K) <= 1e-9]
        nondegenerate = False
        for x, y in argmins:
            f_w = kappa_lp(x, [y], b.M, b.dm)[1][0]
            ratio = lipschitz_constant(
                b.H.apply(t_min, f_w), b.dm
            ) / lipschitz_constant(f_w, b.dm)
            rate = -np.log(ratio) / t_min
            if rate <= K + 0.05:
                nondegenerate = True
                break
        if not nondegenerate:
            degenerate += 1
            continue
        trans_up, potentials_up = verify_transport_contraction(b.H, b.dm, K + 0.1)
        grad_up = verify_gradient_estimate(b.H, b.dm, K + 0.1, potentials_up)
        sharp_fail = sharp_fail and not (grad_up.passed and trans_up.passed)
    elapsed = time.perf_counter() - start
    ok = all_pass and sharp_fail and elapsed < 300.0
    assert verdict(
        "criterion 3",
        ok,
        f"gradient and transport contraction hold at K on 30 graphs and "
        f"break at K + 0.1 on all {30 - degenerate} non-degenerate ones "
        f"({degenerate} degenerate skips), {elapsed:.1f}s",
    )


def test_criterion_4_time_limit(bundles, g_c3, g_tri, g_k3):
    worst = 0.0
    fixture_bundles = []
    for g in (g_c3, g_tri, g_k3):
        M = markov_data(g)
        dm = distances(g)
        fixture_bundles.append(
            SimpleNamespace(g=g, M=M, dm=dm, curv=curvature_matrix(M, dm),
                            H=heat_operator(M))
        )
    for b in fixture_bundles + list(bundles[:10]):
        xs, ys = np.nonzero(~np.eye(b.g.n, dtype=bool))
        limits, _ = curvature_time_limit(b.H, b.dm, xs, ys)
        worst = max(worst, float(np.abs(limits - b.curv.kappa[xs, ys]).max()))
    ok = worst <= 1e-3
    assert verdict(
        "criterion 4",
        ok,
        f"small-time transport quotient reaches the lp curvature within "
        f"{worst:.2e} on fixtures plus 10 random graphs",
    )


def test_criterion_5_concentration(bundles):
    rng = np.random.default_rng(SEED)
    violations = 0
    graphs_checked = 0
    samples_checked = 0
    for b in bundles:
        K = b.curv.K
        if K <= 0:
            continue
        graphs_checked += 1
        fs = centered_lipschitz_samples(b.M, b.dm, 100, rng)
        for f in fs:
            cert = concentration_tail(b.M, b.dm, K, f)
            samples_checked += 1
            if not cert.passed:
                violations += 1
    ok = violations == 0 and graphs_checked > 0
    assert verdict(
        "criterion 5",
        ok,
        f"exact tail masses beat the Gaussian bound on {samples_checked} "
        f"sampled functions over {graphs_checked} positively curved graphs, "
        f"{violations} violations",
    )


def test_criterion_6_functional_suite(bundles):
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    counts = {}
    margins = {}
    skipped = 0

    def record(cert):
        counts[cert.name] = counts.get(cert.name, 0) + (0 if cert.passed else 1)
        margins[cert.name] = min(margins.get(cert.name, np.inf), cert.margin)

    for b in bundles:
        K = b.curv.K
        if K <= 0:
            skipped += 1
            continue
        laplace_fs = centered_lipschitz_samples(b.M, b.dm, 100, rng)
        record(check_laplace_bound(b.M, b.dm, K, laplace_fs))
        free_fs = rng.normal(0.0, 1.0, size=(100, b.g.n))
        for f in free_fs:
            record(check_exp_chain_rule_bound(b.M, f))
            record(check_exp_square_chain_rule_bound(b.M, f))
        rhos = random_densities(b.M, 100, rng)
        for fixture in rhos:
            record(check_transport_l1_bound(b.M, b.dm, K, [fixture]))
            record(check_transport_information(b.M, b.dm, K, [fixture]))
            record(check_transport_entropy(b.M, b.dm, K, [fixture]))
        record(check_info_to_entropy(b.M, b.dm, K, rhos))
    elapsed = time.perf_counter() - start
    total_violations = sum(counts.values())
    margin_log = ", ".join(f"{k}={v:.3g}" for k, v in sorted(margins.items()))
    ok = total_violations == 0 and len(counts) == 7
    assert verdict(
        "criterion 6",
        ok,
        f"{total_violations} violations across {len(counts)} inequality "
        f"families on {30 - skipped} positively curved graphs ({skipped} "
        f"skipped), worst margins: {margin_log}, {elapsed:.1f}s",
    )


def test_criterion_7_transport_soundness(bundles):
    rng = np.random.default_rng(SEED)
    worst_gap = 0.0
    worst_marginal = 0.0
    instances = 0
    # half synthetic costs, half graph distances
    for _ in range(100):
        n = int(rng.integers(2, 8))
        cost = rng.uniform(0.0, 4.0, size=(n, n))
        nu0 = rng.dirichlet(np.ones(n))
        nu1 = rng.dirichlet(np.ones(n))
        sol = solve_transport(cost, nu0, nu1)
        worst_gap = max(worst_gap, sol.duality_gap)
        worst_marginal = max(worst_marginal, sol.marginal_residual)
        instances += 1
    for i in range(100):
        b = bundles[i % len(bundles)]
        nu0 = rng.dirichlet(np.ones(b.g.n))
        nu1 = rng.dirichlet(np.ones(b.g.n))
        sol = solve_transport(b.dm.d, nu0, nu1)
        worst_gap = max(worst_gap, sol.duality_gap)
        worst_marginal = max(worst_marginal, sol.marginal_residual)
        instances += 1

    triangle_ok = True
    for i in range(100):
        b = bundles[i % len(bundles)]
        nus = [rng.dirichlet(np.ones(b.g.n)) for _ in range(3)]
        w02 = wasserstein(nus[0], nus[2], b.dm, verify=True).value
        w01 = wasserstein(nus[0], nus[1], b.dm, verify=True).value
        w12 = wasserstein(nus[1], nus[2], b.dm, verify=True).value
        triangle_ok = triangle_ok and (w02 <= w01 + w12 + 1e-9)

    ok = worst_gap <= 1e-8 and worst_marginal <= 1e-10 and triangle_ok
    assert verdict(
        "criterion 7",
        ok,
        f"{instances} instances: max duality gap {worst_gap:.2e}, max "
        f"marginal residual {worst_marginal:.2e}, directed triangle "
        f"inequality on 100 triples {'held' if triangle_ok else 'FAILED'}",
    )


def test_criterion_8_operator_identities(bundles):
    rng = np.random.default_rng(SEED)
    worst = {"by_parts": 0.0, "semigroup": 0.0, "symmetry": 0.0, "mass": 0.0}
    cases = 0
    for i in range(100):
        b = bundles[i % len(bundles)]
        n = b.g.n
        f0 = rng.normal(size=n)
        f1 = rng.normal(size=n)
        omega = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        report = oracles.check_integration_by_parts(b.M, omega, f0, f1)
        worst["by_parts"] = max(worst["by_parts"], report.max_residual)

        s, t = (float(v) for v in rng.uniform(0.05, 2.0, size=2))
        once = b.H.apply(s + t, f0)
        twice = b.H.apply(s, b.H.apply(t, f0))
        worst["semigroup"] = max(worst["semigroup"], float(np.abs(once - twice).max()))

        rows = heat_kernel_matrix(b.H, t)
        weighted = b.M.m[:, None] * rows
        worst["symmetry"] = max(worst["symmetry"], float(np.abs(weighted - weighted.T).max()))

        worst["mass"] = max(worst["mass"], float(np.abs(rows.sum(axis=1) - 1.0).max()))
        assert (rows >= 0).all()
        cases += 1
    ok = (
        worst["by_parts"] <= 1e-10
        and worst["semigroup"] <= 1e-9
        and worst["symmetry"] <= 1e-10
        and worst["mass"] <= 1e-10
    )
    assert verdict(
        "criterion 8",
        ok,
        f"{cases} cases each: by-parts {worst['by_parts']:.2e}, semigroup "
        f"{worst['semigroup']:.2e}, kernel symmetry {worst['symmetry']:.2e}, "
        f"mass {worst['mass']:.2e}",
    )
