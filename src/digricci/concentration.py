"""Concentration and transportation inequalities under a curvature bound.

With K = min over ordered pairs of kappa(x, y) and Lambda the largest
symmetrised distance to a neighbour, positive K forces Gaussian-type
behaviour of the stationary measure: exponential moments of centred
1-Lipschitz functions obey m(exp(lam f)) <= exp(lam^2 Lambda^2 / 4K),
tails decay like exp(-K r^2 / Lambda^2), and the transport distance
from m to any perturbed density rho m is controlled by the total
variation of rho along edges, by the Fisher information, and by the
relative entropy.  Every statement here is certified numerically on
sampled functions and densities; certificates carry the binding sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transport
from .certificates import DEFAULT_TOL, InequalityCertificate, certificate_from_samples
from .chain import MarkovData, gamma, inner, mean
from .digraph import DistanceMatrix, lipschitz_constant, sample_lipschitz_functions
from .errors import HypothesisUnmetError, NotLipschitzError

# slack granted when validating that a sampled function is 1-Lipschitz
LIPSCHITZ_SLACK = 1e-12
# the two carre-du-champ routes to the Fisher information must agree this well
FISHER_CROSSCHECK_TOL = 1e-12
# default exponential-moment grid
DEFAULT_LAMBDA_GRID = (0.5, 1.0, 2.0)
# default tail radii
DEFAULT_R_GRID = tuple(0.25 * k for k in range(1, 13))


@dataclass(frozen=True)
class DensityFixture:
    """A probability density rho relative to m, with its provenance."""

    rho: np.ndarray
    provenance: str


def random_densities(
    M: MarkovData,
    count: int,
    rng: np.random.Generator,
    include_point_masses: bool = True,
) -> list[DensityFixture]:
    """Positive random densities normalised to m(rho) = 1.

    Draws i.i.d. positive entries and rescales; the extremal point-mass
    densities delta_x / m(x) are appended because they bind most of the
    transport inequalities hardest.
    """
    out = []
    n = M.n
    for i in range(count):
        g = rng.gamma(shape=2.0, scale=1.0, size=n) + 1e-3
        out.append(DensityFixture(rho=g / mean(g, M.m), provenance=f"random[{i}]"))
    if include_point_masses:
        for x in range(n):
            rho = np.zeros(n)
            rho[x] = 1.0 / M.m[x]
            out.append(DensityFixture(rho=rho, provenance=f"point_mass[{x}]"))
    return out


def centered_lipschitz_samples(
    M: MarkovData, dm: DistanceMatrix, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Mean-zero 1-Lipschitz functions for exponential-moment bounds.

    Mixes the random min-of-anchored-distances family with the extreme
    rays d(a, .) and -d(., a) for every anchor a, then recentres each
    sample to m-mean zero (which leaves the Lipschitz constant alone).
    """
    n = dm.d.shape[0]
    rays = [dm.d[a].astype(float) for a in range(n)]
    rays += [-dm.d[:, a].astype(float) for a in range(n)]
    fs = [np.asarray(r) for r in rays]
    if count > len(fs):
        fs.extend(sample_lipschitz_functions(dm, count - len(fs), rng))
    fs = np.asarray(fs[:count])
    return fs - (fs * M.m).sum(axis=1, keepdims=True)


def _require_positive_K(K: float) -> None:
    if K <= 0:
        raise HypothesisUnmetError(f"certificate needs K > 0, got K = {K}")


def _require_density(M: MarkovData, rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=float)
    if rho.min(initial=0.0) < 0:
        raise HypothesisUnmetError("density has a negative entry")
    total = mean(rho, M.m)
    if abs(total - 1.0) > 1e-10:
        raise HypothesisUnmetError(f"density has m-mass {total:.17g}, expected 1")
    return rho


def laplace_lower_bound(
    M: MarkovData,
    dm: DistanceMatrix,
    lam: float,
    samples: int,
    rng: np.random.Generator,
) -> float:
    """Best sampled value of m(exp(lam f)) over centred 1-Lipschitz f.

    A lower bound for the true Laplace functional; the certified upper
    bound lives in check_laplace_bound.
    """
    fs = centered_lipschitz_samples(M, dm, samples, rng)
    return float(max(mean(np.exp(lam * f), M.m) for f in fs))


def check_laplace_bound(
    M: MarkovData,
    dm: DistanceMatrix,
    K: float,
    lam_max: float,
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID,
    samples: int = 100,
    rng: np.random.Generator | None = None,
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """m(exp(lam f)) <= exp(lam^2 Lambda^2 / 4K) on sampled centred f."""
    _require_positive_K(K)
    rng = rng if rng is not None else np.random.default_rng(0)
    fs = centered_lipschitz_samples(M, dm, samples, rng)
    comparisons = []
    for lam in lambda_grid:
        # a small K overflows the bound to inf: vacuous, and correct
        with np.errstate(over="ignore"):
            bound = float(np.exp(lam * lam * lam_max * lam_max / (4.0 * K)))
        for i, f in enumerate(fs):
            comparisons.append(
                (mean(np.exp(lam * f), M.m), bound, {"lambda": lam, "f_index": i})
            )
    return certificate_from_samples(
        "laplace_moment_bound",
        {"K": K, "Lambda": lam_max, "lambda_grid": list(lambda_grid), "samples": len(fs)},
        comparisons,
        tol,
    )


def check_exp_chain_rule_bound(
    M: MarkovData, f: np.ndarray, lam: float, tol: float = 1e-10
) -> InequalityCertificate:
    """m(Gamma(f, exp(lam f))) <= lam (exp(lam f), Gamma(f))."""
    if lam < 0:
        raise HypothesisUnmetError(f"lambda must be non-negative, got {lam}")
    f = np.asarray(f, dtype=float)
    ef = np.exp(lam * f)
    lhs = mean(gamma(f, ef, M), M.m)
    rhs = lam * inner(ef, gamma(f, f, M), M.m)
    return certificate_from_samples(
        "exp_chain_rule_bound", {"lambda": lam}, [(lhs, rhs, {})], tol
    )


def check_exp_square_chain_rule_bound(
    M: MarkovData, f: np.ndarray, tol: float = 1e-10
) -> InequalityCertificate:
    """m(Gamma(exp f)) <= (exp 2f, Gamma(f))."""
    f = np.asarray(f, dtype=float)
    ef = np.exp(f)
    lhs = mean(gamma(ef, ef, M), M.m)
    rhs = inner(np.exp(2.0 * f), gamma(f, f, M), M.m)
    return certificate_from_samples(
        "exp_square_chain_rule_bound", {}, [(lhs, rhs, {})], tol
    )


def concentration_tail(
    M: MarkovData,
    dm: DistanceMatrix,
    K: float,
    lam_max: float,
    f: np.ndarray,
    r_grid: tuple[float, ...] = DEFAULT_R_GRID,
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """Exact tail mass m({f >= m(f) + r}) against exp(-K r^2 / Lambda^2)."""
    _require_positive_K(K)
    f = np.asarray(f, dtype=float)
    lip = lipschitz_constant(f, dm)
    if lip > 1.0 + LIPSCHITZ_SLACK:
        raise NotLipschitzError(f"tail bound needs Lip f <= 1, got {lip:.17g}")
    mu_f = mean(f, M.m)
    comparisons = []
    for r in r_grid:
        tail = float(M.m[f >= mu_f + r].sum())
        bound = float(np.exp(-K * r * r / (lam_max * lam_max)))
        comparisons.append((tail, bound, {"r": r}))
    return certificate_from_samples(
        "lipschitz_tail_bound", {"K": K, "Lambda": lam_max}, comparisons, tol
    )


def fisher_information(M: MarkovData, rho: np.ndarray) -> float:
    """I(rho) = 4 m(Gamma(sqrt rho)) = 2 sum (sqrt rho(y) - sqrt rho(x))^2 m_xy.

    Both routes are evaluated; disagreement past FISHER_CROSSCHECK_TOL
    means the edge weights and the mean kernel fell out of sync.
    """
    rho = _require_density(M, rho)
    s = np.sqrt(rho)
    via_gamma = 4.0 * mean(gamma(s, s, M), M.m)
    ds = s[None, :] - s[:, None]
    via_edges = 2.0 * float((ds * ds * M.mxy).sum())
    if abs(via_gamma - via_edges) > FISHER_CROSSCHECK_TOL * max(1.0, abs(via_edges)):
        raise HypothesisUnmetError(
            f"Fisher information routes disagree: {via_gamma:.17g} vs {via_edges:.17g}"
        )
    return via_edges


def relative_entropy(M: MarkovData, rho: np.ndarray) -> float:
    """Ent(rho) = m(rho log rho) with 0 log 0 = 0."""
    rho = _require_density(M, rho)
    terms = np.zeros_like(rho)
    positive = rho > 0
    terms[positive] = rho[positive] * np.log(rho[positive])
    return mean(terms, M.m)


def entropy_dual_pairing(M: MarkovData, rho: np.ndarray, g: np.ndarray) -> float:
    """(g, rho) for a test function with m(exp g) <= 1; lower-bounds the entropy."""
    g = np.asarray(g, dtype=float)
    if mean(np.exp(g), M.m) > 1.0 + 1e-12:
        raise HypothesisUnmetError("dual pairing needs m(exp g) <= 1")
    return inner(g, np.asarray(rho, dtype=float), M.m)


def _edge_variation(M: MarkovData, rho: np.ndarray) -> float:
    """sum over ordered pairs of |rho(y) - rho(x)| m_xy."""
    diff = np.abs(rho[None, :] - rho[:, None])
    return float((diff * M.mxy).sum())


def check_transport_l1_bound(
    M: MarkovData,
    dm: DistanceMatrix,
    K: float,
    lam_max: float,
    rho: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """W(m, rho m) <= (Lambda / 2K) sum |rho(y) - rho(x)| m_xy."""
    _require_positive_K(K)
    rho = _require_density(M, rho)
    plan = transport.wasserstein(M.m, rho * M.m, dm, verify=False)
    rhs = lam_max / (2.0 * K) * _edge_variation(M, rho)
    return certificate_from_samples(
        "transport_edge_variation_bound",
        {"K": K, "Lambda": lam_max},
        [(plan.value, rhs, {"W": plan.value})],
        tol,
    )


def check_transport_information(
    M: MarkovData,
    dm: DistanceMatrix,
    K: float,
    lam_max: float,
    rho: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """W(m, rho m)^2 against the Fisher information.

    The refined bound (Lambda^2 / 2K^2) I (1 - I/8) is checked whenever
    I <= 8 (the normalisation forces that in exact arithmetic) and the
    relaxed bound (Lambda^2 / 2K^2) I always.
    """
    _require_positive_K(K)
    rho = _require_density(M, rho)
    plan = transport.wasserstein(M.m, rho * M.m, dm, verify=False)
    w2 = plan.value * plan.value
    info = fisher_information(M, rho)
    # K * K underflows to 0 for a tiny K: the bound is inf, vacuous and correct
    with np.errstate(divide="ignore", over="ignore"):
        factor = float(np.float64(lam_max * lam_max) / (2.0 * K * K))
    comparisons = [(w2, factor * info, {"fisher_information": info, "form": "relaxed"})]
    if info <= 8.0:
        comparisons.append(
            (w2, factor * info * (1.0 - info / 8.0), {"fisher_information": info, "form": "refined"})
        )
    return certificate_from_samples(
        "transport_information_bound", {"K": K, "Lambda": lam_max}, comparisons, tol
    )


def check_transport_entropy(
    M: MarkovData,
    dm: DistanceMatrix,
    K: float,
    lam_max: float,
    rho: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """W(m, rho m)^2 <= (2 Lambda^2 / K) Ent(rho)."""
    _require_positive_K(K)
    rho = _require_density(M, rho)
    plan = transport.wasserstein(M.m, rho * M.m, dm, verify=False)
    w2 = plan.value * plan.value
    rhs = 2.0 * lam_max * lam_max / K * relative_entropy(M, rho)
    return certificate_from_samples(
        "transport_entropy_bound",
        {"K": K, "Lambda": lam_max},
        [(w2, rhs, {"W": plan.value})],
        tol,
    )


def check_bobkov_goetze(
    M: MarkovData,
    dm: DistanceMatrix,
    c: float,
    rhos: list[DensityFixture],
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID,
    fs: np.ndarray | None = None,
    samples: int = 100,
    rng: np.random.Generator | None = None,
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """Sample-level link between the Laplace bound and transport-entropy.

    The two properties

        (moment)     m(exp(lam f)) <= exp(lam^2 / 2c) for centred Lip-1 f
        (transport)  W(m, rho m)^2 <= (2/c) Ent(rho)  for densities rho

    hold together or fail together.  On samples only necessary
    conditions are visible, so the certificate checks both implications:
    whenever one side holds on every sample, the other must too.  The
    witness records which sides held, with their worst margins.
    """
    if c <= 0:
        raise HypothesisUnmetError(f"equivalence check needs c > 0, got {c}")
    rng = rng if rng is not None else np.random.default_rng(0)
    if fs is None:
        fs = centered_lipschitz_samples(M, dm, samples, rng)

    moment_worst = None
    for lam in lambda_grid:
        # a small c overflows the bound to inf: vacuous, and correct
        with np.errstate(over="ignore"):
            bound = float(np.exp(lam * lam / (2.0 * c)))
        for i, f in enumerate(fs):
            value = mean(np.exp(lam * f), M.m)
            entry = (value, bound, {"side": "moment", "lambda": lam, "f_index": i})
            if moment_worst is None or entry[1] - entry[0] < moment_worst[1] - moment_worst[0]:
                moment_worst = entry
    moment_holds = moment_worst[1] - moment_worst[0] >= -tol

    transport_worst = None
    for fixture in rhos:
        rho = _require_density(M, fixture.rho)
        plan = transport.wasserstein(M.m, rho * M.m, dm, verify=False)
        w2 = plan.value * plan.value
        rhs = 2.0 / c * relative_entropy(M, rho)
        entry = (w2, rhs, {"side": "transport", "rho": fixture.provenance})
        if transport_worst is None or entry[1] - entry[0] < transport_worst[1] - transport_worst[0]:
            transport_worst = entry
    transport_holds = transport_worst[1] - transport_worst[0] >= -tol

    # an implication is informative only when its hypothesis held
    if moment_holds and transport_holds:
        lhs, rhs, witness = max(
            (moment_worst, transport_worst), key=lambda e: e[0] - e[1]
        )
        passed = True
    elif moment_holds and not transport_holds:
        lhs, rhs, witness = transport_worst
        passed = False
    elif transport_holds and not moment_holds:
        lhs, rhs, witness = moment_worst
        passed = False
    else:
        lhs, rhs, witness = 0.0, 0.0, {"side": "none"}
        passed = True
    witness = dict(witness)
    witness.update(
        {
            "moment_holds_on_samples": moment_holds,
            "transport_holds_on_samples": transport_holds,
            "moment_worst_margin": float(moment_worst[1] - moment_worst[0]),
            "transport_worst_margin": float(transport_worst[1] - transport_worst[0]),
            "necessary_conditions_only": True,
        }
    )
    return InequalityCertificate(
        name="transport_entropy_laplace_link",
        hypothesis={"c": c, "lambda_grid": list(lambda_grid)},
        lhs=float(lhs),
        rhs=float(rhs),
        margin=float(rhs - lhs),
        passed=bool(passed),
        tol=tol,
        witness=witness,
    )


def check_info_to_entropy(
    M: MarkovData,
    dm: DistanceMatrix,
    c: float,
    lam_max: float,
    rhos: list[DensityFixture],
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """If W^2 <= I(rho)/c^2 on a sample, then W^2 <= (sqrt 2 Lambda / c) Ent(rho).

    Samples failing the hypothesis are skipped and counted; the verdict
    covers only those where the hypothesis held.
    """
    if c <= 0:
        raise HypothesisUnmetError(f"implication check needs c > 0, got {c}")
    comparisons = []
    hypothesis_met = 0
    for fixture in rhos:
        rho = _require_density(M, fixture.rho)
        plan = transport.wasserstein(M.m, rho * M.m, dm, verify=False)
        w2 = plan.value * plan.value
        info = fisher_information(M, rho)
        # an extreme c over- or underflows c * c: the hypothesis bound is 0 or inf
        with np.errstate(divide="ignore", over="ignore"):
            if w2 > info / (c * c) + tol:
                continue
            rhs = float(np.sqrt(2.0) * lam_max / c * relative_entropy(M, rho))
        hypothesis_met += 1
        comparisons.append((w2, rhs, {"rho": fixture.provenance}))
    if not comparisons:
        certificate = InequalityCertificate(
            name="information_to_entropy_bound",
            hypothesis={"c": c, "Lambda": lam_max},
            lhs=0.0,
            rhs=0.0,
            margin=0.0,
            passed=True,
            tol=tol,
            witness={"hypothesis_met": 0, "total": len(rhos)},
        )
        return certificate
    certificate = certificate_from_samples(
        "information_to_entropy_bound", {"c": c, "Lambda": lam_max}, comparisons, tol
    )
    certificate.witness.update({"hypothesis_met": hypothesis_met, "total": len(rhos)})
    return certificate
