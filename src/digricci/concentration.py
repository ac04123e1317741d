"""Concentration and transportation inequalities under a curvature bound.

With K = min over ordered pairs of kappa(x, y) and Lambda the largest
symmetrised distance to a neighbour, positive K forces Gaussian-type
behaviour of the stationary measure: exponential moments of centred
1-Lipschitz functions obey m(exp(lam f)) <= exp(lam^2 Lambda^2 / 4K),
tails decay like exp(-K r^2 / Lambda^2), and the transport distance
from m to any perturbed density rho m is controlled by the total
variation of rho along edges, by the Fisher information, and by the
relative entropy.  Every statement here is certified numerically on a
sample family: a stack of functions, the vertex on the last axis (a 1-D
f is a family of one), or a list of DensityFixture.  Each check returns
one certificate whose witness names the binding sample, by f_index or
by the density's provenance under "rho".

DensityFixture.of(M, rho, provenance) checks rho and computes rho m,
Ent(rho), I(rho) and the edge variation once; the transport checks read
those fields and solve only W(m, rho m) themselves, in fast mode.
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
    """A probability density rho relative to m, checked once, with what the suite reads of it.

    Build one with DensityFixture.of(M, rho, provenance): it checks rho
    and fills measure = rho m, the relative entropy Ent(rho), the Fisher
    information I(rho) and the edge variation sum |rho(y) - rho(x)| m_xy.
    """

    rho: np.ndarray
    provenance: str
    measure: np.ndarray
    entropy: float
    fisher_information: float
    edge_variation: float

    @classmethod
    def of(cls, M: MarkovData, rho: np.ndarray, provenance: str) -> DensityFixture:
        """The record of rho; HypothesisUnmetError unless rho is a density for m."""
        rho = _require_density(M, rho)
        diff = np.abs(rho[None, :] - rho[:, None])
        return cls(
            rho=rho,
            provenance=provenance,
            measure=rho * M.m,
            entropy=_relative_entropy(M, rho),
            fisher_information=_fisher_information(M, rho),
            edge_variation=float((diff * M.mxy).sum()),
        )


def random_densities(
    M: MarkovData,
    count: int,
    rng: np.random.Generator,
) -> list[DensityFixture]:
    """count positive random densities normalised to m(rho) = 1, then n point masses.

    Draws i.i.d. positive entries and rescales; the extremal point-mass
    densities delta_x / m(x) are appended because they bind most of the
    transport inequalities hardest.
    """
    out = []
    n = M.n
    for i in range(count):
        g = rng.gamma(shape=2.0, scale=1.0, size=n) + 1e-3
        out.append(DensityFixture.of(M, g / mean(g, M.m), f"random[{i}]"))
    for x in range(n):
        rho = np.zeros(n)
        rho[x] = 1.0 / M.m[x]
        out.append(DensityFixture.of(M, rho, f"point_mass[{x}]"))
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
    """rho as floats, or HypothesisUnmetError unless it is a probability density for m.

    The m-mass is held to transport.MASS_TOL, the tolerance W holds rho m to.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (M.n,) or not np.isfinite(rho).all():
        raise HypothesisUnmetError(f"density must be {M.n} finite numbers")
    if rho.min(initial=0.0) < 0:
        raise HypothesisUnmetError("density has a negative entry")
    total = mean(rho, M.m)
    if abs(total - 1.0) > transport.MASS_TOL:
        raise HypothesisUnmetError(f"density has m-mass {total:.17g}, expected 1")
    return rho


def _stack(fs: np.ndarray) -> np.ndarray:
    """A family of functions, the vertex on the last axis; a 1-D f is a family of one."""
    return np.atleast_2d(np.asarray(fs, dtype=float))


def check_laplace_bound(
    M: MarkovData,
    dm: DistanceMatrix,
    K: float,
    lam_max: float,
    fs: np.ndarray,
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID,
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """m(exp(lam f)) <= exp(lam^2 Lambda^2 / 4K) on the centred functions fs."""
    _require_positive_K(K)
    fs = _stack(fs)
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
    M: MarkovData,
    fs: np.ndarray,
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID,
    tol: float = 1e-10,
) -> InequalityCertificate:
    """m(Gamma(f, exp(lam f))) <= lam (exp(lam f), Gamma(f)) for each f and lam."""
    lambda_grid = list(lambda_grid)
    if min(lambda_grid) < 0:
        raise HypothesisUnmetError(f"lambda must be non-negative, got {min(lambda_grid)}")
    fs = _stack(fs)
    comparisons = []
    for i, f in enumerate(fs):
        gamma_f = gamma(f, f, M)
        for lam in lambda_grid:
            ef = np.exp(lam * f)
            lhs = mean(gamma(f, ef, M), M.m)
            rhs = lam * inner(ef, gamma_f, M.m)
            comparisons.append((lhs, rhs, {"f_index": i, "lambda": lam}))
    hypothesis = {"lambda_grid": lambda_grid, "samples": len(fs)}
    return certificate_from_samples("exp_chain_rule_bound", hypothesis, comparisons, tol)


def check_exp_square_chain_rule_bound(
    M: MarkovData, fs: np.ndarray, tol: float = 1e-10
) -> InequalityCertificate:
    """m(Gamma(exp f)) <= (exp 2f, Gamma(f)) for each f."""
    fs = _stack(fs)
    comparisons = []
    for i, f in enumerate(fs):
        ef = np.exp(f)
        lhs = mean(gamma(ef, ef, M), M.m)
        rhs = inner(np.exp(2.0 * f), gamma(f, f, M), M.m)
        comparisons.append((lhs, rhs, {"f_index": i}))
    return certificate_from_samples(
        "exp_square_chain_rule_bound", {"samples": len(fs)}, comparisons, tol
    )


def concentration_tail(
    M: MarkovData,
    dm: DistanceMatrix,
    K: float,
    lam_max: float,
    fs: np.ndarray,
    r_grid: tuple[float, ...] = DEFAULT_R_GRID,
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """Exact tail masses m({f >= m(f) + r}) against exp(-K r^2 / Lambda^2)."""
    _require_positive_K(K)
    fs = _stack(fs)
    bounds = [float(np.exp(-K * r * r / (lam_max * lam_max))) for r in r_grid]
    comparisons = []
    for i, (f, lip) in enumerate(zip(fs, lipschitz_constant(fs, dm).tolist())):
        if lip > 1.0 + LIPSCHITZ_SLACK:
            raise NotLipschitzError(f"tail bound needs Lip f <= 1, got {lip:.17g} at f_index {i}")
        mu_f = mean(f, M.m)
        comparisons += [
            (float(M.m[f >= mu_f + r].sum()), bound, {"f_index": i, "r": r})
            for r, bound in zip(r_grid, bounds)
        ]
    hypothesis = {"K": K, "Lambda": lam_max, "samples": len(fs)}
    return certificate_from_samples("lipschitz_tail_bound", hypothesis, comparisons, tol)


def _fisher_information(M: MarkovData, rho: np.ndarray) -> float:
    s = np.sqrt(rho)
    via_gamma = 4.0 * mean(gamma(s, s, M), M.m)
    ds = s[None, :] - s[:, None]
    via_edges = 2.0 * float((ds * ds * M.mxy).sum())
    if abs(via_gamma - via_edges) > FISHER_CROSSCHECK_TOL * max(1.0, abs(via_edges)):
        raise HypothesisUnmetError(
            f"Fisher information routes disagree: {via_gamma:.17g} vs {via_edges:.17g}"
        )
    return via_edges


def _relative_entropy(M: MarkovData, rho: np.ndarray) -> float:
    terms = np.zeros_like(rho)
    positive = rho > 0
    terms[positive] = rho[positive] * np.log(rho[positive])
    return mean(terms, M.m)


def fisher_information(M: MarkovData, rho: np.ndarray) -> float:
    """I(rho) = 4 m(Gamma(sqrt rho)) = 2 sum (sqrt rho(y) - sqrt rho(x))^2 m_xy.

    Both routes are evaluated; disagreement past FISHER_CROSSCHECK_TOL
    means the edge weights and the mean kernel fell out of sync.
    """
    return _fisher_information(M, _require_density(M, rho))


def relative_entropy(M: MarkovData, rho: np.ndarray) -> float:
    """Ent(rho) = m(rho log rho) with 0 log 0 = 0."""
    return _relative_entropy(M, _require_density(M, rho))


def _transports(M: MarkovData, dm: DistanceMatrix, rhos: list[DensityFixture]):
    """(record, W(m, rho m)) for each density record, W solved in fast mode."""
    for record in rhos:
        yield record, transport.wasserstein(M.m, record.measure, dm, verify=False).value


def check_transport_l1_bound(
    M: MarkovData,
    dm: DistanceMatrix,
    K: float,
    lam_max: float,
    rhos: list[DensityFixture],
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """W(m, rho m) <= (Lambda / 2K) sum |rho(y) - rho(x)| m_xy for each density."""
    _require_positive_K(K)
    factor = lam_max / (2.0 * K)
    comparisons = [
        (w, factor * record.edge_variation, {"rho": record.provenance, "W": w})
        for record, w in _transports(M, dm, rhos)
    ]
    hypothesis = {"K": K, "Lambda": lam_max, "samples": len(rhos)}
    return certificate_from_samples("transport_edge_variation_bound", hypothesis, comparisons, tol)


def check_transport_information(
    M: MarkovData,
    dm: DistanceMatrix,
    K: float,
    lam_max: float,
    rhos: list[DensityFixture],
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """W(m, rho m)^2 against the Fisher information, for each density.

    The refined bound (Lambda^2 / 2K^2) I (1 - I/8) is checked whenever
    I <= 8 (the normalisation forces that in exact arithmetic) and the
    relaxed bound (Lambda^2 / 2K^2) I always.
    """
    _require_positive_K(K)
    # K * K underflows to 0 for a tiny K: the bound is inf, vacuous and correct
    with np.errstate(divide="ignore", over="ignore"):
        factor = float(np.float64(lam_max * lam_max) / (2.0 * K * K))
    comparisons = []
    for record, w in _transports(M, dm, rhos):
        w2 = w * w
        info = record.fisher_information
        witness = {"rho": record.provenance, "fisher_information": info}
        comparisons.append((w2, factor * info, {**witness, "form": "relaxed"}))
        if info <= 8.0:
            comparisons.append(
                (w2, factor * info * (1.0 - info / 8.0), {**witness, "form": "refined"})
            )
    hypothesis = {"K": K, "Lambda": lam_max, "samples": len(rhos)}
    return certificate_from_samples("transport_information_bound", hypothesis, comparisons, tol)


def check_transport_entropy(
    M: MarkovData,
    dm: DistanceMatrix,
    K: float,
    lam_max: float,
    rhos: list[DensityFixture],
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """W(m, rho m)^2 <= (2 Lambda^2 / K) Ent(rho) for each density."""
    _require_positive_K(K)
    factor = 2.0 * lam_max * lam_max / K
    comparisons = [
        (w * w, factor * record.entropy, {"rho": record.provenance, "W": w})
        for record, w in _transports(M, dm, rhos)
    ]
    hypothesis = {"K": K, "Lambda": lam_max, "samples": len(rhos)}
    return certificate_from_samples("transport_entropy_bound", hypothesis, comparisons, tol)


def check_bobkov_goetze(
    M: MarkovData,
    dm: DistanceMatrix,
    c: float,
    rhos: list[DensityFixture],
    fs: np.ndarray,
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID,
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
    fs = _stack(fs)

    name = "transport_entropy_laplace_link"
    hypothesis = {"c": c, "lambda_grid": list(lambda_grid)}
    comparisons = []
    for lam in lambda_grid:
        # a small c overflows the bound to inf: vacuous, and correct
        with np.errstate(over="ignore"):
            bound = float(np.exp(lam * lam / (2.0 * c)))
        for i, f in enumerate(fs):
            witness = {"side": "moment", "lambda": lam, "f_index": i}
            comparisons.append((mean(np.exp(lam * f), M.m), bound, witness))
    moment_side = certificate_from_samples(name, hypothesis, comparisons, tol)

    comparisons = [
        (w * w, 2.0 / c * record.entropy, {"side": "transport", "rho": record.provenance})
        for record, w in _transports(M, dm, rhos)
    ]
    transport_side = certificate_from_samples(name, hypothesis, comparisons, tol)

    # an implication is informative only when its hypothesis held
    if moment_side.passed and transport_side.passed:
        verdict = min(moment_side, transport_side, key=lambda cert: cert.margin)
    elif moment_side.passed:
        verdict = transport_side
    elif transport_side.passed:
        verdict = moment_side
    else:
        verdict = certificate_from_samples(name, hypothesis, [(0.0, 0.0, {"side": "none"})], tol)
    verdict.witness.update(
        {
            "moment_holds_on_samples": moment_side.passed,
            "transport_holds_on_samples": transport_side.passed,
            "moment_worst_margin": moment_side.margin,
            "transport_worst_margin": transport_side.margin,
            "necessary_conditions_only": True,
        }
    )
    return verdict


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
    covers only those where the hypothesis held, and is a vacuous pass
    at margin 0 when none did.
    """
    if c <= 0:
        raise HypothesisUnmetError(f"implication check needs c > 0, got {c}")
    comparisons = []
    for record, w in _transports(M, dm, rhos):
        w2 = w * w
        info = record.fisher_information
        # an extreme c over- or underflows c * c: the hypothesis bound is 0 or inf
        with np.errstate(divide="ignore", over="ignore"):
            if w2 > info / (c * c) + tol:
                continue
            rhs = float(np.sqrt(2.0) * lam_max / c * record.entropy)
        comparisons.append((w2, rhs, {"rho": record.provenance}))
    counts = {"hypothesis_met": len(comparisons), "total": len(rhos)}
    # no sample met the hypothesis: a vacuous pass
    comparisons = comparisons or [(0.0, 0.0, {})]
    certificate = certificate_from_samples(
        "information_to_entropy_bound", {"c": c, "Lambda": lam_max}, comparisons, tol
    )
    certificate.witness.update(counts)
    return certificate
