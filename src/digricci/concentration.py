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
by the density's provenance under "rho".  An empty family certifies
nothing and raises HypothesisUnmetError; check_info_to_entropy passes
vacuously when densities were given and none meets its hypothesis.
The grids the checks sample their parameter on are fixed: lam over
LAMBDA_GRID for the moment and chain-rule checks, and r over R_GRID
for the tail.  Each certificate's hypothesis states its grid.

Each bound is checked once.  The Bobkov-Goetze link's moment bound at
c = 2K / Lambda^2 is the Laplace bound, so check_bobkov_goetze takes
check_laplace_bound's certificate as its moment side and computes only
its transport side.  check_transport_information compares each density
with the refined information bound alone, which I <= 4 makes the
tighter one.

A check takes the curvature level K alone.  Lambda is a constant of
the graph, so each check reads it from dm.lam; the two link checks,
check_bobkov_goetze and check_info_to_entropy, form their constants
c = 2K / Lambda^2 and sqrt 2 K / Lambda from K and Lambda, as computed.
A tiny K overflows a bound's factor to inf, or underflows c to 0 and
so makes inf every bound that divides by c: such a bound is vacuous,
reported as Infinity.  A bound that is a factor times a sample quantity (the edge
variation, I and 1 - I/8, Ent) is 0 where the quantity is 0, so an
inf factor never meets a zero quantity as inf * 0 = nan (_bound).

The suite computes on stacks.  A moment, tail or chain-rule check forms
its lhs and rhs as arrays over the whole family, through the stacked
chain.gamma, chain.mean and chain.inner, and lists them for
certificate_from_samples in sample order, so each value has the bits of
a one-sample computation and ties bind as they would one at a time.
DensityFixture.of_stack checks a stack of densities and computes rho m,
Ent(rho), I(rho) and the edge variation for every row in one pass;
DensityFixture.of is that builder on one row.  The transport checks
read those fields and solve only W(m, rho m) themselves, in fast mode,
each check its whole family as one table of transport.wasserstein.
Five checks ask the same family, so the first to solve it keeps each
column's optimum on dm, and every later one starts each column there:
its solve is one B^-1 b and a sign test, with no pivot, and still
certifies its W (_transports).
"""

from __future__ import annotations

import math
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
# exponential-moment grid
LAMBDA_GRID = (0.5, 1.0, 2.0)
# tail radii
R_GRID = tuple(0.25 * k for k in range(1, 13))


@dataclass(frozen=True)
class DensityFixture:
    """A probability density rho relative to m, checked once, with what the suite reads of it.

    Build one with DensityFixture.of(M, rho, provenance), or a list with
    DensityFixture.of_stack: each checks rho and fills measure = rho m,
    the relative entropy Ent(rho) = m(rho log rho) with 0 log 0 = 0, the
    Fisher information I(rho) = 4 m(Gamma(sqrt rho)) = 2 sum (sqrt rho(y)
    - sqrt rho(x))^2 m_xy and the edge variation sum |rho(y) - rho(x)| m_xy.
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
        return cls.of_stack(M, np.asarray(rho, dtype=float)[None], [provenance])[0]

    @classmethod
    def of_stack(
        cls, M: MarkovData, rhos: np.ndarray, provenances: list[str]
    ) -> list[DensityFixture]:
        """The records of the rows of rhos, row i named by provenances[i].

        Each row must be a probability density for m: n finite entries,
        none negative, m-mass within transport.MASS_TOL (the tolerance W
        holds rho m to), and the two carre-du-champ routes to I(rho)
        agreeing to FISHER_CROSSCHECK_TOL.  Otherwise HypothesisUnmetError
        names the first rule that the first bad row breaks, as a
        row-by-row check would.  Every field is computed over the whole
        stack with the bits of a one-row computation; the two n x n sums,
        the edge route of I and the edge variation, run per row.
        """
        rhos = np.asarray(rhos, dtype=float)
        if rhos.shape[1:] != (M.n,):
            raise HypothesisUnmetError(f"density must be {M.n} finite numbers")
        # each rule reads only the rows before the first failure found so
        # far, so the last failure found is the first bad row's first rule
        end, error = len(rhos), None
        bad = ~np.isfinite(rhos).all(axis=1)
        if bad.any():
            end, error = int(bad.argmax()), f"density must be {M.n} finite numbers"
        bad = (rhos[:end] < 0).any(axis=1)
        if bad.any():
            end, error = int(bad.argmax()), "density has a negative entry"
        total = mean(rhos[:end], M.m)
        bad = np.abs(total - 1.0) > transport.MASS_TOL
        if bad.any():
            end = int(bad.argmax())
            error = f"density has m-mass {total[end]:.17g}, expected 1"
        rows = rhos[:end]
        roots = np.sqrt(rows)
        via_gamma = 4.0 * mean(gamma(roots, roots, M), M.m)
        via_edges, variation = [], []
        for rho, s in zip(rows, roots):
            ds = s[None, :] - s[:, None]
            via_edges.append(2.0 * float((ds * ds * M.mxy).sum()))
            variation.append(float((np.abs(rho[None, :] - rho[:, None]) * M.mxy).sum()))
        edges = np.asarray(via_edges)
        bad = np.abs(via_gamma - edges) > FISHER_CROSSCHECK_TOL * np.maximum(1.0, np.abs(edges))
        if bad.any():
            end = int(bad.argmax())
            error = (
                f"Fisher information routes disagree: "
                f"{via_gamma[end]:.17g} vs {via_edges[end]:.17g}"
            )
        if error is not None:
            raise HypothesisUnmetError(error)
        terms = np.zeros_like(rows)
        positive = rows > 0
        terms[positive] = rows[positive] * np.log(rows[positive])
        return [
            cls(rho=rho, provenance=name, measure=measure, entropy=entropy,
                fisher_information=info, edge_variation=edge_variation)
            for rho, name, measure, entropy, info, edge_variation in zip(
                rows, provenances, rows * M.m, mean(terms, M.m).tolist(), via_edges, variation
            )
        ]


def random_densities(
    M: MarkovData,
    count: int,
    rng: np.random.Generator,
) -> list[DensityFixture]:
    """count positive random densities normalised to m(rho) = 1, then n point masses.

    Draws i.i.d. positive entries and rescales; the extremal point-mass
    densities delta_x / m(x) are appended because they bind most of the
    transport inequalities hardest.  The entries come from one
    Gamma(2, 1) draw of shape (count, n), which numpy fills in the order
    count draws of n would, and the records from one of_stack pass.
    """
    g = rng.gamma(shape=2.0, scale=1.0, size=(count, M.n)) + 1e-3
    rhos = np.vstack([g / mean(g, M.m)[:, None], np.diag(1.0 / M.m)])
    names = [f"random[{i}]" for i in range(count)] + [f"point_mass[{x}]" for x in range(M.n)]
    return DensityFixture.of_stack(M, rhos, names)


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


def _stack(fs: np.ndarray) -> np.ndarray:
    """A family of functions, the vertex on the last axis; a 1-D f is a family of one."""
    return np.atleast_2d(np.asarray(fs, dtype=float))


def _masses(m: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """sum of m over the True entries of each row of mask, with the bits of m[row].sum().

    Each row's chosen entries move to its front in vertex order, and the
    rows with k chosen sum their first k columns together: numpy sums
    the rows of a stack as it sums each row alone.
    """
    counts = mask.sum(axis=-1)
    chosen = m[np.argsort(~mask, axis=-1, kind="stable")]
    out = np.empty(len(mask))
    for k in np.flatnonzero(np.bincount(counts)).tolist():
        rows = counts == k
        out[rows] = chosen[rows, :k].sum(axis=-1)
    return out


def check_laplace_bound(
    M: MarkovData,
    dm: DistanceMatrix,
    K: float,
    fs: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """m(exp(lam f)) <= exp(lam^2 Lambda^2 / 4K) on the centred functions fs, lam of LAMBDA_GRID."""
    _require_positive_K(K)
    lam_max = float(dm.lam)
    fs = _stack(fs)
    comparisons = []
    for lam in LAMBDA_GRID:
        # a small K overflows the bound to inf: vacuous, and correct
        with np.errstate(over="ignore"):
            bound = float(np.exp(lam * lam * lam_max * lam_max / (4.0 * K)))
        comparisons += [
            (moment, bound, {"lambda": lam, "f_index": i})
            for i, moment in enumerate(mean(np.exp(lam * fs), M.m).tolist())
        ]
    return certificate_from_samples(
        "laplace_moment_bound",
        {"K": K, "Lambda": lam_max, "lambda_grid": list(LAMBDA_GRID), "samples": len(fs)},
        comparisons,
        tol,
    )


def check_exp_chain_rule_bound(
    M: MarkovData,
    fs: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """m(Gamma(f, exp(lam f))) <= lam (exp(lam f), Gamma(f)) for each f and lam of LAMBDA_GRID."""
    fs = _stack(fs)
    gamma_f = gamma(fs, fs, M)
    lhs, rhs = [], []
    for lam in LAMBDA_GRID:
        ef = np.exp(lam * fs)
        lhs.append(mean(gamma(fs, ef, M), M.m))
        rhs.append(lam * inner(ef, gamma_f, M.m))
    # one row per sample, so the comparisons run sample-major as before
    lhs, rhs = np.transpose(lhs).tolist(), np.transpose(rhs).tolist()
    comparisons = [
        (left, right, {"f_index": i, "lambda": lam})
        for i, (lefts, rights) in enumerate(zip(lhs, rhs))
        for left, right, lam in zip(lefts, rights, LAMBDA_GRID)
    ]
    hypothesis = {"lambda_grid": list(LAMBDA_GRID), "samples": len(fs)}
    return certificate_from_samples("exp_chain_rule_bound", hypothesis, comparisons, tol)


def check_exp_square_chain_rule_bound(
    M: MarkovData, fs: np.ndarray, tol: float = DEFAULT_TOL
) -> InequalityCertificate:
    """m(Gamma(exp f)) <= (exp 2f, Gamma(f)) for each f."""
    fs = _stack(fs)
    ef = np.exp(fs)
    lhs = mean(gamma(ef, ef, M), M.m).tolist()
    rhs = inner(np.exp(2.0 * fs), gamma(fs, fs, M), M.m).tolist()
    comparisons = [(left, right, {"f_index": i}) for i, (left, right) in enumerate(zip(lhs, rhs))]
    return certificate_from_samples(
        "exp_square_chain_rule_bound", {"samples": len(fs)}, comparisons, tol
    )


def concentration_tail(
    M: MarkovData,
    dm: DistanceMatrix,
    K: float,
    fs: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """Exact tail masses m({f >= m(f) + r}) against exp(-K r^2 / Lambda^2), r in R_GRID."""
    _require_positive_K(K)
    lam_max = float(dm.lam)
    fs = _stack(fs)
    bounds = [float(np.exp(-K * r * r / (lam_max * lam_max))) for r in R_GRID]
    lips = lipschitz_constant(fs, dm)
    steep = lips > 1.0 + LIPSCHITZ_SLACK
    if steep.any():
        i = int(steep.argmax())
        raise NotLipschitzError(f"tail bound needs Lip f <= 1, got {lips[i]:.17g} at f_index {i}")
    levels = mean(fs, M.m)[:, None] + np.asarray(R_GRID)
    above = fs[:, None, :] >= levels[:, :, None]
    masses = _masses(M.m, above.reshape(-1, M.n)).reshape(levels.shape).tolist()
    comparisons = [
        (mass, bound, {"f_index": i, "r": r})
        for i, row in enumerate(masses)
        for mass, r, bound in zip(row, R_GRID, bounds)
    ]
    hypothesis = {"K": K, "Lambda": lam_max, "samples": len(fs), "r_grid": list(R_GRID)}
    return certificate_from_samples("lipschitz_tail_bound", hypothesis, comparisons, tol)


def _bound(factor: float, quantity: float) -> float:
    """factor * quantity, and 0 for a zero quantity.

    A tiny K overflows a factor to inf, a vacuous bound, which a zero
    quantity would turn into inf * 0 = nan; it bounds at 0 instead.
    """
    return float(factor) * quantity if quantity else 0.0


def _transports(M: MarkovData, dm: DistanceMatrix, rhos: list[DensityFixture]):
    """(record, W(m, rho m)) for each density record.

    The W are one table in fast mode (transport.wasserstein), a column
    of one pair per density.  The first table of a family, keyed by the
    exact bytes of m and of the measures, is solved cold, each column
    from its BFS tree, and its optima are kept on dm as ColumnStarts
    (transport.TransportTable.column_starts).  Every later table of the
    same family starts each column from its optimum, which is optimal
    for those measures already: one B^-1 b and a sign test, no pivot.
    W then comes from the same basis by another product and may move in
    its last bits against the cold solve's.
    """
    measures = np.array([record.measure for record in rhos]).reshape(1, len(rhos), M.n)
    nu0 = np.broadcast_to(M.m, measures.shape)
    key = (M.m.tobytes(), measures.tobytes())
    starts = dm._density_starts.get(key)
    table = transport.wasserstein(nu0, measures, dm, verify=False, start=starts)
    if starts is None:
        dm._density_starts[key] = table.column_starts
    return zip(rhos, table.values[0].tolist())


def check_transport_l1_bound(
    M: MarkovData,
    dm: DistanceMatrix,
    K: float,
    rhos: list[DensityFixture],
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """W(m, rho m) <= (Lambda / 2K) sum |rho(y) - rho(x)| m_xy for each density."""
    _require_positive_K(K)
    lam_max = float(dm.lam)
    factor = lam_max / (2.0 * K)
    comparisons = [
        (w, _bound(factor, record.edge_variation), {"rho": record.provenance, "W": w})
        for record, w in _transports(M, dm, rhos)
    ]
    hypothesis = {"K": K, "Lambda": lam_max, "samples": len(rhos)}
    return certificate_from_samples("transport_edge_variation_bound", hypothesis, comparisons, tol)


def check_transport_information(
    M: MarkovData,
    dm: DistanceMatrix,
    K: float,
    rhos: list[DensityFixture],
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """W(m, rho m)^2 <= (Lambda^2 / 2K^2) I (1 - I/8) for each density.

    This refined bound is never weaker than the relaxed (Lambda^2 / 2K^2) I,
    as I <= 4 for every density of m: (sqrt a - sqrt b)^2 <= a + b and
    sum_y m_xy = m(x) give I = 2 sum (sqrt rho(y) - sqrt rho(x))^2 m_xy
    <= 4 m(rho) = 4, which point masses attain.  The witness names it
    "form": "refined".
    """
    _require_positive_K(K)
    lam_max = float(dm.lam)
    # K * K underflows to 0 for a tiny K: the bound is inf, vacuous and correct
    with np.errstate(divide="ignore", over="ignore"):
        factor = float(np.float64(lam_max * lam_max) / (2.0 * K * K))
    comparisons = []
    for record, w in _transports(M, dm, rhos):
        info = record.fisher_information
        witness = {"rho": record.provenance, "fisher_information": info, "form": "refined"}
        comparisons.append((w * w, _bound(_bound(factor, info), 1.0 - info / 8.0), witness))
    hypothesis = {"K": K, "Lambda": lam_max, "samples": len(rhos)}
    return certificate_from_samples("transport_information_bound", hypothesis, comparisons, tol)


def check_transport_entropy(
    M: MarkovData,
    dm: DistanceMatrix,
    K: float,
    rhos: list[DensityFixture],
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """W(m, rho m)^2 <= (2 Lambda^2 / K) Ent(rho) for each density."""
    _require_positive_K(K)
    lam_max = float(dm.lam)
    factor = 2.0 * lam_max * lam_max / K
    comparisons = [
        (w * w, _bound(factor, record.entropy), {"rho": record.provenance, "W": w})
        for record, w in _transports(M, dm, rhos)
    ]
    hypothesis = {"K": K, "Lambda": lam_max, "samples": len(rhos)}
    return certificate_from_samples("transport_entropy_bound", hypothesis, comparisons, tol)


def check_bobkov_goetze(
    M: MarkovData,
    dm: DistanceMatrix,
    K: float,
    rhos: list[DensityFixture],
    laplace: InequalityCertificate,
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """Sample-level link between the Laplace bound and transport-entropy at c = 2K / Lambda^2.

    The two properties

        (moment)     m(exp(lam f)) <= exp(lam^2 / 2c) for centred Lip-1 f
        (transport)  W(m, rho m)^2 <= (2/c) Ent(rho)  for densities rho

    hold together or fail together.  At this c the moment bound is the
    Laplace bound exp(lam^2 Lambda^2 / 4K), so the moment side is
    laplace, check_laplace_bound's certificate at the same K: its
    binding sample, under "side": "moment", read at this check's tol.
    Any other certificate raises HypothesisUnmetError.  On samples only
    necessary conditions are visible, so the certificate checks both
    implications: whenever one side holds on every sample, the other
    must too.  The verdict is then the side of lower margin, which is
    the failing side if one fails; when neither holds, the check passes
    vacuously under "side": "none".  The witness records which sides
    held, with their worst margins.  A tiny K underflows c to 0, which
    the hypothesis reports, and the transport bound is then inf.
    """
    _require_positive_K(K)
    if (laplace.name, laplace.hypothesis.get("K")) != ("laplace_moment_bound", K):
        raise HypothesisUnmetError(f"the link needs the Laplace certificate at K = {K}")
    lam_max = float(dm.lam)
    c = 2.0 * K / (lam_max * lam_max)

    name = "transport_entropy_laplace_link"
    hypothesis = {"c": c, "lambda_grid": list(LAMBDA_GRID)}
    moment = (laplace.lhs, laplace.rhs, {"side": "moment", **laplace.witness})
    moment_side = certificate_from_samples(name, hypothesis, [moment], tol)

    # a tiny K underflows c to 0 or overflows 2 / c: the bound is inf, vacuous and correct
    with np.errstate(divide="ignore", over="ignore"):
        scale = np.float64(2.0) / c
    comparisons = [
        (w * w, _bound(scale, record.entropy), {"side": "transport", "rho": record.provenance})
        for record, w in _transports(M, dm, rhos)
    ]
    transport_side = certificate_from_samples(name, hypothesis, comparisons, tol)

    # an implication is informative only when its hypothesis held; when one
    # side fails, its margin is the lower one
    if moment_side.passed or transport_side.passed:
        verdict = min(moment_side, transport_side, key=lambda cert: cert.margin)
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
    K: float,
    rhos: list[DensityFixture],
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """If W^2 <= I(rho)/c^2 on a sample, then W^2 <= (sqrt 2 Lambda / c) Ent(rho).

    Here c = sqrt 2 K / Lambda, as computed: a tiny K underflows it to
    0, and every bound it enters is then inf, vacuous.  Either bound of
    a sample whose I or Ent is 0 is 0.  Samples failing the hypothesis
    are skipped and counted; the verdict covers only those where the
    hypothesis held, and is a vacuous pass at margin 0 when none did.
    An empty family certifies nothing: HypothesisUnmetError, as every
    other suite check raises for it.
    """
    _require_positive_K(K)
    lam_max = float(dm.lam)
    c = math.sqrt(2.0) * K / lam_max
    comparisons = []
    for record, w in _transports(M, dm, rhos):
        w2 = w * w
        info = record.fisher_information
        # an extreme c over- or underflows c^2 or 1 / c: a bound is then 0 or inf
        with np.errstate(divide="ignore", over="ignore"):
            if w2 > (info / np.square(c) if info else 0.0) + tol:
                continue
            rhs = _bound(np.sqrt(2.0) * lam_max / c, record.entropy)
        comparisons.append((w2, rhs, {"rho": record.provenance}))
    counts = {"hypothesis_met": len(comparisons), "total": len(rhos)}
    # samples given, none of which met the hypothesis: a vacuous pass; no sample
    # at all leaves comparisons empty, which certificate_from_samples refuses
    if rhos and not comparisons:
        comparisons = [(0.0, 0.0, {})]
    certificate = certificate_from_samples(
        "information_to_entropy_bound", {"c": c, "Lambda": lam_max}, comparisons, tol
    )
    certificate.witness.update(counts)
    return certificate
