"""Command-line interface.

Subcommands:

  analyze            full pipeline: curvature, heat contraction, limits,
                     concentration and transport inequalities
  curvature          the kappa matrix (json, csv, or a table)
  wasserstein        one transport distance between two measures
  heat               evolve a function, or print one heat-kernel row
  perron             the stationary measure
  verify-functional  only the concentration / transport certificates

Exit codes: 0 when everything checked passes, 1 when some certificate
fails, 2 on invalid input.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, certificates, chain, curvature, lp
from .certificates import InequalityCertificate
from .chain import markov_data
from .concentration import (
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
    random_densities,
)
from .curvature import EPS_MAX, curvature_matrix, kappa_limit
from .digraph import DirectedGraph, distances, load_graph
from .errors import GraphCurvatureError, ParseError
from .heat import (
    HEAT_LIMIT_AGREEMENT_TOL,
    LIMIT_GRID,
    curvature_time_limit,
    heat_kernel_matrix,
    heat_operator,
    verify_gradient_estimate,
    verify_transport_contraction,
)
from .report import RunConfig, VerificationReport, render_json
from .transport import ColumnStart, handed_over, wasserstein


def _new_report(command: str, g: DirectedGraph, config: RunConfig) -> VerificationReport:
    """A report of command on g with its header: the graph's shape, seed and tolerances.

    The tolerances are the ones every run applies; a stage that applies
    one of its own adds it as it runs.  main sets the graph's "source",
    which stays its first key.
    """
    return VerificationReport(
        command=command,
        graph={
            "source": "-",
            "n": g.n,
            "arcs": g.arc_count,
            "strongly_connected": True,  # build_graph rejects every other graph
            "labels": list(g.labels) if g.labels is not None else None,
        },
        seed=config.seed,
        tolerances={
            "balance": chain.BALANCE_TOL,
            "lp_feasibility": lp.PRIMAL_TOL,
            "lp_gap": lp.GAP_TOL,
            "certificate": config.certificate_tol,
        },
    )


def functional_certificates(
    M, dm, K: float, config: RunConfig, rng: np.random.Generator
) -> list[InequalityCertificate]:
    """The concentration and transport inequality suite at level K.

    One centred Lipschitz family serves the Laplace and tail checks, and
    the Bobkov-Goetze link takes the Laplace certificate as its moment
    side.  The draws come in this order: that family, the free functions
    of the chain-rule checks, then the densities.
    """
    tol = config.certificate_tol
    fs = centered_lipschitz_samples(M, dm, config.function_samples, rng)
    # the chain-rule surrogates hold for every function, not only Lipschitz ones
    free_fs = rng.normal(0.0, 1.0, size=(config.function_samples, M.n))
    rhos = random_densities(M, config.density_samples, rng)
    laplace = check_laplace_bound(M, dm, K, fs, tol=tol)
    return [
        laplace,
        concentration_tail(M, dm, K, fs, tol=tol),
        check_exp_chain_rule_bound(M, free_fs, tol=tol),
        check_exp_square_chain_rule_bound(M, free_fs, tol=tol),
        check_transport_l1_bound(M, dm, K, rhos, tol=tol),
        check_transport_information(M, dm, K, rhos, tol=tol),
        check_transport_entropy(M, dm, K, rhos, tol=tol),
        check_bobkov_goetze(M, dm, K, rhos, laplace, tol=tol),
        check_info_to_entropy(M, dm, K, rhos, tol=tol),
    ]


def _functional_suite(report: VerificationReport, M, dm, K: float, config: RunConfig) -> None:
    """Add the functional suite at level K to report, or say why it was skipped.

    Its samples are the only ones a run draws, from config.seed.
    """
    if K > 0:
        rng = np.random.default_rng(config.seed)
        report.certificates.extend(functional_certificates(M, dm, K, config, rng))
    else:
        report.sections["functional_suite"] = f"skipped: needs K > 0, K_used = {K:.17g}"


def _curvature_and_limit(report, M, dm, H, config: RunConfig) -> tuple[float, list[ColumnStart]]:
    """The kappa matrix, its report sections and certificates, and the small-time heat limit.

    This stage owns kappa's arc optima (CurvatureReport.arc_starts), the
    starts of the limit table, which die with it.  It returns the K the
    later checks use and the limit table's last optimum of each arc,
    the starts of the contraction table.
    """
    curv = curvature_matrix(M, dm, cross_check=config.cross_check)
    K = curv.K if config.k_override is None else config.k_override
    report.tolerances["curvature_limit"] = HEAT_LIMIT_AGREEMENT_TOL
    report.sections["distance"] = {
        "lambda": dm.lam,
        "vertex_reach": dm.dvert.tolist(),
    }
    report.sections["perron"] = M.m.tolist()
    report.sections["curvature"] = {
        "kappa": curv.kappa.tolist(),
        "K": curv.K,
        "K_used": K,
        "method": "lp",
    }

    if config.cross_check:
        # each pair is held to its own rounding bound, the header states the largest;
        # every ordered pair in row-major order: of equal margins, the first binds
        off = ~np.eye(M.n, dtype=bool)
        report.tolerances["smoothing_agreement"] = float(curv.cross_check_tol[off].max())
        samples = zip(curv.cross_check[off].tolist(), curv.cross_check_tol[off].tolist(),
                      ({"pair": pair} for pair in np.argwhere(off).tolist()))
        report.certificates.append(
            certificates.certificate_from_samples(
                "curvature_smoothing_agreement",
                {"eps": f"min({EPS_MAX:g}, 1/(d Lambda))"},
                list(samples),
                tol=0.0,
            )
        )

    # the arc kappa are the ones that set K; kappa_lp certified every entry.
    # Each arc's W chain runs on from kappa's optimum through the limit
    # times to the contraction times (heat module docstring).
    # certificate_from_samples keeps the first of equal margins, so the comparisons
    # go in reversed: of equal deviations, the last arc in row-major order binds.
    xs, ys = dm.arcs.T
    limits, _spreads, starts = curvature_time_limit(H, dm, xs, ys, curv.arc_starts)
    deviations = [
        (deviation, HEAT_LIMIT_AGREEMENT_TOL, {"pair": [x, y]})
        for deviation, x, y in zip(
            np.abs(limits - curv.kappa[xs, ys]).tolist(), xs.tolist(), ys.tolist()
        )
    ][::-1]
    report.certificates.append(
        certificates.certificate_from_samples(
            "curvature_heat_limit_agreement",
            {"time_grid": list(LIMIT_GRID), "pairs": "arcs"},
            deviations,
            tol=0.0,
        )
    )
    return K, starts


def _heat_flow(report, M, dm, H, config: RunConfig) -> float:
    """kappa and the heat limit (_curvature_and_limit), then the contraction and gradient estimate.

    This stage owns the limit table's column starts, which start the
    contraction table, handed over, so each dies after its column's
    first solve.  It returns K.
    """
    K, starts = _curvature_and_limit(report, M, dm, H, config)
    # handed over, each start dies after its column's first solve, not with the table.
    # The gradient estimate checks each time's contraction potential f* at that
    # time, where Lip(P_t f) reaches its sup (heat module docstring)
    contraction, potentials = verify_transport_contraction(
        H, dm, K, config.certificate_tol, handed_over(starts))
    report.certificates.append(
        verify_gradient_estimate(H, dm, K, potentials, tol=config.certificate_tol)
    )
    report.certificates.append(contraction)
    return K


def run_analysis(g: DirectedGraph, config: RunConfig) -> VerificationReport:
    """The analyze report: the heat-flow chain of checks, then the functional suite at K.

    Each stage is a function whose locals are its warm starts, so they
    die once the next stage has read them (_heat_flow).
    """
    dm = distances(g)
    M = markov_data(g)
    H = heat_operator(M)
    report = _new_report("analyze", g, config)
    K = _heat_flow(report, M, dm, H, config)
    _functional_suite(report, M, dm, K, config)
    return report


def run_functional(g: DirectedGraph, config: RunConfig) -> VerificationReport:
    dm = distances(g)
    M = markov_data(g)
    # K is the least arc kappa: the hop metric is a path metric, so a pair's kappa is at
    # least the mean kappa of a geodesic's arcs (Ollivier, J. Funct. Anal. 256, 2009).
    # One row of kappa_lp per tail, over its out-neighbours.
    tails, heads = dm.arcs.T
    K_arcs = float(min(curvature.kappa_lp(x, heads[tails == x], M, dm)[0].min()
                       for x in range(g.n)))
    K = K_arcs if config.k_override is None else config.k_override
    report = _new_report("verify-functional", g, config)
    report.sections["curvature"] = {"K": K_arcs, "K_used": K}
    report.sections["distance"] = {"lambda": dm.lam}
    _functional_suite(report, M, dm, K, config)
    return report


def _parse_vertex(token: str, n: int, what: str) -> int:
    try:
        x = int(token)
    except ValueError:
        raise ParseError(f"{what} {token!r} is not an integer") from None
    if not 0 <= x < n:
        raise ParseError(f"{what} {x} out of range for n={n}")
    return x


def _parse_pair(spec: str, n: int) -> tuple[int, int]:
    """An ordered pair written x,y of two distinct vertices."""
    tokens = spec.split(",")
    if len(tokens) != 2:
        raise ParseError(f"pair {spec!r} is not of the form x,y")
    x, y = (_parse_vertex(tok, n, "pair vertex") for tok in tokens)
    if x == y:
        raise ParseError(f"pair {spec!r} needs two distinct vertices")
    return x, y


def _parse_measure(spec: str, n: int) -> np.ndarray:
    """Either dirac:<vertex> or a file of one finite weight per line."""
    if spec.startswith("dirac:"):
        nu = np.zeros(n)
        nu[_parse_vertex(spec.split(":", 1)[1], n, "dirac vertex")] = 1.0
        return nu
    values = []
    for token in Path(spec).read_text(encoding="utf-8").split():
        try:
            value = float(token)
        except ValueError:
            raise ParseError(f"measure file {spec}: {token!r} is not a number") from None
        if not math.isfinite(value):
            raise ParseError(f"measure file {spec}: {token!r} is not finite")
        values.append(value)
    nu = np.asarray(values, dtype=float)
    if nu.shape != (n,):
        raise ParseError(f"measure file {spec} has {nu.size} entries, expected {n}")
    return nu


def _report_table(report: VerificationReport) -> str:
    lines = [f"graph: n={report.graph['n']} arcs={report.graph['arcs']}",
             f"Lambda = {report.sections['distance']['lambda']}",
             f"K = {report.sections['curvature']['K']:.12g}"]
    for cert in report.certificates:
        verdict = "PASS" if cert.passed else "FAIL"
        lines.append(
            f"  [{verdict}] {cert.name}: lhs={cert.lhs:.10g} rhs={cert.rhs:.10g} margin={cert.margin:.4g}"
        )
    lines.append("all pass" if report.all_pass else "FAILURES PRESENT")
    return "\n".join(lines) + "\n"


def _csv_matrix(matrix: np.ndarray) -> str:
    return "\n".join(",".join(f"{v:.17g}" for v in row) for row in matrix) + "\n"


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ParseError.

    main then exits 2 with one error: line, not argparse's usage text
    and SystemExit.  Subparsers are built from the same class.
    argparse takes a token for a negative number, a value rather than
    an option name, only in the forms -1 and -.5; this parser also
    takes exponents (-1e3, -1E-3, -.5e1), inf and nan, so that an
    option's type decides whether the value is good, and a pair x,y
    whose x is negative (-1,2), so that the pair's parse names the
    vertex out of range.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$|^-\d+,", re.IGNORECASE
        )

    def error(self, message: str):
        raise ParseError(message)


def _checked(kind: type, option: str, least: float = -math.inf):
    """An argparse type for option: a finite kind(token) of at least least.

    It raises ParseError, which argparse lets through, so that main
    exits 2 with one error: line rather than argparse's usage text.
    """
    what = "an integer" if kind is int else "a finite number"
    if least > -math.inf:
        what += f" >= {least:g}"

    def parse(token: str):
        try:
            value = kind(token)
        except ValueError:
            value = None
        if value is None or not (math.isfinite(value) and value >= least):
            raise ParseError(f"{option} must be {what}, got {token!r}")
        return value

    return parse


def _add_common(p: argparse.ArgumentParser, formats: tuple[str, ...] = ()) -> None:
    """The graph, --out, and --format when the subcommand renders more than JSON."""
    p.add_argument("graph", help="edge-list or JSON graph file (or inline text)")
    if formats:
        p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--out", default=None, help="write the result here instead of stdout")


def _add_suite_options(p: argparse.ArgumentParser) -> None:
    """The options of the suite's RunConfig fields, each defaulting to its field's default."""
    defaults = RunConfig()
    p.add_argument("--seed", type=_checked(int, "--seed", 0), default=defaults.seed)
    p.add_argument("--certificate-tol", type=_checked(float, "--certificate-tol", 0),
                   default=defaults.certificate_tol)
    p.add_argument("--density-samples", type=_checked(int, "--density-samples", 0),
                   default=defaults.density_samples)
    p.add_argument("--function-samples", type=_checked(int, "--function-samples", 1),
                   default=defaults.function_samples)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="digricci",
        description="curvature, heat flow, and concentration certificates for directed graphs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full verification pipeline")
    _add_common(p, ("json", "table"))
    p.add_argument("--k-override", type=_checked(float, "--k-override"), default=None,
                   help="verify the contraction statements at this rate instead of the computed K")
    p.add_argument("--cross-check", action="store_true",
                   help="also check kappa against the smoothing route at eps <= 1/(d Lambda)")
    _add_suite_options(p)

    p = sub.add_parser("curvature", help="curvature matrix and K")
    _add_common(p, ("json", "table", "csv"))
    p.add_argument("--pairs", nargs="+", metavar="X,Y", default=None,
                   help="restrict to these ordered pairs, each written x,y (json only)")
    p.add_argument("--cross-check", action="store_true",
                   help="also compare with the smoothing route at eps <= 1/(d Lambda) (json only)")

    p = sub.add_parser("wasserstein", help="transport distance between two measures")
    _add_common(p)
    p.add_argument("nu0", help="dirac:<v> or a file of weights")
    p.add_argument("nu1", help="dirac:<v> or a file of weights")
    p.add_argument("--plan", action="store_true", help="include the optimal coupling")

    p = sub.add_parser("heat", help="evolve a function or print a kernel row")
    _add_common(p)
    p.add_argument("--t", type=_checked(float, "--t", 0), required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--f", default=None, help="dirac:<v> or a file of values")
    group.add_argument("--kernel", default=None, metavar="X",
                       help="print the heat-kernel row of vertex X")

    p = sub.add_parser("perron", help="stationary measure of the walk")
    _add_common(p, ("json", "table"))

    p = sub.add_parser("verify-functional", help="only the functional-inequality suite")
    _add_common(p, ("json", "table"))
    p.add_argument("--k-override", type=_checked(float, "--k-override"), default=None)
    _add_suite_options(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: parsing leaves it unchanged."""
    return build_parser()


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The RunConfig fields the parsed subcommand has options for."""
    return RunConfig(**{
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(RunConfig)
        if hasattr(args, field.name)
    })


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "curvature" and args.format != "json":
            # a csv or a table has no place for pair records or smoothing residuals
            for option, given in (("--pairs", args.pairs is not None),
                                  ("--cross-check", args.cross_check)):
                if given:
                    raise ParseError(
                        f"curvature {option} prints JSON only, not --format {args.format}"
                    )
        g = load_graph(args.graph)
        code = 0

        if args.command in ("analyze", "verify-functional"):
            runner = run_analysis if args.command == "analyze" else run_functional
            report = runner(g, _config_from_args(args))
            report.graph["source"] = args.graph
            text = _report_table(report) if args.format == "table" else report.to_json()
            code = 0 if report.all_pass else 1

        elif args.command == "curvature":
            dm = distances(g)
            M = markov_data(g)
            if args.pairs is not None:
                records = []
                for x, y in [_parse_pair(spec, g.n) for spec in args.pairs]:
                    (value,), (witness,), _starts = curvature.kappa_lp(x, [y], M, dm)
                    record = {"pair": [x, y], "kappa": value, "witness": witness.tolist()}
                    if args.cross_check:
                        (record["kappa_limit"],) = kappa_limit(x, [y], M, dm)
                    records.append(record)
                text = render_json(records[0] if len(records) == 1 else records) + "\n"
            else:
                curv = curvature_matrix(M, dm, cross_check=args.cross_check)
                if args.format == "csv":
                    text = _csv_matrix(curv.kappa)
                elif args.format == "table":
                    rows = ("  ".join(f"{v:6.3f}" for v in row) for row in curv.kappa)
                    text = "\n".join([f"K = {curv.K:.12g}", *rows]) + "\n"
                else:
                    payload = {"kappa": curv.kappa.tolist(), "K": curv.K, "method": "lp"}
                    if args.cross_check:
                        payload["smoothing_residual"] = curv.cross_check.tolist()
                    text = render_json(payload) + "\n"

        elif args.command == "wasserstein":
            dm = distances(g)
            nu0 = _parse_measure(args.nu0, g.n)
            nu1 = _parse_measure(args.nu1, g.n)
            plan = wasserstein(nu0, nu1, dm, verify=True)
            payload = {
                "value": plan.value,
                "duality_gap": plan.duality_gap,
                "marginal_residual": plan.marginal_residual,
                "dual_potential": plan.dual_f.tolist(),
            }
            if args.plan:
                payload["plan"] = plan.pi.tolist()
            text = render_json(payload) + "\n"

        elif args.command == "heat":
            M = markov_data(g)
            H = heat_operator(M)
            if args.kernel is not None:
                x = _parse_vertex(args.kernel, g.n, "vertex")
                row = heat_kernel_matrix(H, args.t)[x]
                payload = {"t": args.t, "x": x, "kernel_row": row.tolist()}
            else:
                f = _parse_measure(args.f, g.n)
                value = H.apply(args.t, f)
                payload = {"t": args.t, "heat_of_f": value.tolist()}
            text = render_json(payload) + "\n"

        else:  # perron
            M = markov_data(g)
            if args.format == "table":
                text = "\n".join(f"{i}: {v:.17g}" for i, v in enumerate(M.m)) + "\n"
            else:
                residual = float(np.abs(M.m @ M.P - M.m).max())
                text = render_json({"perron": M.m.tolist(), "balance_residual": residual}) + "\n"

        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        return code
    except (GraphCurvatureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
