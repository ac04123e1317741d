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
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
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
from .curvature import SMOOTHING_AGREEMENT_TOL, curvature_matrix, kappa_limit
from .digraph import DirectedGraph, distances, load_graph, sample_lipschitz_functions
from .errors import GraphCurvatureError, ParseError
from .heat import (
    curvature_time_limit,
    heat_kernel,
    heat_operator,
    verify_gradient_estimate,
    verify_transport_contraction,
)
from .report import DEFAULT_SEED, RunConfig, VerificationReport, render_json
from .transport import wasserstein


def _merge_certificates(name: str, certs: list[InequalityCertificate]) -> InequalityCertificate:
    """Collapse per-sample certificates into their worst-margin member."""
    worst = min(certs, key=lambda c: c.margin)
    merged = InequalityCertificate(
        name=name,
        hypothesis=worst.hypothesis,
        lhs=worst.lhs,
        rhs=worst.rhs,
        margin=worst.margin,
        passed=all(c.passed for c in certs),
        tol=worst.tol,
        witness=dict(worst.witness),
    )
    merged.witness["samples"] = len(certs)
    return merged


def _graph_summary(g: DirectedGraph, path: str) -> dict:
    return {
        "source": path,
        "n": g.n,
        "arcs": g.arc_count,
        "strongly_connected": g.strongly_connected,
        "labels": list(g.labels) if g.labels is not None else None,
    }


def _tolerances(config: RunConfig) -> dict:
    from . import chain, lp

    return {
        "balance": chain.BALANCE_TOL,
        "reversibility": chain.REVERSIBILITY_TOL,
        "adjointness": chain.ADJOINTNESS_TOL,
        "lp_feasibility": lp.PRIMAL_TOL,
        "lp_gap": lp.GAP_TOL,
        "certificate": config.certificate_tol,
        "curvature_limit": config.curvature_limit_tol,
        "smoothing_agreement": SMOOTHING_AGREEMENT_TOL,
    }


def functional_certificates(
    M, dm, K: float, lam_max: float, config: RunConfig, rng: np.random.Generator
) -> list[InequalityCertificate]:
    """The concentration and transport inequality suite at level K."""
    tol = config.certificate_tol
    certs: list[InequalityCertificate] = []
    certs.append(
        check_laplace_bound(
            M, dm, K, lam_max, config.lambda_grid, config.function_samples, rng, tol=tol
        )
    )

    fs = centered_lipschitz_samples(M, dm, config.function_samples, rng)
    certs.append(
        _merge_certificates(
            "lipschitz_tail_bound",
            [concentration_tail(M, dm, K, lam_max, f, config.r_grid, tol=tol) for f in fs],
        )
    )

    # the chain-rule surrogates hold for every function, not only Lipschitz ones
    free_fs = rng.normal(0.0, 1.0, size=(config.function_samples, M.n))
    certs.append(
        _merge_certificates(
            "exp_chain_rule_bound",
            [
                check_exp_chain_rule_bound(M, f, lam, tol=tol)
                for f in free_fs
                for lam in config.lambda_grid
            ],
        )
    )
    certs.append(
        _merge_certificates(
            "exp_square_chain_rule_bound",
            [check_exp_square_chain_rule_bound(M, f, tol=tol) for f in free_fs],
        )
    )

    rhos = random_densities(M, config.density_samples, rng)
    certs.append(
        _merge_certificates(
            "transport_edge_variation_bound",
            [check_transport_l1_bound(M, dm, K, lam_max, r.rho, tol=tol) for r in rhos],
        )
    )
    certs.append(
        _merge_certificates(
            "transport_information_bound",
            [check_transport_information(M, dm, K, lam_max, r.rho, tol=tol) for r in rhos],
        )
    )
    certs.append(
        _merge_certificates(
            "transport_entropy_bound",
            [check_transport_entropy(M, dm, K, lam_max, r.rho, tol=tol) for r in rhos],
        )
    )
    certs.append(
        check_bobkov_goetze(
            M, dm, 2.0 * K / (lam_max * lam_max), rhos, config.lambda_grid, fs, tol=tol
        )
    )
    certs.append(
        check_info_to_entropy(M, dm, np.sqrt(2.0) * K / lam_max, lam_max, rhos, tol=tol)
    )
    return certs


def run_analysis(g: DirectedGraph, config: RunConfig, command: str = "analyze") -> VerificationReport:
    dm = distances(g)
    M = markov_data(g)
    H = heat_operator(M)
    rng = np.random.default_rng(config.seed)

    report = VerificationReport(
        command=command,
        graph=_graph_summary(g, "-"),
        seed=config.seed,
        tolerances=_tolerances(config),
    )

    curv = curvature_matrix(M, dm, cross_check=config.cross_check, eps_grid=config.eps_grid)
    K = curv.K if config.k_override is None else config.k_override
    report.sections["distance"] = {
        "lambda": dm.lam,
        "vertex_reach": dm.dvert.tolist(),
    }
    report.sections["perron"] = M.m.tolist()
    report.sections["curvature"] = {
        "kappa": curv.kappa.tolist(),
        "K": curv.K,
        "K_used": K,
        "method": curv.method,
    }

    if config.cross_check:
        worst = float(np.nanmax(curv.cross_check))
        report.certificates.append(
            InequalityCertificate(
                name="curvature_smoothing_agreement",
                hypothesis={"eps_grid": list(config.eps_grid)},
                lhs=worst,
                rhs=SMOOTHING_AGREEMENT_TOL,
                margin=SMOOTHING_AGREEMENT_TOL - worst,
                passed=worst <= SMOOTHING_AGREEMENT_TOL,
                tol=0.0,
            )
        )

    # the arc kappa are the ones that set K; kappa_lp certified every entry
    deviations = []
    for x, y in dm.arcs.tolist():
        limit, _spread = curvature_time_limit(H, dm, x, y, config.limit_time_grid)
        deviations.append((abs(limit - curv.kappa[x, y]), (x, y)))
    worst_dev, worst_pair = max(deviations)
    report.certificates.append(
        InequalityCertificate(
            name="curvature_heat_limit_agreement",
            hypothesis={"time_grid": list(config.limit_time_grid), "pairs": "arcs"},
            lhs=worst_dev,
            rhs=config.curvature_limit_tol,
            margin=config.curvature_limit_tol - worst_dev,
            passed=worst_dev <= config.curvature_limit_tol,
            tol=0.0,
            witness={"pair": list(worst_pair)},
        )
    )

    fs = sample_lipschitz_functions(dm, config.lipschitz_samples, rng, scale=(0.5, 2.0))
    witness_fs = np.asarray(list(curv.witnesses.values()))
    all_fs = np.vstack([fs, witness_fs])
    report.certificates.append(
        verify_gradient_estimate(H, dm, K, all_fs, config.time_grid,
                                 tol=config.certificate_tol)
    )
    report.certificates.append(
        verify_transport_contraction(H, dm, K, config.time_grid,
                                     tol=config.certificate_tol)
    )

    if K > 0:
        report.certificates.extend(
            functional_certificates(M, dm, K, float(dm.lam), config, rng)
        )
    else:
        report.sections["functional_suite"] = f"skipped: needs K > 0, computed K = {K:.17g}"
    return report


def run_functional(g: DirectedGraph, config: RunConfig) -> VerificationReport:
    dm = distances(g)
    M = markov_data(g)
    rng = np.random.default_rng(config.seed)
    curv = curvature_matrix(M, dm)
    K = curv.K if config.k_override is None else config.k_override
    report = VerificationReport(
        command="verify-functional",
        graph=_graph_summary(g, "-"),
        seed=config.seed,
        tolerances=_tolerances(config),
    )
    report.sections["curvature"] = {"K": curv.K, "K_used": K}
    report.sections["distance"] = {"lambda": dm.lam}
    if K <= 0:
        report.sections["functional_suite"] = f"skipped: needs K > 0, computed K = {K:.17g}"
        return report
    report.certificates.extend(
        functional_certificates(M, dm, K, float(dm.lam), config, rng)
    )
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
        raise GraphCurvatureError(f"measure file {spec} has {nu.size} entries, expected {n}")
    return nu


# the output formats each subcommand renders (curvature --pairs: json only)
FORMATS = {
    "analyze": ("json", "table"),
    "verify-functional": ("json", "table"),
    "curvature": ("json", "table", "csv"),
    "wasserstein": ("json",),
    "heat": ("json",),
    "perron": ("json", "table"),
}


def _check_format(args: argparse.Namespace) -> None:
    """Reject a --format the subcommand does not render."""
    supported = FORMATS[args.command]
    if args.command == "curvature" and args.pairs is not None:
        supported = ("json",)
    if args.format not in supported:
        raise ParseError(f"{args.command} does not support --format {args.format}")


def _print_or_save(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _report_table(report: VerificationReport) -> str:
    lines = [f"graph: n={report.graph['n']} arcs={report.graph['arcs']}"]
    if "distance" in report.sections:
        lines.append(f"Lambda = {report.sections['distance']['lambda']}")
    if "curvature" in report.sections and "K" in report.sections["curvature"]:
        lines.append(f"K = {report.sections['curvature']['K']:.12g}")
    for cert in report.certificates:
        verdict = "PASS" if cert.passed else "FAIL"
        lines.append(
            f"  [{verdict}] {cert.name}: lhs={cert.lhs:.10g} rhs={cert.rhs:.10g} margin={cert.margin:.4g}"
        )
    lines.append("all pass" if report.all_pass else "FAILURES PRESENT")
    return "\n".join(lines) + "\n"


def _csv_matrix(matrix: np.ndarray) -> str:
    rows = []
    for row in matrix:
        rows.append(",".join("nan" if np.isnan(v) else f"{v:.17g}" for v in row))
    return "\n".join(rows) + "\n"


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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", help="edge-list or JSON graph file (or inline text)")
    p.add_argument("--seed", type=_checked(int, "--seed", 0), default=DEFAULT_SEED)
    p.add_argument("--format", choices=("json", "table", "csv"), default="json")
    p.add_argument("--out", default=None, help="write the result here instead of stdout")


def _add_suite_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--certificate-tol", type=_checked(float, "--certificate-tol", 0),
                   default=1e-9)
    p.add_argument("--density-samples", type=_checked(int, "--density-samples", 0),
                   default=100)
    p.add_argument("--function-samples", type=_checked(int, "--function-samples", 1),
                   default=100)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digricci",
        description="curvature, heat flow, and concentration certificates for directed graphs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full verification pipeline")
    _add_common(p)
    p.add_argument("--k-override", type=_checked(float, "--k-override"), default=None,
                   help="verify the contraction statements at this rate instead of the computed K")
    p.add_argument("--cross-check", action="store_true",
                   help="also compare the exact curvature against the smoothing route")
    _add_suite_options(p)
    p.add_argument("--lipschitz-samples", type=_checked(int, "--lipschitz-samples", 0),
                   default=200)

    p = sub.add_parser("curvature", help="curvature matrix and K")
    _add_common(p)
    p.add_argument("--pairs", nargs="+", metavar="X,Y", default=None,
                   help="restrict to these ordered pairs, each written x,y")
    p.add_argument("--cross-check", action="store_true")

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
    _add_common(p)

    p = sub.add_parser("verify-functional", help="only the functional-inequality suite")
    _add_common(p)
    p.add_argument("--k-override", type=_checked(float, "--k-override"), default=None)
    _add_suite_options(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: parsing leaves it unchanged."""
    return build_parser()


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(seed=args.seed)
    for name in ("k_override", "cross_check", "certificate_tol", "lipschitz_samples",
                 "density_samples", "function_samples"):
        if hasattr(args, name):
            setattr(config, name, getattr(args, name))
    return config


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        _check_format(args)
        g = load_graph(args.graph)
        config = _config_from_args(args)

        if args.command in ("analyze", "verify-functional"):
            runner = run_analysis if args.command == "analyze" else run_functional
            report = runner(g, config)
            report.graph["source"] = args.graph
            if args.format == "table":
                _print_or_save(_report_table(report), args.out)
            else:
                _print_or_save(report.to_json(), args.out)
            return 0 if report.all_pass else 1

        if args.command == "curvature":
            dm = distances(g)
            M = markov_data(g)
            if args.pairs is not None:
                from .curvature import kappa_lp

                records = []
                for x, y in [_parse_pair(spec, g.n) for spec in args.pairs]:
                    value, witness = kappa_lp(x, y, M, dm)
                    record = {"pair": [x, y], "kappa": value, "witness": witness.tolist()}
                    if args.cross_check:
                        limit, spread = kappa_limit(x, y, M, dm, config.eps_grid)
                        record["kappa_limit"] = limit
                        record["limit_spread"] = spread
                    records.append(record)
                payload = records[0] if len(records) == 1 else records
                _print_or_save(render_json(payload) + "\n", args.out)
                return 0
            curv = curvature_matrix(M, dm, cross_check=args.cross_check,
                                    eps_grid=config.eps_grid)
            if args.format == "csv":
                _print_or_save(_csv_matrix(curv.kappa), args.out)
            elif args.format == "table":
                lines = [f"K = {curv.K:.12g}"]
                for row in curv.kappa:
                    lines.append("  ".join("   nan" if np.isnan(v) else f"{v:6.3f}" for v in row))
                _print_or_save("\n".join(lines) + "\n", args.out)
            else:
                payload = {"kappa": curv.kappa.tolist(), "K": curv.K, "method": curv.method}
                if args.cross_check:
                    payload["smoothing_residual"] = curv.cross_check.tolist()
                _print_or_save(render_json(payload) + "\n", args.out)
            return 0

        if args.command == "wasserstein":
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
            _print_or_save(render_json(payload) + "\n", args.out)
            return 0

        if args.command == "heat":
            M = markov_data(g)
            H = heat_operator(M)
            if args.kernel is not None:
                x = _parse_vertex(args.kernel, g.n, "vertex")
                row = heat_kernel(H, x, args.t)
                payload = {"t": args.t, "x": x, "kernel_row": row.tolist()}
            else:
                f = _parse_measure(args.f, g.n)
                value = H.apply(args.t, f)
                payload = {"t": args.t, "heat_of_f": value.tolist()}
            _print_or_save(render_json(payload) + "\n", args.out)
            return 0

        if args.command == "perron":
            M = markov_data(g)
            residual = float(np.abs(M.m @ M.P - M.m).max())
            payload = {"perron": M.m.tolist(), "balance_residual": residual}
            if args.format == "table":
                text = "\n".join(f"{i}: {v:.17g}" for i, v in enumerate(M.m)) + "\n"
                _print_or_save(text, args.out)
            else:
                _print_or_save(render_json(payload) + "\n", args.out)
            return 0

        raise AssertionError(f"unhandled command {args.command!r}")
    except GraphCurvatureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
