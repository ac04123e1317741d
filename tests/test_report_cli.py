"""JSON report rendering and the command-line surface."""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import C3_EDGES, K3_EDGES, SEED, TRI_EDGES
from digricci import (
    InequalityCertificate,
    __version__,
    cli,
    curvature,
    curvature_matrix,
    digraph,
    distances,
    load_graph,
    lp,
    markov_data,
    render_json,
)
from digricci.cli import main
from digricci.curvature import SMOOTHING_AGREEMENT_TOL
from digricci.heat import HEAT_LIMIT_AGREEMENT_TOL
from digricci.report import RunConfig, VerificationReport, certificate_to_dict


@pytest.fixture()
def c3_file(tmp_path):
    path = tmp_path / "c3.edges"
    path.write_text(C3_EDGES, encoding="utf-8")
    return str(path)


@pytest.fixture()
def tri_file(tmp_path):
    path = tmp_path / "tri.edges"
    path.write_text(TRI_EDGES, encoding="utf-8")
    return str(path)


class TestRenderJson:
    def test_round_trips_through_stdlib(self):
        value = {
            "a": [1, 2.5, None, True, False],
            "b": {"nested": "tab\there \"quoted\" back\\slash"},
            "c": (0.1, 0.2),
            "d": "control \x01 \b \f \x1f chars",
        }
        parsed = json.loads(render_json(value))
        assert parsed["a"] == [1, 2.5, None, True, False]
        assert parsed["b"]["nested"] == 'tab\there "quoted" back\\slash'
        assert parsed["c"] == [0.1, 0.2]
        assert parsed["d"] == "control \x01 \b \f \x1f chars"

    def test_floats_keep_17_digits(self):
        x = 1.0 / 3.0
        assert json.loads(render_json(x)) == x
        assert json.loads(render_json([math.pi]))[0] == math.pi

    def test_non_finite_floats(self):
        assert render_json(float("nan")) == "null"
        assert json.loads(render_json(float("inf"))) == "Infinity"
        assert json.loads(render_json(float("-inf"))) == "-Infinity"

    def test_numpy_values(self):
        out = render_json(
            {"m": np.array([0.5, 0.5]), "n": np.int64(3), "flag": np.bool_(True)}
        )
        parsed = json.loads(out)
        assert parsed == {"m": [0.5, 0.5], "n": 3, "flag": True}

    def test_layout_is_byte_frozen(self):
        # every leaf type reports hold, in the exact bytes reports are compared by
        value = {
            "np_float64": np.float64(0.1),
            "np_float32": np.float32(0.1),
            "np_int64": np.int64(-7),
            "np_bool": np.bool_(True),
            "bool": False,
            "int": 3,
            "none": None,
            "text": 'a "quoted" \u00e9',
            "floats": [1.0, -0.0, 1e-300, 2.5e16, [float("nan"), float("inf"), -float("inf")]],
            "matrix": np.array([[1.5, 1 / 3], [np.nan, -np.inf]]),
            "tuple": (1, 2.5, "x"),
            "empty_list": [],
            "empty_dict": {},
            "nested": {"rows": [[0, 1], []], 7: {"deep": np.float64(2.0) / 3}},
        }
        expected = r"""{
  "np_float64": 0.10000000000000001,
  "np_float32": 0.10000000149011612,
  "np_int64": -7,
  "np_bool": true,
  "bool": false,
  "int": 3,
  "none": null,
  "text": "a \"quoted\" é",
  "floats": [
    1,
    -0,
    1e-300,
    25000000000000000,
    [
      null,
      "Infinity",
      "-Infinity"
    ]
  ],
  "matrix": [
    [
      1.5,
      0.33333333333333331
    ],
    [
      null,
      "-Infinity"
    ]
  ],
  "tuple": [
    1,
    2.5,
    "x"
  ],
  "empty_list": [],
  "empty_dict": {},
  "nested": {
    "rows": [
      [
        0,
        1
      ],
      []
    ],
    "7": {
      "deep": 0.66666666666666663
    }
  }
}"""
        assert render_json(value) == expected

    def test_deterministic(self):
        value = {"x": [1.0, float("nan")], "y": "text"}
        assert render_json(value) == render_json(value)

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            render_json(object())


class TestReportShape:
    def test_certificate_dict_keys(self):
        cert = InequalityCertificate(
            name="demo", hypothesis={"K": 1.0}, lhs=1.0, rhs=2.0,
            margin=1.0, passed=True, tol=1e-9, witness={"r": np.float64(0.5)},
        )
        d = certificate_to_dict(cert)
        assert set(d) == {"name", "hypothesis", "lhs", "rhs", "margin", "tol", "pass", "witness"}
        assert isinstance(d["witness"]["r"], float)

    def test_all_pass_logic(self):
        report = VerificationReport(command="x", graph={}, seed=0, tolerances={})
        assert report.all_pass
        report.certificates.append(
            InequalityCertificate("a", {}, 0.0, 1.0, 1.0, True, 0.0)
        )
        assert report.all_pass
        report.certificates.append(
            InequalityCertificate("b", {}, 2.0, 1.0, -1.0, False, 0.0)
        )
        assert not report.all_pass

    def test_schema_version_present(self):
        report = VerificationReport(command="x", graph={"n": 1}, seed=1, tolerances={})
        assert report.to_dict()["schema_version"] == 3


class TestCliAnalyze:
    def test_c3_passes_end_to_end(self, c3_file, capsys):
        code = main(["analyze", c3_file])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 3
        assert payload["all_pass"] is True
        assert payload["curvature"]["K"] == pytest.approx(1.5, abs=1e-6)
        assert payload["distance"]["lambda"] == 2.0
        assert payload["seed"] == 424242
        names = [c["name"] for c in payload["certificates"]]
        assert "lipschitz_contraction" in names
        assert "transport_contraction" in names
        assert "curvature_heat_limit_agreement" in names
        assert "laplace_moment_bound" in names

    def test_deterministic_output(self, c3_file, capsys):
        main(["analyze", c3_file])
        first = capsys.readouterr().out
        main(["analyze", c3_file])
        second = capsys.readouterr().out
        assert first == second

    def test_parser_is_built_once_and_keeps_no_options(self, c3_file, capsys):
        from digricci import cli

        main(["analyze", c3_file])
        plain = capsys.readouterr().out
        assert main(["analyze", c3_file, "--k-override", "0.5", "--certificate-tol", "1e-6"]) == 0
        assert capsys.readouterr().out != plain
        main(["analyze", c3_file])
        assert capsys.readouterr().out == plain
        assert cli._parser() is cli._parser()

    def test_every_run_config_field_is_set_by_an_analyze_option(self, c3_file):
        argv = ["analyze", c3_file, "--seed", "7", "--k-override", "0.5", "--cross-check",
                "--certificate-tol", "1e-6", "--lipschitz-samples", "3",
                "--density-samples", "4", "--function-samples", "5"]
        config = cli._config_from_args(cli._parser().parse_args(argv))
        expected = {"seed": 7, "k_override": 0.5, "cross_check": True, "certificate_tol": 1e-6,
                    "lipschitz_samples": 3, "density_samples": 4, "function_samples": 5}
        assert dataclasses.asdict(config) == expected
        assert all(expected[field.name] != field.default for field in dataclasses.fields(RunConfig))

    def test_vacuous_moment_bounds_print_no_warning(self, tmp_path, capsys):
        """A tiny K overflows exp(lam^2 Lambda^2 / 4K) and exp(lam^2 / 2c) to inf."""
        path = tmp_path / "k4.edges"
        path.write_text("".join(f"{x} {y}\n" for x in range(4) for y in range(4) if x != y))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["analyze", str(path), "--k-override", "0.001"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        certs = {c["name"]: c for c in json.loads(out)["certificates"]}
        assert certs["laplace_moment_bound"]["pass"] is True
        assert certs["transport_entropy_laplace_link"]["pass"] is True

    @pytest.mark.parametrize("k, met", [("2e-311", 102), ("1e308", 0)])
    def test_extreme_k_prints_no_warning(self, tmp_path, capsys, k, met):
        """c = sqrt(2) K / Lambda makes c * c underflow to 0 or overflow to inf."""
        path = tmp_path / "c2.edges"
        path.write_text("0 1\n1 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["analyze", str(path), f"--k-override={k}"])
        out, err = capsys.readouterr()
        assert err == ""
        payload = json.loads(out)
        assert code == (0 if payload["all_pass"] else 1)
        cert = {c["name"]: c for c in payload["certificates"]}["information_to_entropy_bound"]
        assert cert["pass"] is True and cert["witness"]["hypothesis_met"] == met
        if met:
            assert cert["rhs"] == "Infinity"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "edges, k, vacuous",
        [
            # exp(-K t) overflows at t = 5 only
            pytest.param(C3_EDGES, "-1000", False, id="c3-minus-1e3"),
            # and here at every time
            pytest.param(C3_EDGES, "-1e308", True, id="c3-minus-1e308"),
            pytest.param("0 1 1e-300\n1 2 1e300\n2 0 1\n0 2 1\n", "-1e5", True,
                         id="extreme-weights-minus-1e5"),
        ],
    )
    def test_overflowed_contraction_bounds_print_no_warning(
        self, tmp_path, capsys, edges, k, vacuous
    ):
        """A large negative K overflows the bound exp(-K t) of both contraction certificates."""
        path = tmp_path / "g.edges"
        path.write_text(edges)
        code = main(["analyze", str(path), f"--k-override={k}"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        certs = {c["name"]: c for c in json.loads(out)["certificates"]}
        for name in ("lipschitz_contraction", "transport_contraction"):
            assert certs[name]["pass"] is True
            assert (certs[name]["rhs"] == "Infinity") is vacuous

    @pytest.mark.parametrize("command", ["analyze", "verify-functional"])
    def test_underflowed_rates_are_vacuous(self, c3_file, capsys, command):
        """K = 5e-324 on C3 underflows both 2K / Lambda^2 and sqrt(2) K / Lambda to 0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, c3_file, "--k-override=5e-324"])
        out, err = capsys.readouterr()
        assert err == ""
        payload = json.loads(out)
        assert code == (0 if payload["all_pass"] else 1)
        certs = {c["name"]: c for c in payload["certificates"]}
        assert len(certs) == (12 if command == "analyze" else 9)
        for name in ("transport_entropy_laplace_link", "information_to_entropy_bound"):
            assert certs[name]["pass"] is True and certs[name]["rhs"] == "Infinity"

    def test_link_with_neither_side_holding_is_a_vacuous_pass(self, tmp_path, capsys):
        """K = 5 on K_4 breaks both sides of the Bobkov-Goetze link on the samples."""
        path = tmp_path / "k4.edges"
        path.write_text("".join(f"{x} {y}\n" for x in range(4) for y in range(4) if x != y))
        code = main(["analyze", str(path), "--k-override=5"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1 and payload["all_pass"] is False
        cert = {c["name"]: c for c in payload["certificates"]}["transport_entropy_laplace_link"]
        assert [cert[k] for k in ("lhs", "rhs", "margin", "tol", "pass")] == [0, 0, 0, 1e-9, True]
        witness = cert["witness"]
        assert list(witness) == [
            "side", "moment_holds_on_samples", "transport_holds_on_samples",
            "moment_worst_margin", "transport_worst_margin", "necessary_conditions_only",
        ]
        assert witness["side"] == "none"
        assert witness["moment_holds_on_samples"] is False
        assert witness["transport_holds_on_samples"] is False
        assert witness["moment_worst_margin"] < 0 and witness["transport_worst_margin"] < 0

    def test_k_override_fails(self, c3_file, capsys):
        code = main(["analyze", c3_file, "--k-override", "1.6"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["all_pass"] is False
        failed = {c["name"] for c in payload["certificates"] if not c["pass"]}
        assert "lipschitz_contraction" in failed

    def test_reports_tolerances_used(self, c3_file, capsys):
        code = main(["analyze", c3_file, "--certificate-tol", "1e-6"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        # only tolerances the run applies: none for reversibility or adjointness,
        # and the smoothing agreement only with --cross-check
        common = {"balance", "lp_feasibility", "lp_gap", "certificate"}
        assert set(payload["tolerances"]) == common | {"curvature_limit"}
        assert payload["tolerances"]["certificate"] == 1e-6
        tols = {c["name"]: c["tol"] for c in payload["certificates"]}
        # the agreement certificates carry their tolerance as rhs, with tol 0
        assert tols.pop("curvature_heat_limit_agreement") == 0.0
        assert len(tols) == 11
        assert tols == dict.fromkeys(tols, 1e-6)
        assert payload["tolerances"]["curvature_limit"] == HEAT_LIMIT_AGREEMENT_TOL
        assert main(["analyze", c3_file, "--cross-check"]) == 0
        tolerances = json.loads(capsys.readouterr().out)["tolerances"]
        assert set(tolerances) == common | {"curvature_limit", "smoothing_agreement"}
        assert tolerances["smoothing_agreement"] == SMOOTHING_AGREEMENT_TOL
        # verify-functional checks no curvature agreement
        assert main(["verify-functional", c3_file]) == 0
        assert set(json.loads(capsys.readouterr().out)["tolerances"]) == common

    def test_reports_the_lp_tolerances_the_dual_simplex_uses(self, c3_file, capsys):
        # lp_feasibility is the threshold below which a basic variable leaves
        assert main(["analyze", c3_file]) == 0
        tolerances = json.loads(capsys.readouterr().out)["tolerances"]
        assert tolerances["lp_feasibility"] == lp.PRIMAL_TOL
        assert tolerances["lp_gap"] == lp.GAP_TOL

    def test_cross_check_witness_names_the_binding_pair(self, tri_file, capsys):
        assert main(["analyze", tri_file, "--cross-check"]) == 0
        certs = json.loads(capsys.readouterr().out)["certificates"]
        cert = next(c for c in certs if c["name"] == "curvature_smoothing_agreement")
        g = load_graph(tri_file)
        residuals = curvature_matrix(markov_data(g), distances(g), cross_check=True).cross_check
        x, y = cert["witness"]["pair"]
        assert x != y
        assert residuals[x, y] == cert["lhs"] == np.nanmax(residuals)
        assert cert["rhs"] == SMOOTHING_AGREEMENT_TOL

    def test_not_strongly_connected_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n1 2\n", encoding="utf-8")
        code = main(["analyze", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error" in err

    def test_missing_file_exits_2(self, capsys):
        code = main(["analyze", "/nonexistent/path.edges"])
        assert code == 2

    def test_table_format(self, c3_file, capsys):
        code = main(["analyze", c3_file, "--format", "table"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all pass" in out
        assert "[PASS]" in out

    def test_out_file(self, c3_file, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["analyze", c3_file, "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text(encoding="utf-8"))["all_pass"] is True

    def test_json_graph_input(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(
            '{"n": 3, "arcs": [[0, 1], [1, 2], [2, 0]]}', encoding="utf-8"
        )
        code = main(["analyze", str(path)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["all_pass"] is True

    def test_labels_with_control_characters_round_trip(self, tmp_path, capsys):
        labels = ["a\u0001b", "tab\tand\fform", "\x1f"]
        path = tmp_path / "g.json"
        path.write_text(
            json.dumps({"n": 3, "arcs": [[0, 1], [1, 2], [2, 0]], "labels": labels}),
            encoding="utf-8",
        )
        assert main(["analyze", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["graph"]["labels"] == labels


class TestCliCurvature:
    def test_csv_matrix(self, c3_file, capsys):
        code = main(["curvature", c3_file, "--format", "csv"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert len(out) == 3
        cells = out[0].split(",")
        assert cells[0] == "nan"
        assert float(cells[1]) == pytest.approx(1.5, abs=1e-6)

    def test_json_matrix(self, c3_file, capsys):
        code = main(["curvature", c3_file])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["K"] == pytest.approx(1.5, abs=1e-6)
        assert payload["kappa"][0][0] is None  # NaN serialises to null

    def test_single_pair(self, c3_file, capsys):
        code = main(["curvature", c3_file, "--pairs", "0,1"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["pair"] == [0, 1]
        assert payload["kappa"] == pytest.approx(1.5, abs=1e-6)

    def test_many_pairs_cross_checked(self, c3_file, capsys):
        code = main(["curvature", c3_file, "--pairs", "0,1", "1,2", "--cross-check"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(payload) == 2
        for record in payload:
            assert abs(record["kappa_limit"] - record["kappa"]) <= 1e-4

    def test_table(self, tri_file, capsys):
        assert main(["curvature", tri_file, "--format", "table"]) == 0
        assert "K = " in capsys.readouterr().out


class TestCliWasserstein:
    def test_dirac_asymmetry(self, c3_file, capsys):
        assert main(["wasserstein", c3_file, "dirac:0", "dirac:1"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(1.0)
        assert main(["wasserstein", c3_file, "dirac:1", "dirac:0"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(2.0)

    def test_identical_measures(self, c3_file, capsys):
        assert main(["wasserstein", c3_file, "dirac:2", "dirac:2"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0.0

    def test_measure_file_and_plan(self, c3_file, tmp_path, capsys):
        mfile = tmp_path / "nu.txt"
        mfile.write_text("0.2\n0.3\n0.5\n", encoding="utf-8")
        code = main(["wasserstein", c3_file, str(mfile), "dirac:0", "--plan"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        pi = np.array(payload["plan"])
        assert pi.shape == (3, 3)
        assert np.abs(pi.sum(axis=1) - [0.2, 0.3, 0.5]).max() <= 1e-10
        assert payload["duality_gap"] <= 1e-8

    def test_bad_vertex_exits_2(self, c3_file, capsys):
        assert main(["wasserstein", c3_file, "dirac:7", "dirac:0"]) == 2

    def test_mass_mismatch_exits_2(self, c3_file, tmp_path):
        mfile = tmp_path / "nu.txt"
        mfile.write_text("0.2\n0.3\n0.4\n", encoding="utf-8")
        assert main(["wasserstein", c3_file, str(mfile), "dirac:0"]) == 2

    @pytest.mark.parametrize(
        "contents", ["0.5\nnan\n0.5\n", "0.5\ninf\n0.5\n", "0.5\nabc\n0.5\n"]
    )
    def test_bad_measure_file_exits_2(self, c3_file, tmp_path, capsys, contents):
        mfile = tmp_path / "nu.txt"
        mfile.write_text(contents, encoding="utf-8")
        assert main(["wasserstein", c3_file, str(mfile), "dirac:0"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_non_integer_dirac_exits_2(self, c3_file, capsys):
        assert main(["wasserstein", c3_file, "dirac:x", "dirac:0"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestCliOther:
    def test_heat_kernel_row(self, c3_file, capsys):
        code = main(["heat", c3_file, "--t", "0.5", "--kernel", "0"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        row = np.array(payload["kernel_row"])
        assert row.sum() == pytest.approx(1.0, abs=1e-10)
        assert row[0] == pytest.approx((1 + 2 * np.exp(-0.75)) / 3, abs=1e-12)

    def test_heat_evolves_function(self, c3_file, capsys):
        code = main(["heat", c3_file, "--t", "1.0", "--f", "dirac:1"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(payload["heat_of_f"]) == 3

    def test_perron(self, tri_file, capsys):
        code = main(["perron", tri_file])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["perron"] == pytest.approx([0.4, 0.4, 0.2], abs=1e-12)
        assert payload["balance_residual"] <= 1e-12

    def test_verify_functional(self, c3_file, capsys):
        code = main(["verify-functional", c3_file])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        names = {c["name"] for c in payload["certificates"]}
        assert "transport_entropy_bound" in names
        assert "lipschitz_contraction" not in names

    def test_verify_functional_solves_kappa_on_the_arcs_only(self, tri_file, capsys, monkeypatch):
        """K is the least arc kappa: 4 solves on the triangle, not one per ordered pair.

        A kappa_lp call may be a row, so the solves made under it are
        counted, each named by its own program: the call's root x, and
        the y whose row holds the virtual column's +1 (x's row is dropped).
        """
        pairs, roots = [], []
        kappa_lp, solve_lp = curvature.kappa_lp, lp.solve_lp

        def recording_kappa_lp(x, ys, M, dm):
            roots.append(x)
            try:
                return kappa_lp(x, ys, M, dm)
            finally:
                roots.pop()

        def recording_solve(start, b):
            if roots:
                row = int(start.A[:, -1].argmax())
                pairs.append((roots[-1], row + (row >= roots[-1])))
            return solve_lp(start, b)

        monkeypatch.setattr(curvature, "kappa_lp", recording_kappa_lp)
        monkeypatch.setattr(lp, "solve_lp", recording_solve)
        assert main(["verify-functional", tri_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        g = load_graph(tri_file)
        assert pairs == [(0, 1), (1, 0), (1, 2), (2, 0)]
        assert payload["curvature"]["K"] == curvature_matrix(markov_data(g), distances(g)).K
        pairs.clear()
        assert main(["curvature", tri_file, "--pairs", "0,2", "2,1"]) == 0
        assert pairs == [(0, 2), (2, 1)]

    def test_k3_analyze(self, tmp_path, capsys):
        path = tmp_path / "k3.edges"
        path.write_text(K3_EDGES, encoding="utf-8")
        code = main(["analyze", str(path)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["curvature"]["K"] == pytest.approx(1.5, abs=1e-6)
        assert payload["distance"]["lambda"] == 1.0
        # each witness names the function, density or arc that bound its certificate
        for cert in payload["certificates"]:
            assert {"f_index", "rho", "pair"} & cert["witness"].keys(), cert["name"]


# 0 2, 0 3, 1 0, 1 2, 1 3, 2 0, 2 3, 3 0: every vertex has an out-arc, vertex 1 no in-arc
NO_IN_ARC_EDGES = "0 2 1.5\n0 3 1.3\n1 0 0.7\n1 2 0.5\n1 3 0.5\n2 0 3\n2 3 1.3\n3 0 1.3\n"


def assert_input_error(code: int, capsys) -> str:
    """Exit 2 with exactly one error: line and no output or traceback; returns the line."""
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    return lines[0]


class TestCliInputContract:
    def test_heat_non_finite_measure_file(self, c3_file, tmp_path, capsys):
        mfile = tmp_path / "f.txt"
        mfile.write_text("0.5\nnan\n0.5\n", encoding="utf-8")
        assert_input_error(main(["heat", c3_file, "--t", "1.0", "--f", str(mfile)]), capsys)

    @pytest.mark.parametrize("t", ["nan", "inf", "-1"])
    def test_heat_bad_time(self, c3_file, capsys, t):
        assert_input_error(main(["heat", c3_file, "--t", t, "--kernel", "0"]), capsys)

    @pytest.mark.parametrize("x", ["9", "-1", "a"])
    def test_heat_kernel_vertex_out_of_range(self, c3_file, capsys, x):
        assert_input_error(main(["heat", c3_file, "--t", "0.5", "--kernel", x]), capsys)

    @pytest.mark.parametrize("pair", ["0,9", "0,-1"])
    def test_pair_vertex_out_of_range(self, c3_file, capsys, pair):
        assert_input_error(main(["curvature", c3_file, "--pairs", pair]), capsys)

    @pytest.mark.parametrize("pair", ["0-1", "0,1,2", "a,1", ","])
    def test_malformed_pair(self, c3_file, capsys, pair):
        assert_input_error(main(["curvature", c3_file, "--pairs", "0,1", pair]), capsys)

    def test_one_line_inline_graph_reports_its_parse_error(self, capsys):
        line = assert_input_error(main(["analyze", '{"n": 2, "arcs": [[0, 1, 0]]}']), capsys)
        assert line.startswith("error: no such file and not valid edge text: ")
        assert line.endswith(": arc #0: zero-weight arc; omit it instead")

    def test_pair_of_one_vertex(self, c3_file, capsys):
        assert_input_error(main(["curvature", c3_file, "--pairs", "1,1"]), capsys)

    @pytest.mark.parametrize(
        "text",
        [
            "0 1 inf\n1 2 1\n2 0 1\n",
            "0 1 1e400\n1 2 1\n2 0 1\n",
            "0 1 nan\n1 2 1\n2 0 1\n",
            *(
                '{"n": 3, "arcs": [[0, 1, %s], [1, 2, 1], [2, 0, 1]]}' % w
                for w in ("Infinity", "1e400", "NaN", "true", '"2"', "null", "1" + "0" * 400)
            ),
        ],
    )
    def test_bad_arc_weight(self, tmp_path, capsys, text):
        path = tmp_path / "g.txt"
        path.write_text(text, encoding="utf-8")
        assert_input_error(main(["analyze", str(path)]), capsys)

    @pytest.mark.parametrize(
        "doc",
        [
            '{"n": true, "arcs": [[0, 0]]}',
            '{"n": 2, "arcs": [[false, true], [true, false]]}',
            '{"n": 2, "arcs": 5}',
        ],
    )
    def test_json_bool_or_scalar_is_no_graph(self, tmp_path, capsys, doc):
        path = tmp_path / "g.json"
        path.write_text(doc, encoding="utf-8")
        assert_input_error(main(["analyze", str(path)]), capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["perron", "{g}"],
            ["heat", "{g}", "--t", "0.5", "--kernel", "0"],
            ["curvature", "{g}"],
            ["wasserstein", "{g}", "dirac:0", "dirac:1"],
            ["analyze", "{g}"],
            ["verify-functional", "{g}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_subcommand_rejects_a_graph_that_is_not_strongly_connected(
        self, tmp_path, capsys, argv
    ):
        # vertex 1 has no in-arc, so its stationary mass would be rounding noise
        path = tmp_path / "no-in-arc.edges"
        path.write_text(NO_IN_ARC_EDGES, encoding="utf-8")
        line = assert_input_error(main([a.format(g=path) for a in argv]), capsys)
        assert line == "error: graph is not strongly connected: no path from 0 to 1"

    def test_out_weights_past_the_float_range_exit_2_naming_the_vertex(self, tmp_path, capsys):
        # every weight is finite, but vertex 0's out-weights sum to inf
        path = tmp_path / "huge.edges"
        path.write_text("0 1 1e308\n0 2 1e308\n1 0\n1 2\n2 0\n2 1\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning would be more stderr
            code = main(["perron", str(path)])
        line = assert_input_error(code, capsys)
        assert line.startswith("error: vertex 0 has out-weights")

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{g}", "--format", "csv"],
            ["verify-functional", "{g}", "--format", "csv"],
            ["curvature", "{g}", "--pairs", "0,1", "--format", "table"],
            ["wasserstein", "{g}", "dirac:0", "dirac:1", "--format", "csv"],
            ["heat", "{g}", "--t", "0.5", "--kernel", "0", "--format", "table"],
            ["perron", "{g}", "--format", "csv"],
        ],
    )
    def test_unsupported_format(self, c3_file, capsys, argv):
        assert_input_error(main([a.format(g=c3_file) for a in argv]), capsys)

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_cross_check_prints_json_only(self, c3_file, capsys, monkeypatch, fmt):
        """A csv or a table has no place for the smoothing residuals, so nothing is solved."""

        def unexpected(*args, **kwargs):
            raise AssertionError("curvature solved before rejecting --cross-check")

        monkeypatch.setattr(cli, "curvature_matrix", unexpected)
        line = assert_input_error(
            main(["curvature", c3_file, "--format", fmt, "--cross-check"]), capsys
        )
        assert line == f"error: curvature --cross-check prints JSON only, not --format {fmt}"

    @pytest.mark.parametrize(
        "argv",
        [
            ["curvature", "{g}"],
            ["wasserstein", "{g}", "dirac:0", "dirac:1"],
            ["heat", "{g}", "--t", "0.5", "--kernel", "0"],
            ["perron", "{g}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_seed_only_where_samples_are_drawn(self, c3_file, capsys, argv):
        assert_input_error(main([a.format(g=c3_file) for a in argv] + ["--seed", "1"]), capsys)

    def test_each_subcommand_offers_the_formats_it_renders(self):
        parser = cli.build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        formats = {
            name: next((a.choices for a in sub._actions if a.dest == "format"), None)
            for name, sub in commands.choices.items()
        }
        assert formats == {
            "analyze": ("json", "table"),
            "verify-functional": ("json", "table"),
            "perron": ("json", "table"),
            "curvature": ("json", "table", "csv"),
            "wasserstein": None,
            "heat": None,
        }

    @pytest.mark.parametrize("command", ["analyze", "verify-functional"])
    @pytest.mark.parametrize(
        "option",
        [
            ["--function-samples", "-1"],
            ["--function-samples", "0"],
            ["--function-samples", "1.5"],
            ["--density-samples", "-1"],
            ["--density-samples", "x"],
            ["--k-override", "nan"],
            ["--k-override", "inf"],
            ["--k-override=-inf"],
            ["--certificate-tol", "nan"],
            ["--certificate-tol", "-1"],
            ["--certificate-tol", "inf"],
            ["--seed", "-1"],
        ],
        ids="=".join,
    )
    def test_bad_numeric_option(self, c3_file, capsys, command, option):
        assert_input_error(main([command, c3_file, *option]), capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{g}", "--k-override", "-inf"],
            ["analyze", "{g}", "--bogus"],
            ["analyze"],
            [],
            ["analyze", "{g}", "--format", "xml"],
        ],
        ids=["option-like value", "unknown option", "no graph", "no subcommand", "bad choice"],
    )
    def test_usage_error(self, c3_file, capsys, argv):
        """argparse's own errors keep the contract too: exit 2, one error: line."""
        assert_input_error(main([a.format(g=c3_file) for a in argv]), capsys)

    def test_help_and_version_still_exit_0(self, capsys):
        for argv in (["--help"], ["analyze", "--help"], ["--version"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "usage: digricci analyze" in out and out.endswith(f"digricci {__version__}\n")

    def test_bad_lipschitz_sample_count(self, c3_file, capsys):
        assert_input_error(main(["analyze", c3_file, "--lipschitz-samples", "-1"]), capsys)

    def test_smallest_sample_counts_and_zero_tolerance_run(self, c3_file, capsys):
        argv = ["analyze", c3_file, "--function-samples", "1", "--density-samples", "0",
                "--lipschitz-samples", "0"]
        assert main(argv) == 0
        capsys.readouterr()
        # a zero tolerance is valid input: the report comes back, whatever its verdict
        code = main(["analyze", c3_file, "--certificate-tol", "0"])
        payload = json.loads(capsys.readouterr().out)
        assert code == (0 if payload["all_pass"] else 1)
        assert payload["tolerances"]["certificate"] == 0.0


@pytest.mark.parametrize("argv, calls", [
    (["perron"], 0),
    (["heat", "--t", "0.5", "--kernel", "0"], 0),
    (["analyze"], 1),
    (["curvature"], 1),
    (["wasserstein", "dirac:0", "dirac:1"], 1),
])
def test_hop_counts_are_built_once_and_only_where_read(c3_file, monkeypatch, capsys, argv, calls):
    """distances builds the hop matrix; the heat flow and the Perron measure never read it."""
    counted = []
    hop_matrix = digraph._hop_matrix
    monkeypatch.setattr(digraph, "_hop_matrix", lambda mu: counted.append(1) or hop_matrix(mu))
    assert main([argv[0], c3_file, *argv[1:]]) == 0
    capsys.readouterr()
    assert len(counted) == calls


@pytest.mark.parametrize("workload, carried, solves, pivots", [
    ("analyze_dense", 64, 988, 2772),
    ("analyze_sparse", 77, 413, 549),
])
def test_warm_starts_are_checked_only_where_a_solve_pivoted(
    workload, carried, solves, pivots, tmp_path, monkeypatch, capsys
):
    """Start.carried runs once per arc start and once per chain step that pivoted.

    One analyze on each graph of the benchmark workload (seed 1): the
    K_8 of analyze_dense, and the two ring+chords n=8 of analyze_sparse.
    A solve that took no pivot hands its own start on unchecked, and an
    arc's start off its kappa optimum is checked once, so of 392 and 301
    warm starts formed, 64 and 77 are checked; the solves and pivots are
    those of re-forming and re-checking every start.
    """
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    workloads = importlib.import_module("workloads")
    counts = {"carried": 0, "solves": 0, "pivots": 0}
    carried_start, solve_lp = lp.Start.carried.__func__, lp.solve_lp

    def counting_carried(cls, *args):
        counts["carried"] += 1
        return carried_start(cls, *args)

    def counting_solve(start, b):
        solution = solve_lp(start, b)
        counts["solves"] += 1
        counts["pivots"] += solution.iterations
        return solution

    monkeypatch.setattr(lp.Start, "carried", classmethod(counting_carried))
    monkeypatch.setattr(lp, "solve_lp", counting_solve)
    for graph in workloads.build(workload, 1).graphs:
        path = tmp_path / f"{graph.name}.edges"
        path.write_text(graph.text(), encoding="utf-8")
        assert main(["analyze", str(path)]) == 0
    capsys.readouterr()
    assert counts == {"carried": carried, "solves": solves, "pivots": pivots}


def test_sparse_analyze_solves_kappa_per_pair_and_heat_flow_per_arc(
    tmp_path, lp_solves, capsys
):
    """A directed 8-cycle with the chord 0 -> 4 has 9 arcs and K < 0.

    analyze solves kappa on all 56 ordered pairs, and W on the 9 arcs at
    the 4 contraction times and the 3 heat-limit times: 56 + 7 x 9.
    """
    rng = np.random.default_rng(SEED)
    arcs = [(x, (x + 1) % 8) for x in range(8)] + [(0, 4)]
    path = tmp_path / "ring8.edges"
    path.write_text(
        "".join(f"{x} {y} {rng.uniform(0.5, 2.0)!r}\n" for x, y in arcs), encoding="utf-8"
    )
    assert main(["analyze", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["curvature"]["K"] < 0
    certs = {c["name"]: c for c in out["certificates"]}
    for name in ("transport_contraction", "curvature_heat_limit_agreement"):
        assert certs[name]["hypothesis"]["pairs"] == "arcs"
    # 63 of the LPs are the heat-flow transports, solved under wasserstein
    under_w = sum(w for w, _pivots in lp_solves)
    assert (len(lp_solves), under_w) == (56 + 7 * 9, 7 * 9)


def test_sparse_analyze_heat_flow_pivots(tmp_path, lp_solves, capsys):
    """The 63 heat-flow W of the 8-cycle + chord take 10 pivots in all.

    Each arc's two chains (the heat limit's times, then the contraction's)
    start from the arc's kappa optimum, the optimal basis of W as t -> 0,
    and go along increasing t, each solve from the previous time's
    optimal basis.  Started from a BFS tree instead, the chains took 28,
    and with a BFS tree every time 91.  K < 0 skips the functional
    suite, so every W of the run is a heat-flow W.
    """
    rng = np.random.default_rng(SEED)
    arcs = [(x, (x + 1) % 8) for x in range(8)] + [(0, 4)]
    path = tmp_path / "ring8.edges"
    path.write_text(
        "".join(f"{x} {y} {rng.uniform(0.5, 2.0)!r}\n" for x, y in arcs), encoding="utf-8"
    )
    assert main(["analyze", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["curvature"]["K"] < 0
    pivots = [p for under_w, p in lp_solves if under_w]
    assert (len(pivots), sum(pivots)) == (7 * 9, 10)


def test_k8_analyze_solve_count(tmp_path, lp_solves, capsys):
    """analyze on a weighted K_8 makes 988 LP solves, 932 of them for W.

    56 curvature programs, one flow program per pair transport of the
    small-time heat limit (3 times) and of transport contraction (4
    times), and 5 x (100 + 8) density transports in the functional
    suite: 56 + 7 x 56 + 540.  The benchmark's count canary expects
    exactly these numbers.
    """
    rng = np.random.default_rng(SEED)
    path = tmp_path / "k8.edges"
    path.write_text(
        "".join(f"{x} {y} {rng.uniform(0.5, 2.0)!r}\n"
                for x in range(8) for y in range(8) if x != y),
        encoding="utf-8",
    )
    assert main(["analyze", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["curvature"]["K"] > 0
    assert (len(lp_solves), sum(w for w, _pivots in lp_solves)) == (988, 932)
