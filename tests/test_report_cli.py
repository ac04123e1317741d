"""JSON report rendering and the command-line surface."""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import json
import math
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import C3_EDGES, K3_EDGES, SEED, TRI_EDGES
from digricci import (
    InequalityCertificate,
    ParseError,
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
from digricci.concentration import LAMBDA_GRID, R_GRID
from digricci.curvature import EPS_GRID, SMOOTHING_AGREEMENT_TOL
from digricci.heat import HEAT_LIMIT_AGREEMENT_TOL, LIMIT_GRID, TIME_GRID
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


JSON_LEAVES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, True, False, np.True_]),
    st.integers(-(2**70), 2**70),
    st.integers(-5, 5).map(np.int64),
)


@settings(max_examples=200, deadline=None)
@given(st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
    ),
    max_leaves=40,
))
def test_render_json_is_the_recursive_route(value):
    """Nested lists of floats, np.float64, NaN, infinities, -0.0, ints and bools: the same bytes."""
    assert render_json(value) == oracles.render_json_reference(value)


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
                "--certificate-tol", "1e-6", "--density-samples", "4", "--function-samples", "5"]
        config = cli._config_from_args(cli._parser().parse_args(argv))
        expected = {"seed": 7, "k_override": 0.5, "cross_check": True, "certificate_tol": 1e-6,
                    "density_samples": 4, "function_samples": 5}
        assert dataclasses.asdict(config) == expected
        assert all(expected[field.name] != field.default for field in dataclasses.fields(RunConfig))

    @pytest.mark.parametrize("command", ["analyze", "verify-functional"])
    def test_option_defaults_are_the_run_config_defaults(self, command):
        args = vars(cli.build_parser().parse_args([command, "graph.edges"]))
        defaults = dataclasses.asdict(RunConfig())
        given = {name: args[name] for name in defaults if name in args}
        assert given == {name: defaults[name] for name in given}
        assert set(defaults) - set(given) == (set() if command == "analyze" else {"cross_check"})

    @pytest.mark.parametrize("command", ["analyze", "verify-functional"])
    @pytest.mark.parametrize(
        "edges, override, K, K_used",
        [
            pytest.param(C3_EDGES, ["--k-override", "-1"], 1.5, -1.0, id="c3-override"),
            pytest.param("0 1\n1 2\n2 3\n3 0\n", [], 0.0, 0.0, id="directed-c4"),
            pytest.param("0 1\n1 2\n2 3\n3 0\n", ["--k-override=0.5"], 0.0, 0.5,
                         id="directed-c4-override"),
        ],
    )
    def test_the_suite_runs_or_is_skipped_at_k_used(
        self, tmp_path, capsys, command, edges, override, K, K_used
    ):
        """The suite needs K_used > 0, and a skip names K_used, computed or overridden."""
        path = tmp_path / "g.edges"
        path.write_text(edges)
        main([command, str(path), *override])
        payload = json.loads(capsys.readouterr().out)
        assert (payload["curvature"]["K"], payload["curvature"]["K_used"]) == (K, K_used)
        ran = any(c["name"] == "laplace_moment_bound" for c in payload["certificates"])
        if K_used > 0:
            assert ran and "functional_suite" not in payload
        else:
            assert not ran
            assert payload["functional_suite"] == f"skipped: needs K > 0, K_used = {K_used:.17g}"

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

    def test_reports_state_the_module_grids(self, c3_file, capsys):
        """Each grid a K > 0 cross-checked report states is the constant its check samples."""
        assert main(["analyze", c3_file, "--cross-check"]) == 0
        certs = json.loads(capsys.readouterr().out)["certificates"]
        hypotheses = {cert["name"]: cert["hypothesis"] for cert in certs}
        grids = {
            ("lipschitz_contraction", "times"): TIME_GRID,
            ("transport_contraction", "times"): TIME_GRID,
            ("curvature_heat_limit_agreement", "time_grid"): LIMIT_GRID,
            ("curvature_smoothing_agreement", "eps_grid"): EPS_GRID,
            ("laplace_moment_bound", "lambda_grid"): LAMBDA_GRID,
            ("exp_chain_rule_bound", "lambda_grid"): LAMBDA_GRID,
            ("transport_entropy_laplace_link", "lambda_grid"): LAMBDA_GRID,
            ("lipschitz_tail_bound", "r_grid"): R_GRID,
        }
        stated = {(name, key): hypotheses[name][key] for name, key in grids}
        assert stated == {pair: list(grid) for pair, grid in grids.items()}

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
        "contents", ["0.5\nnan\n0.5\n", "0.5\ninf\n0.5\n", "0.5\nabc\n0.5\n", "0.5\n0.5\n"]
    )
    def test_bad_measure_file_exits_2(self, c3_file, tmp_path, capsys, contents):
        """A junk, non-finite or short measure file is a ParseError, and main exits 2."""
        mfile = tmp_path / "nu.txt"
        mfile.write_text(contents, encoding="utf-8")
        with pytest.raises(ParseError, match=f"measure file {mfile}"):
            cli._parse_measure(str(mfile), 3)
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

    def test_analyze_runs_verify_functionals_suite(self, tmp_path, capsys, monkeypatch):
        """analyze's 9 suite certificates are verify-functional's, byte for byte, at one seed.

        Neither command draws a sample before its suite.  On K_3 and on
        the K_8 of the analyze_dense workload at seeds 1-4.
        """
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        workloads = importlib.import_module("workloads")
        k8s = [workloads.build("analyze_dense", seed).graphs for seed in (1, 2, 3, 4)]
        assert all(graph.n == 8 for (graph,) in k8s)
        for i, text in enumerate([K3_EDGES, *(graph.text() for (graph,) in k8s)]):
            path = tmp_path / f"graph{i}.edges"
            path.write_text(text, encoding="utf-8")
            reports = []
            for command in ("analyze", "verify-functional"):
                assert main([command, str(path)]) == 0
                reports.append(json.loads(capsys.readouterr().out)["certificates"])
            analyze, functional = reports
            assert len(functional) == 9
            assert render_json(analyze[-9:]) == render_json(functional)

    def test_verify_functional_solves_kappa_on_the_arcs_only(self, tri_file, capsys, monkeypatch):
        """K is the least arc kappa: 4 solves on the triangle, not one per ordered pair.

        A kappa_lp call may be a row, so the solves made under it are
        counted, each named by its own program: the call's root x, and
        the y whose row holds the push's deficit, the least entry of b
        (x's row is dropped).
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
                row = int(b.argmin())
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
            ["analyze", "{g}", "--lipschitz-samples", "5"],
        ],
        ids=["option-like value", "unknown option", "no graph", "no subcommand", "bad choice",
             "removed option"],
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

    def test_smallest_sample_counts_and_zero_tolerance_run(self, c3_file, capsys):
        argv = ["analyze", c3_file, "--function-samples", "1", "--density-samples", "0"]
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


def _workload_files(workload: str, tmp_path, monkeypatch) -> list[str]:
    """The graph files of a benchmark workload at seed 1, as analyze reads them."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    paths = []
    for graph in importlib.import_module("workloads").build(workload, 1).graphs:
        path = tmp_path / f"{graph.name}.edges"
        path.write_text(graph.text(), encoding="utf-8")
        paths.append(str(path))
    return paths


# the counts stay out of the test ids, so that a change that moves them fails under the same name
@pytest.mark.parametrize("workload, roots, carried, solves, pivots", [
    ("analyze_dense", 16, 164, 988, 893),
    ("analyze_sparse", 16, 65, 413, 390),
], ids=["analyze_dense", "analyze_sparse"])
def test_warm_starts_are_checked_only_where_a_solve_pivoted(
    workload, roots, carried, solves, pivots, tmp_path, monkeypatch, capsys
):
    """Start.carried runs once per arc start and chain step whose solve pivoted.

    One analyze on each graph of the benchmark workload (seed 1): the
    K_8 of analyze_dense, and the two ring+chords n=8 of analyze_sparse.
    transport.root_basis builds each tree's start through Start.carried
    once, 16 trees on each workload, and those checks are counted
    apart.  Of the warm starts, a solve that took no pivot hands its own
    start on unchecked, the arc's start off its kappa optimum included
    (that optimum is a basis of the arc's W program as it stands), so
    of the 392 and 301 heat-flow warm starts formed, 64 and 65 are
    checked.  The
    K_8 also runs the functional suite: its first transport check
    solves the 108 densities cold, and each of the 100 columns that
    pivoted has its optimum checked once as the start of the four later
    checks, whose 432 solves then take no pivot.  The solves and pivots
    are those of re-forming and re-checking every start.  The
    densities are the first draws of the seed's rng, as
    verify-functional's are.
    """
    counts = {"roots": 0, "carried": 0, "solves": 0, "pivots": 0}
    carried_start, solve_lp = lp.Start.carried.__func__, lp.solve_lp

    def counting_carried(cls, *args):
        counts["roots" if sys._getframe(1).f_code.co_name == "root_basis" else "carried"] += 1
        return carried_start(cls, *args)

    def counting_solve(start, b):
        solution = solve_lp(start, b)
        counts["solves"] += 1
        counts["pivots"] += solution.iterations
        return solution

    monkeypatch.setattr(lp.Start, "carried", classmethod(counting_carried))
    monkeypatch.setattr(lp, "solve_lp", counting_solve)
    for path in _workload_files(workload, tmp_path, monkeypatch):
        assert main(["analyze", path]) == 0
    capsys.readouterr()
    assert counts == {"roots": roots, "carried": carried, "solves": solves, "pivots": pivots}


def test_a_table_keeps_only_what_it_reads_of_its_solves(tmp_path, monkeypatch, capsys):
    """While the heat-limit table of analyze_dense's K_8 runs, at most k + 2 solves live.

    The table, k = 3 times over a = 56 arcs, keeps each row's first
    largest W, and of each column's last solve a ColumnStart, which
    holds the solve's start, basis and rows but not the solve; beyond
    those only the solve that starts the next one and the one just made
    are alive.  A table that kept each column's last solve would reach
    a + k + 1, and one that held every solve until it returned all
    3 x 56.  The solves are counted through weak references, not
    bytes, so the allocator cannot move the count.
    """
    (path,) = _workload_files("analyze_dense", tmp_path, monkeypatch)
    solves, alive, in_limit = [], [], [False]
    solve_lp, limit = lp.solve_lp, cli.curvature_time_limit

    def watching_solve(start, b):
        solution = solve_lp(start, b)
        if in_limit[0]:
            solves.append(weakref.ref(solution))
            alive.append(sum(ref() is not None for ref in solves))
        return solution

    def watching_limit(*args, **kwargs):
        in_limit[0] = True
        try:
            return limit(*args, **kwargs)
        finally:
            in_limit[0] = False

    monkeypatch.setattr(lp, "solve_lp", watching_solve)
    monkeypatch.setattr(cli, "curvature_time_limit", watching_limit)
    assert main(["analyze", path]) == 0
    capsys.readouterr()
    k, a = len(LIMIT_GRID), 56
    assert len(alive) == k * a
    assert max(alive) <= k + 2


def test_a_kappa_row_keeps_one_solve_at_a_time(tmp_path, monkeypatch, capsys):
    """While a kappa_lp row solves, at most one earlier solve and one non-arc tableau are alive.

    kappa_lp keeps of each solve its value, its final cost row and, for
    an arc, a ColumnStart that holds the solve's start, basis and final
    rows, the tableau it pivoted, but not the solve: so only the solve
    just made lives while the next one solves, and of a target that is
    no arc only the tableau just made.  Each arc's record holds its own
    solve's rows, no copy.  On analyze_sparse's two ring+chords n=8
    (seed 1) the 16 rows of 7 targets make 112 solves; a row that held
    its solves until its witnesses were read would reach 6 solves, and
    as many tableaus as its non-arc targets that pivoted.
    The solves and tableaus are counted through weak references, not
    bytes, so the allocator cannot move the counts.
    """
    paths = _workload_files("analyze_sparse", tmp_path, monkeypatch)
    solves, tableaus, alive, in_row, rows = [], [], [], [], []
    solve_lp, row = lp.solve_lp, curvature.kappa_lp

    def count(refs) -> int:
        return sum(ref() is not None for ref in refs)

    def watching_solve(start, b):
        if in_row:
            alive.append((count(solves), count(tableaus)))
        solution = solve_lp(start, b)
        if in_row:
            solves.append(weakref.ref(solution))
            x, dm = in_row[-1]
            # the row of y holds the push's deficit; a pivoted solve's rows view its tableau
            y = int(np.delete(np.arange(len(dm.d)), x)[b.argmin()])
            if solution.iterations and dm.d[x, y] != 1:
                tableaus.append(weakref.ref(solution.rows.base))
            rows.append((y, weakref.ref(solution.rows)))
        return solution

    def watching_row(x, ys, M, dm):
        in_row.append((x, dm))
        rows.clear()
        try:
            kappa, witness, starts = row(x, ys, M, dm)
        finally:
            in_row.pop()
        for (y, solved), start in zip(rows, starts, strict=True):
            assert (start is None) == (dm.d[x, y] != 1)
            assert start is None or start.rows is solved()
        return kappa, witness, starts

    monkeypatch.setattr(lp, "solve_lp", watching_solve)
    monkeypatch.setattr(curvature, "kappa_lp", watching_row)
    for path in paths:
        assert main(["analyze", path]) == 0
    capsys.readouterr()
    assert len(alive) == 2 * 56 and tableaus
    assert max(solve for solve, _tableau in alive) <= 1
    assert max(tableau for _solve, tableau in alive) <= 1


def _watch_arc_starts(monkeypatch) -> list[weakref.ref]:
    """Weak references to every arc's ColumnStart cli.curvature_matrix returns from here on."""
    refs, matrix = [], cli.curvature_matrix

    def keeping_matrix(*args, **kwargs):
        curv = matrix(*args, **kwargs)
        refs.extend(weakref.ref(start) for start in curv.arc_starts)
        return curv

    monkeypatch.setattr(cli, "curvature_matrix", keeping_matrix)
    return refs


def _alive_on_entry(monkeypatch, name: str, refs: list[weakref.ref]) -> list[int]:
    """How many of refs are alive, after gc.collect(), at each entry to cli's function name."""
    seen, original = [], getattr(cli, name)

    def watching(*args, **kwargs):
        gc.collect()
        seen.append(sum(ref() is not None for ref in refs))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, watching)
    return seen


def test_analyze_drops_the_kappa_and_limit_starts_before_the_suite(
    tmp_path, monkeypatch, capsys
):
    """No kappa arc optimum and no start of the heat-limit table outlives the heat-flow stage.

    On analyze_dense's K_8 (K > 0), kappa's 56 arc records start the
    limit table and its 56 column records the contraction table; by the
    time the functional suite runs, nothing holds any of them.
    """
    (path,) = _workload_files("analyze_dense", tmp_path, monkeypatch)
    refs, limit = _watch_arc_starts(monkeypatch), cli.curvature_time_limit

    def keeping_limit(*args, **kwargs):
        limits, spreads, starts = limit(*args, **kwargs)
        refs.extend(weakref.ref(start) for start in starts)
        return limits, spreads, starts

    monkeypatch.setattr(cli, "curvature_time_limit", keeping_limit)
    seen = _alive_on_entry(monkeypatch, "functional_certificates", refs)
    assert main(["analyze", path]) == 0
    capsys.readouterr()
    assert (len(refs), seen) == (2 * 56, [0])


def test_analyze_drops_the_kappa_starts_before_the_contraction(tmp_path, monkeypatch, capsys):
    """On analyze_sparse's graphs (K < 0, no suite) kappa's arc records die with the limit table."""
    paths = _workload_files("analyze_sparse", tmp_path, monkeypatch)
    refs = _watch_arc_starts(monkeypatch)
    seen = _alive_on_entry(monkeypatch, "verify_transport_contraction", refs)
    for path in paths:
        assert main(["analyze", path]) == 0
    capsys.readouterr()
    assert (bool(refs), seen) == (True, [0, 0])


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
    """The 63 heat-flow W of the 8-cycle + chord take 5 pivots in all.

    Each arc's W are one chain along increasing t, each solve from the
    previous one's optimal basis: the heat limit's times from the arc's
    kappa optimum, the optimal basis of W as t -> 0, then the
    contraction's from the heat limit's last optimum, whose time 0.01 is
    the contraction's first, so that solve takes no pivot.  With both
    tables started from the kappa optima the chains took 10, from a BFS
    tree 28, and with a BFS tree every time 91.  K < 0 skips the
    functional suite, so every W of the run is a heat-flow W.
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
    assert (len(pivots), sum(pivots)) == (7 * 9, 5)


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
