"""JSON report rendering and the command-line surface."""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest

from conftest import C3_EDGES, K3_EDGES, SEED, TRI_EDGES
from digricci import InequalityCertificate, lp, render_json, transport
from digricci.cli import main
from digricci.curvature import SMOOTHING_AGREEMENT_TOL
from digricci.report import VerificationReport, certificate_to_dict


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
        }
        parsed = json.loads(render_json(value))
        assert parsed["a"] == [1, 2.5, None, True, False]
        assert parsed["b"]["nested"] == 'tab\there "quoted" back\\slash'
        assert parsed["c"] == [0.1, 0.2]

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
        assert report.to_dict()["schema_version"] == 1


class TestCliAnalyze:
    def test_c3_passes_end_to_end(self, c3_file, capsys):
        code = main(["analyze", c3_file])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
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
        assert payload["tolerances"]["certificate"] == 1e-6
        tols = {c["name"]: c["tol"] for c in payload["certificates"]}
        # the agreement certificates carry their tolerance as rhs, with tol 0
        assert tols.pop("curvature_heat_limit_agreement") == 0.0
        assert len(tols) == 11
        assert tols == dict.fromkeys(tols, 1e-6)
        assert payload["tolerances"]["smoothing_agreement"] == SMOOTHING_AGREEMENT_TOL

    def test_reports_the_lp_tolerances_the_dual_simplex_uses(self, c3_file, capsys):
        # lp_feasibility is the threshold below which a basic variable leaves
        assert main(["analyze", c3_file]) == 0
        tolerances = json.loads(capsys.readouterr().out)["tolerances"]
        assert tolerances["lp_feasibility"] == lp.PRIMAL_TOL
        assert tolerances["lp_gap"] == lp.GAP_TOL

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

    def test_k3_analyze(self, tmp_path, capsys):
        path = tmp_path / "k3.edges"
        path.write_text(K3_EDGES, encoding="utf-8")
        code = main(["analyze", str(path)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["curvature"]["K"] == pytest.approx(1.5, abs=1e-6)
        assert payload["distance"]["lambda"] == 1.0


def assert_input_error(code: int, capsys) -> None:
    """Exit 2 with exactly one error: line and no output or traceback."""
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err


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


def test_sparse_analyze_solves_kappa_per_pair_and_heat_flow_per_arc(
    tmp_path, monkeypatch, capsys
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
    calls = []
    solve_lp, wasserstein = lp.solve_lp, transport.wasserstein
    monkeypatch.setattr(lp, "solve_lp", lambda p: calls.append("lp") or solve_lp(p))
    monkeypatch.setattr(
        transport, "wasserstein", lambda *a, **k: calls.append("W") or wasserstein(*a, **k)
    )
    assert main(["analyze", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["curvature"]["K"] < 0
    certs = {c["name"]: c for c in out["certificates"]}
    for name in ("transport_contraction", "curvature_heat_limit_agreement"):
        assert certs[name]["hypothesis"]["pairs"] == "arcs"
    # one LP per W, so 63 of the LPs are the heat-flow transports
    assert (calls.count("lp"), calls.count("W")) == (56 + 7 * 9, 7 * 9)


def test_k8_analyze_solve_count(tmp_path, monkeypatch, capsys):
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
    counts = {"solves": 0, "under_wasserstein": 0}
    depth = [0]
    solve_lp, wasserstein = lp.solve_lp, transport.wasserstein

    def counting_solve(problem):
        counts["solves"] += 1
        counts["under_wasserstein"] += depth[0] > 0
        return solve_lp(problem)

    def counting_wasserstein(*args, **kwargs):
        depth[0] += 1
        try:
            return wasserstein(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(lp, "solve_lp", counting_solve)
    monkeypatch.setattr(transport, "wasserstein", counting_wasserstein)
    assert main(["analyze", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["curvature"]["K"] > 0
    assert counts == {"solves": 988, "under_wasserstein": 932}
