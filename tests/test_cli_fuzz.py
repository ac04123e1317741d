"""The CLI exit-code contract under fuzzed input.

0 means every certificate passed, 1 that some certificate failed and 2
that the input was bad.  Hypothesis feeds cli.main edge lists and JSON
graphs with tokens swapped for junk, measure files with junk lines,
--pairs specs built from junk and argv with junk option tokens, next
to well-formed ones.  Whatever the
input, main must return (an escaping exception is a traceback), exit 2
must come with exactly one error: line and nothing on stdout, and
exit 1 only with a report in which some certificate failed.  perron
exits 0 only on a strongly connected graph.  heat answers at every
finite time from 0 to the largest float, also on a graph whose weights
1e-300 and 1e300 sit side by side.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import C3_EDGES, TRI_EDGES
from digricci import load_graph, markov_data
from digricci.cli import main
from digricci.transport import MASS_TOL

FUZZ_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# tokens that break a number, a vertex id, a line or a document
JUNK = ("nan", "inf", "-inf", "1e400", "-1", "0", "-0", "7", "1.5", "x", "#", ",", ":",
        "{", "]", '"', "true", "null", "1" + "0" * 400, "")

# option tokens argparse rejects: unknown options, missing or bad values,
# a value it reads as an option; none abbreviates --help, --version or --out
JUNK_OPTIONS = ("--bogus", "-x", "--", "-", "7", "nan", "-inf", "--seed", "--seed=-1",
                "--format", "--format=xml", "--k-override", "--cross-check=1", "--pairs",
                "--t", "--kernel", "--function-samples")

# analyze with few samples, so one example stays cheap
SMALL_ANALYZE = ("--density-samples", "3", "--function-samples", "3")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv: list[str]) -> None:
    """Run main and check its exit code against what it printed."""
    code, out, err = run_cli(argv)
    if code == 2:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        return
    assert "Traceback" not in err
    if argv[0] == "perron" and code == 0:
        # only a strongly connected graph has a stationary measure to print
        mu = np.asarray(load_graph(argv[1]).mu)
        assert (oracles.hop_distances(mu) < oracles.INF).all()
    if argv[0] in ("analyze", "verify-functional"):
        passed = [c["pass"] for c in json.loads(out)["certificates"]]
        assert code == (0 if all(passed) else 1), passed
    else:
        assert code == 0
        json.loads(out)


def tokens(draw, valid: st.SearchStrategy, broken: bool) -> str:
    """A valid token, or, in broken input, one time in three a junk one."""
    if broken and draw(st.integers(0, 2)) == 0:
        return draw(st.sampled_from(JUNK))
    return draw(valid)


@st.composite
def edge_lists(draw) -> str:
    """Lines "src dst [weight]" on up to four vertices, some tokens junk."""
    n = draw(st.integers(1, 4))
    vertex = st.integers(0, n - 1).map(str)
    weight = st.floats(0.5, 2.0).map(repr)
    broken = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 7))):
        line = [tokens(draw, vertex, broken), tokens(draw, vertex, broken)]
        if draw(st.booleans()):
            line.append(tokens(draw, weight, broken))
        if broken and draw(st.integers(0, 7)) == 0:
            line.append(draw(st.sampled_from(JUNK)))
        lines.append(" ".join(line))
    # a newline keeps load_graph from reading the text as a file name
    return "\n".join(lines) + "\n"


@st.composite
def cycle_graphs(draw) -> str:
    """A weighted directed cycle on two to four vertices plus random chords."""
    n = draw(st.integers(2, 4))
    weight = st.floats(0.5, 2.0)
    arcs = {(x, (x + 1) % n): draw(weight) for x in range(n)}
    for x in range(n):
        for y in range(n):
            if x != y and (x, y) not in arcs and draw(st.booleans()):
                arcs[(x, y)] = draw(weight)
    return "".join(f"{x} {y} {w!r}\n" for (x, y), w in arcs.items())


JSON_SCALARS = st.one_of(
    st.integers(-1, 4), st.floats(0.5, 2.0), st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(), st.none(), st.text(max_size=2), st.just(10**400),
)


@st.composite
def json_graphs(draw) -> str:
    """{"n": ..., "arcs": [...], "labels": ...} with junk values, sometimes cut short."""
    n = draw(st.one_of(st.integers(1, 4), JSON_SCALARS))
    vertex = st.integers(0, 3)
    arc = st.one_of(
        st.tuples(vertex, vertex).map(list),
        st.tuples(vertex, vertex, st.floats(0.5, 2.0)).map(list),
        st.lists(JSON_SCALARS, max_size=4),
    )
    doc = {"n": n, "arcs": draw(st.one_of(st.lists(arc, max_size=7), JSON_SCALARS))}
    if draw(st.booleans()):
        doc["labels"] = draw(st.one_of(st.lists(st.text(max_size=2), max_size=5), JSON_SCALARS))
    text = json.dumps(doc)
    if draw(st.integers(0, 5)) == 0:
        text = text[: draw(st.integers(1, len(text)))]
    return text + "\n"


@st.composite
def measure_texts(draw, n: int) -> str:
    """One weight per line: a probability vector, or lines of the wrong count or junk."""
    if draw(st.booleans()):
        w = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(any))
        return "".join(f"{v / sum(w)!r}\n" for v in w)
    count = draw(st.sampled_from([n, n, 0, n - 1, n + 1]))
    weight = st.floats(0.0, 1.0).map(repr)
    return "".join(tokens(draw, weight, True) + "\n" for _ in range(count))


@st.composite
def pair_specs(draw) -> list[str]:
    """--pairs arguments x,y on the three-vertex fixtures, some malformed."""
    vertex = st.integers(0, 2).map(str)
    broken = draw(st.booleans())
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        count = draw(st.sampled_from([2, 2, 2, 1, 3])) if broken else 2
        specs.append(",".join(tokens(draw, vertex, broken) for _ in range(count)))
    return specs


@FUZZ_SETTINGS
@given(st.one_of(cycle_graphs(), edge_lists(), json_graphs()))
# every vertex has an out-arc, but vertex 1 has no in-arc
@example("0 2 1.5\n0 3 1.3\n1 0 0.7\n1 2 0.5\n1 3 0.5\n2 0 3\n2 3 1.3\n3 0 1.3\n")
def test_fuzzed_graphs_exit_by_the_contract(text):
    assert_contract(["perron", text])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(cycle_graphs(), edge_lists()), st.floats(-1.0, 3.0), st.booleans())
def test_fuzzed_analyze_exits_1_only_on_a_failed_certificate(text, k, spaced):
    # a K above the graph's curvature makes certificates fail: exit 1.
    # The value goes after "=" or as its own token, where a value such
    # as -6e-258 must still be read as a number, not an option
    k_override = ["--k-override", repr(k)] if spaced else [f"--k-override={k!r}"]
    assert_contract(["analyze", text, *k_override, *SMALL_ANALYZE])


@pytest.mark.parametrize("value", ["-1e3", "-1E-3", "-.5e1", "-inf", "-nan"])
def test_a_negative_number_is_a_value_in_either_form(value):
    """Either form of --k-override reaches its type, which accepts finite numbers alone."""
    small = ["--density-samples", "3", "--function-samples", "3"]
    outcomes = {run_cli(["verify-functional", C3_EDGES, *form, *small])
                for form in (["--k-override", value], [f"--k-override={value}"])}
    assert len(outcomes) == 1
    ((code, out, err),) = outcomes
    if value in ("-inf", "-nan"):
        assert (code, out) == (2, "")
        assert err == f"error: --k-override must be a finite number, got {value!r}\n"
    else:
        assert code in (0, 1)
        assert json.loads(out)["curvature"]["K_used"] == float(value)


@pytest.mark.parametrize("pairs", [["-1,2"], ["0,1", "-1,0"], ["-3,1", "0,-1"]])
def test_a_negative_pair_names_its_vertex(pairs):
    """A pair whose first vertex is negative is a value, so its parse names the vertex."""
    vertex = next(pair for pair in pairs if pair.startswith("-")).split(",")[0]
    assert run_cli(["curvature", C3_EDGES, "--pairs", *pairs]) == (
        2, "", f"error: pair vertex {vertex} out of range for n=3\n")


@FUZZ_SETTINGS
@given(st.data())
def test_fuzzed_measure_files_exit_by_the_contract(tmp_path_factory, data):
    graph = data.draw(st.sampled_from([C3_EDGES, TRI_EDGES]))
    path = tmp_path_factory.getbasetemp() / "fuzz-measure.txt"
    path.write_text(data.draw(measure_texts(3)), encoding="utf-8")
    other = data.draw(st.sampled_from(["dirac:0", "dirac:2", "dirac:3", "dirac:x", str(path)]))
    assert_contract(["wasserstein", graph, str(path), other])
    assert_contract(["heat", graph, "--t", "0.5", "--f", str(path)])


@FUZZ_SETTINGS
@given(st.sampled_from([C3_EDGES, TRI_EDGES]), pair_specs(), st.booleans())
def test_fuzzed_pairs_exit_by_the_contract(graph, specs, cross_check):
    argv = ["curvature", graph, "--pairs", *specs]
    assert_contract(argv + ["--cross-check"] if cross_check else argv)


@FUZZ_SETTINGS
@given(st.sampled_from([None, "analyze", "curvature", "heat", "perron"]),
       st.lists(st.sampled_from(JUNK_OPTIONS), min_size=1, max_size=4))
def test_junk_options_exit_by_the_contract(command, junk):
    if command is None:
        assert_contract(junk)
    else:
        small = list(SMALL_ANALYZE) if command == "analyze" else []
        assert_contract([command, C3_EDGES, *small, *junk])


# weights 1e-300 and 1e300 side by side: m = (0.5, 5e-301, 0.5)
EXTREME_EDGES = "0 1 1e-300\n1 2 1e300\n2 0 1\n0 2 1\n"


@pytest.mark.parametrize("graph", [C3_EDGES, EXTREME_EDGES], ids=["c3", "extreme"])
@pytest.mark.parametrize("t", ["0", "5e-324", "1e6", "1.7976931348623157e308"])
def test_heat_answers_at_extreme_times(graph, t):
    """The series and its squarings neither overflow nor lose mass, whatever the time.

    At the largest float the kernel row is the stationary measure, and
    at the least positive one the identity row, each within MASS_TOL.
    """
    assert_contract(["heat", graph, "--t", t, "--kernel", "0"])
    assert_contract(["heat", graph, "--t", t, "--f", "dirac:0"])
    row = np.array(json.loads(run_cli(["heat", graph, "--t", t, "--kernel", "0"])[1])["kernel_row"])
    if float(t) == 1.7976931348623157e308:
        m = markov_data(load_graph(graph)).m
        assert np.abs(row - m).max() <= MASS_TOL
    elif float(t) < 1.0:
        assert np.abs(row - np.eye(3)[0]).max() <= MASS_TOL
