"""The benchmark's tracer and output checks, run on the current code.

bench/tracing.py wraps library functions at each module that looks
them up; a rename or a moved import makes install() raise, and the
traced K_8 analyze must make the solve counts bench/run.py expects, as
the traced analyze_sparse, curvature_sparse and queries requests must
make theirs.  The output checks of bench/checks.py hold analyze, the
curvature matrix, the exact Dirac plan and potential, the pair
curvature witness, heat rows and the Perron vector to values the
benchmark computes itself; each workload runs some of its requests
through them.  Running both here catches a break in the unit tests
instead of in a benchmark run.
"""

from __future__ import annotations

import importlib
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

import digricci
from digricci import chain, cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
# questions of the queries workload run here: two on each of its four graphs
QUESTIONS = 8


@pytest.fixture
def bench(monkeypatch) -> SimpleNamespace:
    """bench/'s checks and workloads modules."""
    monkeypatch.syspath_prepend(str(BENCH))
    return SimpleNamespace(
        checks=importlib.import_module("checks"),
        workloads=importlib.import_module("workloads"),
    )


def run_twice(capsys, argv: list[str]) -> tuple[int, str]:
    """cli.main's exit code and stdout, which a second call must repeat byte for byte."""
    outputs = []
    for _ in range(2):
        code = cli.main(argv)
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] == outputs[1], argv
    return outputs[0]


def write_graphs(workload, directory: Path) -> list[str]:
    paths = []
    for graph in workload.graphs:
        path = directory / f"{graph.name}.edges"
        path.write_text(graph.text(), encoding="utf-8")
        paths.append(str(path))
    return paths


def test_tracer_installs_on_every_target_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    original = cli.run_analysis
    tracer = Tracer()
    try:
        tracer.install(digricci)
    finally:
        # install() leaves earlier patches in place when a look-up raises
        tracer.uninstall()
    assert cli.run_analysis is original


@pytest.fixture
def run(bench, monkeypatch):
    """bench/run.py, imported with the BLAS settings it makes restored afterwards."""
    # run.py sets these at import; monkeypatch restores them afterwards
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    return importlib.import_module("run")


def test_traced_k8_analyze_keeps_the_count_canary(bench, run, tmp_path, capsys):
    """The K_8 request of analyze_dense, traced, makes the solves run.count_canary expects.

    The tracer also attributes each solve to the traced function that
    called for it: 56 to kappa_lp, and under wasserstein 3 x 56 to the
    heat limit, 4 x 56 to transport contraction and 5 x 108 to the
    functional suite's transport checks.  A table of W solved outside
    the traced caller's span would move its solves to "other".
    """
    workload = bench.workloads.build("analyze_dense", 1)
    paths = write_graphs(workload, tmp_path)
    k8 = [i for i, r in enumerate(workload.requests)
          if r.kind == "analyze" and len(workload.graphs[r.graph].arcs) == 8 * 7]
    assert k8
    tracer = run.Tracer()
    tracer.request = k8[0]
    argv = ["analyze", paths[workload.requests[k8[0]].graph]]
    try:
        tracer.install(digricci)
        assert tracer.call("cli.main.analyze", cli.main, argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert run.count_canary(tracer, workload) is None
    metrics = run.layer_metrics(tracer)
    by_caller = {key: metrics[f"lp.solves.by.{key}"] for key in (
        "kappa_lp", "curvature_time_limit", "verify_transport_contraction", "transport_checks",
        "other")}
    assert by_caller == {"kappa_lp": 56, "curvature_time_limit": 168,
                         "verify_transport_contraction": 224, "transport_checks": 540, "other": 0}


def test_traced_k8_analyze_keeps_its_pivot_count(bench, run, tmp_path, capsys):
    """The traced K_8 request of analyze_dense takes 893 pivots over its 988 solves.

    The count canary counts solves, so it cannot see a solve that pivots
    again.  Of the 540 functional-suite W, the first transport check's
    108 pivot from their BFS trees and the other four checks' 432 start
    from those optima and take none; re-solving them cold would take
    2,861 pivots in all.
    """
    workload = bench.workloads.build("analyze_dense", 1)
    (path,) = write_graphs(workload, tmp_path)
    tracer = run.Tracer()
    try:
        tracer.install(digricci)
        assert tracer.call("cli.main.analyze", cli.main, ["analyze", path]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = run.layer_metrics(tracer)
    assert (metrics["lp.solve_lp.calls"], metrics["lp.pivots"]) == (988, 893)


@pytest.mark.parametrize("options, calls", [([], 13), (["--cross-check"], 14)])
def test_traced_k8_analyze_counts_every_certificate_from_samples(
    bench, run, tmp_path, capsys, options, calls
):
    """The traced K_8 analyze counts each certificate that certificate_from_samples builds.

    cli builds the heat-limit agreement, and with --cross-check the
    smoothing agreement, through the certificates module, whose name
    the tracer wraps, so they count beside the 12 calls made elsewhere
    in the package.
    """
    workload = bench.workloads.build("analyze_dense", 1)
    (path,) = write_graphs(workload, tmp_path)
    tracer = run.Tracer()
    try:
        tracer.install(digricci)
        assert tracer.call("cli.main.analyze", cli.main, ["analyze", path, *options]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert run.layer_metrics(tracer)["certificates.certificate_from_samples.calls"] == calls


def test_traced_analyze_sparse_keeps_its_solve_counts(bench, run, tmp_path, capsys):
    """analyze_sparse seed 1, traced: 413 LP solves, 301 of them under wasserstein, 390 pivots.

    Its two ring+chords n=8 have 43 arcs and K < 0, so no functional
    suite runs: 2 x 56 curvature programs and one W per arc at each of
    the 3 heat-limit and 4 contraction times.  Each arc's contraction
    column starts from the heat limit's last optimum of the arc, at the
    same time 0.01, and its first solve takes no pivot; started from
    the arc's kappa optimum instead, the run takes 402.
    """
    workload = bench.workloads.build("analyze_sparse", 1)
    paths = write_graphs(workload, tmp_path)
    assert sum(len(graph.arcs) for graph in workload.graphs) == 43
    tracer = run.Tracer()
    try:
        tracer.install(digricci)
        for i, request in enumerate(workload.requests):
            assert request.kind == "analyze"
            tracer.request = i
            assert tracer.call("cli.main.analyze", cli.main, ["analyze", paths[request.graph]]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    solves = [s for s in tracer.spans if s.name == "lp.solve_lp"]
    via_w = sum(1 for s in solves
                if any(a.name == "transport.wasserstein" for a in tracer.ancestors(s)))
    assert (len(solves), via_w) == (2 * 56 + 7 * 43, 7 * 43) == (413, 301)
    assert run.layer_metrics(tracer)["lp.pivots"] == 390


def test_traced_curvature_sparse_solves_every_program_under_kappa_lp(bench, run, tmp_path, capsys):
    """curvature_sparse seed 1, traced: 528 LP solves and 2,559 pivots, all under kappa_lp.

    Its four ring+chords n=12 make 4 x 132 curvature programs, one row
    of 11 per root, and each program is one lp.solve_lp inside the
    kappa_lp span of its row.  A row whose solves ran outside that span
    would move them to "other".
    """
    workload = bench.workloads.build("curvature_sparse", 1)
    paths = write_graphs(workload, tmp_path)
    tracer = run.Tracer()
    try:
        tracer.install(digricci)
        for i, request in enumerate(workload.requests):
            assert request.kind == "curvature"
            tracer.request = i
            argv = ["curvature", paths[request.graph]]
            assert tracer.call("cli.main.curvature", cli.main, argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = run.layer_metrics(tracer)
    assert metrics["lp.solve_lp.calls"] == metrics["lp.solves.by.kappa_lp"] == 4 * 12 * 11 == 528
    assert metrics["lp.solves.by.other"] == 0
    assert metrics["curvature.kappa_lp.calls"] == 4 * 12
    assert metrics["lp.pivots"] == 2559


def test_traced_queries_keep_the_pair_path_solve_counts(bench, run, tmp_path, capsys):
    """queries seed 1, traced: 300 LP solves and 1,026 pivots over its 100 pair questions.

    Each question asks curvature --pairs with --cross-check, one kappa
    program under kappa_lp and one smoothing W, at the pair's own eps,
    under kappa_limit, and wasserstein --plan, one verify-mode W under the
    wasserstein subcommand; heat and perron solve none.  A solve that
    left its caller's span would move to "other".
    """
    workload = bench.workloads.build("queries", 1)
    runner = run.Runner(digricci, workload, write_graphs(workload, tmp_path))
    tracer = run.Tracer()
    try:
        tracer.install(digricci)
        for i in range(len(workload.requests)):
            runner.run_request(i, tracer)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert runner.problems == []
    metrics = run.layer_metrics(tracer)
    by_caller = {key: metrics[f"lp.solves.by.{key}"]
                 for key in ("kappa_lp", "kappa_limit", "main.wasserstein", "other")}
    assert len(workload.requests) == 100
    assert by_caller == {"kappa_lp": 100, "kappa_limit": 100, "main.wasserstein": 100, "other": 0}
    assert metrics["lp.solve_lp.calls"] == 300
    assert metrics["lp.pivots"] == 1026


def test_analyze_dense_passes_the_benchmark_checks(bench, tmp_path, capsys):
    """analyze_dense is one K_8 (K > 0): the one workload graph that runs the functional suite."""
    workload = bench.workloads.build("analyze_dense", 1)
    (graph,) = workload.graphs
    (path,) = write_graphs(workload, tmp_path)
    assert bench.checks.check_analyze(graph, *run_twice(capsys, ["analyze", path])) is None


def test_analyze_sparse_passes_the_benchmark_checks(bench, tmp_path, capsys):
    workload = bench.workloads.build("analyze_sparse", 1)
    for graph, path in zip(workload.graphs, write_graphs(workload, tmp_path)):
        assert bench.checks.check_analyze(graph, *run_twice(capsys, ["analyze", path])) is None


def test_curvature_sparse_passes_the_benchmark_checks(bench, tmp_path, capsys):
    """curvature_sparse is four ring+chords n=12 (K < 0): the full kappa matrix of each."""
    workload = bench.workloads.build("curvature_sparse", 1)
    assert len(workload.graphs) == 4 and {graph.n for graph in workload.graphs} == {12}
    for graph, path in zip(workload.graphs, write_graphs(workload, tmp_path)):
        output = run_twice(capsys, ["curvature", path])
        assert bench.checks.check_curvature_matrix(graph, *output) is None


def test_queries_pass_the_benchmark_checks(bench, tmp_path, capsys):
    workload = bench.workloads.build("queries", 1)
    paths = write_graphs(workload, tmp_path)
    checks = bench.checks
    for request in workload.requests[:QUESTIONS]:
        graph, path = workload.graphs[request.graph], paths[request.graph]
        x, y = request.pair
        plan = run_twice(capsys, ["wasserstein", path, f"dirac:{x}", f"dirac:{y}", "--plan"])
        assert checks.check_wasserstein(graph.dist, x, y, *plan) is None
        pair = run_twice(capsys, ["curvature", path, "--pairs", f"{x},{y}", "--cross-check"])
        assert checks.check_pair_curvature(graph.dist, x, y, *pair) is None
        row = run_twice(capsys, ["heat", path, "--t", "0.5", "--kernel", str(x)])
        assert checks.check_heat_row(graph.n, x, *row) is None
        perron = run_twice(capsys, ["perron", path])
        assert checks.check_perron(graph, chain.BALANCE_TOL, *perron) is None
