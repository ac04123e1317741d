"""Self-tests of the benchmark itself (about a minute):

    python3 bench/selftest.py

They run short versions of the workloads against the package in src/.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import unittest
from pathlib import Path

import checks
import run
import spec
import workloads
from tracing import TARGETS, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
COUNT_UNITS = {"count", "cells", "cells_computed", "pivot/solve"}


def prepared(name: str, seed: int, requests: int):
    """A runner for the first `requests` requests of a workload."""
    package, runner, _setup_s, _timings = run.setup(name, seed)
    runner.workload = dataclasses.replace(
        runner.workload, requests=runner.workload.requests[:requests]
    )
    return package, runner


def traced_counts(package, runner) -> dict:
    tracer = Tracer()
    tracer.install(package)
    try:
        runner.run_pass(tracer)
    finally:
        tracer.uninstall()
    units = {m["name"]: m["unit"] for m in spec.per_layer_spec()}
    return {k: v for k, v in layer_metrics(tracer).items() if units[k] in COUNT_UNITS}


class SeedTest(unittest.TestCase):
    def test_same_seed_same_graph_files(self):
        for name in workloads.WORKLOADS:
            first = [g.text() for g in workloads.build(name, 5).graphs]
            second = [g.text() for g in workloads.build(name, 5).graphs]
            self.assertEqual(first, second, name)

    def test_same_seed_same_counts(self):
        package, runner = prepared("queries", 5, 6)
        first = traced_counts(package, runner)
        package, runner = prepared("queries", 5, 6)
        self.assertEqual(first, traced_counts(package, runner))
        self.assertEqual(runner.problems, [])

    def test_other_seed_other_graphs_same_sign(self):
        package = run.import_package()
        for name in ("analyze_dense", "analyze_sparse", "curvature_sparse"):
            texts = {seed: [g.text() for g in workloads.build(name, seed).graphs]
                     for seed in (5, 6)}
            self.assertNotEqual(texts[5], texts[6], name)
            graphs = workloads.build(name, 6).graphs
            paths = run.write_graphs(graphs, run.OUT / f"selftest-{name}")
            runner = run.Runner(package, workloads.Workload(name, graphs, ()), paths)
            for graph, path in zip(graphs, paths):
                problem = checks.check_curvature_matrix(graph, *runner.call(["curvature", path]))
                self.assertIsNone(problem, f"{name}/{graph.name}")


class CheckTest(unittest.TestCase):
    def test_sign_zero_is_not_checked(self):
        arcs = workloads.CANARY.arcs
        kappa = [[None if x == y else 1.5 for y in range(3)] for x in range(3)]
        unchecked = workloads.make_graph("c3", 3, arcs, 0)
        self.assertIsNone(checks._kappa_matrix_problem(kappa, 1.5, unchecked))
        negative = workloads.make_graph("c3", 3, arcs, -1)
        self.assertIn("expected sign", checks._kappa_matrix_problem(kappa, 1.5, negative))

    def test_draw_regenerates_the_kept_graphs(self):
        for name in workloads.WORKLOADS:
            workload = workloads.build(name, 5)
            arcs = workloads.draw(name, 5, workload.draws)
            self.assertEqual(arcs, [g.arcs for g in workload.graphs], name)


class TraceTest(unittest.TestCase):
    def test_traced_and_untraced_outputs_agree(self):
        package, runner = prepared("queries", 7, 4)
        runner.run_pass()
        tracer = Tracer()
        tracer.install(package)
        try:
            runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        # run_pass flags any output that differs from the first pass
        self.assertEqual(runner.problems, [])
        self.assertEqual(len(runner.reference), 4)
        self.assertGreater(len(tracer.spans), 0)
        # uninstall restored every look-up site
        for _name, sites in TARGETS:
            for module, attr in sites:
                fn = getattr(getattr(package, module), attr)
                self.assertTrue(fn.__module__.startswith("digricci."), f"{module}.{attr}")

    def test_count_canary_on_k8(self):
        package, runner = prepared("analyze_dense", 8, 1)
        metrics, _info = run.measure_traced(package, runner, run.OUT / "selftest-trace.jsonl")
        self.assertEqual(runner.problems, [])
        self.assertEqual(metrics["lp.solve_lp.calls"], 988)
        self.assertEqual(
            metrics["lp.solves.by.verify_transport_contraction"]
            + metrics["lp.solves.by.curvature_time_limit"]
            + metrics["lp.solves.by.transport_checks"],
            932,
        )


class SpecTest(unittest.TestCase):
    def test_benchmark_json_is_generated(self):
        on_disk = (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
        self.assertEqual(on_disk, spec.render())

    def test_printed_metrics_match_benchmark_json(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "curvature_sparse",
                 "--seed", "9", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, check=True, timeout=300,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(
                [(k, v["unit"]) for k, v in result["metrics"].items()],
                [(m["name"], m["unit"]) for m in doc[key]],
            )


if __name__ == "__main__":
    unittest.main()
