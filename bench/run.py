#!/usr/bin/env python3
"""Benchmark of digricci: seeded workloads run through the CLI, outputs checked.

    python3 bench/run.py --workload analyze_dense --seed 1 --seconds 18 --trace 0

With --trace 0 the workload's fixed request list runs untraced for a
fixed number of passes (--seconds over the workload's pass time on the
seed code), each between two timings of a fixed reference computation,
and the end-to-end metrics are printed.  With --trace 1 each request
runs once untraced and once with every layer wrapped (tracing.py); the
per-layer metrics come from the traced calls, whose outputs must equal
the untraced ones.  The package is imported from src/ of the checkout
that holds this file and driven only through digricci.cli.main.  Every
output is checked (checks.py).  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the line before
it records the environment.  Exit code 0 when every check passed, 1
when some failed, 2 when the package or the arguments are unusable.
"""

import os

# One BLAS thread, set before numpy loads: the target hosts have few cores and
# the per-call matrices are small, so threads only add contention.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
# A fixed computation of the harness's own, about 0.8 s, timed before every
# pass and after the last: the time metrics are given in units of it.
REFERENCE_BUILDS = 130
# The reference's time on an uncontended host of the kind the benchmark
# was tuned on (2-CPU Xeon VM, Python 3.11).  Set-up time has to be in
# seconds, so it is scaled to the host speed at which the reference
# takes this long.
REFERENCE_S = 0.8
# Count canary: analyze on K_8 under the seed formulation makes n(n-1)
# curvature LPs, plus one coupling LP for each of (3 + 4) x n(n-1) pair
# transports and 5 x (100 + n) density transports.
K8_SOLVES = 988
K8_SOLVES_VIA_WASSERSTEIN = 932


def import_package():
    """digricci from this checkout's src/, or None when absent."""
    if not (SRC / "digricci" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import digricci
    import digricci.cli  # noqa: F401

    if Path(digricci.__file__).resolve().parent != SRC / "digricci":
        return None
    return digricci


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def blas_record() -> dict:
    """BLAS library as numpy was built, and its thread count as it runs."""
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": config.get("name"), "version": config.get("version"), "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    except OSError:
        return record
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["threads"] = fn()
                return record
    return record


class Runner:
    """One workload on one seed: its files, request list and outputs."""

    def __init__(self, package, workload, paths):
        self.cli = package.cli
        self.balance_tol = package.chain.BALANCE_TOL
        self.workload = workload
        self.paths = paths
        self.reference: dict[int, list[tuple[int, str]]] = {}
        self.attempted = 0
        self.problems: list[str] = []

    def argv_lists(self, request) -> list[list[str]]:
        path = self.paths[request.graph]
        if request.kind == "analyze":
            return [["analyze", path]]
        if request.kind == "curvature":
            return [["curvature", path]]
        x, y = request.pair
        return [
            ["wasserstein", path, f"dirac:{x}", f"dirac:{y}", "--plan"],
            ["curvature", path, "--pairs", f"{x},{y}", "--cross-check"],
            ["heat", path, "--t", "0.5", "--kernel", str(x)],
            ["perron", path],
        ]

    def call(self, argv: list[str], tracer=None) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = tracer.call(f"cli.main.{argv[0]}", self.cli.main, argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue()

    def check(self, request, outputs) -> str | None:
        graph = self.workload.graphs[request.graph]
        if request.kind == "analyze":
            return checks.check_analyze(graph, *outputs[0])
        if request.kind == "curvature":
            return checks.check_curvature_matrix(graph, *outputs[0])
        x, y = request.pair
        return (
            checks.check_wasserstein(graph.dist, x, y, *outputs[0])
            or checks.check_pair_curvature(graph.dist, x, y, *outputs[1])
            or checks.check_heat_row(graph.n, x, *outputs[2])
            or checks.check_perron(graph, self.balance_tol, *outputs[3])
        )

    def run_request(self, i: int, tracer=None) -> float:
        """Request i once, checked; returns its seconds, checks excluded."""
        request = self.workload.requests[i]
        if tracer is not None:
            tracer.request = i
        self.attempted += 1
        start = perf_counter()
        try:
            outputs = [self.call(argv, tracer) for argv in self.argv_lists(request)]
        except Exception:
            self.problems.append(f"request {i}: {traceback.format_exc(limit=3)}")
            return perf_counter() - start
        seconds = perf_counter() - start
        try:
            problem = self.check(request, outputs)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
        # reports are byte-stable for a fixed seed, traced or not
        if problem is None and self.reference.setdefault(i, outputs) != outputs:
            problem = "output differs from the first pass"
        if problem is not None:
            self.problems.append(f"request {i} ({request.kind}): {problem}")
        return seconds

    def run_pass(self, tracer=None) -> list[float]:
        return [self.run_request(i, tracer) for i in range(len(self.workload.requests))]


def write_graphs(graphs, directory: Path) -> list[str]:
    return write_texts([(g.name, g.text()) for g in graphs], directory)


def write_texts(files, directory: Path) -> list[str]:
    """Edge-list files from (name, contents) pairs; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in files:
        path = directory / f"{name}.edges"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    return paths


def import_seconds() -> float:
    """Seconds to import digricci in a fresh interpreter that has numpy loaded."""
    probe = ("import sys, time, numpy; sys.path.insert(0, sys.argv[1]); "
             "t = time.perf_counter(); import digricci.cli; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", probe, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def setup(name: str, seed: int):
    """Import, generate, write and warm up, SETUP_REPEATS times.

    The harness's own work on the inputs (hop distances, the bound that
    proves a graph's sign, the redraws it asks for) is done once before,
    untimed: no change to the program can move it.  Each timed round
    imports digricci in a fresh interpreter, draws the graphs' arcs from
    the seed, writes the files and warms up with every subcommand on the
    canary.  Set-up time is the median round.
    """
    package = import_package()
    if package is None:
        return None
    workload = workloads.build(name, seed)
    names = [g.name for g in workload.graphs]
    directory = OUT / f"{name}-{seed}"
    rounds, import_s, problems = [], [], []
    for _ in range(SETUP_REPEATS):
        import_s.append(import_seconds())
        start = perf_counter()
        arcs = workloads.draw(name, seed, workload.draws)
        paths = write_texts(zip(names, map(workloads.edge_text, arcs)), directory)
        canary = Runner(package, workloads.CANARY_WORKLOAD,
                        write_graphs(workloads.CANARY_WORKLOAD.graphs, directory))
        canary.run_pass()
        rounds.append(import_s[-1] + perf_counter() - start)
        problems += canary.problems
        if [Path(p).read_text(encoding="utf-8") for p in paths] != [g.text() for g in workload.graphs]:
            problems.append("graph files differ between two draws from one seed")
    runner = Runner(package, workload, paths)
    runner.problems += problems
    runner.attempted += SETUP_REPEATS * len(workloads.CANARY_WORKLOAD.requests)
    timings = {"setup_round_s": rounds, "import_s": import_s}
    return package, runner, statistics.median(rounds), timings


def p90(values: list[float]) -> float:
    """The 90th percentile, inclusive of the sample's extremes."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def pass_count(name: str, seconds: float) -> int:
    """Passes of a run: fixed by the workload and --seconds, not by the code's speed."""
    return max(1, round(seconds / workloads.WORKLOADS[name].pass_s))


def reference_seconds() -> float:
    """Seconds to draw and prove the curvature_sparse graphs of seed 0, REFERENCE_BUILDS times.

    Random draws, a breadth-first search in Python and small numpy
    arrays: the same kind of work as the program's small LPs, done by
    code that no change to the program touches.  Its length is close to
    a pass's, so that both meet the host's short bursts alike.
    """
    start = perf_counter()
    for _ in range(REFERENCE_BUILDS):
        workloads.build("curvature_sparse", 0)
    return perf_counter() - start


def measure(runner, passes: int) -> tuple[dict, dict]:
    """`passes` whole passes over the request list, with references between them.

    The shared host runs the same code up to twice as slowly, in
    bursts of a second and in periods of minutes.  A reference of about
    the length of a pass, measured right before and after it, slows
    alike, so each pass is timed in units of the mean of those two
    references ("ref").  wall_ref is the median pass in these units, and
    a request's latency its median time in these units over the passes.
    Every request has the same number of samples on every commit.  The
    raw seconds go to the record line.
    """
    reference = [reference_seconds()]
    samples = []
    for _ in range(passes):
        samples.append(runner.run_pass())
        reference.append(reference_seconds())
    units = [(before + after) / 2 for before, after in zip(reference, reference[1:])]
    totals = [sum(times) for times in samples]
    latencies = [statistics.median(t / u for t, u in zip(column, units))
                 for column in zip(*samples)]
    top = p90(latencies)
    metrics = {
        "wall_ref": statistics.median(t / u for t, u in zip(totals, units)),
        "request_ref.p50": statistics.median(latencies),
        "request_ref.p90": top,
    }
    info = {
        "passes": passes,
        "pass_s": totals,
        "reference_s": reference,
        "latency_samples": len(latencies),
        "samples_per_latency": passes,
        "latencies_beyond_p90": sum(1 for v in latencies if v > top),
    }
    return metrics, info


def count_canary(tracer, workload) -> str | None:
    """The traced K_8 analyze must make exactly the seed formulation's solves."""
    k8 = [i for i, r in enumerate(workload.requests)
          if r.kind == "analyze" and len(workload.graphs[r.graph].arcs) == 8 * 7]
    if not k8:
        return None
    solves = [s for s in tracer.spans if s.request == k8[0] and s.name == "lp.solve_lp"]
    via_w = sum(1 for s in solves
                if any(a.name == "transport.wasserstein" for a in tracer.ancestors(s)))
    if (len(solves), via_w) == (K8_SOLVES, K8_SOLVES_VIA_WASSERSTEIN):
        return None
    return (f"count canary: K_8 analyze made {len(solves)} LP solves, {via_w} under "
            f"wasserstein; expected {K8_SOLVES}, {K8_SOLVES_VIA_WASSERSTEIN}")


def measure_traced(package, runner, spans_path: Path) -> tuple[dict, dict]:
    """Each request untraced, then traced right after, so both see the same host."""
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    for i in range(len(runner.workload.requests)):
        untraced_s += runner.run_request(i)
        tracer.install(package)
        try:
            traced_s += runner.run_request(i, tracer)
        finally:
            tracer.uninstall()
    problem = count_canary(tracer, runner.workload)
    if problem is not None:
        runner.problems.append(problem)
    metrics = layer_metrics(tracer)
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    with spans_path.open("w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span.to_dict()) + "\n")
    return metrics, {"spans_file": str(spans_path.relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prepared = setup(args.workload, args.seed)
    if prepared is None:
        print(f"error: no digricci package under {SRC}", file=sys.stderr)
        return 2
    package, runner, setup_s, setup_timings = prepared
    if args.trace:
        spans_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        values, info = measure_traced(package, runner, spans_path)
        wanted = spec.per_layer_spec()
    else:
        values, info = measure(runner, pass_count(args.workload, args.seconds))
        values["setup_s"] = setup_s * REFERENCE_S / statistics.median(info["reference_s"])
        values["ok_frac"] = 1.0 - len(runner.problems) / runner.attempted
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = spec.END_TO_END
    names = {m["name"] for m in wanted}
    if set(values) != names:
        raise RuntimeError(f"metrics differ from the spec: {sorted(set(values) ^ names)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    workload = runner.workload
    record = {
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_record(),
            "commit": git_commit(),
        },
        "workload": {
            "name": workload.name,
            "seed": args.seed,
            "trace": args.trace,
            "requests": len(workload.requests),
            "graphs": [{"name": g.name, "n": g.n, "arcs": len(g.arcs)} for g in workload.graphs],
            **setup_timings,
            **info,
        },
        "problems": runner.problems,
    }
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": len(runner.problems),
        "metrics": metrics,
    }))
    return 0 if not runner.problems else 1


if __name__ == "__main__":
    sys.exit(main())
