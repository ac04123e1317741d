"""The benchmark's definition, written to BENCHMARK.json at the repository root.

    python3 bench/spec.py        # rewrite BENCHMARK.json from this file

run.py prints exactly these metric names; selftest.py checks that the
file on disk matches what this module generates.
"""

from __future__ import annotations

import json
from pathlib import Path

from tracing import per_layer_spec
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS = 18

# Bounds are shares of the parent's median; see README.md for the
# run-to-run spreads they were set against.
END_TO_END = [
    {"name": "wall_ref", "unit": "ref", "better": "lower", "bound": 0.25},
    {"name": "request_ref.p50", "unit": "ref", "better": "lower", "bound": 0.25},
    {"name": "request_ref.p90", "unit": "ref", "better": "lower", "bound": 0.25},
    {"name": "ok_frac", "unit": "frac", "better": "higher", "bound": 0.001},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w.why} for name, w in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": per_layer_spec(),
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    (ROOT / "BENCHMARK.json").write_text(render(), encoding="utf-8")
