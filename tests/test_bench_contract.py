"""The benchmark's tracer still finds every name it patches.

bench/tracing.py wraps library functions at each module that looks
them up; a rename or a moved import makes install() raise.  Running it
here catches that in the unit tests instead of in a traced benchmark run.
"""

from __future__ import annotations

from pathlib import Path

import digricci
from digricci import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
