"""The package's export list keeps the rule its docstring states."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import digricci

ROOT = Path(__file__).resolve().parent.parent


def test_all_names_resolve_once_and_are_used():
    """No name twice, every name resolves, and README, the CLI or a test names each one.

    A name that none of those mention is library surface nothing reads;
    it belongs in its submodule, or nowhere.
    """
    names = digricci.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(digricci, n)] == []
    sources = [ROOT / "README.md", Path(digricci.__file__).parent / "cli.py",
               *sorted((ROOT / "tests").glob("*.py"))]
    text = "\n".join(p.read_text(encoding="utf-8") for p in sources)
    assert [n for n in names if not re.search(rf"\b{re.escape(n)}\b", text)] == []


def test_importing_the_package_loads_no_test_only_module():
    """numpy is the one runtime dependency: scipy, hypothesis and pytest serve the tests alone.

    A fresh interpreter imports the package and its CLI, as the console
    script does, and lists the top-level modules it then holds.
    """
    code = (
        "import sys, digricci, digricci.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'hypothesis', 'pytest'}))"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"


def _python_m_digricci(*argv: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "digricci", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )


def test_python_m_digricci_runs_the_cli():
    """python -m digricci is main: --version exits 0, a bad graph exits 2 with one error: line."""
    result = _python_m_digricci("--version")
    assert result.returncode == 0
    assert result.stdout == f"digricci {digricci.__version__}\n"
    # vertex 1 has no out-arc, so the graph is not strongly connected
    result = _python_m_digricci("perron", "0 1\n")
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr


def test_the_readme_python_blocks_run(capsys):
    """README.md's python blocks run in order in one namespace, as a reader would paste them.

    A documented call form that stops working then fails here rather
    than in the reader's session.
    """
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    assert capsys.readouterr().out
