"""The package's export list keeps the rule its docstring states."""

from __future__ import annotations

import re
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
