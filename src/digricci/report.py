"""Run configuration and serialisable verification reports.

Reports are plain dictionaries rendered by a small JSON writer that
formats every float with 17 significant digits, which round-trips IEEE
doubles exactly and keeps reports byte-stable across runs with the same
seed.  NaN (the curvature diagonal) becomes null.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .certificates import DEFAULT_TOL, InequalityCertificate

SCHEMA_VERSION = 3


@dataclass
class RunConfig:
    """What the analyze and verify-functional options set; each default is its option's default."""

    seed: int = 424242
    density_samples: int = 100
    function_samples: int = 100
    k_override: float | None = None
    certificate_tol: float = DEFAULT_TOL
    cross_check: bool = False


# the texts of "%.17g" that are no JSON number, and what a report writes for them
_NON_FINITE = {"nan": "null", "inf": '"Infinity"', "-inf": '"-Infinity"'}


def _format_float(x: float) -> str:
    text = "%.17g" % x
    return _NON_FINITE.get(text, text)


def _format_floats(values) -> list[str]:
    """_format_float of each of a sequence of floats, as one %-format of them all."""
    texts = ("%.17g " * len(values) % tuple(values)).split()
    return [_NON_FINITE.get(text, text) for text in texts]


# One encoder for every string: json.dumps with a non-default option builds
# a new encoder per call, which costs several times the escaping itself.
_json_string = json.JSONEncoder(ensure_ascii=False).encode


def render_json(value: Any, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats.

    Floats are tested first: they are most of the leaves of every
    payload, and float covers np.float64.  A list or tuple of floats
    alone, a row of a matrix or a measure, is formatted as one
    %-format of its entries (_format_floats), with no call per entry.
    """
    if isinstance(value, float):
        return _format_float(value)
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f"{_json_string(str(k))}: {render_json(v, indent + 1)}" for k, v in value.items()
        ]
        return f"{{\n{inner}" + f",\n{inner}".join(parts) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(isinstance(v, float) for v in value):
            parts = _format_floats(value)
        else:
            parts = [render_json(v, indent + 1) for v in value]
        return f"[\n{inner}" + f",\n{inner}".join(parts) + f"\n{pad}]"
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, np.floating):
        return _format_float(float(value))
    if isinstance(value, np.ndarray):
        return render_json(value.tolist(), indent)
    raise TypeError(f"cannot serialise {type(value)!r}")


def certificate_to_dict(cert: InequalityCertificate) -> dict[str, Any]:
    return {
        "name": cert.name,
        "hypothesis": cert.hypothesis,
        "lhs": cert.lhs,
        "rhs": cert.rhs,
        "margin": cert.margin,
        "tol": cert.tol,
        "pass": cert.passed,
        "witness": cert.witness,
    }


@dataclass
class VerificationReport:
    """Everything one run established about one graph."""

    command: str
    graph: dict[str, Any]
    seed: int
    tolerances: dict[str, float]
    sections: dict[str, Any] = field(default_factory=dict)
    certificates: list[InequalityCertificate] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.certificates)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "seed": self.seed,
            "graph": self.graph,
            "tolerances": self.tolerances,
            **self.sections,
            "certificates": [certificate_to_dict(c) for c in self.certificates],
            "all_pass": self.all_pass,
        }

    def to_json(self) -> str:
        return render_json(self.to_dict()) + "\n"
