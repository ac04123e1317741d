"""Numerical certificates for inequalities checked on samples.

A certificate records the worst sample of a family of comparisons
lhs_i <= rhs_i + tol: the binding pair, its margin rhs - lhs, and a
witness describing where it occurred.  pass holds exactly when the
worst margin is >= -tol, so a certificate is a self-contained verdict
that can be serialised and rechecked.  certificate_from_samples is the
one reducer: each check lists the comparisons of its whole sample
family and makes one call, so the witness names the binding sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .errors import HypothesisUnmetError

DEFAULT_TOL = 1e-9


@dataclass
class InequalityCertificate:
    name: str
    hypothesis: dict[str, Any]
    lhs: float
    rhs: float
    margin: float
    passed: bool
    tol: float = DEFAULT_TOL
    witness: dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # keep pytest output readable
        verdict = "PASS" if self.passed else "FAIL"
        return f"[{verdict}] {self.name}: lhs={self.lhs:.6g} rhs={self.rhs:.6g} margin={self.margin:.3g}"


def certificate_from_samples(
    name: str,
    hypothesis: dict[str, Any],
    comparisons: list[tuple[float, float, dict[str, Any]]],
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """Reduce (lhs, rhs, witness) triples to their worst-margin member.

    HypothesisUnmetError if there are none: an empty sample family or
    grid certifies nothing.
    """
    if not comparisons:
        raise HypothesisUnmetError(f"certificate {name!r} needs at least one comparison")
    worst = min(comparisons, key=lambda item: item[1] - item[0])
    lhs, rhs, witness = worst
    margin = rhs - lhs
    return InequalityCertificate(
        name=name,
        hypothesis=hypothesis,
        lhs=float(lhs),
        rhs=float(rhs),
        margin=float(margin),
        passed=bool(margin >= -tol),
        tol=tol,
        witness=witness,
    )

