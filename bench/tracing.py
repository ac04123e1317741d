"""Span tracing of the digricci layers from outside the package.

The traced run replaces public functions of each layer with wrappers
that record one span per call: name, start, end, parent span and the
request id the harness set.  The wrappers are installed where each
function is looked up (a module that imported a name holds its own
reference, so that module is patched too) and removed afterwards.
Spans stay in memory; the harness writes them out when the run ends,
and layer_metrics derives calls, inclusive time and self time from
them, plus the LP and transport counters the wrappers attach.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field
from time import perf_counter

# span name -> the functions it wraps, as (module, attribute) look-up sites.
# The first site of each entry holds the original function; every other
# site must hold the same object, which install() checks.
TARGETS: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = (
    ("cli.run_analysis", (("cli", "run_analysis"),)),
    ("cli.functional_certificates", (("cli", "functional_certificates"),)),
    ("digraph.load_graph", (("digraph", "load_graph"), ("cli", "load_graph"))),
    ("digraph.distances", (("digraph", "distances"), ("cli", "distances"))),
    ("chain.markov_data", (("chain", "markov_data"), ("cli", "markov_data"))),
    ("heat.heat_operator", (("heat", "heat_operator"), ("cli", "heat_operator"))),
    ("heat.verify_transport_contraction",
     (("heat", "verify_transport_contraction"), ("cli", "verify_transport_contraction"))),
    ("heat.curvature_time_limit",
     (("heat", "curvature_time_limit"), ("cli", "curvature_time_limit"))),
    ("heat.verify_gradient_estimate",
     (("heat", "verify_gradient_estimate"), ("cli", "verify_gradient_estimate"))),
    ("curvature.curvature_matrix",
     (("curvature", "curvature_matrix"), ("cli", "curvature_matrix"))),
    ("curvature.kappa_lp", (("curvature", "kappa_lp"),)),
    ("curvature.kappa_limit", (("curvature", "kappa_limit"), ("cli", "kappa_limit"))),
    ("concentration.transport_checks", (("cli", "check_transport_l1_bound"),)),
    ("concentration.transport_checks", (("cli", "check_transport_information"),)),
    ("concentration.transport_checks", (("cli", "check_transport_entropy"),)),
    ("concentration.transport_checks", (("cli", "check_bobkov_goetze"),)),
    ("concentration.transport_checks", (("cli", "check_info_to_entropy"),)),
    ("concentration.moment_checks", (("cli", "check_laplace_bound"),)),
    ("concentration.moment_checks", (("cli", "concentration_tail"),)),
    ("concentration.moment_checks", (("cli", "check_exp_chain_rule_bound"),)),
    ("concentration.moment_checks", (("cli", "check_exp_square_chain_rule_bound"),)),
    ("transport.wasserstein", (("transport", "wasserstein"), ("cli", "wasserstein"))),
    ("transport.kantorovich_dual", (("transport", "kantorovich_dual"),)),
    ("lp.solve_lp", (("lp", "solve_lp"),)),
    ("lp.solve_transport", (("lp", "solve_transport"),)),
    ("report.render_json", (("report", "render_json"), ("cli", "render_json"))),
    ("certificates.certificate_from_samples",
     (("certificates", "certificate_from_samples"), ("heat", "certificate_from_samples"),
      ("concentration", "certificate_from_samples"))),
)

# the harness opens one of these around each cli.main call
MAIN_SPANS = tuple(f"cli.main.{sub}" for sub in ("analyze", "curvature", "wasserstein", "heat", "perron"))

SPAN_NAMES: tuple[str, ...] = (
    tuple(dict.fromkeys(name for name, _ in TARGETS[:2])) + MAIN_SPANS
    + tuple(dict.fromkeys(name for name, _ in TARGETS[2:]))
)

# spans that call transport.wasserstein directly: one certificate family each
WASSERSTEIN_CALLERS = (
    "curvature.kappa_limit",
    "heat.verify_transport_contraction",
    "heat.curvature_time_limit",
    "concentration.transport_checks",
    "cli.main.wasserstein",
)
# the nearest span outside lp and transport that caused an LP solve
LP_CALLERS = ("curvature.kappa_lp",) + WASSERSTEIN_CALLERS


def _short(name: str) -> str:
    """Metric suffix for a caller span: its name without the layer."""
    return name.split(".", 1)[1]


def _caller_names(callers: tuple[str, ...]) -> list[str]:
    return [_short(c) for c in callers] + ["other"]


def per_layer_spec() -> list[dict]:
    """Every metric layer_metrics returns, in order, with unit and direction."""
    spec = []
    for name in SPAN_NAMES:
        spec += [
            {"name": f"{name}.calls", "unit": "count", "better": "lower"},
            {"name": f"{name}.s", "unit": "s", "better": "lower"},
            {"name": f"{name}.self_s", "unit": "s", "better": "lower"},
        ]
    spec += [
        {"name": "transport.wasserstein.calls.verify", "unit": "count", "better": "lower"},
        {"name": "transport.wasserstein.calls.fast", "unit": "count", "better": "lower"},
    ]
    spec += [
        {"name": f"transport.wasserstein.by.{c}", "unit": "count", "better": "lower"}
        for c in _caller_names(WASSERSTEIN_CALLERS)
    ]
    spec += [
        {"name": "transport.max_marginal_residual", "unit": "mass", "better": "lower"},
        {"name": "lp.pivots", "unit": "count", "better": "lower"},
        {"name": "lp.pivots_per_solve", "unit": "pivot/solve", "better": "lower"},
        {"name": "lp.tableau_cells.max", "unit": "cells", "better": "lower"},
        {"name": "lp.pivot_cells", "unit": "cells_computed", "better": "lower"},
        {"name": "lp.not_optimal", "unit": "count", "better": "lower"},
        {"name": "lp.max_duality_gap", "unit": "abs", "better": "lower"},
        {"name": "lp.max_feasibility_residual", "unit": "abs", "better": "lower"},
    ]
    spec += [
        {"name": f"lp.solves.by.{c}", "unit": "count", "better": "lower"}
        for c in _caller_names(LP_CALLERS)
    ]
    spec += [
        {"name": "trace.spans", "unit": "count", "better": "lower"},
        {"name": "trace.untraced_s", "unit": "s", "better": "lower"},
        {"name": "trace.traced_s", "unit": "s", "better": "lower"},
        {"name": "trace.overhead_frac", "unit": "frac", "better": "lower"},
    ]
    return spec


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    request: int
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "name": self.name, "request": self.request,
            "start": self.start, "end": self.end, **self.attrs,
        }


def _lp_attrs(span: Span, args, kwargs, solution) -> None:
    problem = args[0] if args else kwargs["problem"]
    rows, cols = problem.A.shape
    span.attrs.update(
        pivots=int(solution.iterations),
        cells=rows * cols,
        status=solution.status,
        duality_gap=solution.duality_gap,
        feasibility_residual=solution.feasibility_residual,
    )


def _wasserstein_attrs(signature, span: Span, args, kwargs, plan) -> None:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    span.attrs["verify"] = bool(bound.arguments["verify"])
    span.attrs["marginal_residual"] = float(plan.marginal_residual)


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = -1
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            # a function that calls itself through the patched name
            # (report.render_json) is one span, not one per level
            if self._stack and self._stack[-1].name == name:
                return fn(*args, **kwargs)
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), parent, name, self.request, perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Patch every look-up site in TARGETS on the imported package."""
        for name, sites in TARGETS:
            original = getattr(getattr(package, sites[0][0]), sites[0][1])
            hook = None
            if name == "lp.solve_lp":
                hook = _lp_attrs
            elif name == "transport.wasserstein":
                hook = functools.partial(_wasserstein_attrs, inspect.signature(original))
            wrapper = self._wrap(name, original, hook)
            for module_name, attr in sites:
                module = getattr(package, module_name)
                if getattr(module, attr) is not original:
                    self.uninstall()
                    raise RuntimeError(f"{module_name}.{attr} is not the function traced as {name}")
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def ancestors(self, span: Span):
        while span.parent is not None:
            span = self.spans[span.parent]
            yield span


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded spans, keyed as in per_layer_spec."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for s in spans:
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.s"] += s.duration
        out[f"{s.name}.self_s"] += s.duration - child_time[s.id]

    w_spans = [s for s in spans if s.name == "transport.wasserstein"]
    out["transport.wasserstein.calls.verify"] = sum(1 for s in w_spans if s.attrs.get("verify"))
    out["transport.wasserstein.calls.fast"] = sum(1 for s in w_spans if not s.attrs.get("verify"))
    for c in _caller_names(WASSERSTEIN_CALLERS):
        out[f"transport.wasserstein.by.{c}"] = 0
    for s in w_spans:
        caller = spans[s.parent].name if s.parent is not None else ""
        key = _short(caller) if caller in WASSERSTEIN_CALLERS else "other"
        out[f"transport.wasserstein.by.{key}"] += 1
    out["transport.max_marginal_residual"] = max(
        (s.attrs["marginal_residual"] for s in w_spans if "marginal_residual" in s.attrs),
        default=0.0,
    )

    lp_spans = [s for s in spans if s.name == "lp.solve_lp" and "pivots" in s.attrs]
    pivots = sum(s.attrs["pivots"] for s in lp_spans)
    out["lp.pivots"] = pivots
    out["lp.pivots_per_solve"] = pivots / len(lp_spans) if lp_spans else 0.0
    out["lp.tableau_cells.max"] = max((s.attrs["cells"] for s in lp_spans), default=0)
    out["lp.pivot_cells"] = sum(s.attrs["pivots"] * s.attrs["cells"] for s in lp_spans)
    out["lp.not_optimal"] = sum(1 for s in lp_spans if s.attrs["status"] != "optimal")
    out["lp.max_duality_gap"] = max(
        (s.attrs["duality_gap"] for s in lp_spans if s.attrs["duality_gap"] is not None),
        default=0.0,
    )
    out["lp.max_feasibility_residual"] = max(
        (s.attrs["feasibility_residual"] for s in lp_spans
         if s.attrs["feasibility_residual"] is not None),
        default=0.0,
    )
    for c in _caller_names(LP_CALLERS):
        out[f"lp.solves.by.{c}"] = 0
    for s in spans:
        if s.name != "lp.solve_lp":
            continue
        caller = next(
            (a.name for a in tracer.ancestors(s) if not a.name.startswith(("lp.", "transport."))),
            "",
        )
        key = _short(caller) if caller in LP_CALLERS else "other"
        out[f"lp.solves.by.{key}"] += 1
    out["trace.spans"] = len(spans)
    return out
