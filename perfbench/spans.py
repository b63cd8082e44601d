"""Span tracing of periflow's public functions, applied from outside.

`instrument()` wraps each traced function wherever a periflow module holds
a binding to it (``from .x import y`` copies the binding, so wrapping only
the defining module would miss callers), plus two methods on the
`Propagator` class.  Spans stay in memory: name, start, end, parent span
and the id of the scenario run they belong to.  A layer's self time is its
span minus its direct child spans; calls on one thread nest, so children
never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


def _propagator_run_attrs(args, kwargs, result):
    prop = args[0]
    u0 = kwargs["u0"] if "u0" in kwargs else args[1]
    columns = 1 if getattr(u0, "ndim", 1) == 1 else int(u0.shape[1])
    return {"columns": columns, "column_steps": columns * prop.grid.n_steps}


# (module, attribute, span name, attrs(args, kwargs, result) or None).
# Every narrowband function the band scenario calls is traced, even those
# without a per-layer metric, so that cli.run_scenario.self_s keeps only
# the CLI's own work.
TARGETS = (
    ("periflow.surfaces", "build_frame", "surfaces.build_frame", None),
    ("periflow.metric", "assemble_metric", "metric.assemble_metric", None),
    ("periflow.metric", "laplace_beltrami_matrix", "metric.laplace_beltrami_matrix", None),
    ("periflow.evolution", "Propagator.__init__", "evolution.Propagator.init", None),
    ("periflow.evolution", "Propagator.run", "evolution.Propagator.run", _propagator_run_attrs),
    ("periflow.periodic", "monodromy_solve", "periodic.monodromy_solve", None),
    (
        "periflow.periodic",
        "fixed_point_solve",
        "periodic.fixed_point_solve",
        lambda a, k, r: {"iterations": r.iterations},
    ),
    ("periflow.diagnostics", "mass_ledger", "diagnostics.mass_ledger", None),
    ("periflow.diagnostics", "compatibility_check", "diagnostics.compatibility_check", None),
    (
        "periflow.narrowband",
        "build_band",
        "narrowband.build_band",
        lambda a, k, r: {"active_nodes": int(r[0].active_mask.sum())},
    ),
    ("periflow.narrowband", "eikonal_residual", "narrowband.eikonal_residual", None),
    ("periflow.narrowband", "lift_field", "narrowband.lift_field", None),
    ("periflow.narrowband", "band_average_extract", "narrowband.band_average_extract", None),
    ("periflow.narrowband", "extended_operator_apply", "narrowband.extended_operator_apply", None),
    ("periflow.narrowband", "os_operator_equivalence", "narrowband.os_operator_equivalence", None),
    (
        "periflow.narrowband",
        "flat_strip_step_equivalence",
        "narrowband.flat_strip_step_equivalence",
        None,
    ),
    ("periflow.narrowband", "band_field_csv", "narrowband.band_field_csv", None),
    ("periflow.cli", "parse_config", "cli.parse_config", None),
    ("periflow.cli", "run_scenario", "cli.run_scenario", None),
    ("periflow.cli", "emit_field_csv", "cli.emit_field_csv", None),
)

# per-layer metrics of one scenario run: (name, unit, span name, field)
# where field is "calls", "s" (inclusive), "self_s", a summed span attribute
# or the derived "us_per_column_step"
LAYER_METRICS = (
    ("surfaces.build_frame.calls", "count", "surfaces.build_frame", "calls"),
    ("surfaces.build_frame.s", "s", "surfaces.build_frame", "s"),
    ("metric.assemble_metric.calls", "count", "metric.assemble_metric", "calls"),
    ("metric.assemble_metric.self_s", "s", "metric.assemble_metric", "self_s"),
    ("metric.laplace_beltrami_matrix.calls", "count", "metric.laplace_beltrami_matrix", "calls"),
    ("metric.laplace_beltrami_matrix.s", "s", "metric.laplace_beltrami_matrix", "s"),
    ("evolution.Propagator.init.calls", "count", "evolution.Propagator.init", "calls"),
    ("evolution.Propagator.init.self_s", "s", "evolution.Propagator.init", "self_s"),
    ("evolution.Propagator.run.calls", "count", "evolution.Propagator.run", "calls"),
    ("evolution.Propagator.run.columns", "count", "evolution.Propagator.run", "columns"),
    ("evolution.Propagator.run.s", "s", "evolution.Propagator.run", "s"),
    (
        "evolution.Propagator.run.us_per_column_step",
        "us",
        "evolution.Propagator.run",
        "us_per_column_step",
    ),
    ("periodic.monodromy_solve.self_s", "s", "periodic.monodromy_solve", "self_s"),
    ("periodic.fixed_point_solve.self_s", "s", "periodic.fixed_point_solve", "self_s"),
    ("periodic.fixed_point_solve.iterations", "count", "periodic.fixed_point_solve", "iterations"),
    ("diagnostics.mass_ledger.s", "s", "diagnostics.mass_ledger", "s"),
    ("diagnostics.compatibility_check.s", "s", "diagnostics.compatibility_check", "s"),
    ("narrowband.build_band.calls", "count", "narrowband.build_band", "calls"),
    ("narrowband.build_band.s", "s", "narrowband.build_band", "s"),
    ("narrowband.active_nodes", "count", "narrowband.build_band", "active_nodes"),
    ("narrowband.os_operator_equivalence.s", "s", "narrowband.os_operator_equivalence", "s"),
    ("narrowband.extended_operator_apply.s", "s", "narrowband.extended_operator_apply", "s"),
    ("narrowband.band_field_csv.s", "s", "narrowband.band_field_csv", "s"),
    ("cli.emit_field_csv.s", "s", "cli.emit_field_csv", "s"),
    ("cli.run_scenario.self_s", "s", "cli.run_scenario", "self_s"),
    ("cli.parse_config.s", "s", "cli.parse_config", "s"),
)


@dataclass
class Span:
    id: int
    parent: int | None
    trace: int
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans while `trace` is set; wrapped calls outside a trace
    pass straight through."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trace: int | None = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._epoch = time.perf_counter()

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.trace is None:
                return fn(*args, **kwargs)
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            span = Span(span_id, parent, self.trace, name, start - self._epoch, end - self._epoch)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            self.spans.append(span)
            return result

        return traced

    def run_spans(self, trace: int) -> list[Span]:
        return [s for s in self.spans if s.trace == trace]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    restore = []
    for module_name, attr, name, attrs in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(name, original, attrs))
            restore.append((cls, meth, original))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original, attrs)
        loaded = [m for key, m in sys.modules.items() if key.split(".")[0] == "periflow"]
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    restore.append((mod, key, original))
    try:
        yield tracer
    finally:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The LAYER_METRICS of one scenario run's spans."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        agg = totals[s.name]
        agg["calls"] += 1
        agg["s"] += s.end - s.start
        agg["self_s"] += s.end - s.start - child_time[s.id]
        for key, value in s.attrs.items():
            agg[key] += value
    run = totals["evolution.Propagator.run"]
    if run["column_steps"]:
        run["us_per_column_step"] = 1e6 * run["s"] / run["column_steps"]
    return {
        name: int(totals[span][fld]) if unit == "count" else totals[span][fld]
        for name, unit, span, fld in LAYER_METRICS
    }
