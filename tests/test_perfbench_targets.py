"""The benchmark traces periflow functions by name (`perfbench/spans.py`
TARGETS); a renamed or removed target would break traced benchmark runs."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_tracing_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        pass
    assert tracer.spans == []
