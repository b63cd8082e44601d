"""The benchmark traces periflow functions by name (`perfbench/spans.py`
TARGETS) and runs configs it generates (`perfbench/workloads.py`); a renamed
or removed target, or a config key the program stops accepting, would break
benchmark runs."""

import importlib.util
import sys
from pathlib import Path

from periflow.cli import parse_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_tracing_target_resolves(monkeypatch):
    spans = load("spans", monkeypatch)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        pass
    assert tracer.spans == []


def test_every_workload_config_parses(tmp_path, monkeypatch):
    workloads = load("workloads", monkeypatch)
    for workload, (_, scenario, _) in workloads.WORKLOADS.items():
        for seed in range(10):
            path = tmp_path / f"{workload}-{seed}.cfg"
            path.write_text(workloads.config_text(workload, seed))
            assert parse_config(path).scenario == scenario
