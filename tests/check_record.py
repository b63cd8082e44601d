"""The committed record of what periflow computes: for every `SMALL_CONFIGS`
entry of test_cli.py and seeds 0-2 of each benchmark workload config
(`perfbench/workloads.py`), each check's name, value and threshold (`repr`)
and verdict, the notes, the exit code of `periflow run`, the stderr line of a
failed scenario and the SHA-256 of every output, with the fingerprint of the
platform that computed them.

    PYTHONPATH=src python tests/check_record.py    # rewrites tests/check_record.json

`test_check_record.py` reruns it and compares with the committed file.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib.util
import io
import json
import platform
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from numpy._core import _multiarray_umath

from periflow import cli, evolution
from test_cli import SMALL_CONFIGS

RECORD = Path(__file__).with_name("check_record.json")
WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEEDS = (0, 1, 2)


def fingerprint() -> dict:
    """What the record's bits depend on besides periflow: numpy, the source
    of the stepper's LAPACK routines, the machine, the SIMD targets numpy's
    ufuncs dispatch to, and the kernel set and thread count OpenBLAS picks
    at load time (its DYNAMIC_ARCH builds choose kernels by CPU, and their
    last bits differ)."""
    source = "numpy-openblas" if evolution._LAPACK[-1] is ctypes.c_int64 else "scipy"
    features = _multiarray_umath.__cpu_features__
    simd = [t for t in _multiarray_umath.__cpu_dispatch__ if features.get(t)]
    return {"numpy": np.__version__, "lapack": source, "machine": platform.machine(),
            "simd": simd, "openblas": _openblas()}


def _openblas() -> str:
    """numpy's bundled OpenBLAS kernel set and thread count, or "" where
    numpy links another BLAS."""
    try:
        library = ctypes.CDLL(_multiarray_umath.__file__)
        corename = library.scipy_openblas_get_corename64_
        threads = library.scipy_openblas_get_num_threads64_
    except (OSError, AttributeError):
        return ""
    corename.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
    return f"{corename().decode()} x{threads()}"


def configs() -> dict[str, str]:
    """Record key -> config text, in record order."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = {f"small/{name}": body for name, body in SMALL_CONFIGS.items()}
    for name in workloads.WORKLOADS:
        out.update({f"{name}/seed{seed}": workloads.config_text(name, seed) for seed in SEEDS})
    return out


def run(body: str, work: Path) -> dict:
    """One `periflow run` of the config text `body` under `work`."""
    work.mkdir()
    (work / "run.cfg").write_text(body)
    manifests, stderr = [], io.StringIO()
    real = cli.run_scenario

    def keeping(cfg, out_dir):
        manifests.append(real(cfg, out_dir))
        return manifests[-1]

    argv = ["run", "--config", str(work / "run.cfg"), "--out", str(work / "out")]
    with mock.patch.object(cli, "run_scenario", keeping), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    entry = {"exit": code, "stderr": stderr.getvalue().replace(str(work), "<work>")}
    if manifests:
        m = manifests[0]
        entry["checks"] = [[c.name, repr(float(c.value)), repr(float(c.threshold)), bool(c.passed)]
                           for c in m.checks]
        entry["notes"] = list(m.notes)
        entry["outputs"] = dict(sorted(m.outputs))
    return entry


def record() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        runs = {key: run(body, Path(tmp) / f"run{i}") for i, (key, body) in
                enumerate(configs().items())}
    return {"fingerprint": fingerprint(), "runs": runs}


if __name__ == "__main__":
    RECORD.write_text(json.dumps(record(), indent=1) + "\n")
    sys.exit(0)
