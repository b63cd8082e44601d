"""One fresh process of the periflow benchmark.

Started by run.py with PYTHONPATH pointing at the checkout's `src`.  Every
mode first times `import periflow` plus `parse_config` (one set-up sample),
then:

  setup  stops there;
  run    makes one cold `run_scenario` call, reads peak RSS, then warm calls
         until the window is used up (at least one);
  trace  makes one untraced warm-up call, then alternates untraced and
         traced calls until the window is used up (at least one of each),
         and dumps the spans.

Each call is gated: no exception, every manifest check PASS and, for the
periodic scenarios, mass-ledger defects within 1e-12 of the largest mass.
The result goes to --result as JSON.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import platform
import resource
import shutil
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

LEDGER_RTOL = 1e-12


def _ledger_failures(out: Path) -> list[str]:
    path = out / "mass_ledger.csv"
    if not path.is_file():
        return ["mass_ledger.csv was not written"]
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    try:
        limit = LEDGER_RTOL * max(abs(float(r[1])) for r in rows)
        # the last level has no step, so its defect column is nan by design
        worst = max((abs(float(r[3])) for r in rows[:-1]), default=0.0)
    except (ValueError, IndexError) as exc:
        return [f"mass_ledger.csv is malformed: {exc}"]
    if not worst <= limit:
        return [f"mass-ledger defect {worst:.3e} exceeds {limit:.3e}"]
    return []


def _call(cli, config: Path, out: Path, ledger: bool, tracer=None, trace_id=None) -> dict:
    """One gated `run_scenario` call on a freshly parsed config."""
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    failures: list[str] = []
    manifest = None
    if tracer is not None:
        tracer.trace = trace_id
    start = time.perf_counter()
    try:
        cfg = cli.parse_config(config)
        start = time.perf_counter()
        manifest = cli.run_scenario(cfg, out)
    except Exception:  # a failed scenario run is counted, not fatal
        failures.append(traceback.format_exc())
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.trace = None
    if manifest is not None:
        failures += [c.line() for c in manifest.checks if not c.passed]
        if ledger:
            failures += _ledger_failures(out)
    return {
        "seconds": seconds,
        "failures": failures,
        "digests": dict(manifest.outputs) if manifest is not None else {},
        "output_bytes": sum(p.stat().st_size for p in out.glob("*.csv")),
    }


def _blas_libraries() -> list[dict]:
    """Loaded OpenBLAS builds with their configured thread counts."""
    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                paths.add(path)
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode().strip()
        found.append(entry)
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True, help="periflow source root")
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--out", type=Path, help="scenario output directory")
    parser.add_argument("--seconds", type=float, default=0.0, help="measurement window")
    parser.add_argument("--ledger", action="store_true", help="gate mass-ledger defects")
    parser.add_argument("--spans", type=Path, help="span dump (trace mode)")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    import periflow
    from periflow import cli

    cli.parse_config(args.config)
    setup_s = time.perf_counter() - started
    if not Path(periflow.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"periflow imported from {periflow.__file__}, not {args.src}", file=sys.stderr)
        return 3

    import numpy
    import scipy

    result: dict = {
        "setup_s": setup_s,
        "libraries": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_libraries(),
        },
    }
    if args.mode != "setup":
        deadline = started + args.seconds
        cold = _call(cli, args.config, args.out, args.ledger)
        result["cold"] = cold
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        last = cold["seconds"]
        if args.mode == "run":
            result["warm"] = []
            while not result["warm"] or time.perf_counter() + last <= deadline:
                begun = time.perf_counter()
                result["warm"].append(_call(cli, args.config, args.out, args.ledger))
                last = time.perf_counter() - begun
        else:
            from spans import Tracer, instrument, layer_metrics

            tracer = Tracer()
            result["untraced"], result["traced"] = [], []
            while not result["traced"] or time.perf_counter() + last <= deadline:
                begun = time.perf_counter()
                result["untraced"].append(_call(cli, args.config, args.out, args.ledger))
                trace_id = len(result["traced"])
                with instrument(tracer):
                    rec = _call(cli, args.config, args.out, args.ledger, tracer, trace_id)
                rec["layers"] = layer_metrics(tracer.run_spans(trace_id))
                result["traced"].append(rec)
                last = time.perf_counter() - begun
            args.spans.write_text(json.dumps([asdict(s) for s in tracer.spans]))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
