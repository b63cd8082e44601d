"""periflow benchmark: seeded `run_scenario` workloads, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; periflow is imported from its `src`.  The
load is one process at a time (closed loop, one client): each worker makes
a `run_scenario` call, waits for it, then makes the next.

--trace 0  three fresh worker processes share the window.  Each times its
           own set-up, one cold call and warm calls; two more fresh
           processes only time set-up.  Prints the end-to-end metrics.
--trace 1  one worker alternates untraced and traced calls over the window
           and prints the per-layer metrics plus the tracing overhead.
           Spans go to .perfbench/results/.

Every call is gated (see worker.py), and the CSV digests of all calls must
agree, since one config and seed must give byte-identical data files.  The
last stdout line is the JSON result; the full record, with the
environment, is written to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from spans import LAYER_METRICS
from workloads import WORKLOADS, config_text, has_ledger

WORKERS = 3  # fresh processes per untraced run: three cold-call samples
SETUP_PROBES = 2  # extra fresh processes that only import and parse
WORKER_TIMEOUT_S = 120.0
END_TO_END = (
    ("run_s", "s"),
    ("cold_run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("pass_ratio", "ratio"),
)
PER_LAYER = tuple((name, unit) for name, unit, _, _ in LAYER_METRICS) + (
    ("cli.output_bytes", "bytes"),
    ("tracing.overhead_s", "s"),
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _cpu_record() -> dict:
    record = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
    }
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                record["cpu_model"] = line.split(":", 1)[1].strip()
                break
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            record[f"l{level}_cache"] = (index / "size").read_text().strip()
    return record


def _worker(mode: str, root: Path, work: Path, tag: str, env: dict, **opts) -> dict:
    """Run one worker process to completion and return its result."""
    result = work / f"{tag}.json"
    cmd = [
        sys.executable,
        str(Path(__file__).resolve().parent / "worker.py"),
        mode,
        "--config", str(work / "workload.cfg"),
        "--src", str(root / "src"),
        "--result", str(result),
        "--out", str(work / f"{tag}-out"),
    ]
    for key, value in opts.items():
        if value is True:
            cmd.append(f"--{key}")
        elif value not in (None, False):
            cmd += [f"--{key}", str(value)]
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {tag} exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(result.read_text())


def _mark_digest_mismatches(calls: list[dict]) -> None:
    """Fail calls whose CSV digests differ from the first call's."""
    reference = next((c["digests"] for c in calls if c["digests"]), None)
    for call in calls:
        if call["digests"] and call["digests"] != reference:
            call["failures"].append("CSV digests differ from the first call of this seed")


def _samples(values: list[float]) -> str:
    return f"n={len(values)} min={min(values):.4f} max={max(values):.4f}"


def _measure_layers(args, root, work, env, spans: Path):
    rec = _worker("trace", root, work, "trace", env, seconds=args.seconds,
                  ledger=has_ledger(args.workload), spans=spans)
    traced = rec["traced"]
    for call in traced:
        call["layers"]["cli.output_bytes"] = call["output_bytes"]
    metrics = {}
    for name, unit in PER_LAYER[:-1]:
        values = [c["layers"][name] for c in traced]
        if unit not in ("count", "bytes"):
            metrics[name] = statistics.median(values)
            continue
        # counts are exact: every traced call of one seed must agree
        metrics[name] = values[0]
        if len(set(values)) != 1:
            traced[-1]["failures"].append(f"{name} differs between traced calls: {values}")
    untraced_s = statistics.median(c["seconds"] for c in rec["untraced"])
    traced_s = statistics.median(c["seconds"] for c in traced)
    metrics["tracing.overhead_s"] = traced_s - untraced_s
    lines = [
        f"tracing overhead: traced run_s {traced_s:.4f} s - untraced run_s "
        f"{untraced_s:.4f} s = {traced_s - untraced_s:+.4f} s "
        f"({len(traced)} traced, {len(rec['untraced'])} untraced calls)",
        f"spans: {spans.relative_to(root)}",
    ]
    return metrics, [rec["cold"]] + rec["untraced"] + traced, rec["libraries"], lines


def _measure_end_to_end(args, root, work, env):
    ledger = has_ledger(args.workload)
    runs = [
        _worker("run", root, work, f"run{i}", env, seconds=args.seconds / WORKERS, ledger=ledger)
        for i in range(WORKERS)
    ]
    probes = [_worker("setup", root, work, f"setup{i}", env) for i in range(SETUP_PROBES)]
    calls = [c for r in runs for c in [r["cold"]] + r["warm"]]
    warm = [c["seconds"] for r in runs for c in r["warm"]]
    cold = [r["cold"]["seconds"] for r in runs]
    setup = [r["setup_s"] for r in runs + probes]
    rss = [r["peak_rss_mib"] for r in runs]
    metrics = {
        "run_s": statistics.median(warm),
        "cold_run_s": statistics.median(cold),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": statistics.median(rss),
    }
    lines = [
        f"run_s samples: {_samples(warm)} (warm calls in {WORKERS} processes)",
        f"cold_run_s samples: {_samples(cold)} (first call of each process)",
        f"setup_s samples: {_samples(setup)} (import periflow + parse_config)",
        f"peak_rss_mib samples: {_samples(rss)} (after the cold call)",
    ]
    return metrics, calls, runs[0]["libraries"], lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="periflow benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "periflow" / "__init__.py").is_file():
        print(f"error: no periflow sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench" / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = root / ".perfbench" / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    config = config_text(args.workload, args.seed)
    (work / "workload.cfg").write_text(config)

    # one BLAS thread: the workloads are mostly serial, and a second thread
    # makes timings depend on whether the other core is free
    threads = "1"
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    spans = results / f"{args.workload}-seed{args.seed}-spans.json"
    try:
        if args.trace:
            metrics, calls, libraries, lines = _measure_layers(args, root, work, env, spans)
            units = dict(PER_LAYER)
        else:
            metrics, calls, libraries, lines = _measure_end_to_end(args, root, work, env)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    _mark_digest_mismatches(calls)
    failed = sum(1 for c in calls if c["failures"])
    if not args.trace:
        metrics["pass_ratio"] = (len(calls) - failed) / len(calls)
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    for call in calls:
        lines += [f"FAILED call: {f.strip()}" for f in call["failures"]]
    environment = {**_cpu_record(), **libraries, "blas_threads_env": threads}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("config:\n  " + config.strip().replace("\n", "\n  "))
    print("environment: " + json.dumps(environment))
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"gate: {len(calls)} scenario calls, {failed} failed")
    line = {"correct": failed == 0, "attempted": len(calls), "failed": failed, "metrics": metrics}
    record = {**line, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "config": config, "environment": environment,
              "seconds": [c["seconds"] for c in calls]}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
