"""The repository benchmark: HOME timed end to end and layer by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {check-cold,campaign-lu,fuzz-corpus} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the per-layer trace.  Every unit's verdict is checked
against a known answer.  Each metric is printed by name with its unit,
then a fingerprint of the host and the inputs, and last one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A copy of the result, with the fingerprint and the raw unit times, is
kept under ``.perfbench/results/`` in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from tracing import LAYER_UNITS
from workloads import BENCH_DIR, ROOT, SRC, WORKLOADS, child_env

#: end-to-end metric -> unit
E2E_UNITS = {
    "setup_s": "s",
    "unit_p50_s": "s",
    "unit_tail_s": "s",
    "units_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: fresh processes timed from spawn to the end of set-up per run (the
#: measuring worker is one of them); setup_s is their median
SETUP_SAMPLES = 5
#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10
#: seconds after which a run gives up and stops its worker
RUN_DEADLINE = 170


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def tail(samples: List[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond).  With ten samples or fewer no
    percentile qualifies and the maximum is reported."""
    ordered = sorted(samples)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    index = len(ordered) - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), TAIL_BEYOND


def spawn_worker(args: argparse.Namespace, scratch: Path, deadline: float,
                 out: Optional[Path] = None, spans: Optional[Path] = None) -> float:
    """Run one worker process to its end, or stop it at *deadline*
    (a ``time.perf_counter()`` value); returns its set-up time, from
    the spawn until it printed READY."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch)]
    if out is not None:
        cmd += ["--out", str(out)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    spawned = time.perf_counter()
    # a session of its own, so a stuck worker is stopped together with
    # the check process it may be waiting on
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        if not select.select([proc.stdout], [], [],
                             max(deadline - time.perf_counter(), 0))[0]:
            raise BenchError(f"{args.workload} worker set-up timed out")
        ready = proc.stdout.readline()
        setup = time.perf_counter() - spawned
        proc.communicate(timeout=max(deadline - time.perf_counter(), 0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} worker timed out") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{args.workload} worker failed (exit {proc.returncode})")
    return setup


def fingerprint() -> Dict[str, Any]:
    """Host and software the result was measured with."""
    def version(dist: str) -> Optional[str]:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "git_commit": commit,
    }


def run(args: argparse.Namespace) -> Dict[str, Any]:
    base = ROOT / ".perfbench"
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    out = scratch / "worker.json"
    spans = results / f"{stem}.spans.jsonl" if args.trace else None
    deadline = time.perf_counter() + RUN_DEADLINE
    try:
        # extra set-up samples only matter for the untraced run
        setups = []
        for i in range(0 if args.trace else SETUP_SAMPLES - 1):
            (scratch / f"setup-{i}").mkdir()
            setups.append(spawn_worker(args, scratch / f"setup-{i}", deadline))
        (scratch / "run").mkdir()
        setups.append(spawn_worker(args, scratch / "run", deadline, out, spans))
        worker = json.loads(out.read_text())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    passes = [worker["plain"]] + ([worker["traced"]] if args.trace else [])
    attempted = sum(len(p["durations"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = worker["plain"]
    if not plain["durations"]:
        raise BenchError("no unit completed")
    value, pct, beyond = tail(plain["durations"])
    if args.trace:
        metrics = {name: {"value": worker["layers"][name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
        metrics["failed_ratio"]["value"] = failed / attempted
    else:
        e2e = {
            "setup_s": statistics.median(setups),
            "unit_p50_s": statistics.median(plain["durations"]),
            "unit_tail_s": value,
            "units_per_s": len(plain["durations"]) / plain["wall"],
            "peak_rss_mb": worker["peak_rss_kb"] / 1024.0,
        }
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(),
        "inputs": worker["inputs"],
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": [note for p in passes for note in p["notes"]],
        "tail": {"percentile": pct, "samples": len(plain["durations"]),
                 "beyond": beyond},
        "setup_samples": setups,
        "unit_durations": plain["durations"],
        "spans": str(spans.relative_to(ROOT)) if spans else None,
        "metrics": metrics,
        "result_file": str((results / f"{stem}.json").relative_to(ROOT)),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="HOME benchmark: end-to-end and per-layer metrics")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # SIGTERM unwinds like an error, so the worker is stopped on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no HOME sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    (ROOT / result["result_file"]).write_text(json.dumps(result, indent=1))

    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    tail_info = result["tail"]
    if not args.trace:
        print(f"{'failed_ratio':40s} {result['failed_ratio']:.6g} ratio")
        print(f"unit_tail_s is p{tail_info['percentile']:.1f} of "
              f"{tail_info['samples']} samples, {tail_info['beyond']} beyond it")
    print(f"{result['failed']} of {result['attempted']} units failed")
    for note in result["failures"]:
        print(f"failed unit: {note}")
    print("host: " + json.dumps(result["fingerprint"], sort_keys=True))
    print("inputs: " + json.dumps(result["inputs"], sort_keys=True))
    print(f"result: {result['result_file']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
