"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks two things:

1. every metric named in ``BENCHMARK.json`` is emitted, with the same
   unit, on every workload: end-to-end metrics with ``--trace 0`` and
   per-layer metrics with ``--trace 1``;
2. a deliberately wrong expected answer is counted as a failed unit, so
   it shows up in ``failed_ratio`` (failed units / attempted units).

Exits non-zero with one line per problem found.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from worker import measure
from workloads import BENCH_DIR, ROOT, SRC, CampaignLU, CheckCold


def emitted_metrics(problems: list) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in expected.items():
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if got != wanted:
                missing = sorted(set(wanted) - set(got))
                extra = sorted(set(got) - set(wanted))
                units = sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n])
                problems.append(f"{where}: missing {missing}, unexpected {extra}, "
                                f"wrong units {units}")
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                problems.append(f"{where}: known-answer check failed: "
                                f"{result['failed']}/{result['attempted']}")


def wrong_answers(problems: list) -> None:
    sys.path.insert(0, str(SRC))
    from repro.workloads.npb import InjectionInfo

    with tempfile.TemporaryDirectory(dir=ROOT) as scratch:
        check = CheckCold(0, Path(scratch))
        check.setup()
        # expect one injection more than the racy LU variant carries
        check.programs[0]["registry"].append(
            InjectionInfo("ConcurrentRecvViolation", "nowhere", 10**6, 10**6))
        campaign = CampaignLU(0, Path(scratch))
        campaign.setup()
        campaign.expected = campaign.expected + ["NoSuchViolation"]
        for workload in (check, campaign):
            run = measure(workload, batches=1)
            attempted = len(run["durations"])
            ratio = run["failed"] / attempted if attempted else 0.0
            if ratio != 1.0:
                problems.append(f"{workload.name}: wrong expected answer gave "
                                f"failed_ratio {ratio}, want 1.0")


def main() -> int:
    problems: list = []
    emitted_metrics(problems)
    wrong_answers(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
