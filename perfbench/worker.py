"""One benchmark process: set a workload up, then run its units.

Started by ``run.py``, never by hand.  The worker prints ``READY`` on
standard output the moment set-up is done, so the parent can time
set-up from the spawn of a fresh process.  It then runs units in a
closed loop and writes what it measured as JSON to ``--out``.

With ``--trace 1`` the loop runs for half the time with tracing off,
then the layer tracer is installed and the very same units run again
traced; the two walls give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from tracing import Recorder, install, summarize
from workloads import WORKLOADS

#: failure notes kept in the result file
MAX_NOTES = 20


def measure(workload, seconds: Optional[float] = None,
            batches: Optional[int] = None, recorder=None) -> Dict[str, Any]:
    """Run batches until *seconds* have passed or *batches* are done."""
    start = time.perf_counter()
    last = start
    durations: List[float] = []
    notes: List[str] = []
    failed = 0
    k = 0
    while (batches is None or k < batches) and \
            (seconds is None or time.perf_counter() - start < seconds):
        if recorder is not None:
            recorder.unit = len(durations)
        for unit in workload.run_batch(k, recorder):
            durations.append(unit.end - (last if unit.start is None else unit.start))
            last = unit.end
            if not unit.ok:
                failed += 1
                if len(notes) < MAX_NOTES:
                    notes.append(unit.note)
        k += 1
    return {"durations": durations, "failed": failed, "notes": notes,
            "batches": k, "wall": last - start,
            "elapsed": time.perf_counter() - start}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out", help="result JSON (omit for a set-up-only run)")
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, Path(args.scratch))
    workload.setup()
    print("READY", flush=True)
    if args.out is None:
        return 0

    result: Dict[str, Any] = {}
    plain = measure(workload, seconds=args.seconds / 2 if args.trace else args.seconds)
    result["plain"] = plain
    who = resource.RUSAGE_CHILDREN if args.workload == "check-cold" \
        else resource.RUSAGE_SELF
    result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    if args.trace:
        recorder = Recorder()
        install(recorder)
        traced = measure(workload, batches=plain["batches"], recorder=recorder)
        result["traced"] = traced
        result["layers"] = summarize(recorder.spans, len(traced["durations"]),
                                     traced["elapsed"], plain["elapsed"])
        if args.spans:
            recorder.dump(args.spans)
    result["inputs"] = workload.describe()
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
