"""``python -m repro.cli`` with the benchmark's layer tracer installed.

Usage (the check-cold workload's traced pass runs this in place of the
plain CLI)::

    python perfbench/traced_cli.py SPANS_OUT UNIT PARENT_SPAN SPAWNED CLI_ARGS...

``SPAWNED`` is the parent's ``time.perf_counter()`` at the spawn; on
Linux that clock is system-wide, so the span from it to this script's
first statement is the interpreter's own start-up.  The CLI's exit code
is passed through; the spans are written to ``SPANS_OUT`` at exit.
"""

import time

_FIRST = time.perf_counter()

import sys  # noqa: E402 - after the start-up timestamp on purpose

from tracing import Recorder, install  # noqa: E402


def main(argv) -> int:
    spans_out, unit, parent, spawned = argv[:4]
    recorder = Recorder(id_prefix=f"u{unit}.", root_parent=int(parent))
    recorder.unit = int(unit)
    recorder.end(recorder.begin("startup.interp", start=float(spawned)), end=_FIRST)
    span = recorder.begin("startup.import")
    import repro.cli

    recorder.end(span)
    install(recorder)
    try:
        return repro.cli.main(argv[4:])
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
