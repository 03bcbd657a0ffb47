"""Span recorder for the traced benchmark run.

The tracer wraps each layer's public entry point *where its caller looks
it up* (a module attribute, a class attribute or a registry entry), so
no file under ``src/`` changes.  Every call through a wrapper records
one span: name, start, end, parent span id and the unit it belongs to.
Spans are kept in memory and written out once, when the run ends.

Layer metrics are computed from self time: a span's duration minus the
part of it covered by its child spans.  Whatever no layer claims is
reported as ``other_s``.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: per-layer metric -> the spans whose self time it sums (seconds per unit)
SELF_METRICS: Dict[str, Tuple[str, ...]] = {
    "startup.interp_s": ("startup.interp",),
    "startup.import_s": ("startup.import",),
    "minilang.parse_s": ("minilang.parse",),
    "analysis.static_.callgraph_s": ("analysis.static_.callgraph",),
    "analysis.static_.sites_s": ("analysis.static_.sites",),
    "analysis.static_.threadlevel_s": ("analysis.static_.threadlevel",),
    "analysis.static_.cfg_s": ("analysis.static_.cfg",),
    "analysis.static_.summaries_s": ("analysis.static_.summaries",),
    "analysis.static_.dataflow_s": ("analysis.static_.dataflow",),
    "analysis.static_.races_s": ("analysis.static_.races",),
    "analysis.static_.collectives_s": ("analysis.static_.collectives",),
    "analysis.static_.instrument_s": ("analysis.static_.instrument",),
    "analysis.static_.candidates_s": ("analysis.static_.candidates",),
    "runtime.bytecode.compile_s": ("runtime.bytecode.compile",
                                   "runtime.bytecode.miss"),
    "runtime.exec_s": ("runtime.exec",),
    "runtime.exec_ast_s": ("runtime.exec_ast",),
    "analysis.dynamic_.hb_s": ("analysis.dynamic_.hb",),
    "analysis.dynamic_.memraces_s": ("analysis.dynamic_.memraces",),
    "violations.match_s": ("violations.match",),
    "violations.render_s": ("violations.render",),
    "home.triage_s": ("home.triage",),
    "campaign.journal_s": ("campaign.journal",),
    "fuzz.generate_s": ("fuzz.generate",),
    "fuzz.oracle_engine_s": ("fuzz.oracle_engine",),
    "fuzz.oracle_narrowing_s": ("fuzz.oracle_narrowing",),
    "fuzz.oracle_coherence_s": ("fuzz.oracle_coherence",),
}

#: every per-layer metric -> unit, in report order
LAYER_UNITS: Dict[str, str] = {
    **{metric: "s" for metric in SELF_METRICS},
    "minilang.nodes_per_s": "1/s",
    "analysis.static_.total_s": "s",
    "analysis.static_.self_s": "s",
    "analysis.static_.cache_hit_ratio": "ratio",
    "runtime.bytecode.cache_hit_ratio": "ratio",
    "runtime.steps": "count",
    "runtime.steps_per_s": "1/s",
    "runtime.events": "count",
    "analysis.dynamic_.events_per_s": "1/s",
    "campaign.cell_s": "s",
    "campaign.overhead_s": "s",
    "campaign.overhead_ratio": "ratio",
    "campaign.attempts_per_cell": "count",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
    "other_s": "s",
    "failed_ratio": "ratio",
}

#: span of one unit the benchmark issues itself (a ``check`` process);
#: its self time belongs to no layer of the program
UNIT_SPAN = "unit"


class Recorder:
    """In-memory span store.

    ``unit`` is stamped on every new span.  A recorder in a child
    process takes an *id_prefix* so its ids never collide with the
    parent's, and a *root_parent* so its top-level spans nest under the
    parent's unit span.
    """

    def __init__(self, id_prefix: str = "", root_parent: Any = None) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.unit: Any = None
        self._stack: List[Any] = []
        self._next = 1
        self._prefix = id_prefix
        self._root_parent = root_parent

    def begin(self, name: str, start: Optional[float] = None) -> Dict[str, Any]:
        sid: Any = f"{self._prefix}{self._next}" if self._prefix else self._next
        self._next += 1
        span = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else self._root_parent,
            "unit": self.unit,
            "start": time.perf_counter() if start is None else start,
        }
        self._stack.append(sid)
        return span

    def end(self, span: Dict[str, Any], end: Optional[float] = None) -> None:
        span["end"] = time.perf_counter() if end is None else end
        self._stack.pop()
        self.spans.append(span)

    def wrap(self, owner: Any, attr: str, name: "str | Callable[..., str]",
             counts: Optional[Callable[[tuple, Any], Dict[str, Any]]] = None,
             ) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) with a
        span-recording wrapper.

        *name* may be a callable of the call's arguments, for entry
        points whose layer depends on the receiver.  *counts*, given the
        call's arguments and result, returns counters stored on the
        span; it runs after the span's end time is taken.
        """
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else getattr(owner, attr)
        recorder = self

        def traced(*args, **kwargs):
            span = recorder.begin(name(*args) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.end(span)
            if counts is not None:
                span["counts"] = counts(args, result)
            return result

        traced.__wrapped__ = original
        if is_dict:
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def load_spans(path: str) -> List[Dict[str, Any]]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point the benchmark measures."""
    import sys

    import repro.analysis.dynamic_.memraces as memraces
    import repro.analysis.static_.callgraph as callgraph
    import repro.analysis.static_.report as static_report
    import repro.home.pipeline as pipeline
    import repro.runtime.bytecode.compiler as compiler
    import repro.runtime.bytecode.vm as vm
    import repro.runtime.interpreter as interpreter
    import repro.violations.render as render

    # the campaign and fuzz layers are wrapped only where the workload
    # imported them, so a traced ``check`` process imports nothing extra
    campaign_runner = sys.modules.get("repro.campaign.runner")
    journal = sys.modules.get("repro.campaign.journal")
    fuzz_generator = sys.modules.get("repro.fuzz.generator")
    fuzz_oracles = sys.modules.get("repro.fuzz.oracles")
    fuzz_runner = sys.modules.get("repro.fuzz.runner")
    wrap = recorder.wrap

    def nodes(args, program) -> Dict[str, int]:
        return {"nodes": sum(1 for _ in program.walk())}

    # parse + validate, where the two parsing callers look them up:
    # ``repro.cli`` (the check child only) and the fuzz generator
    for module in (fuzz_generator, sys.modules.get("repro.cli")):
        if module is not None:
            wrap(module, "parse", "minilang.parse", nodes)
            wrap(module, "validate", "minilang.parse")

    # the static phase: its entry point, the cache-miss path and each pass
    wrap(pipeline, "run_static_analysis", "analysis.static_")
    wrap(static_report, "_run_static_analysis", "analysis.static_.miss")
    wrap(callgraph, "build_callgraph", "analysis.static_.callgraph")
    for attr, name in (
        ("collect_sites", "sites"),
        ("check_thread_level", "threadlevel"),
        ("infer_thread_level", "threadlevel"),
        ("build_program_cfgs", "cfg"),
        ("compute_summaries", "summaries"),
        ("compute_dataflow", "dataflow"),
        ("find_races", "races"),
        ("find_collective_divergence", "collectives"),
        ("instrument_program", "instrument"),
        ("build_checklist", "candidates"),
        ("find_candidates", "candidates"),
    ):
        wrap(static_report, attr, f"analysis.static_.{name}")

    wrap(vm, "compile_program", "runtime.bytecode.compile")
    wrap(compiler._Compiler, "compile", "runtime.bytecode.miss")

    # BytecodeInterpreter.run delegates to Interpreter.run, so the layer
    # is named from the receiver's configured engine, not from the class
    def exec_name(interp) -> str:
        if interp.config.engine == "bytecode":
            return "runtime.exec"
        return "runtime.exec_ast"

    def exec_counts(args, result) -> Dict[str, int]:
        return {"steps": int(result.stats.get("scheduler_steps", 0)),
                "events": int(result.stats.get("events", 0))}

    wrap(interpreter.Interpreter, "run", exec_name, exec_counts)

    wrap(pipeline, "analyze", "analysis.dynamic_.hb",
         lambda args, result: {"events": len(args[0])})
    wrap(pipeline, "find_memory_races", "analysis.dynamic_.memraces")
    wrap(memraces, "find_memory_races", "analysis.dynamic_.memraces")
    wrap(pipeline, "match_violations", "violations.match")
    wrap(render, "report_to_json", "violations.render")
    wrap(pipeline, "triage_race_candidates", "home.triage")
    wrap(pipeline, "triage_divergence_candidates", "home.triage")

    if campaign_runner is not None:
        wrap(campaign_runner.CampaignRunner, "run", "campaign.run")
        wrap(campaign_runner.CellExecutor, "run_cell", "campaign.cell",
             lambda args, outcome: {"attempts": outcome.attempt + 1})
        wrap(journal.Journal, "append", "campaign.journal")

    if fuzz_runner is not None:
        wrap(fuzz_runner, "generate_program", "fuzz.generate")
        for oracle in ("engine", "narrowing", "coherence"):
            wrap(fuzz_oracles.ORACLES, oracle, f"fuzz.oracle_{oracle}")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(spans: List[Dict[str, Any]], units: int, wall: float,
              untraced_wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass over *units* units.

    Times are seconds per unit; rates and ratios name their base in
    ``LAYER_UNITS`` and the README.  *wall* is the traced pass's wall
    time, *untraced_wall* the same units' wall time with tracing off.
    """
    child_time: Dict[Any, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = (child_time.get(span["parent"], 0.0)
                                          + span["end"] - span["start"])
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        span["self"] = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
        by_name.setdefault(span["name"], []).append(span)

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def self_sum(name: str) -> float:
        return sum(s["self"] for s in by_name.get(name, ()))

    def count(name: str, key: str) -> int:
        return sum(s.get("counts", {}).get(key, 0) for s in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    n = max(units, 1)
    out: Dict[str, float] = {metric: 0.0 for metric in LAYER_UNITS}
    for metric, names in SELF_METRICS.items():
        out[metric] = sum(self_sum(name) for name in names) / n

    out["minilang.nodes_per_s"] = _ratio(count("minilang.parse", "nodes"),
                                         total("minilang.parse"))
    out["analysis.static_.total_s"] = total("analysis.static_") / n
    out["analysis.static_.self_s"] = sum(
        self_sum(name) for name in by_name if name.startswith("analysis.static_")
    ) / n
    out["analysis.static_.cache_hit_ratio"] = _ratio(
        calls("analysis.static_") - calls("analysis.static_.miss"),
        calls("analysis.static_"))
    out["runtime.bytecode.cache_hit_ratio"] = _ratio(
        calls("runtime.bytecode.compile") - calls("runtime.bytecode.miss"),
        calls("runtime.bytecode.compile"))

    steps = count("runtime.exec", "steps") + count("runtime.exec_ast", "steps")
    out["runtime.steps"] = steps / n
    out["runtime.events"] = (count("runtime.exec", "events")
                             + count("runtime.exec_ast", "events")) / n
    out["runtime.steps_per_s"] = _ratio(
        steps, total("runtime.exec") + total("runtime.exec_ast"))
    out["analysis.dynamic_.events_per_s"] = _ratio(
        count("analysis.dynamic_.hb", "events"), total("analysis.dynamic_.hb"))

    cells = calls("campaign.cell")
    cell_s = total("campaign.cell")
    overhead = total("campaign.run") - cell_s
    out["campaign.cell_s"] = _ratio(cell_s, cells)
    out["campaign.overhead_s"] = _ratio(overhead, cells)
    out["campaign.overhead_ratio"] = _ratio(overhead, total("campaign.run"))
    out["campaign.attempts_per_cell"] = _ratio(count("campaign.cell", "attempts"),
                                               cells)

    layer_self = sum(s["self"] for s in spans if s["name"] != UNIT_SPAN)
    out["trace.overhead_ratio"] = _ratio(wall, untraced_wall)
    out["trace.coverage"] = _ratio(layer_self, wall)
    out["other_s"] = (wall - layer_self) / n
    return out
