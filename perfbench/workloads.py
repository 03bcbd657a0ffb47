"""The three benchmark workloads and their known answers.

Each workload is a closed loop with one client: the next unit starts
only after the previous one has completed.  Units come in batches (one
``check`` process, one campaign round, one fuzz session); a batch's
inputs are a pure function of the workload seed and the batch index, so
the traced pass can replay exactly the units the untraced pass ran.

Every unit is checked against a known answer.  A unit that fails that
check, errors out or hits a budget counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, NamedTuple, Optional

from tracing import load_spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: workload seed -> first scheduler / campaign / fuzz generator seed
SEED_STRIDE = 10_000
#: seconds one ``check`` process may take before it counts as failed
CHECK_TIMEOUT = 60


class Unit(NamedTuple):
    """One completed unit.  ``start`` is None for units timed from the
    previous unit's completion (campaign cells, fuzz programs)."""

    start: Optional[float]
    end: float
    ok: bool
    note: str = ""


def digest(*parts: str) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part.encode())
        sha.update(b"\0")
    return sha.hexdigest()[:16]


def child_env() -> Dict[str, str]:
    """Environment for child Python processes: this checkout's ``src``
    first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


# ---------------------------------------------------------------------------
# check-cold: one ``repro check`` process per unit
# ---------------------------------------------------------------------------

#: (benchmark, variant) in unit order; each pass over the list uses the
#: next scheduler seed
CHECK_PROGRAMS = [(name, variant) for name in ("lu", "bt", "sp", "ip", "div")
                  for variant in ("racy", "fixed")]

#: injection line ranges of the divergence variant, one per class
DIVERGENCE_FUNCS = ("div_order", "div_single", "div_collective", "div_sync")


class CheckCold:
    """``python -m repro.cli check --format json FILE`` in a new process
    per unit, over the NPB racy variants and their fixed twins."""

    name = "check-cold"

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.programs: List[Dict[str, Any]] = []

    def setup(self) -> None:
        from repro.minilang import parse
        from repro.workloads.npb import (
            DIVERGENCE_CLASSES,
            SPECS,
            InjectionInfo,
            build_source,
            divergent_npb_source,
            injection_registry,
            interproc_npb_source,
            interproc_registry,
        )

        def divergence_registry(program):
            registry = []
            for vclass, func in zip(DIVERGENCE_CLASSES, DIVERGENCE_FUNCS):
                lines = [n.loc.line for n in program.function(func).walk()
                         if n.loc.line > 0]
                registry.append(InjectionInfo(vclass, func, min(lines), max(lines)))
            return registry

        for name, variant in CHECK_PROGRAMS:
            racy = variant == "racy"
            if name == "ip":
                source = interproc_npb_source(fixed=not racy)
                registry = interproc_registry
            elif name == "div":
                source = divergent_npb_source(fixed=not racy)
                registry = divergence_registry
            else:
                source = build_source(SPECS[name], inject=racy)
                registry = injection_registry
            path = self.scratch / f"{name}_{variant}.hmp"
            path.write_text(source)
            self.programs.append({
                "path": str(path),
                "source": source,
                "registry": registry(parse(source)) if racy else [],
            })

    def describe(self) -> Dict[str, Any]:
        return {
            "programs": [f"{n}_{v}" for n, v in CHECK_PROGRAMS],
            "scheduler_seed_base": self.seed * SEED_STRIDE,
            "digest": digest(str(self.seed * SEED_STRIDE),
                             *(p["source"] for p in self.programs)),
        }

    def verdict(self, index: int, returncode: int, stdout: str) -> "tuple[bool, str]":
        """Known answer: a racy variant's findings credit every injection
        with no false positive (exit 1); a fixed twin has none (exit 0)."""
        from repro.workloads.npb import score_report

        program = self.programs[index]
        try:
            report = json.loads(stdout)
        except ValueError:
            return False, f"exit {returncode}, output is not JSON"
        if not program["registry"]:
            ok = returncode == 0 and report["count"] == 0
            return ok, "" if ok else f"exit {returncode}, {report['count']} findings"
        findings = [SimpleNamespace(vclass=v["class"], locs=v["locations"])
                    for v in report["violations"]]
        score = score_report(findings, program["registry"])
        ok = (returncode == 1 and score["false_positives"] == 0
              and score["detected"] == len(program["registry"]))
        return ok, "" if ok else (f"exit {returncode}, detected {score['detected']}"
                                  f"/{len(program['registry'])}, "
                                  f"{score['false_positives']} false positives")

    def run_batch(self, k: int, recorder=None) -> List[Unit]:
        index = k % len(self.programs)
        sched_seed = self.seed * SEED_STRIDE + k // len(self.programs)
        args = ["check", "--format", "json", "--seed", str(sched_seed),
                self.programs[index]["path"]]
        if recorder is None:
            cmd = [sys.executable, "-m", "repro.cli", *args]
            start = time.perf_counter()
        else:
            # the child nests its spans under this unit span and dates
            # its interpreter start-up from the moment of the spawn
            spans_out = self.scratch / f"spans-{k}.jsonl"
            span = recorder.begin("unit")
            start = span["start"]
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_out),
                   str(recorder.unit), str(span["id"]), repr(start), *args]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=CHECK_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc = None
        end = time.perf_counter()
        if recorder is not None:
            recorder.end(span, end=end)
            if spans_out.exists():
                recorder.spans.extend(load_spans(str(spans_out)))
                spans_out.unlink()
        if proc is None:
            return [Unit(start, end, False, f"check timed out after {CHECK_TIMEOUT} s")]
        ok, note = self.verdict(index, proc.returncode, proc.stdout)
        if not ok and proc.stderr:
            note += ": " + proc.stderr.strip().splitlines()[-1]
        return [Unit(start, end, ok, note)]


# ---------------------------------------------------------------------------
# campaign-lu: in-process CampaignRunner rounds on racy LU
# ---------------------------------------------------------------------------

CAMPAIGN_PLANS = ("none", "downgrade", "crash", "delay", "jitter")
#: seeds per campaign round; a round is seeds x plans cells
CAMPAIGN_ROUND_SEEDS = 4


class CampaignLU:
    """Durable (journaled) campaign rounds over racy NPB-MZ LU, jobs=1."""

    name = "campaign-lu"

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        from repro.campaign import default_plan_matrix
        from repro.minilang import parse
        from repro.runtime.bytecode import compile_program
        from repro.workloads.npb import LU_SPEC, build_source, injection_registry

        self.source = build_source(LU_SPEC, inject=True)
        self.program = parse(self.source)
        #: LU's six Table-1 classes: one per injection
        self.expected = sorted({i.vclass for i in injection_registry(self.program)})
        self.plans = default_plan_matrix(2, CAMPAIGN_PLANS)
        self.journals = Path(tempfile.mkdtemp(prefix="journals-", dir=self.scratch))
        # round 0's runner runs the static phase; compiling its program
        # here keeps both caches warm for every cell, as in a long campaign
        self._round0 = self._runner(0)
        compile_program(self._round0.static.instrumented_program)

    def _runner(self, k: int):
        from repro.campaign import CampaignConfig, CampaignRunner

        base = self.seed * SEED_STRIDE + k * CAMPAIGN_ROUND_SEEDS
        config = CampaignConfig(
            seeds=list(range(base, base + CAMPAIGN_ROUND_SEEDS)),
            plans=self.plans, jobs=1,
            journal=str(self.journals / f"round-{k}.journal"),
        )
        return CampaignRunner(self.program, config)

    def describe(self) -> Dict[str, Any]:
        return {
            "program": "lu racy",
            "plans": list(CAMPAIGN_PLANS),
            "seeds_per_round": CAMPAIGN_ROUND_SEEDS,
            "campaign_seed_base": self.seed * SEED_STRIDE,
            "digest": digest(str(self.seed * SEED_STRIDE), self.source,
                             json.dumps({n: p.as_dict() if p else None
                                         for n, p in self.plans.items()},
                                        sort_keys=True)),
        }

    def run_batch(self, k: int, recorder=None) -> List[Unit]:
        runner = self._round0 if k == 0 and self._round0 is not None \
            else self._runner(k)
        self._round0 = None
        ends: List[float] = []

        def on_cell(_outcomes) -> None:
            ends.append(time.perf_counter())
            if recorder is not None:
                recorder.unit += 1

        result = runner.run(on_cell=on_cell)
        classes = sorted(result.report.classes())
        round_ok = (classes == self.expected and not result.degraded
                    and not result.interrupted)
        units = []
        for end, outcome in zip(ends, result.outcomes):
            ok = round_ok and outcome.status == "ok"
            note = "" if ok else (f"seed {outcome.seed} plan {outcome.plan}: "
                                  f"status {outcome.status}, round classes {classes}")
            units.append(Unit(None, end, ok, note))
        return units


# ---------------------------------------------------------------------------
# fuzz-corpus: in-process run_fuzz sessions over generated programs
# ---------------------------------------------------------------------------

FUZZ_ORACLES = ("engine", "narrowing", "coherence")
#: generated programs per fuzz session
FUZZ_BATCH = 10
#: programs whose sources go into the input digest
FUZZ_DIGESTED = 20


class FuzzCorpus:
    """``run_fuzz`` sessions (jobs=1) over consecutive generator seeds."""

    name = "fuzz-corpus"

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        import repro.fuzz  # noqa: F401 - the imports are this workload's set-up

    def describe(self) -> Dict[str, Any]:
        from repro.fuzz import GRAMMAR_VERSION, generate_source

        base = self.seed * SEED_STRIDE
        return {
            "grammar_version": GRAMMAR_VERSION,
            "oracles": list(FUZZ_ORACLES),
            "fuzz_seed_base": base,
            "digest": digest(str(GRAMMAR_VERSION), str(base), *(
                generate_source(base + i) for i in range(FUZZ_DIGESTED))),
        }

    def run_batch(self, k: int, recorder=None) -> List[Unit]:
        ends: List[float] = []

        def progress(_line: str) -> None:
            ends.append(time.perf_counter())
            if recorder is not None:
                recorder.unit += 1

        from repro.fuzz import FuzzConfig, run_fuzz

        config = FuzzConfig(
            seeds=FUZZ_BATCH, seed_base=self.seed * SEED_STRIDE + k * FUZZ_BATCH,
            oracles=FUZZ_ORACLES, jobs=1, reduce=False,
        )
        report = run_fuzz(config, progress=progress)
        # the known answer is a clean report; a unit fails when triage
        # filed its seed, or every unit of an unclean session whose
        # failing seed triage did not keep
        bad = {seed: str(entry.signature) for entry in report.bank.entries.values()
               for seed in entry.seeds}
        units = []
        for end, outcome in zip(ends, report.outcomes):
            ok = outcome.status == "ok" and outcome.seed not in bad \
                and (report.clean or bool(bad))
            note = "" if ok else (f"fuzz seed {outcome.seed}: status "
                                  f"{outcome.status} {bad.get(outcome.seed, '')}")
            units.append(Unit(None, end, ok, note))
        return units


WORKLOADS = {w.name: w for w in (CheckCold, CampaignLU, FuzzCorpus)}
