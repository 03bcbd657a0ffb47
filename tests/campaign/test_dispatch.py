"""The one cell-dispatch path (``run_cells``) as campaigns and fuzz
sessions see it: resume only from a matching journal, worker-count
independence, the Supervisor on unjournaled runs, pool-failure
fallback, and one progress callback per fresh cell.
"""

import json

import pytest

from repro.campaign import (
    STATUS_QUARANTINED,
    CampaignConfig,
    CampaignRunner,
    CellTask,
    DurableWorkQueue,
    RunOutcome,
    default_plan_matrix,
    load_checkpoint,
    run_campaign,
    save_checkpoint,
)
from repro.campaign.supervisor import Supervisor
from repro.cli import main
from repro.fuzz import FuzzConfig, run_fuzz
from repro.minilang import parse
from repro.workloads.case_studies import case_study_2

RACY = """
program racy;
var a[1];
func main() {
    var provided = mpi_init_thread(MPI_THREAD_MULTIPLE);
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    omp parallel for for (var j = 0; j < 2; j = j + 1) {
        if (rank == 0) {
            mpi_send(a, 1, 1, 0, MPI_COMM_WORLD);
            mpi_recv(a, 1, 1, 0, MPI_COMM_WORLD);
        }
        if (rank == 1) {
            mpi_recv(a, 1, 0, 0, MPI_COMM_WORLD);
            mpi_send(a, 1, 0, 0, MPI_COMM_WORLD);
        }
    }
    mpi_finalize();
}
"""

CLEAN = """
program clean;
var a[1];
func main() {
    var provided = mpi_init_thread(MPI_THREAD_MULTIPLE);
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    if (rank == 0) {
        mpi_send(a, 1, 1, 0, MPI_COMM_WORLD);
        mpi_recv(a, 1, 1, 0, MPI_COMM_WORLD);
    }
    if (rank == 1) {
        mpi_recv(a, 1, 0, 0, MPI_COMM_WORLD);
        mpi_send(a, 1, 0, 0, MPI_COMM_WORLD);
    }
    mpi_finalize();
}
"""


def _campaign(**overrides):
    settings = dict(
        seeds=range(2),
        plans=default_plan_matrix(2, ["none", "downgrade"]),
        record_timing=False,
        jobs=1,
    )
    settings.update(overrides)
    return CampaignConfig(**settings)


def _untimed(outcomes):
    """Outcome dicts without their host wall-clock fields (the only
    part of a fuzz cell that depends on the run, not the seed)."""
    out = []
    for outcome in outcomes:
        data = json.loads(json.dumps(outcome.as_dict()))
        data["wall_seconds"] = 0.0
        for violation in data["violations"]:
            if violation["class"] == "fuzz:meta":
                meta = json.loads(violation["message"])
                meta["engine_wall"] = {}
                violation["message"] = json.dumps(meta, sort_keys=True)
        out.append(data)
    return out


class TestJournalHeaderMismatch:
    def test_campaign_does_not_resume_another_programs_journal(self, tmp_path):
        journal = str(tmp_path / "j.journal")
        racy = run_campaign(parse(RACY), _campaign(journal=journal))
        assert "ConcurrentRecvViolation" in racy.report.classes()
        lines = []
        resumed = run_campaign(
            parse(CLEAN), _campaign(journal=journal, resume=True),
            progress=lines.append,
        )
        assert "warning: journal is for a different campaign; starting cold" \
            in lines
        assert not any("(resumed)" in line for line in lines)
        fresh = run_campaign(parse(CLEAN), _campaign())
        assert resumed.report.classes() == fresh.report.classes()
        assert "ConcurrentRecvViolation" not in resumed.report.classes()
        # the journal now belongs to the clean campaign and resumes it
        again = []
        run_campaign(
            parse(CLEAN), _campaign(journal=journal, resume=True),
            progress=again.append,
        )
        assert len(again) == 4
        assert all("(resumed)" in line for line in again)

    def test_fuzz_resume_with_other_oracles_starts_cold(self, tmp_path, capsys):
        journal = str(tmp_path / "fuzz.journal")
        report = tmp_path / "report.json"
        base = ["fuzz", "--seeds", "2", "--no-reduce", "--journal", journal]
        assert main(base + ["--oracles", "narrowing"]) == 0
        capsys.readouterr()
        rc = main(base + ["--oracles", "coherence", "--resume",
                          "--report", str(report)])
        err = capsys.readouterr().err
        assert rc == 0
        assert "warning: journal is for a different campaign; starting cold" \
            in err
        data = json.loads(report.read_text())
        assert sorted(data["oracles"]) == ["coherence"]
        assert data["oracles"]["coherence"]["ran"] == 2


class TestReroutedPaths:
    def test_fuzz_outcomes_identical_across_worker_counts(self):
        config = dict(seeds=4, jobs_every=1, reduce=False)
        serial = run_fuzz(FuzzConfig(jobs=1, **config))
        parallel = run_fuzz(FuzzConfig(jobs=2, **config))
        assert serial.clean and parallel.clean
        assert _untimed(parallel.outcomes) == _untimed(serial.outcomes)

    @pytest.mark.parametrize("plans, journaled", [
        (["none", "killworker"], False),
        # both workers start on a killworker cell, so the first deaths
        # come before any outcome: they are tallied, not blamed on the
        # pool, and the healthy cells behind them prove the pool works
        (["killworker", "none"], False),
        (["killworker", "none"], True),
    ])
    def test_supervised_campaign_quarantines_poison(self, tmp_path, plans,
                                                    journaled):
        lines = []
        result = run_campaign(
            parse(RACY),
            _campaign(
                jobs=2, poison_retries=1,
                plans=default_plan_matrix(2, plans),
                journal=str(tmp_path / "j.journal") if journaled else None,
            ),
            progress=lines.append,
        )
        statuses = {(o.seed, o.plan): o.status for o in result.outcomes}
        assert statuses == {
            (0, "none"): "ok",
            (1, "none"): "ok",
            (0, "killworker"): STATUS_QUARANTINED,
            (1, "killworker"): STATUS_QUARANTINED,
        }
        assert not result.interrupted
        assert any("QUARANTINED" in line for line in lines)
        assert not any("worker pool failed" in line for line in lines)

    def test_unstartable_pool_falls_back_to_inprocess(self, monkeypatch):
        def refuse(self, slot):
            raise OSError("no processes today")

        monkeypatch.setattr(Supervisor, "_spawn", refuse)
        lines = []
        program = case_study_2()
        result = run_campaign(program, _campaign(jobs=2), progress=lines.append)
        assert (
            "worker pool failed (OSError: no processes today); remaining "
            "cells were completed in-process"
        ) in lines
        serial = run_campaign(program, _campaign())
        assert [o.as_dict() for o in result.outcomes] == [
            o.as_dict() for o in serial.outcomes
        ]


class TestQueueBookkeeping:
    def test_skip_and_counters_track_every_transition(self):
        work = DurableWorkQueue(
            [CellTask(i, i, "none", None) for i in range(4)], poison_retries=0,
        )
        lease = work.acquire("w0", 0.0, skip={0})
        assert lease.task.index == 1
        assert work.acquire("w1", 0.0, skip={0, 2, 3}) is None
        work.complete(1, RunOutcome(seed=1, plan="none", status="ok"))
        assert work.acquire("w1", 0.0).task.index == 0
        assert work.record_crash(0)  # quarantined on its first crash
        assert work.unresolved_count == 2 and work.has_pending()
        for index in (2, 3):
            lease = work.acquire("w0", 0.0)
            assert lease.task.index == index
            work.complete(index, RunOutcome(seed=index, plan="none", status="ok"))
        assert work.all_resolved() and not work.has_pending()
        assert work.acquire("w0", 0.0) is None


class TestOneCallbackPerCell:
    def test_fuzz_progress_once_per_program(self):
        lines = []
        report = run_fuzz(
            FuzzConfig(seeds=5, oracles=("narrowing",), reduce=False, jobs=1),
            progress=lines.append,
        )
        assert report.clean
        assert len(lines) == 5
        assert [line.split()[0] for line in lines] == [
            f"[{n}/5]" for n in range(1, 6)
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_on_cell_once_per_fresh_cell(self, tmp_path, jobs):
        program = case_study_2()
        path = str(tmp_path / "ck.json")
        calls = []
        CampaignRunner(program, _campaign(jobs=jobs, checkpoint=path)).run(
            on_cell=calls.append
        )
        assert [len(outcomes) for outcomes in calls] == [1, 2, 3, 4]
        state = load_checkpoint(path)
        save_checkpoint(path, state["meta"], state["outcomes"][::2])
        calls.clear()
        CampaignRunner(
            program, _campaign(jobs=jobs, checkpoint=path, resume=True)
        ).run(on_cell=calls.append)
        assert [len(outcomes) for outcomes in calls] == [3, 4]
