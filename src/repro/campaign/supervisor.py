"""Supervised worker pool for campaign and fuzz cells.

:func:`~.queue.run_cells` hands a :class:`~.queue.DurableWorkQueue` to
a :class:`Supervisor` whenever more than one worker is asked for.
Workers are **disposable** and the pool is self-healing:

* Each worker is a separate ``multiprocessing.Process`` with its own
  duplex pipe; the supervisor hands it one cell at a time under a
  time-bounded **lease** and the worker heartbeats while it runs, so a
  hung cell cannot stall the campaign past its lease.  No channel is
  shared between workers: a worker SIGKILLed mid-send can tear only
  its own pipe, never hold a lock that silences the others.
* A dead worker (SIGKILLed, segfaulted, OOM-killed) or an expired
  lease **reclaims** the cell through the queue — a journal, if any,
  records the crash — and the worker is restarted, with capped
  exponential backoff once the pool has proven healthy.
* A cell that keeps killing its workers is a **poison cell**: past the
  queue's retry cap it is quarantined with a deterministic placeholder
  outcome and the rest of the matrix proceeds.

Parallelism is an optimisation, never a new failure mode.  Every
worker death counts toward its cell's poison tally (and is journaled),
but until some worker has returned an outcome the pool itself is
suspect: a cell that killed a worker is not leased again, so each early
death probes a different cell.  If a worker cannot be started, or
workers have died on every cell left before any returned an outcome,
the pool is broken rather than the cells.  The supervisor then hands
its leases back, says ``worker pool failed (...)`` and returns; the
caller finishes the queue in-process.  Once one outcome has come back,
a cell that keeps killing its workers is quarantined as above.

Workers set :data:`~repro.faults.DISPOSABLE_WORKER_ENV` so the
``worker-kill`` drill fault really SIGKILLs them (the service's
self-test), and they watch their parent pid so a hard-killed
coordinator cannot leave orphans holding pipes open.

Determinism: cells are deterministic simulations, and the queue banks
the first result per cell, so worker count, kill timing, lease
reclaims and restarts can change *when* outcomes arrive but never what
is recorded.  Artifacts are always assembled in canonical matrix
order.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import TYPE_CHECKING, Callable, List, Optional, Set

from ..faults.injector import DISPOSABLE_WORKER_ENV
from .outcome import STATUS_ERROR, RunOutcome

if TYPE_CHECKING:  # the queue module imports this one
    from .queue import CellTask, DurableWorkQueue, Lease

#: worker heartbeat period, well under any lease (host time, as are
#: all the pacing constants here — never sim time)
HEARTBEAT_SECONDS = 0.5
#: supervisor event-loop pacing
POLL_SECONDS = 0.05
#: capped exponential backoff for restarting crashed workers
BACKOFF_BASE_SECONDS = 0.05
BACKOFF_CAP_SECONDS = 2.0


def _worker_main(executor, conn: Connection, parent_pid: int) -> None:
    """Worker process body: pull cells, heartbeat, return outcomes, all
    over *conn*, this worker's own pipe to the supervisor."""
    os.environ[DISPOSABLE_WORKER_ENV] = "1"
    current = {"index": None}
    stop_hb = threading.Event()
    # heartbeat thread and main loop share the pipe; the lock is
    # process-local, so a SIGKILL cannot leave it held for anyone else
    send_lock = threading.Lock()

    def send(message) -> None:
        with send_lock:
            conn.send(message)

    def _heartbeats() -> None:
        while not stop_hb.wait(HEARTBEAT_SECONDS):
            if os.getppid() != parent_pid:
                # coordinator hard-killed: die rather than linger as an
                # orphan holding the result pipe open
                os._exit(0)
            index = current["index"]
            if index is not None:
                try:
                    send(("hb", index))
                except Exception:
                    return

    threading.Thread(target=_heartbeats, daemon=True).start()
    while True:
        if not conn.poll(1.0):
            if os.getppid() != parent_pid:
                os._exit(0)
            continue
        try:
            task = conn.recv()
        except EOFError:
            task = None  # the supervisor closed the pipe
        if task is None:
            stop_hb.set()
            return
        current["index"] = task.index
        try:
            outcome = executor.run_cell(task.seed, task.plan_name, task.plan)
        except BaseException as err:  # noqa: BLE001 - a worker must
            # always hand back *an* outcome; anything escaping run_cell's
            # own isolation becomes an error record for this cell alone
            outcome = RunOutcome(
                seed=task.seed, plan=task.plan_name, status=STATUS_ERROR,
                error=f"worker: {type(err).__name__}: {err}",
            )
        current["index"] = None
        send(("done", task.index, outcome))


@dataclass
class _Slot:
    """One supervised worker position."""

    worker_id: str
    proc: Optional[multiprocessing.Process] = None
    conn: Optional[Connection] = None
    busy: Optional[Lease] = None
    restarts: int = 0
    respawn_at: float = 0.0


class Supervisor:
    """Runs a :class:`DurableWorkQueue` to completion on supervised
    disposable workers."""

    def __init__(
        self,
        executor,
        work: DurableWorkQueue,
        jobs: int,
        *,
        on_complete: Optional[Callable[[CellTask, RunOutcome], None]] = None,
        say: Optional[Callable[[str], None]] = None,
        stop: Optional[threading.Event] = None,
        drill_kill_worker_after: Optional[int] = None,
    ) -> None:
        self.executor = executor
        self.work = work
        self.on_complete = on_complete
        self._say = say or (lambda message: None)
        self._stop = stop
        #: chaos drill: SIGKILL one busy worker right after the Nth
        #: fresh completion (exactly once) — self-test for lease reclaim
        self._drill_after = drill_kill_worker_after
        self._mp = multiprocessing.get_context()
        self._slots: List[_Slot] = [
            _Slot(worker_id=f"w{i}") for i in range(max(1, jobs))
        ]
        self._completed = 0
        #: a worker has returned an outcome, so the pool can run cells
        self._healthy = False
        #: cells that killed a worker before the pool proved healthy;
        #: not leased again until it does
        self._early_killers: Set[int] = set()
        #: why the pool was given up on; set -> run() hands back
        self._pool_error: Optional[str] = None
        self._drill_fired = False
        #: (worker_id, cell index) whose in-flight result the drill
        #: invalidated — see _maybe_drill_kill
        self._drill_dropped = None

    # -- lifecycle -----------------------------------------------------------

    def run(self) -> None:
        """Block until every cell is resolved, *stop* is set, or the
        pool fails (then the caller finishes the queue in-process)."""
        try:
            while not self.work.all_resolved():
                if self._stop is not None and self._stop.is_set():
                    self._drain_results(block=False)
                    self._release_leases()
                    return
                now = time.monotonic()
                self._reap(now)
                if self._pool_error is None:
                    self._spawn_and_assign(now)
                if self._pool_error is not None:
                    self._release_leases()
                    self._say(
                        f"worker pool failed ({self._pool_error}); remaining "
                        "cells were completed in-process"
                    )
                    return
                self._drain_results(block=True)
        finally:
            self._shutdown()

    # -- event handling ------------------------------------------------------

    def _drain_results(self, block: bool) -> None:
        live = {slot.conn: slot for slot in self._slots if slot.conn is not None}
        for conn in wait(list(live), timeout=POLL_SECONDS if block else 0):
            slot = live[conn]
            while slot.conn is conn and conn.poll():
                try:
                    message = conn.recv()
                except Exception:
                    # the worker died, perhaps mid-send leaving a torn
                    # pickle: _reap reclaims its lease and re-runs the cell
                    slot.proc.join(POLL_SECONDS)
                    break
                if message[0] == "hb":
                    self.work.heartbeat(message[1], time.monotonic())
                elif (slot.worker_id, message[1]) == self._drill_dropped:
                    self._drill_dropped = None
                else:
                    self._on_done(slot, message[1], message[2])

    def _on_done(self, slot: _Slot, index: int, outcome: RunOutcome) -> None:
        self._healthy = True
        if slot.busy is not None and slot.busy.task.index == index:
            slot.busy = None
            slot.restarts = 0  # a healthy completion resets backoff
        task = self.work.task_for(index)
        fresh = self.work.complete(index, outcome)
        if slot.busy is None and slot.conn is not None \
                and not (self._stop is not None and self._stop.is_set()):
            # the worker's next cell goes out before on_complete's
            # checkpoint write, so the worker never waits on the disk
            self._assign(slot, time.monotonic())
        if fresh:
            self._completed += 1
            if self.on_complete is not None:
                self.on_complete(task, outcome)
            self._maybe_drill_kill()

    def _maybe_drill_kill(self) -> None:
        if (self._drill_after is None or self._drill_fired
                or self._completed < self._drill_after):
            return
        busy = [s for s in self._slots
                if s.busy is not None and s.proc is not None and s.proc.is_alive()]
        if not busy:
            return  # stay armed until a worker is mid-cell
        victim = min(busy, key=lambda s: s.busy.task.index)
        self._drill_fired = True
        self._say(
            f"drill: SIGKILL worker {victim.worker_id} mid-cell "
            f"(cell {victim.busy.task.seed}/{victim.busy.task.plan_name})"
        )
        # the victim may have finished the cell and queued its result in
        # the instant before the SIGKILL lands; drop that in-flight
        # result so the drill deterministically exercises the crash ->
        # reclaim -> re-run path it exists to self-test
        self._drill_dropped = (victim.worker_id, victim.busy.task.index)
        victim.proc.kill()

    # -- worker supervision --------------------------------------------------

    def _reap(self, now: float) -> None:
        for slot in self._slots:
            if slot.proc is None:
                continue
            if not slot.proc.is_alive():
                exitcode = slot.proc.exitcode
                self._worker_lost(slot, now, f"died (exit {exitcode})")
            elif slot.busy is not None and slot.busy.expires_at <= now:
                slot.proc.kill()
                slot.proc.join()
                self._worker_lost(
                    slot, now,
                    f"lease expired after {self.work.lease_seconds:g}s "
                    "without a heartbeat; killed",
                )

    def _worker_lost(self, slot: _Slot, now: float, why: str) -> None:
        if self._drill_dropped is not None \
                and self._drill_dropped[0] == slot.worker_id:
            # the drill victim is confirmed dead and its lease is being
            # reclaimed below; disarm the drop so a *respawned* worker's
            # completion of the same cell is not swallowed (a stale
            # pre-kill result racing in after this point is identical to
            # a re-run, so accepting it is harmless)
            self._drill_dropped = None
        lease, slot.busy = slot.busy, None
        if lease is not None:
            key = f"{lease.task.seed}/{lease.task.plan_name}"
            if not self._healthy:
                self._early_killers.add(lease.task.index)
            quarantined = self.work.record_crash(lease.task.index)
            if quarantined:
                self._say(
                    f"worker {slot.worker_id} {why} running cell {key}; "
                    "cell QUARANTINED as poison"
                )
                outcome = self.work.quarantined[lease.task.index]
                self._completed += 1
                if self.on_complete is not None:
                    self.on_complete(lease.task, outcome)
            else:
                self._say(
                    f"worker {slot.worker_id} {why} running cell {key}; "
                    "lease reclaimed"
                )
        left = self.work.unresolved_count
        if not self._healthy and left and left == sum(
            1 for index in self._early_killers if not self.work.resolved(index)
        ):
            self._pool_error = (
                f"workers died on all {left} cell(s) left before any "
                f"returned a result; last: {slot.worker_id} {why}"
            )
        if slot.proc is not None:
            slot.proc.join()
        slot.proc = None
        slot.conn.close()
        slot.conn = None
        if lease is not None and not self._healthy:
            # the respawn probes a different cell, so there is no crash
            # loop to damp, and a broken pool fails fast
            return
        slot.restarts += 1
        backoff = min(
            BACKOFF_CAP_SECONDS,
            BACKOFF_BASE_SECONDS * (2 ** min(slot.restarts - 1, 16)),
        )
        slot.respawn_at = now + backoff

    def _spawn_and_assign(self, now: float) -> None:
        for slot in self._slots:
            if slot.proc is None and now >= slot.respawn_at and self.work.has_pending():
                try:
                    self._spawn(slot)
                except Exception as err:  # noqa: BLE001 - e.g. an
                    # unpicklable executor or a daemonic parent process
                    self._pool_error = f"{type(err).__name__}: {err}"
                    return
            if slot.proc is not None and slot.busy is None:
                self._assign(slot, now)

    def _assign(self, slot: _Slot, now: float) -> None:
        lease = self.work.acquire(
            slot.worker_id, now,
            skip=() if self._healthy else self._early_killers,
        )
        if lease is None:
            return
        slot.busy = lease
        try:
            slot.conn.send(lease.task)
        except OSError:
            pass  # the worker just died: _reap reclaims the lease

    def _spawn(self, slot: _Slot) -> None:
        conn, child = self._mp.Pipe()
        proc = self._mp.Process(
            target=_worker_main, args=(self.executor, child, os.getpid()),
            daemon=True,
        )
        try:
            proc.start()
        finally:
            # the worker's end lives in the worker only, so its death
            # reads as end-of-file here
            child.close()
        slot.conn, slot.proc = conn, proc

    # -- shutdown ------------------------------------------------------------

    def _release_leases(self) -> None:
        """Graceful stop: hand open leases back (not crashes)."""
        for slot in self._slots:
            if slot.busy is not None:
                self.work.release(slot.busy.task.index)
                slot.busy = None

    def _shutdown(self) -> None:
        for slot in self._slots:
            if slot.proc is not None and slot.proc.is_alive():
                try:
                    slot.conn.send(None)
                except OSError:
                    pass
        for slot in self._slots:
            if slot.proc is None:
                continue
            slot.proc.join(timeout=0.5)
            if slot.proc.is_alive():
                slot.proc.kill()
                slot.proc.join()
            slot.proc = None
            slot.conn.close()
            slot.conn = None
