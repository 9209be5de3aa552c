"""Supervised disposable workers: how a campaign or fuzz session runs
cells on more than one process.

Workers are **disposable** and the pool is self-healing: a worker that
dies costs one lease, never the run.

* Each worker is a separate ``multiprocessing.Process`` with its own
  task queue; the supervisor hands it one cell at a time under a
  time-bounded **lease** and the worker heartbeats while it runs, so a
  hung cell cannot stall the campaign past its lease.
* A dead worker (SIGKILLed, segfaulted, OOM-killed) or an expired
  lease **reclaims** the cell through the work queue — which counts
  the crash, and journals it when the run has a journal — and the
  worker is restarted with capped exponential backoff.
* A cell that keeps killing its workers is a **poison cell**: past the
  queue's retry cap it is quarantined with a deterministic placeholder
  outcome and the rest of the matrix proceeds.

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
import queue as _queue
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

from ..faults.injector import DISPOSABLE_WORKER_ENV
from .outcome import STATUS_ERROR, RunOutcome

if TYPE_CHECKING:
    from .queue import CellTask, DurableWorkQueue, Lease


#: worker heartbeat period (well under any lease)
HEARTBEAT_SECONDS = 0.5
#: supervisor event-loop pacing
POLL_SECONDS = 0.05
#: capped exponential backoff for restarting crashed workers
BACKOFF_BASE_SECONDS = 0.05
BACKOFF_CAP_SECONDS = 2.0


def _worker_main(executor, worker_id: str, task_q, result_q,
                 parent_pid: int) -> None:
    """Worker process body: pull cells, heartbeat, return outcomes."""
    os.environ[DISPOSABLE_WORKER_ENV] = "1"
    current = {"index": None}
    stop_hb = threading.Event()

    def _heartbeats() -> None:
        while not stop_hb.wait(HEARTBEAT_SECONDS):
            if os.getppid() != parent_pid:
                # coordinator hard-killed: die rather than linger as an
                # orphan holding the result pipe open
                os._exit(0)
            index = current["index"]
            if index is not None:
                try:
                    result_q.put(("hb", worker_id, index))
                except Exception:
                    return

    threading.Thread(target=_heartbeats, daemon=True).start()
    while True:
        try:
            task = task_q.get(timeout=1.0)
        except _queue.Empty:
            if os.getppid() != parent_pid:
                os._exit(0)
            continue
        if task is None:
            stop_hb.set()
            return
        current["index"] = task.index
        try:
            outcome = executor.run_cell(task.seed, task.plan_name, task.plan)
        except BaseException as err:  # noqa: BLE001 - a worker must
            # always hand back *an* outcome
            outcome = RunOutcome(
                seed=task.seed, plan=task.plan_name, status=STATUS_ERROR,
                error=f"worker: {type(err).__name__}: {err}",
            )
        current["index"] = None
        result_q.put(("done", worker_id, (task.index, outcome)))


@dataclass
class _Slot:
    """One supervised worker position."""

    worker_id: str
    proc: Optional[multiprocessing.Process] = None
    task_q: Optional[object] = None
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
        on_complete: Callable[[CellTask, RunOutcome], None],
        *,
        drill_kill_worker_after: Optional[int] = None,
        say: Optional[Callable[[str], None]] = None,
        stop: Optional[threading.Event] = None,
    ) -> None:
        self.executor = executor
        self.work = work
        #: chaos drill: SIGKILL one busy worker right after the Nth
        #: fresh completion (exactly once) — self-test for lease reclaim
        self.drill_kill_worker_after = drill_kill_worker_after
        self.on_complete = on_complete
        self._say = say or (lambda message: None)
        self._stop = stop
        self._mp = multiprocessing.get_context()
        self._result_q = self._mp.Queue()
        self._slots: List[_Slot] = [
            _Slot(worker_id=f"w{i}") for i in range(max(1, jobs))
        ]
        self._completed = 0
        self._drill_fired = False
        #: (worker_id, cell index) whose in-flight result the drill
        #: invalidated — see _maybe_drill_kill
        self._drill_dropped = None

    # -- lifecycle -----------------------------------------------------------

    def run(self) -> None:
        """Block until every cell is resolved (or *stop* is set)."""
        try:
            while not self.work.all_resolved():
                if self._stop is not None and self._stop.is_set():
                    self._drain_results(block=False)
                    self._release_leases()
                    return
                now = time.monotonic()
                self._reap(now)
                self._spawn_and_assign(now)
                self._drain_results(block=True)
        finally:
            self._shutdown()

    # -- event handling ------------------------------------------------------

    def _drain_results(self, block: bool) -> None:
        first = True
        while True:
            try:
                message = self._result_q.get(
                    timeout=POLL_SECONDS if (block and first) else 0
                )
            except _queue.Empty:
                return
            except Exception:
                # a SIGKILLed worker can leave a torn pickle in the
                # pipe; drop it — the lease machinery re-runs the cell
                first = False
                continue
            first = False
            kind, worker_id, payload = message
            if kind == "hb":
                self.work.heartbeat(payload, time.monotonic())
            elif kind == "done":
                if (worker_id, payload[0]) == self._drill_dropped:
                    self._drill_dropped = None
                    continue
                self._on_done(worker_id, *payload)

    def _on_done(self, worker_id: str, index: int, outcome: RunOutcome) -> None:
        for slot in self._slots:
            if slot.worker_id == worker_id and slot.busy is not None \
                    and slot.busy.task.index == index:
                slot.busy = None
                slot.restarts = 0  # a healthy completion resets backoff
                break
        task = self.work.task_for(index)
        if self.work.complete(index, outcome):
            self._completed += 1
            self.on_complete(task, outcome)
            self._maybe_drill_kill()

    def _maybe_drill_kill(self) -> None:
        after = self.drill_kill_worker_after
        if after is None or self._drill_fired or self._completed < after:
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
        lease = slot.busy
        if lease is not None:
            key = f"{lease.task.seed}/{lease.task.plan_name}"
            quarantined = self.work.record_crash(lease.task.index)
            if quarantined:
                self._say(
                    f"worker {slot.worker_id} {why} running cell {key}; "
                    "cell QUARANTINED as poison"
                )
                outcome = self.work.quarantined[lease.task.index]
                self._completed += 1
                self.on_complete(lease.task, outcome)
            else:
                self._say(
                    f"worker {slot.worker_id} {why} running cell {key}; "
                    "lease reclaimed"
                )
            slot.busy = None
        if slot.proc is not None:
            slot.proc.join()
        slot.proc = None
        slot.task_q = None
        slot.restarts += 1
        backoff = min(
            BACKOFF_CAP_SECONDS,
            BACKOFF_BASE_SECONDS * (2 ** min(slot.restarts - 1, 16)),
        )
        slot.respawn_at = now + backoff

    def _spawn_and_assign(self, now: float) -> None:
        for slot in self._slots:
            if slot.proc is None and now >= slot.respawn_at and self.work.has_pending():
                self._spawn(slot)
            if slot.proc is None or slot.busy is not None:
                continue
            lease = self.work.acquire(slot.worker_id, now)
            if lease is None:
                continue
            slot.busy = lease
            slot.task_q.put(lease.task)

    def _spawn(self, slot: _Slot) -> None:
        slot.task_q = self._mp.Queue()
        # not daemonic: a cell may itself run a supervised campaign (the
        # fuzz jobs oracle does), and daemonic processes cannot have
        # children.  The parent-pid watch and _shutdown reap workers.
        slot.proc = self._mp.Process(
            target=_worker_main,
            args=(self.executor, slot.worker_id, slot.task_q, self._result_q,
                  os.getpid()),
        )
        slot.proc.start()

    # -- shutdown ------------------------------------------------------------

    def _release_leases(self) -> None:
        """Graceful stop: hand open leases back (not crashes)."""
        for slot in self._slots:
            if slot.busy is not None:
                self.work.release(slot.busy.task.index)
                slot.busy = None

    def _shutdown(self) -> None:
        for slot in self._slots:
            if slot.proc is None:
                continue
            if slot.proc.is_alive() and slot.task_q is not None:
                try:
                    slot.task_q.put(None)
                except Exception:
                    pass
        for slot in self._slots:
            if slot.proc is None:
                continue
            slot.proc.join(timeout=0.5)
            if slot.proc.is_alive():
                slot.proc.kill()
                slot.proc.join()
            slot.proc = None
        self._result_q.close()
