"""Crash-safe work queue for campaign cells, and the one driver that
runs it.

One :class:`DurableWorkQueue` owns the full canonical matrix of
:class:`CellTask`\\ s and tracks each cell through
``pending → leased → done`` (or ``quarantined``).  With a journal
(:mod:`.journal`) every transition is recorded *before* the in-memory
state changes, so a coordinator killed at any instant — ``kill -9``
included — restores exactly by replaying the journal:

* a ``done`` record banks the outcome;
* a ``lease`` with no matching ``done``/``release`` means the holder
  (worker *or* coordinator) died mid-cell: the attempt counts toward
  the cell's poison tally and the cell returns to ``pending``;
* a cell whose tally exceeds the retry cap is **quarantined**: it gets
  a deterministic placeholder outcome, is excluded from scheduling,
  and is flagged in the report instead of stalling the campaign.

Without a journal the queue keeps the same state in memory only.

Dedup is deterministic: cells are deterministic simulations, so when a
reclaimed-then-completed cell delivers twice, the first recorded result
wins and the duplicate is counted and dropped — both results are
byte-identical, so arrival order cannot leak into artifacts.

:func:`run_work_queue` is the single cell-execution path that campaigns,
``serve`` and fuzz sessions share: it opens (and on resume restores) the
queue, then drains it with a serial in-process lease loop for one worker
or the :class:`~.supervisor.Supervisor` for more.  It is also the one
resume policy: a journal from another run, or with an unreadable header,
is moved aside rather than restored or overwritten.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import AnalysisError
from ..faults import FaultPlan
from .journal import CORRUPT_SUFFIX, Journal, JournalReplay, replay_journal
from .outcome import STATUS_QUARANTINED, RunOutcome
from .supervisor import Supervisor


@dataclass(frozen=True)
class CellTask:
    """One (seed, plan) cell of the campaign matrix, picklable for
    dispatch to a worker process."""

    #: canonical position in the matrix — outcomes are merged by this
    #: index so parallel completion order never leaks into artifacts
    index: int
    seed: int
    plan_name: str
    plan: Optional[FaultPlan]


def resolve_jobs(jobs, cells: int) -> int:
    """Resolve a ``--jobs`` value to a concrete worker count.

    ``"auto"``/``None``/``0`` mean one worker per CPU core; the result
    is always capped by the number of runnable cells and floored at 1.
    """
    if jobs in (None, 0, "auto", ""):
        resolved = os.cpu_count() or 1
    else:
        resolved = int(jobs)
        if resolved < 1:
            raise ValueError(f"--jobs must be >= 1 or 'auto', got {jobs!r}")
    return max(1, min(resolved, max(cells, 1)))


def cell_key(task: CellTask) -> str:
    """Stable journal identity of a cell (matches :attr:`RunOutcome.key`)."""
    return f"{task.seed}/{task.plan_name}"


@dataclass
class Lease:
    """One time-bounded grant of a cell to a worker."""

    task: CellTask
    worker: str
    expires_at: float
    #: 1-based count of leases ever granted for this cell
    attempt: int


class DurableWorkQueue:
    """Single-coordinator work queue with journaled state transitions."""

    def __init__(
        self,
        cells: Sequence[CellTask],
        journal: Optional[Journal] = None,
        *,
        lease_seconds: float = 60.0,
        poison_retries: int = 2,
    ) -> None:
        if poison_retries < 0:
            raise ValueError("poison_retries must be >= 0")
        self.cells = sorted(cells, key=lambda t: t.index)
        self.journal = journal
        self.lease_seconds = lease_seconds
        #: crash-reclaims a cell may survive before quarantine: the
        #: cell is quarantined on crash number ``poison_retries + 1``
        self.poison_retries = poison_retries
        self.outcomes: Dict[int, RunOutcome] = {}
        self.quarantined: Dict[int, RunOutcome] = {}
        self.crashes: Dict[int, int] = {}
        self._leases: Dict[int, Lease] = {}
        self._by_key = {cell_key(t): t for t in self.cells}

    # -- journal helpers -----------------------------------------------------

    def _log(self, rtype: str, **fields) -> None:
        if self.journal is not None:
            self.journal.append(rtype, **fields)

    def restore(self, replay: JournalReplay,
                warn: Optional[Callable[[str], None]] = None) -> None:
        """Rebuild queue state from a journal replay.

        Records for cells outside the current matrix are skipped with a
        warning (the submission changed under the journal); an open
        lease with no resolution means its holder died mid-cell and
        counts as one crash.  Cells already over the poison cap are
        quarantined immediately (journaling the quarantine) so a
        coordinator that is itself killed by a poison cell makes
        progress across restarts instead of looping forever.
        """
        attempts: Dict[int, int] = {}
        done: Dict[int, RunOutcome] = {}
        quarantined: Dict[int, RunOutcome] = {}
        unknown = 0
        for rec in replay.records:
            task = self._by_key.get(rec.get("cell"))
            if task is None:
                unknown += 1
                continue
            index = task.index
            rtype = rec.get("type")
            if rtype == "lease":
                attempts[index] = attempts.get(index, 0) + 1
            elif rtype == "done":
                if index not in done:
                    done[index] = RunOutcome.from_dict(rec["outcome"])
            elif rtype == "release":
                # clean hand-back: not a crash
                attempts[index] = max(0, attempts.get(index, 0) - 1)
            elif rtype == "reclaim":
                pass  # the crash is already counted by its lease record
            elif rtype == "quarantine":
                quarantined[index] = RunOutcome.from_dict(rec["outcome"])
        if unknown and warn is not None:
            warn(f"journal has {unknown} record(s) for cells outside the "
                 "current matrix; ignoring them")
        self.outcomes = done
        self.quarantined = quarantined
        self.crashes = {
            index: count - (1 if index in done else 0)
            for index, count in attempts.items()
            if count - (1 if index in done else 0) > 0
        }
        for index, crashes in list(self.crashes.items()):
            if index in done or index in quarantined:
                continue
            if crashes > self.poison_retries:
                self._quarantine(index)

    # -- state queries -------------------------------------------------------

    def resolved(self, index: int) -> bool:
        return index in self.outcomes or index in self.quarantined

    def all_resolved(self) -> bool:
        return all(self.resolved(t.index) for t in self.cells)

    @property
    def unresolved_count(self) -> int:
        return sum(1 for t in self.cells if not self.resolved(t.index))

    def has_pending(self) -> bool:
        """Any cell neither resolved nor currently leased?"""
        return any(
            not self.resolved(t.index) and t.index not in self._leases
            for t in self.cells
        )

    def task_for(self, index: int) -> CellTask:
        """The cell with canonical matrix index *index*."""
        for task in self.cells:
            if task.index == index:
                return task
        raise KeyError(f"no cell with index {index}")

    def outcome_list(self) -> List[RunOutcome]:
        """Resolved outcomes (completed + quarantined) in canonical
        matrix order — the artifact-assembly order."""
        out = []
        for task in self.cells:
            outcome = self.outcomes.get(task.index)
            if outcome is None:
                outcome = self.quarantined.get(task.index)
            if outcome is not None:
                out.append(outcome)
        return out

    # -- transitions ---------------------------------------------------------

    def acquire(self, worker: str, now: float) -> Optional[Lease]:
        """Lease the lowest-index available cell, or ``None``."""
        for task in self.cells:
            index = task.index
            if self.resolved(index) or index in self._leases:
                continue
            attempt = self.crashes.get(index, 0) + 1
            self._log("lease", cell=cell_key(task), worker=worker,
                      attempt=attempt)
            lease = Lease(
                task=task, worker=worker,
                expires_at=now + self.lease_seconds, attempt=attempt,
            )
            self._leases[index] = lease
            return lease
        return None

    def heartbeat(self, index: int, now: float) -> None:
        """Extend a live lease (no-op for resolved/reclaimed cells)."""
        lease = self._leases.get(index)
        if lease is not None:
            lease.expires_at = now + self.lease_seconds

    def complete(self, index: int, outcome: RunOutcome) -> bool:
        """Bank a finished cell.  Returns ``False`` for a duplicate
        delivery (the cell was reclaimed and finished elsewhere first):
        the first recorded result wins, deterministically."""
        self._leases.pop(index, None)
        if self.resolved(index):
            return False
        self._log("done", cell=cell_key(self.task_for(index)),
                  outcome=outcome.as_dict())
        self.outcomes[index] = outcome
        return True

    def release(self, index: int) -> None:
        """Give a lease back cleanly (graceful shutdown) — the attempt
        does not count toward the poison tally."""
        lease = self._leases.pop(index, None)
        if lease is not None and not self.resolved(index):
            self._log("release", cell=cell_key(lease.task))

    def record_crash(self, index: int) -> bool:
        """The lease holder died (or its lease expired).  Reclaims the
        cell — each crash is reclaimed exactly once, a second call for
        the same death is a no-op — and quarantines it past the retry
        cap.  Returns ``True`` when this crash quarantined the cell."""
        if index not in self._leases:
            return False
        self._leases.pop(index)
        if self.resolved(index):
            return False
        crashes = self.crashes.get(index, 0) + 1
        self.crashes[index] = crashes
        self._log("reclaim", cell=cell_key(self.task_for(index)), crashes=crashes)
        if crashes > self.poison_retries:
            self._quarantine(index)
            return True
        return False

    # -- internals -----------------------------------------------------------

    def _quarantine(self, index: int) -> None:
        task = self.task_for(index)
        crashes = self.crashes.get(index, 0)
        # deterministic fields only: the quarantine record must be
        # byte-identical however (and whenever) the crashes happened
        outcome = RunOutcome(
            seed=task.seed, plan=task.plan_name, status=STATUS_QUARANTINED,
            error=(
                f"poison cell: killed its worker {crashes} time(s) "
                f"(retry cap {self.poison_retries}); quarantined"
            ),
        )
        self._log("quarantine", cell=cell_key(task), crashes=crashes,
                  outcome=outcome.as_dict())
        self.quarantined[index] = outcome
        self._leases.pop(index, None)


#: header keys that name the matrix itself: a resume may grow or shrink
#: it, and records for cells outside the new matrix are skipped
_MATRIX_AXES = ("seeds", "plans")


def _resumable_replay(
    path: str, meta: Optional[Dict], warn: Callable[[str], None]
) -> Optional[JournalReplay]:
    """The replay of the journal at *path*, or ``None`` after moving it
    aside to ``<path>.corrupt`` (never truncating it) when its header is
    unreadable or its ``meta`` differs from *meta* on any key but the
    matrix axes: another program, tool or budget would leak foreign
    findings into this run.  A damaged *tail* keeps the valid prefix.
    """
    try:
        replay = replay_journal(path)
    except AnalysisError as err:
        problem = f"unusable journal: {err}"
    else:
        # compare in JSON form: the header went through a JSON round trip
        current = json.loads(json.dumps(meta or {}))
        differing = sorted(
            key for key in set(replay.meta) | set(current)
            if key not in _MATRIX_AXES
            and replay.meta.get(key) != current.get(key)
        )
        if not differing:
            if replay.truncated:
                warn(
                    "journal tail was damaged (interrupted write?); "
                    f"dropped {replay.dropped} trailing line(s) and "
                    "kept the valid prefix"
                )
            return replay
        problem = (
            f"journal {path!r} is for another run (header differs in "
            f"{', '.join(differing)})"
        )
    target = path + CORRUPT_SUFFIX
    os.replace(path, target)
    warn(f"{problem}; moved it to {target!r} and starting cold")
    return None


def run_work_queue(
    executor,
    tasks: Sequence[CellTask],
    bank: Callable[[CellTask, RunOutcome], None],
    on_open: Callable[[DurableWorkQueue], None],
    *,
    jobs: "int | str" = 1,
    journal: Optional[str] = None,
    meta: Optional[Dict] = None,
    resume: bool = False,
    lease_seconds: float = 60.0,
    poison_retries: int = 2,
    drill_kill_worker_after: Optional[int] = None,
    say: Callable[[str], None] = lambda message: None,
    warn: Optional[Callable[[str], None]] = None,
    stop=None,
) -> DurableWorkQueue:
    """Run every cell of *tasks* on *executor* and return the drained
    queue; :meth:`DurableWorkQueue.outcome_list` is the artifact.

    *journal* is the journal path, ``None`` for an in-memory queue;
    *meta* is the journal header.  With *resume* an existing journal is
    replayed and restored — unless its header is unreadable or its
    *meta* differs from this run's (see :func:`_resumable_replay`), in
    which case the file is moved aside and the run starts cold.
    *on_open* sees the restored queue before any cell runs.  *bank*
    fires once per freshly resolved cell, completed or quarantined, in
    completion order.  One worker runs cells in this process under a
    lease loop; more run on supervised disposable workers.  A set *stop*
    event releases in-flight cells and returns what finished.
    """
    warn = warn or say
    replay = None
    if journal and resume and os.path.exists(journal):
        replay = _resumable_replay(journal, meta, warn)
    work = DurableWorkQueue(
        tasks,
        Journal(journal, meta, fresh=replay is None) if journal else None,
        lease_seconds=lease_seconds,
        poison_retries=poison_retries,
    )
    try:
        if replay is not None:
            work.restore(replay, warn=warn)
        on_open(work)
        workers = resolve_jobs(jobs, work.unresolved_count)
        if workers > 1:
            Supervisor(
                executor, work, workers, bank,
                drill_kill_worker_after=drill_kill_worker_after,
                say=say, stop=stop,
            ).run()
        else:
            while stop is None or not stop.is_set():
                lease = work.acquire("serial", time.monotonic())
                if lease is None:
                    break
                task = lease.task
                outcome = executor.run_cell(task.seed, task.plan_name, task.plan)
                if work.complete(task.index, outcome):
                    bank(task, outcome)
    finally:
        if work.journal is not None:
            work.journal.close()
    return work
