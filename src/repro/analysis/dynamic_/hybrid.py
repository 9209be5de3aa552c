"""Hybrid (lockset + happens-before) concurrency detection on monitored
variables — the dynamic half of HOME.

The monitored variables written by the HMPI wrappers turn "two MPI calls
may execute concurrently on two threads" into an ordinary data-race
question: the wrapper writes are racy iff the calls are concurrent.
This module answers that question with the combination the paper uses —
a pair of accesses is *racy* when it is simultaneously

* a potential lockset race (different threads, disjoint locksets,
  ``IsPotentialLockSetRace``), and
* a potential happens-before race (neither access ordered before the
  other, ``IsPotentialHappenBeforeRace``).

Either half can be disabled for the ablation study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ...events import EventLog, MonitoredWrite
from ...events.event import MonitoredKind
from .happensbefore import HBResult, compute_happens_before
from .lockset import LocksetAnalysis


@dataclass(frozen=True)
class DetectorConfig:
    """Which halves of the hybrid detector are active."""

    use_lockset: bool = True
    use_hb: bool = True
    #: include release->acquire edges in the happens-before order
    lock_edges: bool = True
    #: lock-name set/predicate invisible to the detector (tool quirks)
    ignored_locks: object = None


@dataclass
class MPICallRecord:
    """One dynamic (instrumented) MPI call instance."""

    call_id: int
    proc: int
    thread: int
    op: str
    callsite: int
    loc: str
    time: float
    is_main_thread: bool = True
    #: MonitoredKind -> event seq of this call's write to that variable
    writes: Dict[MonitoredKind, int] = field(default_factory=dict)
    #: MonitoredKind -> value written
    values: Dict[MonitoredKind, object] = field(default_factory=dict)

    def arg(self, kind: MonitoredKind, default=None):
        return self.values.get(kind, default)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.op}@{self.loc} (rank {self.proc}, thread {self.thread})"


@dataclass
class RacingPair:
    """Two MPI call instances whose monitored writes race."""

    a: MPICallRecord
    b: MPICallRecord
    kinds: Tuple[MonitoredKind, ...]

    @property
    def threads(self) -> Tuple[int, int]:
        return (self.a.thread, self.b.thread)

    def ops(self) -> Tuple[str, str]:
        return (self.a.op, self.b.op)

    def callsites(self) -> Tuple[int, int]:
        return tuple(sorted((self.a.callsite, self.b.callsite)))

    def locs(self) -> Tuple[str, str]:
        pairs = sorted(
            ((self.a.callsite, self.a.loc), (self.b.callsite, self.b.loc))
        )
        return (pairs[0][1], pairs[1][1])


@dataclass
class ConcurrencyReport:
    """Per-process verdicts from the hybrid dynamic analysis."""

    proc: int
    records: Dict[int, MPICallRecord] = field(default_factory=dict)
    pairs: List[RacingPair] = field(default_factory=list)
    concurrent_kinds: Set[MonitoredKind] = field(default_factory=set)
    hb: Optional[HBResult] = None
    lockset: Optional[LocksetAnalysis] = None

    def concurrent(self, kind: MonitoredKind) -> bool:
        """The paper's ``Concurrent(var)`` predicate for this process."""
        return kind in self.concurrent_kinds

    def pairs_for_ops(self, ops_a, ops_b) -> List[RacingPair]:
        """Racing pairs whose two ops fall in the given op sets (either
        orientation)."""
        sa, sb = set(ops_a), set(ops_b)
        out = []
        for pair in self.pairs:
            oa, ob = pair.a.op, pair.b.op
            if (oa in sa and ob in sb) or (oa in sb and ob in sa):
                out.append(pair)
        return out


def collect_call_records(log: EventLog, proc: int) -> Dict[int, MPICallRecord]:
    """Group monitored writes (and begin events) into call instances."""
    records: Dict[int, MPICallRecord] = {}
    for event in log.of_process_type(proc, MonitoredWrite):
        rec = records.get(event.call_id)
        if rec is None:
            rec = records[event.call_id] = MPICallRecord(
                call_id=event.call_id,
                proc=proc,
                thread=event.thread,
                op=event.mpi_op,
                callsite=event.callsite,
                loc=event.loc,
                time=event.time,
            )
        rec.writes[event.kind] = event.seq
        rec.values[event.kind] = event.value
    if records:
        # a call's begin follows its writes, so every record exists by then
        for event in log.mpi_calls(proc):
            rec = records.get(event.call_id)
            if rec is not None:
                rec.is_main_thread = event.is_main_thread
    return records


def analyze_process(
    log: EventLog,
    proc: int,
    config: DetectorConfig = DetectorConfig(),
    hb: Optional[HBResult] = None,
) -> ConcurrencyReport:
    """Run the hybrid detector over one process's monitored writes.

    *hb*, when given, must be the replay of *proc* under the config's
    ``lock_edges``/``ignored_locks``; without it the log is replayed
    here (only when the process made monitored calls).
    """
    report = ConcurrencyReport(proc)
    report.records = collect_call_records(log, proc)
    if not report.records:
        return report

    if hb is None:
        hb = compute_happens_before(
            log, proc, lock_edges=config.lock_edges,
            ignored_locks=config.ignored_locks,
        )
    report.hb = hb

    lockset = LocksetAnalysis()
    for rec in report.records.values():
        for kind, seq in rec.writes.items():
            lockset.access(
                key=(proc, kind),
                seq=seq,
                thread=rec.thread,
                locks=hb.locks((rec.thread, seq)),
                is_write=True,
            )
    report.lockset = lockset

    def racy(a: Tuple[int, int], b: Tuple[int, int]) -> bool:
        """Whether the two ``(thread, seq)`` writes race."""
        if config.use_hb and hb.ordered(a, b):
            return False
        if config.use_lockset and not hb.disjoint_locks(a, b):
            return False
        return True

    recs = sorted(report.records.values(), key=lambda r: r.call_id)
    for i in range(len(recs)):
        a = recs[i]
        for j in range(i + 1, len(recs)):
            b = recs[j]
            if a.thread == b.thread:
                continue
            common = [k for k in a.writes if k in b.writes]
            kinds = tuple(
                k for k in common
                if racy((a.thread, a.writes[k]), (b.thread, b.writes[k]))
            )
            if kinds:
                report.pairs.append(RacingPair(a, b, kinds))
                report.concurrent_kinds.update(kinds)
    return report


def analyze(
    log: EventLog,
    config: DetectorConfig = DetectorConfig(),
    hbs: Optional[Dict[int, HBResult]] = None,
) -> Dict[int, ConcurrencyReport]:
    """Hybrid concurrency reports for every process in the log.

    *hbs* optionally maps processes to replays made under the config's
    lock settings (see :func:`analyze_process`).
    """
    hbs = hbs or {}
    return {
        proc: analyze_process(log, proc, config, hbs.get(proc))
        for proc in log.processes()
    }
