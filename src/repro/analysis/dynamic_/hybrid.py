"""Concurrency detection over MPI call records — the dynamic half of
HOME, and the one pair builder its baselines share.

The monitored variables written by the HMPI wrappers turn "two MPI calls
may execute concurrently on two threads" into an ordinary data-race
question: the wrapper writes are racy iff the calls are concurrent.
HOME answers that question with the combination the paper uses — a pair
of writes is *racy* when it is simultaneously

* a potential lockset race (different threads, disjoint locksets,
  ``IsPotentialLockSetRace``), and
* a potential happens-before race (neither write ordered before the
  other, ``IsPotentialHappenBeforeRace``),

both read from the happens-before replay (:class:`HBResult` keeps each
event's lockset).  Either half can be disabled for the ablation study.

The three checkers the paper compares differ only in that predicate.
:func:`concurrency_report` pairs a process's call records once for all
of them; HOME and ITC supply the happens-before/lockset predicate of
:func:`analyze_process` (ITC with its blind spots in the config), and
Marmot an interval-overlap predicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ...events import EventLog, MonitoredWrite
from ...events.event import MonitoredKind
from .happensbefore import HBResult, compute_happens_before


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


#: ``(a, b, common kinds) -> the kinds on which a and b ran concurrently``;
#: *common* holds the kinds both calls wrote, in ``a.writes`` order
Predicate = Callable[
    [MPICallRecord, MPICallRecord, Sequence[MonitoredKind]], Sequence[MonitoredKind]
]


def concurrency_report(
    proc: int, records: Dict[int, MPICallRecord], concurrent: Predicate
) -> ConcurrencyReport:
    """Pair *proc*'s call records under one concurrency predicate.

    Each unordered pair of calls on different threads that wrote a
    common kind is offered to *concurrent* once, in ``call_id`` order;
    the kinds it accepts make a :class:`RacingPair`.
    """
    report = ConcurrencyReport(proc, records)
    recs = sorted(records.values(), key=lambda r: r.call_id)
    for i, a in enumerate(recs):
        for b in recs[i + 1:]:
            if a.thread == b.thread:
                continue
            common = [k for k in a.writes if k in b.writes]
            if not common:
                continue
            kinds = concurrent(a, b, common)
            if kinds:
                report.pairs.append(RacingPair(a, b, tuple(kinds)))
                report.concurrent_kinds.update(kinds)
    return report


def analyze_process(
    log: EventLog,
    proc: int,
    config: DetectorConfig = DetectorConfig(),
    hb: Optional[HBResult] = None,
    records: Optional[Dict[int, MPICallRecord]] = None,
) -> ConcurrencyReport:
    """Run the hybrid detector over one process's call records.

    *records* defaults to the process's monitored writes
    (:func:`collect_call_records`).  *hb*, when given, must be the
    replay of *proc* under the config's ``lock_edges``/``ignored_locks``;
    without it the log is replayed here (only when there are records).
    """
    if records is None:
        records = collect_call_records(log, proc)
    if not records:
        return ConcurrencyReport(proc, records)
    if hb is None:
        hb = compute_happens_before(
            log, proc, lock_edges=config.lock_edges,
            ignored_locks=config.ignored_locks,
        )
    ordered, disjoint_locks = hb.ordered, hb.disjoint_locks
    use_hb, use_lockset = config.use_hb, config.use_lockset

    def racy(a: MPICallRecord, b: MPICallRecord, common) -> List[MonitoredKind]:
        """The common kinds whose two writes race."""
        kinds = []
        for k in common:
            wa, wb = (a.thread, a.writes[k]), (b.thread, b.writes[k])
            if use_hb and ordered(wa, wb):
                continue
            if use_lockset and not disjoint_locks(wa, wb):
                continue
            kinds.append(k)
        return kinds

    report = concurrency_report(proc, records, racy)
    report.hb = hb
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
