"""The six thread-safety violation classes (paper §III-A) as rules.

Each rule consumes a :class:`ProcessView` — one process's thread level,
MPI call events and a concurrency oracle (a
:class:`~repro.analysis.dynamic_.hybrid.ConcurrencyReport`, however it
was produced) — and yields :class:`Violation` findings.  The rules are
direct transcriptions of the paper's predicates:

* ``isInitializationViolation``
* ``isMPIFinalizationViolation``
* ``isConcurrentRecvViolation``
* ``isConcurrentRequestViolation``
* ``isProbeViolation``
* ``isCollectiveCallViolation``
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.dynamic_.hybrid import ConcurrencyReport, MPICallRecord, RacingPair
from ..events.event import COLLECTIVE_OPS, MonitoredKind
from ..mpi.constants import (
    MPI_ANY_SOURCE,
    MPI_ANY_TAG,
    MPI_THREAD_FUNNELED,
    MPI_THREAD_MULTIPLE,
    MPI_THREAD_SERIALIZED,
    MPI_THREAD_SINGLE,
    THREAD_LEVEL_NAMES,
)

#: Canonical violation class names.
INITIALIZATION = "InitializationViolation"
FINALIZATION = "MPIFinalizationViolation"
CONCURRENT_RECV = "ConcurrentRecvViolation"
CONCURRENT_REQUEST = "ConcurrentRequestViolation"
PROBE = "ProbeViolation"
COLLECTIVE = "CollectiveCallViolation"
#: Error-path classes (fault-tolerance extension, not in the paper's six).
HANDLER_REENTRANCY = "ErrorHandlerReentrancyViolation"
RECOVERY_RACE = "RecoveryRaceViolation"
#: Collective-matching classes (PARCOACH-family extension): threads of
#: one team encountering different collective sequences.
BARRIER_DIVERGENCE = "BarrierDivergenceViolation"
COLLECTIVE_ORDER_MISMATCH = "CollectiveOrderMismatchViolation"

ALL_VIOLATION_CLASSES = (
    INITIALIZATION,
    FINALIZATION,
    CONCURRENT_RECV,
    CONCURRENT_REQUEST,
    PROBE,
    COLLECTIVE,
    HANDLER_REENTRANCY,
    RECOVERY_RACE,
    BARRIER_DIVERGENCE,
    COLLECTIVE_ORDER_MISMATCH,
)

RECV_OPS = frozenset({"mpi_recv", "mpi_irecv", "mpi_sendrecv"})
PROBE_OPS = frozenset({"mpi_probe", "mpi_iprobe"})
WAIT_OPS = frozenset({"mpi_wait", "mpi_test", "mpi_waitall"})


@dataclass(frozen=True)
class Violation:
    """One reported thread-safety violation."""

    vclass: str
    proc: int
    message: str
    callsites: Tuple[int, ...] = ()
    locs: Tuple[str, ...] = ()
    threads: Tuple[int, ...] = ()
    ops: Tuple[str, ...] = ()

    def dedup_key(self) -> Tuple[str, Tuple[int, ...]]:
        """Reports of the same class at the same site set are one finding."""
        return (self.vclass, tuple(sorted(self.callsites)))

    def __str__(self) -> str:
        where = ", ".join(self.locs) if self.locs else "<unknown>"
        return f"[{self.vclass}] rank {self.proc} at {where}: {self.message}"


@dataclass(frozen=True)
class HandlerSpan:
    """One user error-handler invocation (enter..exit bracket)."""

    thread: int
    comm: int
    handler: str
    t0: float
    t1: float
    seq0: int
    seq1: int


@dataclass(frozen=True)
class CollectiveTrace:
    """One team's per-member collective arrival sequences.

    Built from ``CollectiveArrive`` events (emitted at construct
    *encounter*, so present even when the run deadlocked).  ``members``
    are process-local thread ids in team-index order; ``sequences[i]``
    is member *i*'s ordered arrivals as ``(kind, loc, op, callsite)``
    tuples; ``closed[i]`` is True when member *i* completed its region
    body (its sequence is definitively complete, not cut short by a
    deadlock or abort).
    """

    team: int
    members: Tuple[int, ...]
    sequences: Tuple[Tuple[Tuple[str, str, str, int], ...], ...]
    closed: Tuple[bool, ...]


@dataclass
class ProcessView:
    """Everything the rules need to know about one process's execution."""

    proc: int
    thread_level: Optional[int]
    main_thread: int
    had_parallel: bool
    report: ConcurrencyReport
    #: MPICall 'begin' events of this process, in emission order
    calls: List = field(default_factory=list)
    #: user error-handler invocations (fault-tolerance extension)
    handler_spans: List[HandlerSpan] = field(default_factory=list)
    #: per-team collective arrival traces (collective monitoring only)
    collective_traces: List[CollectiveTrace] = field(default_factory=list)

    def non_main_calls(self) -> List:
        return [
            c for c in self.calls
            if not c.is_main_thread and c.op not in ("mpi_init", "mpi_init_thread")
        ]

    def finalize_calls(self) -> List:
        return [c for c in self.calls if c.op == "mpi_finalize"]


def _tags_match(a, b) -> bool:
    return a == b or a == MPI_ANY_TAG or b == MPI_ANY_TAG


def _srcs_match(a, b) -> bool:
    return a == b or a == MPI_ANY_SOURCE or b == MPI_ANY_SOURCE


def _same_comm(pair: RacingPair) -> bool:
    return pair.a.arg(MonitoredKind.COMM) == pair.b.arg(MonitoredKind.COMM)


def _envelopes_overlap(pair: RacingPair) -> bool:
    return (
        _same_comm(pair)
        and _tags_match(pair.a.arg(MonitoredKind.TAG), pair.b.arg(MonitoredKind.TAG))
        and _srcs_match(pair.a.arg(MonitoredKind.SRC), pair.b.arg(MonitoredKind.SRC))
    )


def _pair_violation(vclass: str, proc: int, pair: RacingPair, message: str) -> Violation:
    return Violation(
        vclass=vclass,
        proc=proc,
        message=message,
        callsites=pair.callsites(),
        locs=pair.locs(),
        threads=tuple(sorted(pair.threads)),
        ops=tuple(sorted(pair.ops())),
    )


def probed_recv_call_ids(view: ProcessView) -> Set[int]:
    """Receive call instances guarded by an immediately preceding probe
    on the same thread with the same envelope.

    Such receives are attributed to the Probe rule (the probe *is* the
    racing access) instead of being double-reported as concurrent
    receives.
    """
    by_thread: Dict[int, List[MPICallRecord]] = {}
    for rec in sorted(view.report.records.values(), key=lambda r: r.call_id):
        by_thread.setdefault(rec.thread, []).append(rec)
    probed: Set[int] = set()
    for recs in by_thread.values():
        prev: Optional[MPICallRecord] = None
        for rec in recs:
            if rec.op in RECV_OPS and prev is not None and prev.op in PROBE_OPS:
                same = (
                    prev.arg(MonitoredKind.COMM) == rec.arg(MonitoredKind.COMM)
                    and _tags_match(prev.arg(MonitoredKind.TAG), rec.arg(MonitoredKind.TAG))
                    and _srcs_match(prev.arg(MonitoredKind.SRC), rec.arg(MonitoredKind.SRC))
                )
                if same:
                    probed.add(rec.call_id)
            prev = rec
    return probed


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def check_initialization(view: ProcessView) -> List[Violation]:
    """isInitializationViolation (paper §III-A, first predicate)."""
    out: List[Violation] = []
    level = view.thread_level
    if level is None or level >= MPI_THREAD_MULTIPLE:
        return out
    level_name = THREAD_LEVEL_NAMES.get(level, str(level))

    if level in (MPI_THREAD_SINGLE, MPI_THREAD_FUNNELED):
        offenders = view.non_main_calls()
        if offenders:
            sites = tuple(sorted({c.callsite for c in offenders}))
            locs = tuple(sorted({c.loc for c in offenders}))
            threads = tuple(sorted({c.thread for c in offenders}))
            out.append(
                Violation(
                    INITIALIZATION,
                    view.proc,
                    f"{len(offenders)} MPI call(s) issued from non-main "
                    f"thread(s) {threads} under {level_name}",
                    callsites=sites,
                    locs=locs,
                    threads=threads,
                    ops=tuple(sorted({c.op for c in offenders})),
                )
            )
        elif level == MPI_THREAD_SINGLE and view.had_parallel:
            out.append(
                Violation(
                    INITIALIZATION,
                    view.proc,
                    f"program forks OpenMP teams while initialized at {level_name}",
                )
            )
    elif level == MPI_THREAD_SERIALIZED:
        racing = [
            k for k in MonitoredKind if view.report.concurrent(k)
        ]
        if racing:
            pairs = view.report.pairs
            sites: Set[int] = set()
            locs: Set[str] = set()
            for p in pairs:
                sites.update(p.callsites())
                locs.update(p.locs())
            out.append(
                Violation(
                    INITIALIZATION,
                    view.proc,
                    f"concurrent MPI calls detected under {level_name} "
                    f"(racing monitored variables: "
                    f"{', '.join(str(k) for k in racing)})",
                    callsites=tuple(sorted(sites)),
                    locs=tuple(sorted(locs)),
                )
            )
    return out


def check_finalization(view: ProcessView) -> List[Violation]:
    """isMPIFinalizationViolation."""
    out: List[Violation] = []
    finals = view.finalize_calls()
    for call in finals:
        if not call.is_main_thread:
            out.append(
                Violation(
                    FINALIZATION,
                    view.proc,
                    f"mpi_finalize called from non-main thread {call.thread}",
                    callsites=(call.callsite,),
                    locs=(call.loc,),
                    threads=(call.thread,),
                    ops=("mpi_finalize",),
                )
            )
    if view.report.concurrent(MonitoredKind.FINALIZE):
        for pair in view.report.pairs:
            if MonitoredKind.FINALIZE in pair.kinds:
                out.append(
                    _pair_violation(
                        FINALIZATION, view.proc, pair,
                        "mpi_finalize races another MPI call",
                    )
                )
    # timestamp(MPI_Finalize) < timestamp(other MPI calls): a call that
    # began after finalize began on another thread.
    for fin in finals:
        laggards = [
            c for c in view.calls
            if c.op != "mpi_finalize" and c.thread != fin.thread and c.time > fin.time
        ]
        if laggards:
            sites = tuple(sorted({c.callsite for c in laggards} | {fin.callsite}))
            locs = tuple(sorted({c.loc for c in laggards} | {fin.loc}))
            out.append(
                Violation(
                    FINALIZATION,
                    view.proc,
                    f"{len(laggards)} MPI call(s) on other threads began after "
                    "mpi_finalize",
                    callsites=sites,
                    locs=locs,
                )
            )
    return out


def check_concurrent_recv(view: ProcessView) -> List[Violation]:
    """isConcurrentRecvViolation."""
    out: List[Violation] = []
    probed = probed_recv_call_ids(view)
    for pair in view.report.pairs_for_ops(RECV_OPS, RECV_OPS):
        needed = {MonitoredKind.SRC, MonitoredKind.TAG, MonitoredKind.COMM}
        if not needed.issubset(set(pair.kinds)):
            continue
        if not _envelopes_overlap(pair):
            continue
        if pair.a.call_id in probed and pair.b.call_id in probed:
            continue  # attributed to the Probe rule
        out.append(
            _pair_violation(
                CONCURRENT_RECV, view.proc, pair,
                "two threads receive concurrently with overlapping "
                f"(source={pair.a.arg(MonitoredKind.SRC)}, "
                f"tag={pair.a.arg(MonitoredKind.TAG)}, "
                f"comm={pair.a.arg(MonitoredKind.COMM)}) envelopes — "
                "message matching order is undefined",
            )
        )
    return out


def check_concurrent_request(view: ProcessView) -> List[Violation]:
    """isConcurrentRequestViolation."""
    out: List[Violation] = []
    for pair in view.report.pairs_for_ops(WAIT_OPS, WAIT_OPS):
        if MonitoredKind.REQUEST not in pair.kinds:
            continue
        if pair.a.arg(MonitoredKind.REQUEST) != pair.b.arg(MonitoredKind.REQUEST):
            continue
        out.append(
            _pair_violation(
                CONCURRENT_REQUEST, view.proc, pair,
                f"two threads wait/test the same request "
                f"{pair.a.arg(MonitoredKind.REQUEST)} concurrently",
            )
        )
    return out


def check_probe(view: ProcessView) -> List[Violation]:
    """isProbeViolation."""
    out: List[Violation] = []
    partner_ops = PROBE_OPS | RECV_OPS
    for pair in view.report.pairs_for_ops(PROBE_OPS, partner_ops):
        if not (pair.a.op in PROBE_OPS or pair.b.op in PROBE_OPS):
            continue
        if not _envelopes_overlap(pair):
            continue
        out.append(
            _pair_violation(
                PROBE, view.proc, pair,
                "concurrent probe operations with the same source and tag "
                "on one communicator — a probed message may be stolen by "
                "the other thread",
            )
        )
    return out


def check_collective(view: ProcessView) -> List[Violation]:
    """isCollectiveCallViolation."""
    out: List[Violation] = []
    for pair in view.report.pairs_for_ops(COLLECTIVE_OPS, COLLECTIVE_OPS):
        if MonitoredKind.COLLECTIVE not in pair.kinds and MonitoredKind.COMM not in pair.kinds:
            continue
        if not _same_comm(pair):
            continue
        out.append(
            _pair_violation(
                COLLECTIVE, view.proc, pair,
                f"two threads issue collective operations "
                f"({pair.a.op}, {pair.b.op}) concurrently on communicator "
                f"{pair.a.arg(MonitoredKind.COMM)}",
            )
        )
    return out


def check_error_handler_reentrancy(view: ProcessView) -> List[Violation]:
    """isErrorHandlerReentrancyViolation (fault-tolerance extension).

    An MPI error handler runs *inside* the failing MPI call.  Below
    ``MPI_THREAD_MULTIPLE``, a handler body that itself calls MPI while
    another thread is inside the library nests MPI within MPI across
    threads — the provided thread level cannot have promised that.
    """
    out: List[Violation] = []
    level = view.thread_level
    if level is None or level >= MPI_THREAD_MULTIPLE:
        return out
    level_name = THREAD_LEVEL_NAMES.get(level, str(level))
    for span in view.handler_spans:
        inner = [
            c for c in view.calls
            if c.thread == span.thread and span.seq0 < c.seq < span.seq1
        ]
        if not inner:
            continue
        racing = [
            c for c in view.calls
            if c.thread != span.thread and span.t0 <= c.time <= span.t1
        ]
        if not racing:
            continue
        offenders = inner + racing
        out.append(
            Violation(
                HANDLER_REENTRANCY,
                view.proc,
                f"error handler {span.handler!r} (comm {span.comm}) makes "
                f"{len(inner)} MPI call(s) while thread(s) "
                f"{tuple(sorted({c.thread for c in racing}))} are inside MPI "
                f"under {level_name}",
                callsites=tuple(sorted({c.callsite for c in offenders})),
                locs=tuple(sorted({c.loc for c in offenders})),
                threads=tuple(sorted({c.thread for c in offenders})),
                ops=tuple(sorted({c.op for c in offenders})),
            )
        )
    return out


def check_recovery_race(view: ProcessView) -> List[Violation]:
    """isRecoveryRaceViolation (fault-tolerance extension).

    Two threads of one rank racing ``mpi_comm_shrink`` on the same
    communicator each complete their own shrink instance and obtain
    *different* replacement communicators — subsequent communication
    on "the" recovered communicator is split across two.
    """
    out: List[Violation] = []
    shrink = frozenset({"mpi_comm_shrink"})
    for pair in view.report.pairs_for_ops(shrink, shrink):
        if not _same_comm(pair):
            continue
        out.append(
            _pair_violation(
                RECOVERY_RACE, view.proc, pair,
                f"two threads race mpi_comm_shrink on communicator "
                f"{pair.a.arg(MonitoredKind.COMM)} — each obtains a "
                "different replacement communicator",
            )
        )
    return out


def _trace_mismatch(trace: CollectiveTrace, proc: int) -> Optional[Violation]:
    """First divergence of one team's arrival sequences, as a finding.

    Position *i* is comparable for a member when it recorded an arrival
    there, or is closed (so "no arrival at *i*" is definitive).  Open
    members — blocked in a deadlock or aborted — are only compared on
    their recorded prefix, which keeps fault-truncated runs from
    producing false divergence reports.
    """
    seqs = trace.sequences
    longest = max((len(s) for s in seqs), default=0)
    for i in range(longest):
        # Members are compared by collective *color* — (kind, op), the
        # PARCOACH matching criterion — not source location: two
        # barriers on different lines (balanced branch arms) match.
        # None stands for "definitively ended before position i".
        first_with: Dict[Optional[Tuple[str, str]], Tuple[int, Optional[Tuple[str, str, str, int]]]] = {}
        for member, seq in enumerate(seqs):
            if i < len(seq):
                entry: Optional[Tuple[str, str, str, int]] = seq[i]
                color: Optional[Tuple[str, str]] = (entry[0], entry[2])
            elif trace.closed[member]:
                entry = None
                color = None
            else:
                continue  # open member, prefix exhausted: unknown
            first_with.setdefault(color, (member, entry))
        if len(first_with) <= 1:
            continue
        real = [e for _m, e in first_with.values() if e is not None]
        members = sorted(m for m, _e in first_with.values())
        threads = tuple(trace.members[m] for m in members)
        callsites = tuple(sorted({e[3] for e in real}))
        locs = tuple(sorted({e[1] for e in real}))
        ops = tuple(sorted({e[2] for e in real if e[2]}))

        def _desc(entry: Optional[Tuple[str, str, str, int]]) -> str:
            if entry is None:
                return "region end (no further collectives)"
            kind, loc, op, _callsite = entry
            return f"{op or kind}@{loc}"

        described = "; ".join(
            f"member {m} (thread {trace.members[m]}): {_desc(e)}"
            for m, e in sorted(first_with.values())
        )
        if None in first_with:
            return Violation(
                BARRIER_DIVERGENCE,
                proc,
                f"team {trace.team}: members diverge at collective "
                f"#{i} — {described}",
                callsites=callsites,
                locs=locs,
                threads=threads,
                ops=ops,
            )
        return Violation(
            COLLECTIVE_ORDER_MISMATCH,
            proc,
            f"team {trace.team}: members arrive at different collectives "
            f"at position {i} — {described}",
            callsites=callsites,
            locs=locs,
            threads=threads,
            ops=ops,
        )
    return None


def check_collective_matching(view: ProcessView) -> List[Violation]:
    """PARCOACH dynamic collective check (collective-matching family).

    Every thread of a team must encounter the same ordered sequence of
    collective constructs; the first position where two comparable
    members disagree is reported — as a
    :data:`BARRIER_DIVERGENCE` when a member's region body *ended*
    while another member kept arriving (it skipped collectives under a
    divergent branch), or a :data:`COLLECTIVE_ORDER_MISMATCH` when both
    arrived but at differently-colored sites.
    """
    out: List[Violation] = []
    for trace in view.collective_traces:
        finding = _trace_mismatch(trace, view.proc)
        if finding is not None:
            out.append(finding)
    return out


ALL_RULES = (
    check_initialization,
    check_finalization,
    check_concurrent_recv,
    check_concurrent_request,
    check_probe,
    check_collective,
    check_error_handler_reentrancy,
    check_recovery_race,
    check_collective_matching,
)
