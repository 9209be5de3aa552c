"""Violation matching: merge concurrency reports with the thread-safety
specification argument list into final reports (paper Fig. 3, bottom).

The matcher is oracle-agnostic: HOME feeds it hybrid lockset+HB
concurrency reports; the Marmot model feeds it observed-overlap reports;
the ITC model feeds it weakened-HB reports.  Sharing the matcher keeps
the tool comparison apples-to-apples — the tools differ only in *which
pairs they believe are concurrent* and what they charge for finding out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.dynamic_.hybrid import ConcurrencyReport
from ..events import (
    CollectiveArrive,
    ErrorHandlerEvent,
    EventLog,
    MPICall,
    ThreadEnd,
    ThreadFork,
    ThreadJoin,
)
from .spec import ALL_RULES, CollectiveTrace, HandlerSpan, ProcessView, Violation


@dataclass
class ViolationReport:
    """Deduplicated violations across all processes of one run."""

    violations: List[Violation] = field(default_factory=list)
    #: dedup key -> list of processes the finding occurred in
    procs_by_finding: Dict[tuple, List[int]] = field(default_factory=dict)

    def add(self, violation: Violation) -> None:
        key = violation.dedup_key()
        procs = self.procs_by_finding.get(key)
        if procs is None:
            self.procs_by_finding[key] = [violation.proc]
            self.violations.append(violation)
        elif violation.proc not in procs:
            procs.append(violation.proc)

    def merge(self, other: "ViolationReport") -> None:
        """Fold another run's findings into this report (campaign
        aggregation).  Dedup follows the same key as :meth:`add`; rank
        attributions are unioned."""
        for violation in other.violations:
            key = violation.dedup_key()
            self.add(violation)
            for proc in other.procs_by_finding.get(key, ()):
                mine = self.procs_by_finding[key]
                if proc not in mine:
                    mine.append(proc)

    def classes(self) -> List[str]:
        return sorted({v.vclass for v in self.violations})

    def by_class(self) -> Dict[str, List[Violation]]:
        out: Dict[str, List[Violation]] = {}
        for v in self.violations:
            out.setdefault(v.vclass, []).append(v)
        return out

    def count(self, vclass: Optional[str] = None) -> int:
        if vclass is None:
            return len(self.violations)
        return sum(1 for v in self.violations if v.vclass == vclass)

    def __len__(self) -> int:
        return len(self.violations)

    def __iter__(self):
        return iter(self.violations)

    def summary(self) -> str:
        if not self.violations:
            return "no thread-safety violations detected"
        lines = [f"{len(self.violations)} thread-safety violation(s) detected:"]
        for v in self.violations:
            procs = self.procs_by_finding[v.dedup_key()]
            ranks = ",".join(str(p) for p in sorted(procs))
            lines.append(f"  {v} (ranks {ranks})")
        return "\n".join(lines)


def extract_thread_level(log: EventLog, proc: int) -> Optional[int]:
    """Provided thread level from the process's init call event."""
    for event in log.mpi_calls(proc):
        if event.op in ("mpi_init", "mpi_init_thread"):
            provided = event.args.get("provided")
            if isinstance(provided, int):
                return provided
    return None


def extract_handler_spans(log: EventLog, proc: int) -> List[HandlerSpan]:
    """Pair ErrorHandlerEvent enter/exit brackets into spans, per thread.

    A handler that never exits (its rank aborted inside it) yields an
    open span reaching to the end of the trace.
    """
    open_stacks: Dict[int, List[ErrorHandlerEvent]] = {}
    spans: List[HandlerSpan] = []
    for event in log.of_process_type(proc, ErrorHandlerEvent):
        if event.phase == "enter":
            open_stacks.setdefault(event.thread, []).append(event)
        else:
            stack = open_stacks.get(event.thread)
            if not stack:
                continue
            enter = stack.pop()
            spans.append(HandlerSpan(
                thread=enter.thread, comm=enter.comm, handler=enter.handler,
                t0=enter.time, t1=event.time, seq0=enter.seq, seq1=event.seq,
            ))
    for stack in open_stacks.values():
        for enter in stack:
            spans.append(HandlerSpan(
                thread=enter.thread, comm=enter.comm, handler=enter.handler,
                t0=enter.time, t1=float("inf"),
                seq0=enter.seq, seq1=2 ** 63,
            ))
    spans.sort(key=lambda s: s.seq0)
    return spans


def extract_collective_traces(log: EventLog, proc: int) -> List[CollectiveTrace]:
    """Rebuild each team's per-member collective arrival sequences.

    Membership comes from the team's ThreadFork (master tid + children,
    in team-index order).  A worker is *closed* when its ThreadEnd was
    recorded; the master when the team's ThreadJoin was (the master
    only joins after finishing its own region body).  Members still
    blocked or aborted when the trace ends stay open, so the matching
    rule only compares their recorded prefix.  Teams that recorded no
    arrivals (monitoring off, or size-1 teams) yield no trace.
    """
    members_of: Dict[int, Tuple[int, ...]] = {}
    arrivals: Dict[int, Dict[int, List[Tuple[int, Tuple[str, str, str, int]]]]] = {}
    closed_tids: Dict[int, set] = {}
    for event in log.of_process_type(proc, CollectiveArrive):
        arrivals.setdefault(event.team, {}).setdefault(
            event.thread, []
        ).append((event.index, (event.kind, event.loc, event.op, event.callsite)))
    if not arrivals:
        return []
    for event in log.of_process_type(proc, ThreadFork):
        members_of[event.team] = (event.thread,) + tuple(event.children)
    for etype in (ThreadEnd, ThreadJoin):
        for event in log.of_process_type(proc, etype):
            closed_tids.setdefault(event.team, set()).add(event.thread)
    traces: List[CollectiveTrace] = []
    for team in sorted(arrivals):
        members = members_of.get(team)
        if members is None:
            continue
        by_thread = arrivals[team]
        team_closed = closed_tids.get(team, set())
        sequences = tuple(
            tuple(entry for _idx, entry in sorted(by_thread.get(tid, [])))
            for tid in members
        )
        traces.append(CollectiveTrace(
            team=team,
            members=members,
            sequences=sequences,
            closed=tuple(tid in team_closed for tid in members),
        ))
    return traces


def build_view(log: EventLog, proc: int, report: ConcurrencyReport) -> ProcessView:
    """Assemble the per-process rule input."""
    calls = log.mpi_calls(proc)
    had_parallel = any(
        len(e.children) > 0 for e in log.of_process_type(proc, ThreadFork)
    )
    return ProcessView(
        proc=proc,
        thread_level=extract_thread_level(log, proc),
        main_thread=0,
        had_parallel=had_parallel,
        report=report,
        calls=calls,
        handler_spans=extract_handler_spans(log, proc),
        collective_traces=extract_collective_traces(log, proc),
    )


def match_violations(
    log: EventLog,
    reports: Dict[int, ConcurrencyReport],
    rules: Sequence[Callable[[ProcessView], List[Violation]]] = ALL_RULES,
) -> ViolationReport:
    """Run every rule over every process and deduplicate findings."""
    final = ViolationReport()
    for proc in log.processes():
        report = reports.get(proc) or ConcurrencyReport(proc)
        view = build_view(log, proc, report)
        for rule in rules:
            for violation in rule(view):
                final.add(violation)
    return final
