"""Marmot model (Hilbrich et al., the paper's [6]).

Marmot intercepts every MPI call through the profiling interface and
funnels it to an *additional analysis process* that performs a global
check — which is why its overhead grows sharply with process count
(:data:`~repro.runtime.costmodel.MARMOT_CHARGE` serializes a manager
round-trip per call).

Its key limitation, which the paper's comparison hinges on: **it only
detects violations that actually appear in the monitored run.**  Two
MPI calls are deemed concurrent iff their execution intervals actually
overlapped; a potential race whose racy interleaving did not manifest
(e.g. two receives separated by compute skew) is silently missed.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..analysis.dynamic_.hybrid import ConcurrencyReport, MPICallRecord, concurrency_report
from ..events import EventLog
from ..runtime import ExecutionResult
from ..runtime.costmodel import MARMOT_CHARGE
from ..violations import ViolationReport, match_violations
from .base import CheckingTool, call_records_from_events

_INFINITY = float("inf")


def observed_intervals(log: EventLog, proc: int) -> Dict[int, Tuple[float, float]]:
    """call_id -> (begin time, end time); unfinished calls end at +inf
    (a call blocked forever is concurrent with everything after it)."""
    out: Dict[int, Tuple[float, float]] = {}
    for begin, end in log.mpi_call_intervals(proc):
        out[begin.call_id] = (begin.time, end.time)
    for begin in log.unfinished_mpi_calls(proc):
        out[begin.call_id] = (begin.time, _INFINITY)
    return out


def observed_concurrency(log: EventLog, proc: int) -> ConcurrencyReport:
    """Concurrency oracle from actually-overlapping call intervals."""
    intervals = observed_intervals(log, proc)

    def overlapped(a: MPICallRecord, b: MPICallRecord, common):
        ia, ib = intervals.get(a.call_id), intervals.get(b.call_id)
        if ia is None or ib is None:
            return ()
        # Strict interval overlap: both calls were in flight at once.
        return common if ia[0] < ib[1] and ib[0] < ia[1] else ()

    return concurrency_report(proc, call_records_from_events(log, proc), overlapped)


class Marmot(CheckingTool):
    """Observed-occurrence-only dynamic checker with a central manager."""

    name = "MARMOT"
    charge = MARMOT_CHARGE
    monitor_memory = False

    def analyze(self, result: ExecutionResult, static) -> ViolationReport:
        log = result.log
        reports = {
            proc: observed_concurrency(log, proc) for proc in log.processes()
        }
        report = match_violations(log, reports)
        return report

    def check(self, program, nprocs=2, num_threads=2, seed=0, **overrides):
        tool_report = super().check(program, nprocs, num_threads, seed, **overrides)
        # Marmot's timeout-based deadlock detection: a deadlocked run is
        # reported (this is the one thing it catches that needs no overlap).
        if tool_report.deadlocked:
            tool_report.extras["deadlock"] = tool_report.execution.deadlock.summary()
        return tool_report
