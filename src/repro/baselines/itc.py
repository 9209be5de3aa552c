"""Intel Thread Checker model (the paper's [2]/[18] comparison tool).

ITC is a general-purpose binary-instrumentation race detector: it
monitors **every** shared memory access in threaded code — hence its
large overhead (:data:`~repro.runtime.costmodel.ITC_CHARGE` charges per
access, the paper observed up to ~200%).

Modelled quirks, both taken from the paper's §V-B discussion:

* **Named ``omp critical`` sections are not recognized** ("it cannot
  recognize omp critical directives correctly"): they contribute no
  happens-before edges and no lockset membership, so code correctly
  serialized by a named critical is reported as racing (the false
  positive the paper sees on BT), while anonymous criticals — the
  common OpenMP runtime entry point — are understood.
* **``MPI_Probe``/``MPI_Iprobe`` are invisible** ("the source and tag
  information in MPI_Probe() is not detected by intel thread checker"):
  probes have no buffer access for the binary instrumentation to hook,
  so probe-only violations are missed (the paper's LU miss).

Unlike HOME it has no notion of the MPI thread-safety specification per
se: it reports *races*.  Races on intercepted MPI call arguments map to
the shared violation rules; races on ordinary user memory are reported
as generic ``DataRace`` findings (the BT false positive is one).
"""

from __future__ import annotations

from ..analysis.dynamic_.hybrid import ConcurrencyReport, DetectorConfig, analyze_process
from ..analysis.dynamic_.memraces import find_memory_races
from ..events import EventLog
from ..runtime import ExecutionResult
from ..runtime.costmodel import ITC_CHARGE
from ..violations import ViolationReport, match_violations
from ..violations.spec import Violation
from .base import CheckingTool, call_records_from_events

#: MPI operations invisible to ITC's interception.
_INVISIBLE_OPS = frozenset({"mpi_probe", "mpi_iprobe"})


def itc_ignores_lock(name: str) -> bool:
    """ITC does not recognize *named* omp critical sections."""
    return name.startswith("critical:") and name != "critical:<anonymous>"


#: HOME's happens-before/lockset predicate, blind to named criticals
_ITC_CONFIG = DetectorConfig(ignored_locks=itc_ignores_lock)


def itc_concurrency(log: EventLog, proc: int) -> ConcurrencyReport:
    """Concurrency oracle: happens-before with ITC's blind spots, keyed
    off the begin events of intercepted calls."""
    records = call_records_from_events(log, proc, exclude_ops=_INVISIBLE_OPS)
    return analyze_process(log, proc, _ITC_CONFIG, records=records)


class IntelThreadChecker(CheckingTool):
    """Full-memory-monitoring race detector with OpenMP blind spots."""

    name = "ITC"
    charge = ITC_CHARGE
    monitor_memory = True

    def analyze(self, result: ExecutionResult, static) -> ViolationReport:
        log = result.log
        reports = {proc: itc_concurrency(log, proc) for proc in log.processes()}
        violations = match_violations(log, reports)
        # Generic data races on user memory (named criticals invisible),
        # over the replay itc_concurrency already made with that config.
        for proc in log.processes():
            for race in find_memory_races(
                log, proc, lock_edges=_ITC_CONFIG.lock_edges,
                ignored_locks=_ITC_CONFIG.ignored_locks, hb=reports[proc].hb,
            ):
                violations.add(
                    Violation(
                        vclass="DataRace",
                        proc=proc,
                        message=(
                            f"conflicting unsynchronized accesses to shared "
                            f"variable {race.var!r} from threads "
                            f"{race.thread_a} and {race.thread_b}"
                        ),
                        callsites=tuple(sorted((race.callsite_a, race.callsite_b))),
                        threads=tuple(sorted((race.thread_a, race.thread_b))),
                    )
                )
        return violations
