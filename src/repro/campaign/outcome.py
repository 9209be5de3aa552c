"""Per-run campaign outcomes.

A :class:`RunOutcome` is the crash-isolated record of one (seed, fault
plan) cell of the campaign matrix: what happened, which faults fired,
and the violations the analyzers salvaged from the (possibly partial)
trace.  Outcomes are plain JSON-serializable data so the campaign
journal can record each one as it completes and a resume replays it
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..violations.matcher import ViolationReport
from ..violations.spec import Violation

#: run completed (deadlock included: the schedule terminated and the
#: trace is whole)
STATUS_OK = "ok"
#: step/wall budget exhausted; a partial trace was salvaged
STATUS_BUDGET = "budget"
#: the run (or its analysis) raised; nothing usable came out
STATUS_ERROR = "error"
#: --force-fail: the run was never attempted (degradation drill)
STATUS_FORCED = "forced-fail"
#: poison cell: killed its worker more times than the retry cap allows;
#: excluded from further scheduling so it cannot stall the campaign
STATUS_QUARANTINED = "quarantined"

RUN_STATUSES = (
    STATUS_OK, STATUS_BUDGET, STATUS_ERROR, STATUS_FORCED, STATUS_QUARANTINED,
)


def violation_to_dict(violation: Violation, procs: List[int]) -> Dict:
    """Round-trippable form (unlike the render module's lossy export)."""
    return {
        "class": violation.vclass,
        "proc": violation.proc,
        "message": violation.message,
        "callsites": list(violation.callsites),
        "locs": list(violation.locs),
        "threads": list(violation.threads),
        "ops": list(violation.ops),
        "procs": sorted(procs),
    }


def violation_from_dict(data: Dict) -> Tuple[Violation, List[int]]:
    violation = Violation(
        vclass=data["class"],
        proc=data["proc"],
        message=data["message"],
        callsites=tuple(data.get("callsites", ())),
        locs=tuple(data.get("locs", ())),
        threads=tuple(data.get("threads", ())),
        ops=tuple(data.get("ops", ())),
    )
    return violation, list(data.get("procs", [violation.proc]))


def report_violation_dicts(report: ViolationReport) -> List[Dict]:
    return [
        violation_to_dict(v, report.procs_by_finding.get(v.dedup_key(), []))
        for v in report
    ]


@dataclass
class RunOutcome:
    """Crash-isolated result of one campaign cell (its final attempt)."""

    seed: int
    plan: str
    attempt: int = 0
    #: simulation seed of the recorded attempt (retries derive new ones)
    sim_seed: int = 0
    status: str = STATUS_OK
    deadlocked: bool = False
    #: interpreter failure string for budget-exhausted runs
    failure: Optional[str] = None
    #: why the run (or its analysis) was unusable
    error: Optional[str] = None
    analysis_error: Optional[str] = None
    events: int = 0
    faults_fired: int = 0
    crashed_ranks: List[int] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: violations found in this run (:func:`violation_to_dict` form)
    violations: List[Dict] = field(default_factory=list)

    @property
    def analyzable(self) -> bool:
        """Did this run contribute a trace the analyzers processed?"""
        return (
            self.status in (STATUS_OK, STATUS_BUDGET)
            and self.analysis_error is None
        )

    @property
    def key(self) -> str:
        return f"{self.seed}/{self.plan}"

    def report(self) -> ViolationReport:
        """Rebuild this run's findings as a mergeable report."""
        out = ViolationReport()
        for data in self.violations:
            violation, procs = violation_from_dict(data)
            out.add(violation)
            mine = out.procs_by_finding[violation.dedup_key()]
            for proc in procs:
                if proc not in mine:
                    mine.append(proc)
        return out

    def describe(self) -> str:
        bits = [f"seed={self.seed} plan={self.plan} status={self.status}"]
        if self.attempt:
            bits.append(f"attempt={self.attempt}")
        if self.deadlocked:
            bits.append("deadlocked")
        if self.faults_fired:
            bits.append(f"faults={self.faults_fired}")
        if self.violations:
            bits.append(f"violations={len(self.violations)}")
        if self.error:
            bits.append(f"error={self.error!r}")
        return " ".join(bits)

    def as_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "plan": self.plan,
            "attempt": self.attempt,
            "sim_seed": self.sim_seed,
            "status": self.status,
            "deadlocked": self.deadlocked,
            "failure": self.failure,
            "error": self.error,
            "analysis_error": self.analysis_error,
            "events": self.events,
            "faults_fired": self.faults_fired,
            "crashed_ranks": list(self.crashed_ranks),
            "wall_seconds": self.wall_seconds,
            "violations": list(self.violations),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RunOutcome":
        known = set(cls.__dataclass_fields__)
        return cls(**{k: v for k, v in data.items() if k in known})
