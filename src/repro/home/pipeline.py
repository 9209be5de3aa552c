"""HOME — the paper's tool.

Pipeline (paper Fig. 3):

1. **Compile-time checking** — CFG construction, hybrid-site discovery,
   static thread-level warnings, selective instrumentation (MPI calls in
   ``omp parallel`` regions become ``hmpi_*`` wrappers), the
   monitored-variable checklist, and the static data-race pass whose
   candidate variables seed the *memory* monitoring set.
2. **Runtime checking** — execute the instrumented program; wrappers
   write the monitored variables and log call arguments.  When the
   static race pass produced candidates, memory monitoring is switched
   on for exactly those variables (race-directed narrowing — the ITC
   model monitors everything instead).
3. **Hybrid dynamic analysis** — lockset + happens-before concurrency
   detection on the monitored variables.
4. **Report matching** — merge concurrency reports with the
   thread-safety specification argument list into final violations;
   static race candidates are triaged against the dynamic phase's
   :class:`~repro.analysis.dynamic_.memraces.MemRace` findings as
   confirmed / refuted / missed-by-dynamic.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from ..analysis.dynamic_.happensbefore import compute_happens_before
from ..analysis.dynamic_.hybrid import DetectorConfig, analyze
from ..analysis.dynamic_.memraces import MemRace, find_memory_races
from ..analysis.static_ import (
    InstrumentPolicy,
    StaticRaceReport,
    StaticReport,
    run_static_analysis,
)
from ..baselines.base import CheckingTool, ToolReport
from ..events import MemAccess
from ..minilang import ast_nodes as A
from ..runtime import ExecutionResult
from ..runtime.costmodel import HOME_CHARGE, ITC_CHARGE
from ..violations import ViolationReport, match_violations
from ..violations.spec import (
    BARRIER_DIVERGENCE,
    COLLECTIVE_ORDER_MISMATCH,
    Violation,
)


@dataclass(frozen=True)
class HomeOptions:
    """Tuning knobs for the HOME pipeline (defaults match the paper)."""

    instrument_policy: InstrumentPolicy = "hybrid-only"
    interprocedural: bool = True
    #: run the worklist dataflow analyses (envelope intervals,
    #: lock-state, May-Happen-in-Parallel) to prune static candidates
    dataflow: bool = True
    #: run the static data-race pass and narrow memory monitoring to
    #: its candidate variables
    races: bool = True
    #: run the static collective-divergence pass and narrow collective
    #: monitoring to its candidate sites (divergence-directed narrowing,
    #: the PARCOACH collective-matching family)
    collectives: bool = True
    #: compute context-sensitive interprocedural function summaries and
    #: share them with every static pass (races, MHP, locks, collectives)
    summaries: bool = True
    #: per-access charge while race-directed memory monitoring is on;
    #: the ITC model's unit cost, so overhead comparisons are per-event
    #: fair — HOME just monitors far fewer events
    race_memory_cost: float = ITC_CHARGE.mem_event_cost
    #: report dynamically confirmed race candidates as DataRace findings
    report_memory_races: bool = True
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    #: include static thread-level warnings in the report extras
    report_static_warnings: bool = True


def triage_race_candidates(
    result: ExecutionResult,
    races: StaticRaceReport,
    memory_races: Optional[Dict[int, List[MemRace]]] = None,
) -> Dict[str, Any]:
    """Judge each static race candidate against the dynamic phase.

    * **confirmed** — the lockset/happens-before analysis found an
      unordered conflicting access pair on the candidate variable;
    * **refuted** — the variable's monitored sites were observed from
      several threads but every conflicting pair was ordered or
      lock-protected;
    * **missed-by-dynamic** — the monitored run never exercised the
      variable's monitored sites from more than one thread, so the
      schedule says nothing (the candidate stands untested, the classic
      dynamic-tool gap).

    *memory_races* (process -> :func:`find_memory_races` result) passes
    in races already found for this run, e.g. by :meth:`Home.analyze`;
    without it they are computed here.
    """
    log = result.log
    dynamic_races: Dict[str, List[MemRace]] = {}
    if result.config.monitor_memory:
        if memory_races is None:
            memory_races = {
                proc: find_memory_races(log, proc) for proc in log.processes()
            }
        for proc_races in memory_races.values():
            for race in proc_races:
                dynamic_races.setdefault(race.var, []).append(race)
    threads_by_var: Dict[str, Dict[int, set]] = {}
    for proc in log.processes():
        for event in log.of_process_type(proc, MemAccess):
            threads_by_var.setdefault(event.var, {}).setdefault(
                proc, set()
            ).add(event.thread)

    locs_by_var: Dict[str, set] = {}
    for cand in races.candidates:
        locs_by_var.setdefault(cand.var, set()).update(cand.locs())

    triage: Dict[str, Any] = {
        "confirmed": [], "refuted": [], "missed_by_dynamic": [],
    }
    for var in sorted(races.monitored_vars):
        entry: Dict[str, Any] = {
            "var": var,
            "locs": sorted(locs_by_var.get(var, ())),
            "candidates": sum(1 for c in races.candidates if c.var == var),
        }
        if var in dynamic_races:
            entry["races"] = [
                {
                    "proc": r.proc,
                    "threads": sorted((r.thread_a, r.thread_b)),
                    "callsites": sorted((r.callsite_a, r.callsite_b)),
                }
                for r in dynamic_races[var]
            ]
            triage["confirmed"].append(entry)
        elif any(
            len(threads) > 1 for threads in threads_by_var.get(var, {}).values()
        ):
            triage["refuted"].append(entry)
        else:
            triage["missed_by_dynamic"].append(entry)
    return triage


def triage_divergence_candidates(
    collectives, violations: ViolationReport
) -> Dict[str, Any]:
    """Judge each static collective-divergence candidate against the
    dynamic collective-matching findings.

    Binary and exhaustive — every candidate lands in exactly one bin:

    * **confirmed** — a dynamic barrier-divergence / collective-order
      finding involves one of the candidate's collective sites;
    * **refuted** — the sites were monitored but no mismatch was
      observed under this schedule.

    Unlike race triage there is no missed-by-dynamic bin: collective
    arrivals are recorded at *encounter* (before any blocking), so a
    monitored multi-thread team always produces comparable sequences.
    """
    dynamic_locs: Dict[str, set] = {}
    for violation in violations:
        if violation.vclass in (BARRIER_DIVERGENCE, COLLECTIVE_ORDER_MISMATCH):
            for loc in violation.locs:
                dynamic_locs.setdefault(loc, set()).add(violation.vclass)
    triage: Dict[str, Any] = {"confirmed": [], "refuted": []}
    for cand in collectives.candidates:
        locs = sorted(cand.monitored_locs)
        hit_classes = sorted(
            {vc for loc in locs for vc in dynamic_locs.get(loc, ())}
        )
        entry: Dict[str, Any] = {
            "kind": cand.kind,
            "func": cand.func,
            "branch_loc": cand.branch_loc,
            "locs": locs,
            "violation_classes": hit_classes,
        }
        triage["confirmed" if hit_classes else "refuted"].append(entry)
    return triage


class Home(CheckingTool):
    """The integrated static+dynamic thread-safety checker."""

    name = "HOME"
    charge = HOME_CHARGE
    monitor_memory = False

    def __init__(self, options: HomeOptions = HomeOptions()) -> None:
        self.options = options
        #: (weak reference to an execution, its memory races) from the
        #: last :meth:`analyze`, so :meth:`check`'s triage reuses them
        self._memory_races: Optional[tuple] = None

    def __getstate__(self) -> Dict[str, Any]:
        # campaign workers receive the tool pickled; a weak reference
        # cannot be, and the memo is per-process anyway
        return {**self.__dict__, "_memory_races": None}

    def prepare(self, program: A.Program):
        static = run_static_analysis(
            program,
            policy=self.options.instrument_policy,
            interprocedural=self.options.interprocedural,
            dataflow=self.options.dataflow,
            races=self.options.races,
            collectives=self.options.collectives,
            summaries=self.options.summaries,
        )
        return static.instrumented_program, static

    def run_config(self, nprocs, num_threads, seed, static=None, **overrides):
        """Race-directed narrowing: monitor memory only when the static
        race pass produced candidates, and then only the access sites it
        could not clear (:attr:`StaticRaceReport.monitored_locs`)."""
        if (
            self.options.races
            and isinstance(static, StaticReport)
            and static.races is not None
            and static.races.monitored_vars
        ):
            overrides.setdefault("monitor_memory", True)
            overrides.setdefault("memory_sites", static.races.monitored_locs)
            overrides.setdefault(
                "charge",
                replace(self.charge, mem_event_cost=self.options.race_memory_cost),
            )
        if (
            self.options.collectives
            and isinstance(static, StaticReport)
            and static.collectives is not None
            and static.collectives.candidates
        ):
            # Divergence-directed narrowing: record collective arrivals
            # only at the static pass's candidate sites.
            overrides.setdefault("monitor_collectives", True)
            overrides.setdefault(
                "collective_sites", static.collectives.monitored_locs
            )
        return super().run_config(nprocs, num_threads, seed, static=static, **overrides)

    def analyze(
        self, result: ExecutionResult, static: Optional[StaticReport]
    ) -> ViolationReport:
        log = result.log
        detector = self.options.detector
        scan_races = (
            static is not None
            and static.races is not None
            and result.config.monitor_memory
        )
        # One happens-before replay per process, under the memory-race
        # scan's default lock configuration; the detector shares it when
        # its own lock configuration is the same, and replays otherwise.
        hbs = (
            {proc: compute_happens_before(log, proc) for proc in log.processes()}
            if scan_races else {}
        )
        shared = detector.lock_edges and detector.ignored_locks is None
        reports = analyze(log, detector, hbs=hbs if shared else None)
        violations = match_violations(log, reports)
        if not scan_races:
            return violations
        memory_races = {
            proc: find_memory_races(log, proc, hb=hb) for proc, hb in hbs.items()
        }
        self._memory_races = (weakref.ref(result), memory_races)
        if self.options.report_memory_races:
            locs_by_var: Dict[str, set] = {}
            for cand in static.races.candidates:
                locs_by_var.setdefault(cand.var, set()).update(cand.locs())
            for proc, proc_races in memory_races.items():
                for race in proc_races:
                    violations.add(
                        Violation(
                            vclass="DataRace",
                            proc=proc,
                            message=(
                                f"static race candidate confirmed: conflicting "
                                f"unsynchronized accesses to shared variable "
                                f"{race.var!r} from threads {race.thread_a} "
                                f"and {race.thread_b}"
                            ),
                            callsites=tuple(
                                sorted((race.callsite_a, race.callsite_b))
                            ),
                            locs=tuple(sorted(locs_by_var.get(race.var, ()))),
                            threads=tuple(sorted((race.thread_a, race.thread_b))),
                        )
                    )
        return violations

    def check(self, program, nprocs=2, num_threads=2, seed=0, **overrides) -> ToolReport:
        report = super().check(program, nprocs, num_threads, seed, **overrides)
        if self.options.report_static_warnings and report.static is not None:
            report.extras["static_warnings"] = list(report.static.warnings)
            report.extras["instrumented_sites"] = report.static.instrumentation.n_instrumented
            report.extras["filtered_sites"] = report.static.instrumentation.n_filtered
            report.extras["static_candidates"] = len(report.static.candidates)
            facts = report.static.dataflow_facts
            if facts is not None:
                report.extras["dataflow_pruned"] = dict(facts.pruned)
        if report.static is not None and report.static.races is not None:
            races = report.static.races
            report.extras["race_pruned"] = dict(races.pruned)
            report.extras["static_race_candidates"] = len(races.candidates)
            report.extras["monitored_vars"] = sorted(races.monitored_vars)
            memo = self._memory_races
            memory_races = (
                memo[1] if memo is not None and memo[0]() is report.execution
                else None
            )
            report.extras["race_triage"] = triage_race_candidates(
                report.execution, races, memory_races
            )
        if report.static is not None and report.static.collectives is not None:
            collectives = report.static.collectives
            report.extras["divergence_pruned"] = dict(collectives.pruned)
            report.extras["divergence_candidates"] = len(collectives.candidates)
            if collectives.candidates:
                report.extras["divergence_triage"] = triage_divergence_candidates(
                    collectives, report.violations
                )
        return report


def static_only_violations(static: StaticReport) -> ViolationReport:
    """Degrade gracefully: a report built from the static phase alone.

    Used by the campaign runner when every dynamic run failed — the
    static candidates are all the evidence left.  Each candidate becomes
    a clearly-marked unconfirmed finding (``proc=-1``: no execution
    observed it), so downstream rendering can flag the report as
    static-only rather than silently presenting candidates as confirmed
    violations.
    """
    report = ViolationReport()
    for cand in static.candidates:
        report.add(
            Violation(
                vclass=cand.vclass,
                proc=-1,
                message=(
                    f"STATIC-ONLY (unconfirmed by any execution): "
                    f"{cand.site_a.op}@{cand.site_a.loc} vs "
                    f"{cand.site_b.op}@{cand.site_b.loc}: {cand.reason}"
                ),
                callsites=tuple(sorted({cand.site_a.nid, cand.site_b.nid})),
                locs=cand.locs(),
                ops=tuple(sorted({cand.site_a.op, cand.site_b.op})),
            )
        )
    if static.collectives is not None:
        for dcand in static.collectives.candidates:
            vclass = (
                COLLECTIVE_ORDER_MISMATCH
                if dcand.kind == "collective-order"
                else BARRIER_DIVERGENCE
            )
            report.add(
                Violation(
                    vclass=vclass,
                    proc=-1,
                    message=(
                        f"STATIC-ONLY (unconfirmed by any execution): "
                        f"{dcand.kind} in {dcand.func} at "
                        f"{dcand.branch_loc}: {dcand.reason}"
                    ),
                    callsites=tuple(sorted({s.nid for s in dcand.sites})),
                    locs=tuple(dcand.locs()),
                    ops=tuple(sorted({s.op for s in dcand.sites if s.op})),
                )
            )
    return report


def check_program(
    program: A.Program,
    nprocs: int = 2,
    num_threads: int = 2,
    seed: int = 0,
    options: HomeOptions = HomeOptions(),
    **overrides,
) -> ToolReport:
    """One-call convenience wrapper: run HOME on *program*."""
    return Home(options).check(
        program, nprocs=nprocs, num_threads=num_threads, seed=seed, **overrides
    )
