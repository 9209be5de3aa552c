"""The hardened multi-seed campaign runner.

A campaign sweeps one program over a seed × fault-plan matrix, treating
every cell as expendable: a run may crash, deadlock, blow its step or
wall-clock budget, or produce a trace the analyzers choke on, and the
campaign still completes and reports whatever evidence survived.

Lifecycle per cell::

    run under budget ──ok──▶ analyze full trace
        │ budget exhausted / error
        ▼
    retry (up to ``retries`` times) with a derived seed and a reduced
    step budget — the simulator is deterministic, so retrying the same
    seed would reproduce the same failure
        │ still failing
        ▼
    salvage: analyze the best partial trace captured so far
        │ nothing salvageable
        ▼
    record the error; the cell contributes no findings

Findings from all analyzable cells are merged and deduplicated.  When
*no* cell is analyzable the campaign degrades to a clearly-flagged
static-only report built from the compile-time candidates — reduced
evidence, never silence.

Every campaign runs its cells through the one work-queue driver
(:func:`~.queue.run_work_queue`): a serial in-process lease loop for one
worker, supervised disposable worker processes (:mod:`.supervisor`) for
``config.jobs > 1``, and a crash journal when ``config.journal`` is set.
The static phase runs once, a picklable :class:`CellExecutor` ships the
prepared program to each worker, cells complete out-of-order, and
outcomes are reassembled in canonical matrix order — the merged report
and exit code are identical to a serial run (wall-clock timing fields
aside; ``record_timing=False`` makes even those bit-exact).  The journal
is the campaign's only persistent state: ``resume`` continues from
``config.journal``.
"""

from __future__ import annotations

import hashlib
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..baselines.base import CheckingTool
from ..faults import FaultPlan, builtin_plans
from ..home.pipeline import Home, static_only_violations
from ..minilang import ast_nodes as A
from ..minilang.printer import print_program
from ..runtime import make_interpreter
from ..runtime.scheduler import DEFAULT_MAX_STEPS
from ..violations.matcher import ViolationReport
from .outcome import (
    STATUS_BUDGET,
    STATUS_ERROR,
    STATUS_FORCED,
    STATUS_OK,
    STATUS_QUARANTINED,
    RunOutcome,
    report_violation_dicts,
)
from .queue import CellTask, DurableWorkQueue, run_work_queue

#: large odd prime so derived retry seeds never collide with the seed
#: grid itself (campaign seeds are small consecutive integers)
_RETRY_SEED_STRIDE = 100003


@dataclass
class CampaignConfig:
    """Everything that parameterizes one campaign."""

    seeds: Sequence[int] = (0, 1, 2, 3)
    #: plan name -> plan; ``None``/empty plan means a healthy library
    plans: Optional[Mapping[str, Optional[FaultPlan]]] = None
    nprocs: int = 2
    num_threads: int = 2
    #: per-run scheduler step budget
    budget_steps: int = DEFAULT_MAX_STEPS
    #: per-run host wall-clock budget in seconds; 0 = unlimited
    budget_seconds: float = 0.0
    #: extra attempts after a failed run (derived seed, reduced budget)
    retries: int = 1
    #: step-budget multiplier per retry (< 1: fail *faster*, so a retry
    #: yields a shorter but complete-enough partial trace)
    retry_budget_factor: float = 0.5
    thread_level_mode: str = "permissive"
    #: continue from ``journal``: its completed cells are not re-run
    resume: bool = False
    #: degradation drill: pretend every dynamic run failed
    force_fail: bool = False
    #: parallel cell workers: an int, or ``"auto"`` for one per CPU
    #: core.  1 (the default) runs strictly serially in-process.  Every
    #: cell is deterministic and independent, so any worker count
    #: produces the same merged report and exit code — only wall-clock
    #: timing fields differ (see ``record_timing``).
    jobs: "int | str" = 1
    #: stamp host wall-clock seconds on outcomes; switch off for
    #: bit-exact artifacts across repeated or differently-parallel runs
    record_timing: bool = True
    #: path of the append-only campaign journal.  Setting this makes the
    #: campaign durable: every cell transition is journaled before it
    #: happens, so ``kill -9`` at any instant resumes exactly.
    journal: Optional[str] = None
    #: ``jobs > 1``: seconds a cell may run without a heartbeat before
    #: its worker is presumed dead and the cell is reclaimed
    lease_seconds: float = 60.0
    #: ``jobs > 1``: crash-reclaims a cell may survive before it is
    #: quarantined as a poison cell (quarantined on crash
    #: ``poison_retries + 1``)
    poison_retries: int = 2
    #: chaos drill: SIGKILL one busy supervised worker right after the
    #: Nth fresh completion — exercises lease reclaim end-to-end
    drill_kill_worker_after: Optional[int] = None
    #: chaos drill: hard-kill the *coordinator* (``os._exit``) right
    #: after the Nth fresh completion — exercises journal resume
    drill_abort_after: Optional[int] = None

    def resolved_plans(self) -> Dict[str, Optional[FaultPlan]]:
        if self.plans is not None:
            return dict(self.plans)
        return {"none": None}


@dataclass
class CampaignResult:
    """Aggregated outcome of a whole campaign."""

    program: str
    outcomes: List[RunOutcome]
    report: ViolationReport
    static: Optional[object] = None
    #: True when no dynamic run was analyzable and the report was built
    #: from the static phase alone
    degraded: bool = False
    #: True when the campaign stopped early (SIGTERM/SIGINT): the
    #: report covers only the cells resolved so far
    interrupted: bool = False
    #: full matrix size; equals ``len(outcomes)`` unless interrupted
    planned_runs: Optional[int] = None

    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    @property
    def analyzable_runs(self) -> int:
        return sum(1 for o in self.outcomes if o.analyzable)

    def faults_fired(self) -> int:
        return sum(o.faults_fired for o in self.outcomes)

    def divergence_triage(self) -> Optional[Dict]:
        """Campaign-level confirmed/refuted triage of the static
        collective-divergence candidates against the *merged* report —
        a candidate any cell confirmed is confirmed.  None when the
        static phase ran without the collectives pass (or found no
        candidates), or when the report is static-only (degraded: no
        execution ever monitored the sites, so refuted would be a lie).
        """
        collectives = getattr(self.static, "collectives", None)
        if collectives is None or not collectives.candidates or self.degraded:
            return None
        from ..home.pipeline import triage_divergence_candidates

        return triage_divergence_candidates(collectives, self.report)

    def summary(self) -> str:
        counts = ", ".join(
            f"{status}={n}" for status, n in sorted(self.status_counts().items())
        )
        lines = [
            f"=== campaign on {self.program}: {len(self.outcomes)} run(s) "
            f"({counts or 'none'}) ===",
            f"analyzable runs: {self.analyzable_runs}/{len(self.outcomes)}; "
            f"faults fired: {self.faults_fired()}",
        ]
        if self.interrupted:
            planned = self.planned_runs or len(self.outcomes)
            lines.append(
                f"!!! INTERRUPTED: partial campaign — {len(self.outcomes)}/"
                f"{planned} cell(s) resolved before the stop !!!"
            )
        quarantined = self.status_counts().get(STATUS_QUARANTINED, 0)
        if quarantined:
            lines.append(
                f"!!! {quarantined} poison cell(s) QUARANTINED after "
                "repeatedly killing their workers; those cells contribute "
                "no findings (see outcomes for which) !!!"
            )
        if self.degraded:
            lines.append(
                "!!! DEGRADED REPORT: every dynamic run failed; findings "
                "below are STATIC-ONLY candidates, unconfirmed by any "
                "execution !!!"
            )
        triage = self.divergence_triage()
        if triage is not None:
            lines.append(
                "collective-divergence triage: "
                f"{len(triage['confirmed'])} confirmed, "
                f"{len(triage['refuted'])} refuted"
            )
        lines.append(self.report.summary())
        return "\n".join(lines)

    def as_dict(self) -> Dict:
        triage = self.divergence_triage()
        out = {
            "program": self.program,
            "runs": len(self.outcomes),
            "planned_runs": self.planned_runs
            if self.planned_runs is not None else len(self.outcomes),
            "interrupted": self.interrupted,
            "quarantined": self.status_counts().get(STATUS_QUARANTINED, 0),
            "status_counts": self.status_counts(),
            "analyzable_runs": self.analyzable_runs,
            "faults_fired": self.faults_fired(),
            "degraded": self.degraded,
            "classes": self.report.classes(),
            "violations": report_violation_dicts(self.report),
            "outcomes": [o.as_dict() for o in self.outcomes],
        }
        if triage is not None:
            out["divergence_triage"] = triage
        return out


def merge_outcomes(
    outcomes: Sequence[RunOutcome], static: Optional[object]
) -> Tuple[ViolationReport, bool]:
    """Merge the analyzable outcomes into one deduplicated report.

    Returns ``(report, degraded)``; when *no* outcome is analyzable the
    report degrades to the clearly-flagged static-only candidates
    (reduced evidence, never silence).  Shared by the campaign runner
    and the streaming service so partial and final reports are built by
    the exact same code.
    """
    merged = ViolationReport()
    for outcome in outcomes:
        if outcome.analyzable:
            merged.merge(outcome.report())
    degraded = not any(o.analyzable for o in outcomes)
    if degraded and static is not None:
        merged = static_only_violations(static)
    return merged, degraded


class CellExecutor:
    """Runs single campaign cells from pre-computed static state.

    Picklable: a parallel campaign ships one executor to every worker
    process (program prepared and static analysis done exactly once, in
    the parent), and a serial campaign runs the very same object
    in-process — both execute identical per-cell code.
    """

    def __init__(
        self,
        tool: CheckingTool,
        config: CampaignConfig,
        to_run: A.Program,
        static: Optional[object],
    ) -> None:
        self.tool = tool
        self.config = config
        self.to_run = to_run
        self.static = static

    def run_cell(self, seed: int, plan_name: str, plan: Optional[FaultPlan]) -> RunOutcome:
        """One (seed, plan) cell: budgeted attempts, then salvage."""
        cfg = self.config
        started = time.perf_counter()
        if cfg.force_fail:
            return RunOutcome(
                seed=seed, plan=plan_name, status=STATUS_FORCED,
                error="forced failure (--force-fail)",
            )
        partial = None
        partial_attempt = 0
        last_error: Optional[str] = None
        result = None
        attempt = 0
        for attempt in range(cfg.retries + 1):
            sim_seed = seed + _RETRY_SEED_STRIDE * attempt
            budget = max(1, int(cfg.budget_steps * cfg.retry_budget_factor**attempt))
            try:
                run_config = self.tool.run_config(
                    cfg.nprocs, cfg.num_threads, sim_seed,
                    static=self.static,
                    thread_level_mode=cfg.thread_level_mode,
                    fault_plan=plan if plan else None,
                    max_steps=budget,
                    max_wall_seconds=cfg.budget_seconds,
                    capture_partial=True,
                )
                result = make_interpreter(self.to_run, run_config).run()
            except Exception as err:  # noqa: BLE001 - cell isolation:
                # one diseased run must never take down the campaign
                last_error = f"{type(err).__name__}: {err}"
                result = None
                continue
            if result.completed:
                break
            # budget exhausted: keep the longest partial trace seen
            if partial is None or len(result.log) > len(partial.log):
                partial = result
                partial_attempt = attempt
            result = None
        if result is None and partial is not None:
            result = partial
            attempt = partial_attempt
        wall = time.perf_counter() - started
        if result is None:
            return RunOutcome(
                seed=seed, plan=plan_name, attempt=attempt,
                sim_seed=seed + _RETRY_SEED_STRIDE * attempt,
                status=STATUS_ERROR,
                error=last_error or "run produced no trace",
                wall_seconds=wall if cfg.record_timing else 0.0,
            )
        outcome = RunOutcome(
            seed=seed, plan=plan_name, attempt=attempt,
            sim_seed=result.config.seed,
            status=STATUS_OK if result.completed else STATUS_BUDGET,
            deadlocked=result.deadlocked,
            failure=result.failure,
            events=len(result.log),
            faults_fired=len(result.stats.get("faults_injected", ())),
            crashed_ranks=list(
                result.stats.get("faults", {}).get("crashed_ranks", ())
            ),
        )
        try:
            violations = self.tool.analyze(result, self.static)
        except Exception as err:  # noqa: BLE001 - partial traces may
            # violate analyzer invariants; record, don't propagate
            outcome.analysis_error = f"{type(err).__name__}: {err}"
        else:
            outcome.violations = report_violation_dicts(violations)
        if cfg.record_timing:
            outcome.wall_seconds = time.perf_counter() - started
        return outcome


class CampaignRunner:
    """Run one program through the campaign matrix with crash isolation."""

    def __init__(
        self,
        program: A.Program,
        config: CampaignConfig = CampaignConfig(),
        tool: Optional[CheckingTool] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.program = program
        self.config = config
        self.tool = tool if tool is not None else Home()
        self._progress = progress
        #: prepared once: instrumentation is deterministic and the
        #: interpreter never mutates the AST, so all cells (and all
        #: worker processes) share it
        self._to_run, self._static = self.tool.prepare(program)
        self._executor = CellExecutor(
            self.tool, self.config, self._to_run, self._static
        )

    @property
    def static(self) -> Optional[object]:
        """The once-computed static report (shared by every cell)."""
        return self._static

    # -- helpers -------------------------------------------------------------

    def _say(self, message: str) -> None:
        if self._progress is not None:
            self._progress(message)

    def _warn(self, message: str) -> None:
        """One-line warning that must reach the user even without a
        progress callback (e.g. a quiet ``--resume`` that found an
        unusable journal)."""
        if self._progress is not None:
            self._progress(f"warning: {message}")
        else:
            print(f"warning: {message}", file=sys.stderr)

    def _matrix(self) -> List[CellTask]:
        """The seed × plan cells in canonical (plan-major) order."""
        cells = [
            (int(seed), plan_name, plan)
            for plan_name, plan in self.config.resolved_plans().items()
            for seed in self.config.seeds
        ]
        return [CellTask(index, *cell) for index, cell in enumerate(cells)]

    def _journal_meta(self) -> Dict:
        """The journal header: a resume restores only a journal whose
        header matches this on every key but the matrix axes."""
        cfg = self.config
        source = print_program(self.program).encode("utf-8")
        return {
            "program": self.program.name,
            # same name, edited body: must not resume the old findings
            "program_sha256": hashlib.sha256(source).hexdigest(),
            "tool": self.tool.name,
            "nprocs": cfg.nprocs,
            "num_threads": cfg.num_threads,
            "seeds": [int(s) for s in cfg.seeds],
            "plans": {
                name: (plan.as_dict() if plan else None)
                for name, plan in cfg.resolved_plans().items()
            },
            "budget_steps": cfg.budget_steps,
            "budget_seconds": cfg.budget_seconds,
            "retries": cfg.retries,
            "retry_budget_factor": cfg.retry_budget_factor,
            "thread_level_mode": cfg.thread_level_mode,
            "force_fail": cfg.force_fail,
        }

    # -- one cell ------------------------------------------------------------

    def run_cell(self, seed: int, plan_name: str, plan: Optional[FaultPlan]) -> RunOutcome:
        """One (seed, plan) cell: budgeted attempts, then salvage."""
        return self._executor.run_cell(seed, plan_name, plan)

    # -- the campaign --------------------------------------------------------

    def run(
        self,
        stop: Optional[threading.Event] = None,
        on_cell: Optional[Callable[[List[RunOutcome]], None]] = None,
    ) -> CampaignResult:
        """Run the matrix to completion (or until *stop* is set).

        *stop* makes the campaign interruptible: set it (e.g. from a
        SIGTERM handler) and the runner finishes or releases in-flight
        cells and returns a partial result flagged ``interrupted``; with
        a journal, ``resume`` continues from there.  *on_cell*, when
        given, receives the canonical-order outcome list after every
        banked cell — the hook the streaming service uses to publish
        partial reports.
        """
        cfg = self.config
        tasks = self._matrix()
        total = len(tasks)
        work: Optional[DurableWorkQueue] = None
        announced = 0
        fresh_done = 0

        def on_open(queue: DurableWorkQueue) -> None:
            nonlocal work, announced
            work = queue
            for outcome in work.outcome_list():
                announced += 1
                self._say(f"[{announced}/{total}] {outcome.describe()} (resumed)")

        def bank(task: CellTask, outcome: RunOutcome) -> None:
            nonlocal announced, fresh_done
            announced += 1
            self._say(f"[{announced}/{total}] {outcome.describe()}")
            if on_cell is not None:
                on_cell(work.outcome_list())
            fresh_done += 1
            if cfg.drill_abort_after is not None \
                    and fresh_done >= cfg.drill_abort_after \
                    and not work.all_resolved():
                self._say(
                    "drill: hard-killing the coordinator mid-campaign "
                    "(the journal must carry the resume)"
                )
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(137)

        run_work_queue(
            self._executor, tasks, bank, on_open,
            jobs=cfg.jobs,
            journal=cfg.journal,
            meta=self._journal_meta(),
            resume=cfg.resume,
            lease_seconds=cfg.lease_seconds,
            poison_retries=cfg.poison_retries,
            drill_kill_worker_after=cfg.drill_kill_worker_after,
            say=self._say,
            warn=self._warn,
            stop=stop,
        )
        outcomes = work.outcome_list()
        merged, degraded = merge_outcomes(outcomes, self._static)
        return CampaignResult(
            program=self.program.name,
            outcomes=outcomes,
            report=merged,
            static=self._static,
            degraded=degraded,
            interrupted=not work.all_resolved(),
            planned_runs=total,
        )


def run_campaign(
    program: A.Program,
    config: CampaignConfig = CampaignConfig(),
    tool: Optional[CheckingTool] = None,
    progress: Optional[Callable[[str], None]] = None,
    stop: Optional[threading.Event] = None,
    on_cell: Optional[Callable[[List[RunOutcome]], None]] = None,
) -> CampaignResult:
    """One-call convenience wrapper."""
    return CampaignRunner(program, config, tool, progress).run(
        stop=stop, on_cell=on_cell
    )


def default_plan_matrix(nprocs: int, names: Optional[Sequence[str]] = None):
    """Resolve plan names against the builtin set (CLI helper)."""
    available = builtin_plans(nprocs)
    if names is None:
        return available
    out: Dict[str, Optional[FaultPlan]] = {}
    for name in names:
        if name not in available:
            raise KeyError(
                f"unknown fault plan {name!r} "
                f"(available: {', '.join(sorted(available))})"
            )
        out[name] = available[name]
    return out
