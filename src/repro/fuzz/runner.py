"""The fuzzing session driver: cells, triage, reduction, report.

One fuzz *cell* = generate program ``seed`` from the grammar, run the
selected oracles, and fold what happened into a
:class:`~repro.campaign.outcome.RunOutcome` — the same crash-isolated,
JSON-round-trippable record campaign cells use.  That lets the
campaign's one cell-execution path
(:func:`~repro.campaign.queue.run_work_queue`) carry fuzzing unchanged:
cells are leased work-queue items, ``jobs > 1`` runs them on supervised
disposable workers (a generated program that kills its worker
repeatedly is quarantined as a poison cell instead of stalling the
session), and a journal makes the session durable and resumable.

The coordinator then triages outcomes (:mod:`.triage`), optionally
reduces one reproducer per signature (:mod:`.reduce`), and emits an
LLOV-style report: programs run, divergences, per-oracle coverage,
HOME detection tallies, and per-engine throughput.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..campaign.outcome import (
    STATUS_BUDGET,
    STATUS_ERROR,
    STATUS_OK,
    RunOutcome,
)
from ..campaign.queue import CellTask, run_work_queue
from ..errors import MiniLangError
from ..minilang import parse, validate
from .generator import (
    GRAMMAR_VERSION,
    GeneratorConfig,
    generate_program,
    generate_source,
    program_stmt_count,
)
from .oracles import ORACLES, OracleContext, OracleFinding, run_oracles
from .reduce import reduce_source
from .triage import Signature, TriageBank, crash_signature, oracle_signature

#: plan name shared by all fuzz cells (they have no fault plan)
FUZZ_PLAN = "fuzz"
#: synthetic violation class carrying per-cell counters
_META_CLASS = "fuzz:meta"


@dataclass(frozen=True)
class FuzzConfig:
    """Everything that parameterizes one fuzzing session (picklable)."""

    #: number of programs; generator seeds are ``seed_base .. +seeds-1``
    seeds: int = 100
    seed_base: int = 0
    oracles: Tuple[str, ...] = tuple(ORACLES)
    generator: GeneratorConfig = GeneratorConfig()
    nprocs: int = 2
    num_threads: int = 2
    max_steps: int = 200_000
    max_wall_seconds: float = 20.0
    #: run the jobs oracle on every Nth program (it is a full
    #: mini-campaign pair); skips are counted in the report
    jobs_every: int = 25
    #: drill hook forwarded to the oracles (``engine-divergence``)
    inject: Optional[str] = None
    #: delta-debug one reproducer per signature after the sweep
    reduce: bool = True
    #: parallel cell workers, as in campaigns (int or ``"auto"``)
    jobs: "int | str" = 1
    #: journal path; set -> the session is durable and resumable
    journal: Optional[str] = None
    resume: bool = False
    lease_seconds: float = 60.0
    poison_retries: int = 2

    def cell_context(self, seed: int) -> OracleContext:
        """Fresh per-cell oracle context (counters start at zero)."""
        return OracleContext(
            nprocs=self.nprocs,
            num_threads=self.num_threads,
            sim_seed=seed,
            max_steps=self.max_steps,
            max_wall_seconds=self.max_wall_seconds,
            inject=self.inject,
            jobs_every=self.jobs_every,
        )

    def reproducer(self, seed: int) -> Dict[str, Any]:
        """The ``(grammar_version, seed, config)`` triple that
        regenerates a failing cell bit-exactly."""
        return {
            "grammar_version": GRAMMAR_VERSION,
            "seed": seed,
            "config": {
                "oracles": list(self.oracles),
                "generator": dict(self.generator.__dict__),
                "nprocs": self.nprocs,
                "num_threads": self.num_threads,
                "max_steps": self.max_steps,
                "max_wall_seconds": self.max_wall_seconds,
                "inject": self.inject,
            },
        }


def _budget_signature(failure_line: str) -> Signature:
    """Coarse budget-blowout bucket: the failure class, not the counts."""
    why = failure_line.split(": ", 1)[-1]
    kind = why.split(":", 1)[0].split(" after ", 1)[0].strip()
    return Signature(kind="budget", key=kind or "budget-exhausted")


def _finding_to_violation(finding: OracleFinding) -> Dict[str, Any]:
    """Encode an oracle finding in violation-dict form so it rides the
    campaign journal round trip unchanged."""
    return {
        "class": f"fuzz:{finding.oracle}",
        "proc": -1,
        "message": f"{finding.detail}\n{finding.evidence}",
        "callsites": [],
        "locs": [],
        "threads": [],
        "ops": [],
        "procs": [],
    }


def _violation_to_finding(seed: int, data: Dict[str, Any]) -> OracleFinding:
    detail, _, evidence = data.get("message", "").partition("\n")
    return OracleFinding(
        oracle=data["class"].split(":", 1)[1],
        seed=seed,
        detail=detail,
        evidence=evidence,
    )


class FuzzCellExecutor:
    """Picklable per-cell executor with the campaign ``run_cell``
    contract — the serial lease loop and supervised workers both drive
    fuzz cells through this."""

    def __init__(self, config: FuzzConfig) -> None:
        self.config = config

    def run_cell(self, seed: int, plan_name: str, plan) -> RunOutcome:
        cfg = self.config
        ctx = cfg.cell_context(seed)
        started = time.perf_counter()
        try:
            program = generate_program(seed, cfg.generator)
            findings = run_oracles(program, seed, ctx, oracles=cfg.oracles)
        except Exception as err:
            signature = crash_signature(err)
            text = "".join(
                traceback.format_exception(type(err), err, err.__traceback__)
            )
            return RunOutcome(
                seed=seed,
                plan=plan_name,
                sim_seed=seed,
                status=STATUS_ERROR,
                error=f"{signature.key}\n{text}",
                wall_seconds=time.perf_counter() - started,
            )
        violations = [_finding_to_violation(f) for f in findings]
        meta = {
            "coverage": ctx.coverage,
            "engine_wall": ctx.engine_wall,
            "engine_steps": ctx.engine_steps,
            "detections": ctx.detections,
            "budget_failures": ctx.budget_failures,
        }
        violations.append(
            {
                "class": _META_CLASS,
                "proc": -1,
                "message": json.dumps(meta, sort_keys=True),
                "callsites": [],
                "locs": [],
                "threads": [],
                "ops": [],
                "procs": [],
            }
        )
        return RunOutcome(
            seed=seed,
            plan=plan_name,
            sim_seed=seed,
            status=STATUS_BUDGET if ctx.budget_failures else STATUS_OK,
            failure=ctx.budget_failures[0] if ctx.budget_failures else None,
            wall_seconds=time.perf_counter() - started,
            violations=violations,
        )


@dataclass
class FuzzReport:
    """Aggregated result of one fuzzing session."""

    config: FuzzConfig
    outcomes: List[RunOutcome]
    bank: TriageBank
    wall_seconds: float = 0.0
    interrupted: bool = False

    @property
    def divergences(self) -> int:
        return sum(
            e.count for e in self.bank.entries.values()
            if e.signature.kind == "oracle"
        )

    @property
    def crashes(self) -> int:
        return sum(
            e.count for e in self.bank.entries.values()
            if e.signature.kind == "crash"
        )

    @property
    def clean(self) -> bool:
        return not self.bank.entries and not self.interrupted

    def _aggregate_meta(self) -> Dict[str, Any]:
        coverage: Dict[str, Dict[str, int]] = {}
        engine_wall: Dict[str, float] = {}
        engine_steps: Dict[str, int] = {}
        detections: Dict[str, int] = {}
        for outcome in self.outcomes:
            for data in outcome.violations:
                if data.get("class") != _META_CLASS:
                    continue
                meta = json.loads(data["message"])
                for oracle, slot in meta.get("coverage", {}).items():
                    agg = coverage.setdefault(oracle, {"ran": 0, "skipped": 0})
                    agg["ran"] += slot.get("ran", 0)
                    agg["skipped"] += slot.get("skipped", 0)
                for engine, wall in meta.get("engine_wall", {}).items():
                    engine_wall[engine] = engine_wall.get(engine, 0.0) + wall
                for engine, steps in meta.get("engine_steps", {}).items():
                    engine_steps[engine] = engine_steps.get(engine, 0) + steps
                for vclass, count in meta.get("detections", {}).items():
                    detections[vclass] = detections.get(vclass, 0) + count
        return {
            "coverage": coverage,
            "engine_wall": engine_wall,
            "engine_steps": engine_steps,
            "detections": detections,
        }

    def summary(self) -> str:
        data = self.as_dict()
        by_status = data["programs"]["by_status"]
        status = ", ".join(f"{v} {k}" for k, v in sorted(by_status.items()))
        lines = [
            f"fuzz: {len(self.outcomes)}/{self.config.seeds} program(s) "
            f"(grammar v{GRAMMAR_VERSION}): {status or 'none run'}",
            f"oracles: "
            + (
                ", ".join(
                    f"{name} ran {slot['ran']}"
                    + (f" (skipped {slot['skipped']})" if slot["skipped"] else "")
                    for name, slot in sorted(data["oracles"].items())
                )
                or "none"
            ),
            f"divergences: {self.divergences}  crashes: {self.crashes}  "
            f"distinct signatures: {len(self.bank)}",
            f"throughput: {data['throughput']['programs_per_second']} "
            f"program(s)/s",
        ]
        for entry in self.bank.entries.values():
            line = f"  {entry.signature} x{entry.count} (first seed {entry.first_seed})"
            if entry.reduced_stmts is not None:
                line += (
                    f", reduced {entry.original_stmts} -> "
                    f"{entry.reduced_stmts} stmts"
                )
            lines.append(line)
        if self.interrupted:
            lines.append("fuzz session interrupted: partial results above")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        meta = self._aggregate_meta()
        by_status: Dict[str, int] = {}
        for outcome in self.outcomes:
            by_status[outcome.status] = by_status.get(outcome.status, 0) + 1
        engines = {
            engine: {
                "wall_seconds": round(meta["engine_wall"].get(engine, 0.0), 6),
                "steps": steps,
                "steps_per_second": round(
                    steps / wall if (wall := meta["engine_wall"].get(engine, 0.0))
                    else 0.0,
                    1,
                ),
            }
            for engine, steps in sorted(meta["engine_steps"].items())
        }
        wall = self.wall_seconds
        return {
            "fuzz_report_version": 1,
            "grammar_version": GRAMMAR_VERSION,
            "programs": {
                "requested": self.config.seeds,
                "run": len(self.outcomes),
                "by_status": by_status,
            },
            "oracles": {
                oracle: {
                    **slot,
                    "divergences": sum(
                        e.count
                        for e in self.bank.entries.values()
                        if e.signature.kind == "oracle"
                        and e.signature.key.startswith(f"{oracle}:")
                    ),
                }
                for oracle, slot in sorted(meta["coverage"].items())
            },
            "divergences": self.divergences,
            "crashes": self.crashes,
            "interrupted": self.interrupted,
            "triage": self.bank.as_dict(),
            "detection": {"HOME": meta["detections"]},
            "throughput": {
                "wall_seconds": round(wall, 6),
                "programs_per_second": round(
                    len(self.outcomes) / wall if wall else 0.0, 2
                ),
                "engines": engines,
            },
        }


def signature_keys_for_source(
    source: str, seed: int, config: FuzzConfig
) -> Set[str]:
    """Every failure signature *source* currently produces.

    This is the reducer's predicate core: a candidate program
    reproduces iff the original signature is still in this set.  The
    jobs-oracle sampling is disabled (``jobs_every=1``) so reduction of
    a jobs divergence cannot silently stop reproducing.
    """
    try:
        program = parse(source)
        validate(program)
    except MiniLangError:
        return set()
    ctx = config.cell_context(seed)
    ctx.jobs_every = 1
    try:
        findings = run_oracles(program, seed, ctx, oracles=config.oracles)
    except Exception as err:
        return {str(crash_signature(err))}
    keys = {str(oracle_signature(f)) for f in findings}
    for line in ctx.budget_failures:
        keys.add(str(_budget_signature(line)))
    return keys


def _reduce_bank(
    bank: TriageBank,
    config: FuzzConfig,
    progress: Callable[[str], None],
    stop=None,
) -> None:
    """Attach a minimal reproducer program to every triage entry."""
    for entry in bank.entries.values():
        if stop is not None and stop.is_set():
            return
        seed = entry.first_seed
        try:
            source = generate_source(seed, config.generator)
        except Exception as err:  # pragma: no cover - generator bug
            progress(f"reduce {entry.signature}: regeneration failed: {err}")
            continue
        target = str(entry.signature)

        def predicate(candidate: str) -> bool:
            return target in signature_keys_for_source(candidate, seed, config)

        try:
            reduced = reduce_source(source, predicate)
        except ValueError as err:
            progress(f"reduce {entry.signature}: {err}")
            continue
        entry.original_stmts = program_stmt_count(parse(source))
        entry.reduced_stmts = program_stmt_count(parse(reduced))
        entry.reduced_source = reduced
        progress(
            f"reduced {entry.signature}: "
            f"{entry.original_stmts} -> {entry.reduced_stmts} stmts"
        )


def _triage_outcomes(
    outcomes: List[RunOutcome], config: FuzzConfig
) -> TriageBank:
    bank = TriageBank()
    for outcome in outcomes:
        reproducer = config.reproducer(outcome.seed)
        if outcome.status == STATUS_ERROR and outcome.error:
            key, _, text = outcome.error.partition("\n")
            bank.record(
                Signature(kind="crash", key=key),
                outcome.seed,
                text or key,
                reproducer,
            )
            continue
        if outcome.status not in (STATUS_OK, STATUS_BUDGET):
            # quarantined / forced cells: the worker never reported
            bank.record(
                Signature(kind="crash", key=f"cell-{outcome.status}"),
                outcome.seed,
                outcome.error or outcome.status,
                reproducer,
            )
            continue
        if outcome.status == STATUS_BUDGET and outcome.failure:
            bank.record(
                _budget_signature(outcome.failure),
                outcome.seed,
                outcome.failure,
                reproducer,
            )
        for data in outcome.violations:
            if not str(data.get("class", "")).startswith("fuzz:"):
                continue
            if data["class"] == _META_CLASS:
                continue
            finding = _violation_to_finding(outcome.seed, data)
            bank.record_finding(finding, reproducer)
    return bank


def run_fuzz(
    config: FuzzConfig,
    progress: Optional[Callable[[str], None]] = None,
    stop=None,
) -> FuzzReport:
    """Run one fuzzing session end-to-end and return its report."""
    say = progress or (lambda _line: None)
    started = time.perf_counter()
    executor = FuzzCellExecutor(config)
    tasks = [
        CellTask(index=i, seed=config.seed_base + i, plan_name=FUZZ_PLAN, plan=None)
        for i in range(config.seeds)
    ]
    total = len(tasks)
    announced = 0

    def announce(outcome: RunOutcome) -> None:
        nonlocal announced
        announced += 1
        # describe() counts the piggybacked fuzz:meta record as a
        # violation; report oracle findings only
        findings = sum(
            1
            for v in outcome.violations
            if v.get("class", "").startswith("fuzz:")
            and v.get("class") != _META_CLASS
        )
        line = f"seed={outcome.seed} status={outcome.status}"
        if findings:
            line += f" findings={findings}"
        if outcome.failure:
            line += f" failure={outcome.failure!r}"
        if outcome.error:
            line += " error=" + repr(outcome.error.splitlines()[0])
        say(f"[{announced}/{total}] {line}")

    def on_open(work) -> None:
        for outcome in work.outcome_list():
            announce(outcome)

    work = run_work_queue(
        executor, tasks, lambda task, outcome: announce(outcome), on_open,
        jobs=config.jobs,
        journal=config.journal,
        meta={
            "kind": "fuzz",
            "grammar_version": GRAMMAR_VERSION,
            "seeds": config.seeds,
            "seed_base": config.seed_base,
            "oracles": list(config.oracles),
        },
        resume=config.resume,
        lease_seconds=config.lease_seconds,
        poison_retries=config.poison_retries,
        say=say,
        stop=stop,
    )
    # canonical order, quarantined cells included — the completion
    # callbacks are an announcement stream, not the artifact
    outcomes = work.outcome_list()
    bank = _triage_outcomes(outcomes, config)
    if config.reduce and bank.entries:
        _reduce_bank(bank, config, say, stop=stop)
    return FuzzReport(
        config=config,
        outcomes=outcomes,
        bank=bank,
        wall_seconds=time.perf_counter() - started,
        interrupted=len(outcomes) < total,
    )


# keep the public name list tidy for ``from repro.fuzz import *`` users
__all__ = [
    "FUZZ_PLAN",
    "FuzzCellExecutor",
    "FuzzConfig",
    "FuzzReport",
    "run_fuzz",
    "signature_keys_for_source",
]
