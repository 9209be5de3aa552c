"""Differential oracles over generated programs.

Each oracle runs one generated program under a *pair* of configurations
that the stack guarantees must agree, and reports an
:class:`OracleFinding` for every disagreement:

``engine``
    ast vs bytecode engine under the same :class:`RunConfig` — the VM
    contract is *byte-identical traces*, so the serialized event logs,
    program outputs, deadlock diagnoses and budget failures must all
    match exactly.
``jobs``
    a small campaign run with ``jobs=1`` vs ``jobs=2`` (timing
    recording off) — the parallel dispatcher's contract is
    byte-identical artifacts for any worker count.
``narrowing``
    HOME's race-directed narrowing vs an ITC-style monitor-everything
    run — restricted to the statically monitored variables, both runs
    must observe the *same* dynamic race set (narrowing drops events,
    never findings).
``coherence``
    static-candidate vs dynamic-confirmation bookkeeping inside one
    HOME report — triage bins must partition the monitored variables,
    confirmed entries must trace back to static candidates, and
    ``DataRace`` findings must appear iff the triage confirmed one.

Oracles never swallow exceptions: anything a paired run raises
propagates to the fuzz runner, which converts it into a crash
signature (:mod:`repro.fuzz.triage`).  The ``inject`` hook exists for
the end-to-end drill: ``engine-divergence`` corrupts the bytecode-side
trace of any program containing an ``omp critical`` region, so the
triage/reduction pipeline can be exercised without a real engine bug.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..campaign import CampaignConfig, run_campaign
from ..events.serialize import dump_log
from ..home import Home
from ..minilang import ast_nodes as A
from ..runtime import RunConfig, run_program

#: Injection modes understood by :func:`run_oracles` (drill hooks).
INJECT_KINDS = ("engine-divergence",)

_EVIDENCE_LIMIT = 800


@dataclass(frozen=True)
class OracleFinding:
    """One divergence between a pair of runs that must agree."""

    oracle: str  #: which oracle fired ("engine", "jobs", ...)
    seed: int  #: generator seed of the program under test
    detail: str  #: coarse divergence class — the dedup axis
    evidence: str = ""  #: short human-readable diff excerpt

    def as_dict(self) -> Dict[str, Any]:
        return {
            "oracle": self.oracle,
            "seed": self.seed,
            "detail": self.detail,
            "evidence": self.evidence,
        }


@dataclass
class OracleContext:
    """Shared knobs + counters for one fuzzing session."""

    nprocs: int = 2
    num_threads: int = 2
    sim_seed: int = 0
    max_steps: int = 200_000
    max_wall_seconds: Optional[float] = 20.0
    #: drill hook; one of :data:`INJECT_KINDS` or ``None``
    inject: Optional[str] = None
    #: run the (expensive) jobs oracle on every Nth program only;
    #: the skipped count is reported, never silently dropped
    jobs_every: int = 25
    #: per-oracle program coverage: oracle -> {"ran": n, "skipped": n}
    coverage: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: per-engine accumulated wall seconds / scheduler steps
    engine_wall: Dict[str, float] = field(default_factory=dict)
    engine_steps: Dict[str, int] = field(default_factory=dict)
    #: budget blowouts observed by the engine oracle ("<engine>: <why>")
    budget_failures: List[str] = field(default_factory=list)
    #: HOME detection tally from the coherence oracle: violation class
    #: -> number of programs it fired on (LLOV-style detection table)
    detections: Dict[str, int] = field(default_factory=dict)

    def count(self, oracle: str, ran: bool) -> None:
        slot = self.coverage.setdefault(oracle, {"ran": 0, "skipped": 0})
        slot["ran" if ran else "skipped"] += 1


def _clip(text: str) -> str:
    if len(text) <= _EVIDENCE_LIMIT:
        return text
    return text[:_EVIDENCE_LIMIT] + f"... [{len(text) - _EVIDENCE_LIMIT} more]"


def _first_diff(a: str, b: str) -> Tuple[int, str, str]:
    """(line_no, line_a, line_b) of the first differing trace line."""
    lines_a = a.splitlines()
    lines_b = b.splitlines()
    for i, (la, lb) in enumerate(zip(lines_a, lines_b)):
        if la != lb:
            return i, la, lb
    i = min(len(lines_a), len(lines_b))
    la = lines_a[i] if i < len(lines_a) else "<end of trace>"
    lb = lines_b[i] if i < len(lines_b) else "<end of trace>"
    return i, la, lb


def _diff_kind(line_a: str, line_b: str) -> str:
    """Coarse class of a trace divergence, for signature dedup."""
    import json

    kinds = []
    for line in (line_a, line_b):
        try:
            kinds.append(json.loads(line).get("type", "?"))
        except (ValueError, AttributeError):
            kinds.append("eof" if line == "<end of trace>" else "garbage")
    if kinds[0] == kinds[1]:
        return kinds[0]
    return f"{kinds[0]}/{kinds[1]}"


def _run_one(program: A.Program, engine: str, ctx: OracleContext) -> Dict[str, Any]:
    """One measured run; every id in its trace is per-run, so traces of
    the same program and config are comparable byte for byte."""
    config = RunConfig(
        nprocs=ctx.nprocs,
        num_threads=ctx.num_threads,
        seed=ctx.sim_seed,
        engine=engine,
        max_steps=ctx.max_steps,
        max_wall_seconds=ctx.max_wall_seconds,
        capture_partial=True,
        thread_level_mode="permissive",
    )
    started = time.perf_counter()
    result = run_program(program, config)
    elapsed = time.perf_counter() - started
    buf = io.StringIO()
    dump_log(result.log, buf)
    ctx.engine_wall[engine] = ctx.engine_wall.get(engine, 0.0) + elapsed
    ctx.engine_steps[engine] = ctx.engine_steps.get(engine, 0) + int(
        result.stats.get("scheduler_steps", 0)
    )
    if result.failure is not None:
        ctx.budget_failures.append(f"{engine}: {result.failure}")
    return {
        "trace": buf.getvalue(),
        "outputs": list(result.outputs),
        "deadlocked": result.deadlocked,
        "failure": result.failure,
        "notes": list(result.notes),
    }


def _contains(program: A.Program, node_type: type) -> bool:
    return any(isinstance(node, node_type) for node in program.walk())


def oracle_engine(
    program: A.Program, seed: int, ctx: OracleContext
) -> List[OracleFinding]:
    """ast vs bytecode: byte-identical traces and observable behaviour."""
    ast_run = _run_one(program, "ast", ctx)
    vm_run = _run_one(program, "bytecode", ctx)

    if ctx.inject == "engine-divergence" and _contains(program, A.OmpCritical):
        # Drill: pretend the VM serialized one extra trace event.  The
        # detail string is deliberately coarse so every drill hit dedups
        # to a single signature.
        vm_run["trace"] += '{"type": "InjectedDivergence"}\n'

    findings: List[OracleFinding] = []
    if ast_run["trace"] != vm_run["trace"]:
        line_no, la, lb = _first_diff(ast_run["trace"], vm_run["trace"])
        findings.append(
            OracleFinding(
                oracle="engine",
                seed=seed,
                detail=f"trace-mismatch:{_diff_kind(la, lb)}",
                evidence=_clip(
                    f"first divergence at trace line {line_no}:\n"
                    f"  ast:      {la}\n  bytecode: {lb}"
                ),
            )
        )
    for key, detail in (
        ("outputs", "output-mismatch"),
        ("deadlocked", "deadlock-mismatch"),
        ("failure", "failure-mismatch"),
        ("notes", "notes-mismatch"),
    ):
        if ast_run[key] != vm_run[key]:
            findings.append(
                OracleFinding(
                    oracle="engine",
                    seed=seed,
                    detail=detail,
                    evidence=_clip(
                        f"ast: {ast_run[key]!r}\nbytecode: {vm_run[key]!r}"
                    ),
                )
            )
    return findings


def oracle_jobs(
    program: A.Program, seed: int, ctx: OracleContext
) -> List[OracleFinding]:
    """jobs=1 vs jobs=2 mini-campaign: byte-identical artifacts.

    Campaigns are the costliest pairing, so the runner samples this
    oracle every ``ctx.jobs_every`` programs; skipped programs are
    counted in the coverage report.
    """
    findings: List[OracleFinding] = []
    artifacts = []
    for jobs in (1, 2):
        config = CampaignConfig(
            seeds=(ctx.sim_seed, ctx.sim_seed + 1),
            plans={"none": None},
            nprocs=ctx.nprocs,
            num_threads=ctx.num_threads,
            budget_steps=ctx.max_steps,
            budget_seconds=ctx.max_wall_seconds or 0.0,
            retries=0,
            jobs=jobs,
            record_timing=False,
            thread_level_mode="permissive",
        )
        result = run_campaign(program, config)
        artifacts.append(result.as_dict())
    if artifacts[0] != artifacts[1]:
        import json

        a = json.dumps(artifacts[0], indent=1, sort_keys=True, default=str)
        b = json.dumps(artifacts[1], indent=1, sort_keys=True, default=str)
        _, la, lb = _first_diff(a, b)
        findings.append(
            OracleFinding(
                oracle="jobs",
                seed=seed,
                detail="campaign-artifact-mismatch",
                evidence=_clip(f"jobs=1: {la}\njobs=2: {lb}"),
            )
        )
    return findings


def _race_set(result, monitored) -> set:
    """Canonical dynamic race findings restricted to *monitored* vars."""
    from ..analysis.dynamic_.memraces import find_memory_races

    races = set()
    for proc in result.log.processes():
        for race in find_memory_races(result.log, proc):
            if race.var in monitored:
                races.add(
                    (
                        race.var,
                        proc,
                        tuple(sorted((race.thread_a, race.thread_b))),
                        tuple(sorted((race.callsite_a, race.callsite_b))),
                    )
                )
    return races


def oracle_narrowing(
    program: A.Program, seed: int, ctx: OracleContext
) -> List[OracleFinding]:
    """HOME narrowed monitoring vs monitor-everything: same race set.

    Race-directed narrowing monitors only the access sites the static
    race pass could not clear; an ITC-style run monitors every shared
    access.  Memory
    monitoring adds trace events without scheduler yields, so both runs
    see the same schedule — restricted to the monitored variables, the
    dynamic race sets must be identical.
    """
    tool = Home()
    to_run, static = tool.prepare(program)
    monitored = (
        set(static.races.monitored_vars)
        if static is not None and static.races is not None
        else set()
    )
    if not monitored:
        # Narrowed run would not monitor at all; nothing to compare.
        return []

    runs = []
    for overrides in (
        {},  # narrowed (pipeline default)
        {"monitor_memory": True, "memory_sites": None},  # everything
    ):
        config = tool.run_config(
            ctx.nprocs,
            ctx.num_threads,
            ctx.sim_seed,
            static=static,
            max_steps=ctx.max_steps,
            max_wall_seconds=ctx.max_wall_seconds,
            capture_partial=True,
            thread_level_mode="permissive",
            **overrides,
        )
        runs.append(run_program(to_run, config))

    findings: List[OracleFinding] = []
    narrowed, everything = runs
    if narrowed.deadlocked != everything.deadlocked or (
        narrowed.failure is None
    ) != (everything.failure is None):
        findings.append(
            OracleFinding(
                oracle="narrowing",
                seed=seed,
                detail="outcome-mismatch",
                evidence=_clip(
                    f"narrowed: deadlocked={narrowed.deadlocked} "
                    f"failure={narrowed.failure!r}\n"
                    f"everything: deadlocked={everything.deadlocked} "
                    f"failure={everything.failure!r}"
                ),
            )
        )
        return findings
    races_narrowed = _race_set(narrowed, monitored)
    races_everything = _race_set(everything, monitored)
    if races_narrowed != races_everything:
        findings.append(
            OracleFinding(
                oracle="narrowing",
                seed=seed,
                detail="race-set-mismatch",
                evidence=_clip(
                    f"narrowed only: {sorted(races_narrowed - races_everything)}\n"
                    f"everything only: {sorted(races_everything - races_narrowed)}"
                ),
            )
        )
    return findings


def oracle_coherence(
    program: A.Program, seed: int, ctx: OracleContext
) -> List[OracleFinding]:
    """Static candidates vs dynamic confirmation inside one HOME report."""
    report = Home().check(
        program,
        nprocs=ctx.nprocs,
        num_threads=ctx.num_threads,
        seed=ctx.sim_seed,
        max_steps=ctx.max_steps,
        max_wall_seconds=ctx.max_wall_seconds,
        capture_partial=True,
        thread_level_mode="permissive",
    )
    findings: List[OracleFinding] = []
    if report.violations.violations:
        ctx.detections["programs-with-findings"] = (
            ctx.detections.get("programs-with-findings", 0) + 1
        )
    for vclass in report.violations.classes():
        ctx.detections[vclass] = ctx.detections.get(vclass, 0) + 1

    def flag(detail: str, evidence: str) -> None:
        findings.append(
            OracleFinding(
                oracle="coherence", seed=seed, detail=detail, evidence=_clip(evidence)
            )
        )

    triage = report.extras.get("race_triage")
    monitored = report.extras.get("monitored_vars")
    if triage is not None and monitored is not None:
        binned = [
            entry["var"]
            for bin_ in ("confirmed", "refuted", "missed_by_dynamic")
            for entry in triage[bin_]
        ]
        if sorted(binned) != sorted(monitored) or len(binned) != len(set(binned)):
            flag(
                "triage-partition",
                f"monitored={sorted(monitored)} binned={sorted(binned)}",
            )
        for entry in triage["confirmed"]:
            if entry.get("candidates", 0) < 1:
                flag(
                    "confirmed-without-candidate",
                    f"confirmed var {entry['var']!r} has no static candidate",
                )
        confirmed = bool(triage["confirmed"])
        dataraces = [v for v in report.violations if v.vclass == "DataRace"]
        if bool(dataraces) != confirmed:
            flag(
                "datarace-triage-incoherence",
                f"DataRace findings={len(dataraces)} but triage "
                f"confirmed={len(triage['confirmed'])}",
            )

    div_triage = report.extras.get("divergence_triage")
    div_candidates = report.extras.get("divergence_candidates", 0)
    if div_triage is not None:
        n_binned = len(div_triage["confirmed"]) + len(div_triage["refuted"])
        if n_binned != div_candidates:
            flag(
                "divergence-triage-incoherence",
                f"{div_candidates} candidates but {n_binned} triaged",
            )
        for entry in div_triage["confirmed"]:
            if not entry.get("violation_classes"):
                flag(
                    "divergence-triage-incoherence",
                    f"confirmed candidate without violations: {entry}",
                )
    collective_classes = {
        "BarrierDivergenceViolation",
        "CollectiveOrderMismatchViolation",
    }
    dynamic_div = [
        v for v in report.violations if v.vclass in collective_classes
    ]
    if dynamic_div and not div_candidates:
        flag(
            "divergence-without-candidate",
            f"{len(dynamic_div)} collective findings but 0 static candidates",
        )
    return findings


#: Oracle registry, in execution order.  The key is both the CLI name
#: (``--oracles engine,jobs``) and the signature prefix in triage.
ORACLES: Dict[str, Callable[[A.Program, int, OracleContext], List[OracleFinding]]] = {
    "engine": oracle_engine,
    "jobs": oracle_jobs,
    "narrowing": oracle_narrowing,
    "coherence": oracle_coherence,
}


def run_oracles(
    program: A.Program,
    seed: int,
    ctx: OracleContext,
    oracles: Optional[Tuple[str, ...]] = None,
) -> List[OracleFinding]:
    """Run the selected *oracles* over one generated program.

    Exceptions propagate: the fuzz runner owns crash triage and needs
    the original traceback for the signature.  Coverage counters on
    *ctx* record which oracles actually ran (the jobs oracle samples).
    """
    names = tuple(oracles) if oracles is not None else tuple(ORACLES)
    unknown = [n for n in names if n not in ORACLES]
    if unknown:
        raise ValueError(f"unknown oracle(s): {', '.join(unknown)}")
    findings: List[OracleFinding] = []
    for name in names:
        if name == "jobs" and ctx.jobs_every > 1 and seed % ctx.jobs_every:
            ctx.count(name, ran=False)
            continue
        ctx.count(name, ran=True)
        findings.extend(ORACLES[name](program, seed, ctx))
    return findings
