"""Fix suggestions and an automatic repair transformation.

For every violation class this module produces the remediation the MPI
standard (and the paper's discussion) prescribes — e.g. "use thread ID
as tag" for concurrent receives, funnel through the main thread for
initialization-level problems.

It also implements one *sound automatic repair*: wrapping the racing
MPI statements of a finding in a shared ``omp critical`` section.  That
is the MPI_THREAD_SERIALIZED discipline — it removes the thread-level
concurrency (the violation, by definition) without reordering the
process-level communication, and the result can be re-verified by
running HOME again (see :func:`repair_and_verify`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ToolError
from ..minilang import Program, ast_nodes as A
from ..minilang.builder import clone
from .spec import (
    COLLECTIVE,
    CONCURRENT_RECV,
    CONCURRENT_REQUEST,
    FINALIZATION,
    INITIALIZATION,
    PROBE,
    Violation,
)

#: Name of the serializing critical section the repair inserts.
REPAIR_LOCK = "home_repair"


@dataclass(frozen=True)
class FixSuggestion:
    """A human-actionable remediation for one violation class."""

    vclass: str
    title: str
    detail: str
    auto_fixable: bool

    def __str__(self) -> str:
        auto = " [auto-fixable]" if self.auto_fixable else ""
        return f"{self.vclass}: {self.title}{auto}\n  {self.detail}"


_SUGGESTIONS: Dict[str, FixSuggestion] = {
    INITIALIZATION: FixSuggestion(
        INITIALIZATION,
        "request a sufficient thread level, or funnel MPI through one thread",
        "Initialize with mpi_init_thread(MPI_THREAD_MULTIPLE) if threads must "
        "call MPI concurrently; otherwise guard every MPI call with "
        "omp master (FUNNELED) or mutual exclusion (SERIALIZED).",
        auto_fixable=False,
    ),
    FINALIZATION: FixSuggestion(
        FINALIZATION,
        "finalize once, from the main thread, after all communication",
        "Move mpi_finalize outside every omp parallel region (or guard it "
        "with omp master preceded by omp barrier) and complete or cancel "
        "all pending requests first.",
        auto_fixable=False,
    ),
    CONCURRENT_RECV: FixSuggestion(
        CONCURRENT_RECV,
        "disambiguate per-thread traffic with distinct tags or communicators",
        "The rank of a receive addresses a process, not a thread: give each "
        "thread its own tag (e.g. tag + omp_get_thread_num(), mirrored on "
        "the send side) or a duplicated communicator (mpi_comm_dup per "
        "thread). Serializing the receives (omp critical) also removes the "
        "race at the cost of concurrency.",
        auto_fixable=True,
    ),
    CONCURRENT_REQUEST: FixSuggestion(
        CONCURRENT_REQUEST,
        "give each request exactly one completing thread",
        "Let the thread that posted a nonblocking operation be the one that "
        "waits/tests it, or serialize completion (omp critical / omp single).",
        auto_fixable=True,
    ),
    PROBE: FixSuggestion(
        PROBE,
        "make probe+receive atomic per thread, or split the traffic",
        "A message observed by mpi_probe can be stolen by another thread's "
        "receive: perform the probe and the matching receive under one "
        "critical section, or separate threads by tag/communicator.",
        auto_fixable=True,
    ),
    COLLECTIVE: FixSuggestion(
        COLLECTIVE,
        "issue collectives from one thread per process, in one order",
        "Guard collective calls with omp master or omp single so every "
        "process contributes exactly once per collective, in the same order; "
        "concurrent collectives on one communicator have undefined pairing.",
        auto_fixable=True,
    ),
    "DataRace": FixSuggestion(
        "DataRace",
        "synchronize the conflicting accesses",
        "Protect the shared variable with omp critical/omp atomic, or "
        "privatize it per thread and reduce at the end.",
        auto_fixable=False,
    ),
}


def suggest_fix(violation: Violation) -> FixSuggestion:
    """The remediation recipe for *violation*'s class."""
    suggestion = _SUGGESTIONS.get(violation.vclass)
    if suggestion is None:
        raise ToolError(f"no fix recipe for violation class {violation.vclass!r}")
    return suggestion


def suggest_fixes(violations) -> List[FixSuggestion]:
    """Deduplicated suggestions for a whole report."""
    seen: Set[str] = set()
    out: List[FixSuggestion] = []
    for violation in violations:
        if violation.vclass not in seen and violation.vclass in _SUGGESTIONS:
            seen.add(violation.vclass)
            out.append(_SUGGESTIONS[violation.vclass])
    return out


# ---------------------------------------------------------------------------
# Automatic repair
# ---------------------------------------------------------------------------

_REPAIRABLE = {CONCURRENT_RECV, CONCURRENT_REQUEST, PROBE, COLLECTIVE}


def _loc_key(loc: str) -> Optional[Tuple[int, int]]:
    try:
        line, col = loc.split(":")
        return (int(line), int(col))
    except (ValueError, AttributeError):
        return None


def _collect_target_locs(violations) -> Set[Tuple[int, int]]:
    locs: Set[Tuple[int, int]] = set()
    for violation in violations:
        if violation.vclass in _REPAIRABLE:
            for loc in violation.locs:
                key = _loc_key(loc)
                if key is not None:
                    locs.add(key)
    return locs


def _wrap_targets(fn: A.FuncDef, targets: Set[Tuple[int, int]]) -> int:
    """Wrap statements whose MPI call sits at a target location.

    Every block is visited once; the fresh block created inside each
    inserted ``omp critical`` is not in the snapshot, so a statement can
    never be double-wrapped.
    """
    wrapped = 0
    blocks = [node for node in fn.walk() if isinstance(node, A.Block)]
    for block in blocks:
        for i, stmt in enumerate(block.stmts):
            if not (isinstance(stmt, A.ExprStmt) and isinstance(stmt.expr, A.CallExpr)):
                continue
            key = (stmt.expr.loc.line, stmt.expr.loc.col)
            if key in targets:
                block.stmts[i] = A.OmpCritical(
                    A.Block([stmt]), name=REPAIR_LOCK, loc=stmt.loc
                )
                wrapped += 1
    return wrapped


@dataclass
class RepairResult:
    """Outcome of :func:`apply_serializing_fix`."""

    program: Program
    wrapped_statements: int = 0
    targeted_classes: List[str] = field(default_factory=list)


def apply_serializing_fix(program: Program, violations) -> RepairResult:
    """Wrap every repairable finding's MPI statements in one shared
    ``omp critical (home_repair)`` section of a cloned program.

    Only classes whose hazard *is* the thread-level concurrency are
    repairable this way (recv/request/probe/collective); initialization
    and finalization problems need structural changes a tool should not
    guess.
    """
    targets = _collect_target_locs(violations)
    new_program = clone(program)
    assert isinstance(new_program, Program)
    wrapped = 0
    for fn in new_program.functions:
        wrapped += _wrap_targets(fn, targets)
    A.renumber_nids(new_program)
    classes = sorted({
        v.vclass for v in violations if v.vclass in _REPAIRABLE
    })
    return RepairResult(new_program, wrapped, classes)


def repair_and_verify(program: Program, nprocs: int = 2, num_threads: int = 2,
                      seed: int = 0):
    """Check → repair → re-check.

    Returns (original report, repair result, post-repair report).  The
    caller decides what "fixed" means; the common assertion is that the
    repairable classes vanish from the second report.
    """
    from ..home import check_program  # local import: avoid cycle

    before = check_program(program, nprocs=nprocs, num_threads=num_threads,
                           seed=seed)
    repair = apply_serializing_fix(program, before.violations)
    after = check_program(repair.program, nprocs=nprocs,
                          num_threads=num_threads, seed=seed)
    return before, repair, after
