"""Static thread-level checking.

Infers the thread-support level a program requests at initialization
and cross-checks it against the MPI sites found in hybrid context.
This is the compile-time half of the Initialization-Violation rule: a
program that requests ``MPI_THREAD_SINGLE`` (or calls plain
``MPI_Init``) yet performs MPI calls inside ``omp parallel`` regions is
statically unsafe — no execution is needed to know it.

The check is interprocedural for free: :func:`~.mpi_sites.collect_sites`
marks sites in functions reachable from parallel regions as hybrid and
merges the master/critical guards holding on *every* parallel path into
their function (the call-graph guard meet), so an MPI call reached only
via a helper is checked for funneled/serialized compliance exactly like
a lexical one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ...minilang import ast_nodes as A
from ...mpi.constants import (
    MPI_THREAD_FUNNELED,
    MPI_THREAD_MULTIPLE,
    MPI_THREAD_SERIALIZED,
    MPI_THREAD_SINGLE,
    THREAD_LEVEL_NAMES,
)
from .mpi_sites import MPISite, fold_static_value


@dataclass
class StaticWarning:
    """A compile-time diagnosis of an unsafe hybrid programming style."""

    kind: str       # e.g. 'initialization', 'funneled-non-master'
    message: str
    loc: str = ""
    sites: List[MPISite] = field(default_factory=list)

    def __str__(self) -> str:
        where = f" at {self.loc}" if self.loc else ""
        return f"[static:{self.kind}]{where} {self.message}"


@dataclass
class ThreadLevelInfo:
    """Statically inferred initialization facts."""

    declared_level: Optional[int]  # None when not statically known
    init_loc: str = ""
    uses_init_thread: bool = False

    @property
    def level_name(self) -> str:
        if self.declared_level is None:
            return "<dynamic>"
        return THREAD_LEVEL_NAMES.get(self.declared_level, str(self.declared_level))


def infer_thread_level(program: A.Program) -> ThreadLevelInfo:
    """Find the program's MPI initialization call and its requested level."""
    for node in program.table.nodes[1:]:
        if not isinstance(node, A.CallExpr):
            continue
        name = node.name.removeprefix("h")
        if name == "mpi_init":
            return ThreadLevelInfo(
                MPI_THREAD_SINGLE, f"{node.loc.line}:{node.loc.col}", False
            )
        if name == "mpi_init_thread":
            level = fold_static_value(node.args[0]) if node.args else None
            return ThreadLevelInfo(
                level if isinstance(level, int) else None,
                f"{node.loc.line}:{node.loc.col}",
                True,
            )
    return ThreadLevelInfo(None)


def check_thread_level(
    program: A.Program, sites: List[MPISite]
) -> List[StaticWarning]:
    """Static initialization-rule warnings."""
    info = infer_thread_level(program)
    warnings: List[StaticWarning] = []
    hybrid_sites = [s for s in sites if s.in_parallel and s.instrumentable]
    if not hybrid_sites:
        return warnings

    if info.declared_level is None and not info.uses_init_thread:
        warnings.append(
            StaticWarning(
                "initialization",
                "program performs MPI calls in omp parallel regions but was "
                "never found to initialize MPI",
                sites=hybrid_sites,
            )
        )
        return warnings

    level = info.declared_level
    if level == MPI_THREAD_SINGLE:
        warnings.append(
            StaticWarning(
                "initialization",
                f"{info.level_name} granted but {len(hybrid_sites)} MPI call(s) "
                "occur inside omp parallel regions — only the main thread may "
                "call MPI",
                loc=info.init_loc,
                sites=hybrid_sites,
            )
        )
    elif level == MPI_THREAD_FUNNELED:
        unguarded = [s for s in hybrid_sites if not s.in_master]
        if unguarded:
            warnings.append(
                StaticWarning(
                    "funneled-non-master",
                    f"{info.level_name} granted but {len(unguarded)} hybrid MPI "
                    "call(s) are not guarded by omp master/single",
                    loc=info.init_loc,
                    sites=unguarded,
                )
            )
    elif level == MPI_THREAD_SERIALIZED:
        unguarded = [
            s for s in hybrid_sites if not s.criticals and not s.in_master
        ]
        if len(unguarded) >= 2:
            warnings.append(
                StaticWarning(
                    "serialized-concurrency",
                    f"{info.level_name} granted but {len(unguarded)} hybrid MPI "
                    "call sites carry no mutual exclusion — concurrent MPI "
                    "calls are possible; runtime checking required",
                    loc=info.init_loc,
                    sites=unguarded,
                )
            )
    elif level is None:
        warnings.append(
            StaticWarning(
                "dynamic-thread-level",
                "requested thread level is not statically known; runtime "
                "checking required",
                loc=info.init_loc,
                sites=hybrid_sites,
            )
        )
    # MPI_THREAD_MULTIPLE: statically fine; dynamic rules still apply.
    return warnings
