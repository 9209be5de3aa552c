"""Instrumentation pass: rewrite MPI calls into HOME's HMPI wrappers.

Mirrors Algorithm 1 of the paper: walk the program, and for every MPI
call that executes in hybrid (OpenMP parallel) context, replace it with
the instrumented wrapper (``mpi_recv`` → ``hmpi_recv``).  Calls outside
parallel regions are *filtered out* — this selective monitoring is
HOME's overhead-reduction mechanism.  A ``mpi_monitor_setup(...)``
marker call is inserted at the top of ``main`` (the paper's
``MPI_MonitorVariableSetup`` in the global region).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, List, Literal, Tuple

from ...minilang import ast_nodes as A
from ...minilang.builder import callstmt, clone
from .mpi_sites import MPISite

InstrumentPolicy = Literal["hybrid-only", "all", "none"]


@dataclass
class InstrumentationResult:
    """Outcome of the instrumentation pass."""

    program: A.Program
    #: sites actually rewritten, keyed by (rewritten) CallExpr node id
    instrumented: Dict[int, MPISite] = field(default_factory=dict)
    #: sites found but filtered out (error-free region optimization)
    filtered: List[MPISite] = field(default_factory=list)
    policy: InstrumentPolicy = "hybrid-only"
    #: variables the static race pass selected for memory monitoring
    #: (race-directed narrowing; empty = no memory monitoring needed)
    monitored_vars: FrozenSet[str] = frozenset()

    @property
    def n_instrumented(self) -> int:
        return len(self.instrumented)

    @property
    def n_filtered(self) -> int:
        return len(self.filtered)

    @property
    def reduction_ratio(self) -> float:
        """Fraction of MPI sites the static filter excluded from monitoring."""
        total = self.n_instrumented + self.n_filtered
        return (self.n_filtered / total) if total else 0.0


def instrument_program(
    program: A.Program,
    sites: Iterable[MPISite],
    policy: InstrumentPolicy = "hybrid-only",
    monitor_vars: Iterable[str] = (),
) -> InstrumentationResult:
    """Produce an instrumented clone of *program*.

    *sites* are the MPI sites the static phase collected on *program*
    (:func:`.mpi_sites.collect_sites`); the clone keeps *program*'s node
    ids, so they address its calls directly.  ``policy`` selects which
    of them get wrappers:

    * ``hybrid-only`` — sites in (interprocedurally reachable) parallel
      context, the paper's behaviour;
    * ``all`` — every MPI site (the no-static-filter ablation);
    * ``none`` — nothing (base run through the same pipeline).

    ``monitor_vars`` lists the shared variables the static race pass
    wants the runtime to watch; they are recorded on the result and
    appended as ``mem:<var>`` markers to the monitor-setup call.

    The finished clone is renumbered, and the result holds copies of
    the sites carrying the clone's ids; *sites* themselves are left
    untouched.
    """
    new_program = clone(program)
    assert isinstance(new_program, A.Program)
    by_nid: Dict[int, MPISite] = {s.nid: s for s in sites}

    # Walk every CallExpr; rename those whose site is selected.
    selected: List[Tuple[A.CallExpr, MPISite]] = []
    filtered: List[Tuple[A.CallExpr, MPISite]] = []
    for node in new_program.walk():
        if not isinstance(node, A.CallExpr):
            continue
        site = by_nid.get(node.nid)
        if site is None or not site.instrumentable:
            continue
        if policy == "all" or (policy == "hybrid-only" and site.in_parallel):
            if not node.name.startswith("hmpi_"):
                node.name = "h" + node.name
            selected.append((node, site))
        else:
            filtered.append((node, site))

    monitored = frozenset(monitor_vars)
    if selected or monitored:
        _insert_monitor_setup(new_program, monitored)

    A.renumber_nids(new_program)
    return InstrumentationResult(
        new_program,
        instrumented={node.nid: replace(site, nid=node.nid) for node, site in selected},
        filtered=[replace(site, nid=node.nid) for node, site in filtered],
        policy=policy,
        monitored_vars=monitored,
    )


def _insert_monitor_setup(
    program: A.Program, monitor_vars: FrozenSet[str] = frozenset()
) -> None:
    """Insert the monitored-variable setup marker at the top of main()."""
    try:
        main = program.function("main")
    except KeyError:
        return
    already = (
        main.body.stmts
        and isinstance(main.body.stmts[0], A.ExprStmt)
        and isinstance(main.body.stmts[0].expr, A.CallExpr)
        and main.body.stmts[0].expr.name == "mpi_monitor_setup"
    )
    if not already:
        setup = callstmt(
            "mpi_monitor_setup",
            A.StrLit("srctmp"), A.StrLit("tagtmp"), A.StrLit("commtmp"),
            A.StrLit("requesttmp"), A.StrLit("collectivetmp"), A.StrLit("finalizetmp"),
            *(A.StrLit(f"mem:{name}") for name in sorted(monitor_vars)),
        )
        main.body.stmts.insert(0, setup)
