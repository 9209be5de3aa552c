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
    (:func:`.mpi_sites.collect_sites`); their ids address its calls
    through the program's node table.  ``policy`` selects which of them
    get wrappers:

    * ``hybrid-only`` — sites in (interprocedurally reachable) parallel
      context, the paper's behaviour;
    * ``all`` — every MPI site (the no-static-filter ablation);
    * ``none`` — nothing (base run through the same pipeline).

    ``monitor_vars`` lists the shared variables the static race pass
    wants the runtime to watch; they are recorded on the result and
    appended as ``mem:<var>`` markers to the monitor-setup call.

    The clone is a structural copy with the setup call inserted; it is
    renumbered once, and the result holds copies of the sites carrying
    the clone's ids; *sites* themselves are left untouched.
    """
    # Decide on the source: its table maps each site's nid to its call.
    table = program.table
    by_nid: Dict[int, MPISite] = {s.nid: s for s in sites}
    selected: List[MPISite] = []
    filtered: List[MPISite] = []
    for nid in sorted(by_nid):
        site = by_nid[nid]
        if not isinstance(table.node(nid), A.CallExpr) or not site.instrumentable:
            continue
        if policy == "all" or (policy == "hybrid-only" and site.in_parallel):
            selected.append(site)
        else:
            filtered.append(site)

    new_program = clone(program)
    assert isinstance(new_program, A.Program)
    monitored = frozenset(monitor_vars)
    # The setup call goes in first in main's body, so every node after
    # that block's own id moves up by the call's size.
    after, shift = 0, 0
    if selected or monitored:
        after, shift = _insert_monitor_setup(new_program, monitored)
    A.renumber_nids(new_program)

    def moved(site: MPISite) -> MPISite:
        return replace(site, nid=site.nid + shift if site.nid > after else site.nid)

    instrumented: Dict[int, MPISite] = {}
    for site in map(moved, selected):
        call = new_program.table.nodes[site.nid]
        assert isinstance(call, A.CallExpr)
        if not call.name.startswith("hmpi_"):
            call.name = "h" + call.name
        instrumented[site.nid] = site
    return InstrumentationResult(
        new_program,
        instrumented=instrumented,
        filtered=[moved(site) for site in filtered],
        policy=policy,
        monitored_vars=monitored,
    )


def _insert_monitor_setup(
    program: A.Program, monitor_vars: FrozenSet[str] = frozenset()
) -> Tuple[int, int]:
    """Insert the monitored-variable setup marker at the top of main().

    Returns ``(nid, size)``: the id of main's body block, after which
    the inserted statement of ``size`` nodes sits, or ``(0, 0)`` when
    nothing was inserted.
    """
    try:
        main = program.function("main")
    except KeyError:
        return 0, 0
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
        return main.body.nid, 2 + len(setup.expr.args)
    return 0, 0
