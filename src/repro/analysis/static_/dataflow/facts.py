"""Aggregated dataflow facts for the candidate-pruning pass.

:func:`compute_dataflow` runs the three client analyses over every
function CFG and condenses the results into per-MPI-site facts keyed by
the site's CallExpr nid:

* a :class:`SymEnvelope` — abstract (source, tag, comm) values;
* the must-held lock set at the call;
* the :class:`~.mhp.MHPInfo` OpenMP execution context.

:class:`DataflowFacts` then answers the three pruning questions the
candidate pass asks about a pair of sites, counting each kind of prune
for the report/CLI/benchmark surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Set

from ....minilang import ast_nodes as A
from ....mpi.constants import MPI_ANY_SOURCE, MPI_ANY_TAG
from ... import cfg as C
from ..mpi_sites import MPISite, functions_called_from_parallel
from .engine import solve
from .intervals import (
    EnvelopeAnalysis,
    assigned_decls,
    eval_expr,
    program_globals_env,
)
from .lockstate import LockStateAnalysis
from .mhp import MHPInfo, MHPSolution, may_happen_in_parallel
from .values import SymInterval, provably_disjoint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..callgraph import ParallelContext
    from ..summaries import SummaryTable

#: prune categories surfaced in reports / extras
PRUNE_ENVELOPE = "envelope"
PRUNE_LOCKSTATE = "lockstate"
PRUNE_MHP = "mhp"


@dataclass(frozen=True)
class SymEnvelope:
    """Abstract (source, tag, comm); ``None`` components are unknown."""

    src: Optional[SymInterval] = None
    tag: Optional[SymInterval] = None
    comm: Optional[SymInterval] = None

    def may_overlap(self, other: "SymEnvelope") -> bool:
        if provably_disjoint(self.comm, other.comm):
            return False
        if provably_disjoint(self.src, other.src, MPI_ANY_SOURCE):
            return False
        if provably_disjoint(self.tag, other.tag, MPI_ANY_TAG):
            return False
        return True

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        def fmt(v: Optional[SymInterval]) -> str:
            return "?" if v is None else str(v)

        return f"(src={fmt(self.src)}, tag={fmt(self.tag)}, comm={fmt(self.comm)})"


@dataclass
class DataflowFacts:
    """Everything the worklist analyses proved, keyed by site nid."""

    envelopes: Dict[int, SymEnvelope] = field(default_factory=dict)
    locks_held: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    mhp: Dict[int, MHPInfo] = field(default_factory=dict)
    #: functions whose parallel regions may overlap other code
    unsafe_funcs: Set[str] = field(default_factory=set)
    #: call-graph-resolved parallel contexts for regionless functions
    #: (``None`` without the interprocedural summary layer)
    contexts: Optional[Dict[str, "ParallelContext"]] = None
    #: total worklist iterations across all solved analyses
    iterations: int = 0
    #: candidate pairs removed per prune category (filled by the
    #: candidate pass)
    pruned: Dict[str, int] = field(
        default_factory=lambda: {PRUNE_ENVELOPE: 0, PRUNE_LOCKSTATE: 0, PRUNE_MHP: 0}
    )

    # -- pruning queries ----------------------------------------------------

    def envelope(self, site: MPISite) -> Optional[SymEnvelope]:
        return self.envelopes.get(site.nid)

    def envelopes_disjoint(self, a: MPISite, b: MPISite) -> bool:
        env_a, env_b = self.envelopes.get(a.nid), self.envelopes.get(b.nid)
        if env_a is None or env_b is None:
            return False
        return not env_a.may_overlap(env_b)

    def serialized_by_locks(self, a: MPISite, b: MPISite) -> bool:
        held_a = self.locks_held.get(a.nid)
        held_b = self.locks_held.get(b.nid)
        if not held_a or not held_b:
            return False
        return bool(held_a & held_b)

    def may_happen_in_parallel(self, a: MPISite, b: MPISite) -> bool:
        return may_happen_in_parallel(
            self.mhp.get(a.nid),
            self.mhp.get(b.nid),
            self.unsafe_funcs,
            contexts=self.contexts,
        )

    def count_prune(self, kind: str) -> None:
        self.pruned[kind] = self.pruned.get(kind, 0) + 1

    @property
    def total_pruned(self) -> int:
        return sum(self.pruned.values())


def compute_dataflow(
    program: A.Program,
    cfgs: Dict[str, C.CFG],
    sites: Sequence[MPISite],
    summaries: Optional["SummaryTable"] = None,
    mhp: Optional[MHPSolution] = None,
    unsafe_funcs: Optional[AbstractSet[str]] = None,
) -> DataflowFacts:
    """Solve all three analyses and project the results onto *sites*.

    *summaries* (a :class:`..summaries.SummaryTable`) sharpens two of
    them: its call graph resolves parallel contexts for regionless MPI
    sites (replacing "context unknown" MHP answers), and its
    lock-transparent function set lets held user locks survive calls.
    Each MHP-consuming pass resolves contexts against its *own* phase
    map — phase numbering differs between MHP modes, so the race pass
    cannot share this resolution.  *mhp* shares one
    :class:`~.mhp.MHPSolution` between the passes of one analysis.
    *unsafe_funcs* is the call graph's parallel-reached set when the
    caller has it (recomputed when omitted).
    """
    from ..candidates import _ENVELOPE_POSITIONS

    facts = DataflowFacts()
    facts.mhp = (mhp if mhp is not None else MHPSolution(program)).infos()
    facts.unsafe_funcs = (
        set(unsafe_funcs)
        if unsafe_funcs is not None
        else functions_called_from_parallel(program)
    )
    lock_transparent: FrozenSet[str] = frozenset()
    if summaries is not None:
        from ..callgraph import resolve_parallel_contexts

        facts.contexts = resolve_parallel_contexts(
            summaries.callgraph, facts.mhp
        )
        lock_transparent = summaries.lock_transparent

    globals_env = program_globals_env(program)
    user_funcs = frozenset(fn.name for fn in program.functions)
    table = program.table

    # Global scalars the program ever assigns: killed at user calls
    # (sequential callee effects); the subset assigned by concurrently
    # runnable functions is never trackable at all.
    global_scalars = {(d.nid, d.name) for d in program.globals if not d.is_array}
    assigned = {
        fn.name: assigned_decls(fn.body, table) & global_scalars
        for fn in program.functions
    }
    mutated_globals = frozenset(
        name for fn in program.functions for _, name in assigned[fn.name]
    )
    concurrent_globals = frozenset(
        name
        for fn in program.functions
        if fn.name in facts.unsafe_funcs
        for _, name in assigned[fn.name]
    )

    sites_by_func: Dict[str, List[MPISite]] = {}
    for site in sites:
        sites_by_func.setdefault(site.func, []).append(site)

    for fname, func_sites in sites_by_func.items():
        cfg = cfgs.get(fname)
        if cfg is None:
            continue
        # A function that can itself run on several threads at once races
        # with every global mutation, including its own.
        volatile = mutated_globals if fname in facts.unsafe_funcs else concurrent_globals
        # a parameter hides the global of its name
        params = program.function(fname).params
        env_result = solve(
            cfg,
            EnvelopeAnalysis(
                cfg,
                {k: v for k, v in globals_env.items() if k not in params},
                volatile=volatile,
                call_kill=mutated_globals,
                user_functions=user_funcs,
            ),
        )
        lock_result = solve(
            cfg,
            LockStateAnalysis(
                user_funcs, lock_transparent=lock_transparent, table=cfg.table
            ),
        )
        facts.iterations += env_result.iterations + lock_result.iterations
        node_of_call = C.innermost_node_map(cfg)

        for site in func_sites:
            node = node_of_call.get(site.nid)
            call = table.node(site.nid)
            if node is None or not isinstance(call, A.CallExpr):
                continue
            env = env_result.fact_before(node)
            if env is not None:
                positions = _ENVELOPE_POSITIONS.get(site.op)
                if positions is not None:
                    src_i, tag_i, comm_i = positions

                    def arg_value(i: int) -> Optional[SymInterval]:
                        if i >= len(call.args):
                            return None
                        value = eval_expr(call.args[i], env)
                        return None if value.is_top else value

                    facts.envelopes[site.nid] = SymEnvelope(
                        src=arg_value(src_i),
                        tag=arg_value(tag_i),
                        comm=arg_value(comm_i),
                    )
            held = lock_result.fact_before(node)
            if held:
                facts.locks_held[site.nid] = frozenset(held)
    return facts
