"""Context-recording call graph of a mini-language program.

Every static pass that looks across function boundaries needs the same
three facts about a call: *who* calls *whom*, *where* (which OpenMP
context brackets the call expression), and *how* (the argument
expressions, for summary instantiation).  This module computes them
once:

* :class:`CallSite` — one user-function call expression with its full
  lexical OpenMP context (innermost parallel region, worksharing loop,
  master/single nesting, critical/atomic guards) and the argument
  expressions;
* :class:`CallGraph` — the program's call multigraph with recursion
  detection (nontrivial SCCs and self-loops), a bottom-up function
  order for summary composition, spawn-reachability, and the
  parallel-guard meet used to check funneled/serialized compliance of
  MPI calls reached only via helpers;
* :func:`resolve_parallel_contexts` — for functions whose *entire*
  parallel execution funnels through one transparent call site, the
  MHP context of that site, so the MHP analysis can replace its
  "context unknown" answer with the caller's context.

The graph treats ``thread_spawn("f")`` as a call edge flagged
``spawned``: the target runs concurrently with everything after the
spawn, so nothing about it (or its callees) may be context-resolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ...minilang import ast_nodes as A
from ...minilang.nodetable import NodeTable
from ..graphs import callees_first, reachable, strongly_connected_components
from .dataflow.lockstate import guard_tokens
from .dataflow.mhp import MHPInfo


@dataclass(frozen=True)
class CallSite:
    """One call of a user-defined function, with lexical OpenMP context."""

    caller: str
    callee: str
    nid: int                        # CallExpr node id
    loc: str                        # "line:col"
    args: Tuple[A.Expr, ...]
    #: innermost lexical ``omp parallel`` nid (None: sequential context)
    region: Optional[int]
    parallel_depth: int
    in_master: bool                 # inside omp master *or* omp single
    #: inside ``omp master`` proper (always the same thread, so the
    #: chain is serialized even when encounters repeat in a loop)
    master_only: bool
    criticals: Tuple[str, ...]      # enclosing critical-section names
    guards: FrozenSet[str]          # critical/atomic guard tokens
    #: enclosing ``omp for`` nid, its index variable and encounter
    #: serialization (same convention as :class:`..races.AccessSite`)
    omp_for: Optional[int] = None
    loop_var: Optional[str] = None
    omp_for_serial: bool = True
    #: (omp single nid, encounters-serial) of the innermost single
    single: Optional[Tuple[int, bool]] = None
    #: the call is a ``thread_spawn`` of the callee
    spawned: bool = False

    @property
    def serialized(self) -> bool:
        """The whole call runs on one thread per encounter, and the
        encounters themselves are ordered.

        ``omp master`` always qualifies (one fixed thread).  ``omp
        single`` qualifies only when its encounters are serialized — a
        ``nowait`` single inside a loop may have different threads in
        different encounters concurrently, so it does *not*.
        """
        return self.master_only or (self.single is not None and self.single[1])


@dataclass(frozen=True)
class ParallelContext:
    """Resolved execution context of a context-transparent function."""

    info: MHPInfo       # MHP context of the unique parallel call site
    serialized: bool    # call chain passes through master/serial-single
    nid: int            # call-site nid the context was taken from


@dataclass(frozen=True)
class GuardContext:
    """Meet of master/critical guards over every parallel call path."""

    in_master: bool
    criticals: FrozenSet[str]

    def meet(self, other: "GuardContext") -> "GuardContext":
        return GuardContext(
            self.in_master and other.in_master,
            self.criticals & other.criticals,
        )


#: bottom element of the guard meet-lattice (an unguarded path exists);
#: the top element ("no path seen yet") is represented as ``None``
GUARD_BOTTOM = GuardContext(False, frozenset())


def _call_sites(
    func: A.FuncDef, table: NodeTable, user_funcs: FrozenSet[str]
) -> List[CallSite]:
    """Every user-function call of *func*, in context, read off the node
    table in post-order, clause expressions included."""
    sites: List[CallSite] = []
    ctxs = table.ctx
    for call in table.calls(func):
        ctx = ctxs[call.nid]
        if call.name in user_funcs:
            callee, spawned = call.name, False
        elif (
            call.name == "thread_spawn"
            and call.args
            and isinstance(call.args[0], A.StrLit)
            and call.args[0].value in user_funcs
        ):
            callee, spawned = call.args[0].value, True
        else:
            continue
        omp_for = ctx.omp_for
        single = table.innermost(call.nid, A.OmpSingle)
        regions = table.regions(call.nid)
        sites.append(
            CallSite(
                caller=func.name,
                callee=callee,
                nid=call.nid,
                loc=f"{call.loc.line}:{call.loc.col}",
                args=tuple(call.args),
                region=ctx.region or None,
                parallel_depth=len(regions),
                in_master=ctx.master != 0,
                master_only=table.innermost(call.nid, A.OmpMaster) != 0,
                criticals=tuple(name or "<anonymous>" for name in ctx.criticals),
                guards=guard_tokens(ctx),
                omp_for=omp_for or None,
                loop_var=table.loop_index(omp_for) if omp_for else None,
                omp_for_serial=table.encounters_serial(omp_for),
                single=(single, table.encounters_serial(single)) if single else None,
                spawned=spawned,
            )
        )
    return sites


#: OpenMP constructs that make a function body context-opaque for MHP
#: resolution: its execution is not a plain single-threaded inlining of
#: the call site (it forks, synchronizes, or distributes work).
_CONTEXT_OPAQUE = (
    A.OmpParallel, A.OmpBarrier, A.OmpFor, A.OmpSections, A.OmpSingle,
)


@dataclass
class CallGraph:
    """The program call graph plus everything derived from it."""

    sites: List[CallSite]
    user_funcs: FrozenSet[str]
    #: distinct callees / callers per function, in call-site order;
    #: every user function has an entry in both
    callees: Dict[str, List[str]]
    callers: Dict[str, List[str]]
    #: members of nontrivial SCCs or self-loops
    recursive: FrozenSet[str]
    #: functions reverse-topologically ordered (callees before callers;
    #: see :func:`..graphs.callees_first`), SCC members by name
    bottom_up: List[str]
    #: functions transitively reachable from a ``thread_spawn`` target
    spawn_reachable: FrozenSet[str]
    #: functions reachable (transitively) from inside a parallel region
    reached_from_parallel: FrozenSet[str]
    sites_by_callee: Dict[str, List[CallSite]] = field(default_factory=dict)
    sites_by_caller: Dict[str, List[CallSite]] = field(default_factory=dict)
    #: body-opacity per function (contains parallel/barrier/worksharing)
    context_opaque: FrozenSet[str] = frozenset()


def build_callgraph(program: A.Program) -> CallGraph:
    """Collect every user-call site and derive the graph facts."""
    names = list(dict.fromkeys(fn.name for fn in program.functions))
    user_funcs = frozenset(names)
    table = program.table
    sites: List[CallSite] = []
    for fn in program.functions:
        sites.extend(_call_sites(fn, table, user_funcs))

    callees: Dict[str, List[str]] = {name: [] for name in names}
    callers: Dict[str, List[str]] = {name: [] for name in names}
    by_callee: Dict[str, List[CallSite]] = {}
    by_caller: Dict[str, List[CallSite]] = {}
    for cs in sites:
        if cs.callee not in callees[cs.caller]:
            callees[cs.caller].append(cs.callee)
            callers[cs.callee].append(cs.caller)
        by_callee.setdefault(cs.callee, []).append(cs)
        by_caller.setdefault(cs.caller, []).append(cs)

    recursive: Set[str] = set()
    for scc in strongly_connected_components(callees, names):
        if len(scc) > 1:
            recursive.update(scc)
    recursive |= {cs.caller for cs in sites if cs.caller == cs.callee}

    spawn_reachable = reachable(callees, (cs.callee for cs in sites if cs.spawned))
    reached = reachable(
        callees, (cs.callee for cs in sites if cs.region is not None or cs.spawned)
    )

    opaque = frozenset(
        fn.name
        for fn in program.functions
        if any(
            isinstance(node, _CONTEXT_OPAQUE)
            or (isinstance(node, A.CallExpr) and node.name == "thread_spawn")
            for node in table.subtree(fn.body)
        )
    )

    return CallGraph(
        sites=sites,
        user_funcs=user_funcs,
        callees=callees,
        callers=callers,
        recursive=frozenset(recursive),
        bottom_up=[
            name for members in callees_first(callees, names) for name in sorted(members)
        ],
        spawn_reachable=frozenset(spawn_reachable),
        reached_from_parallel=frozenset(reached),
        sites_by_callee=by_callee,
        sites_by_caller=by_caller,
        context_opaque=opaque,
    )


def parallel_callers(cg: CallGraph) -> Dict[str, Set[str]]:
    """Each function reached from a parallel region -> its direct
    callers that are themselves reached so (what an interprocedural MPI
    site reports as its call chain); empty for a function called from a
    parallel region or spawned as a thread."""
    roots = {cs.callee for cs in cg.sites if cs.region is not None or cs.spawned}
    reached = cg.reached_from_parallel
    return {
        fname: set() if fname in roots else {c for c in cg.callers[fname] if c in reached}
        for fname in reached
    }


def parallel_guard_contexts(cg: CallGraph) -> Dict[str, GuardContext]:
    """Guards that hold on *every* path into each parallel-reached
    function: the meet, over all call sites executed in parallel
    context, of the master/critical guards bracketing the site (plus the
    guards inherited by the caller itself when the caller is only
    reached interprocedurally).

    An MPI site reached only via helpers inherits these guards, which is
    what lets the thread-level checker prove funneled/serialized
    compliance across calls — and what keeps it honest: one unguarded
    parallel path drives the meet to bottom.
    """
    ctx: Dict[str, Optional[GuardContext]] = {
        fname: None for fname in cg.reached_from_parallel
    }
    changed = True
    iterations = 0
    while changed and iterations < len(cg.user_funcs) + 2:
        changed = False
        iterations += 1
        for cs in cg.sites:
            if cs.callee not in ctx:
                continue
            if cs.spawned:
                contribution: Optional[GuardContext] = GUARD_BOTTOM
            elif cs.region is not None:
                contribution = GuardContext(
                    cs.in_master, frozenset(cs.criticals)
                )
            elif cs.caller in ctx:
                caller_ctx = ctx[cs.caller]
                if caller_ctx is None:
                    continue  # caller's own paths not resolved yet
                contribution = GuardContext(
                    caller_ctx.in_master or cs.in_master,
                    caller_ctx.criticals | frozenset(cs.criticals),
                )
            else:
                continue  # sequential call site: no parallel path
            current = ctx[cs.callee]
            new = contribution if current is None else current.meet(contribution)
            if new != current:
                ctx[cs.callee] = new
                changed = True
    # A guard still at top after the fixpoint has no parallel entry path
    # the fixpoint could see — collapse to bottom rather than overclaim.
    return {
        fname: (GUARD_BOTTOM if g is None else g) for fname, g in ctx.items()
    }


def resolve_parallel_contexts(
    cg: CallGraph, mhp: Dict[int, MHPInfo]
) -> Dict[str, ParallelContext]:
    """Functions whose parallel execution funnels through exactly one
    call site, mapped to that site's MHP context.

    A function qualifies when it has exactly one call site in the whole
    program, is not recursive, not spawn-reachable, and its body is
    context-transparent (no parallel regions, barriers or worksharing
    constructs of its own).  Chains resolve transitively: if the unique
    call site is itself in a context-resolved function, the resolved
    caller context is substituted and ``serialized`` flags accumulate
    along the chain.  The result is fully resolved — a context's
    ``info`` either carries lexical regions or belongs to a function
    with no context entry.
    """
    candidates: Dict[str, CallSite] = {}
    for fname in cg.user_funcs:
        callers = cg.sites_by_callee.get(fname, [])
        if len(callers) != 1:
            continue
        (cs,) = callers
        if (
            cs.spawned
            or fname in cg.recursive
            or fname in cg.spawn_reachable
            or fname in cg.context_opaque
        ):
            continue
        candidates[fname] = cs

    resolved: Dict[str, ParallelContext] = {}

    def resolve(fname: str, seen: FrozenSet[str]) -> Optional[ParallelContext]:
        if fname in resolved:
            return resolved[fname]
        cs = candidates.get(fname)
        if cs is None or fname in seen:
            return None
        info = mhp.get(cs.nid)
        if info is None:
            return None
        if not info.regions:
            # the unique caller is itself only interprocedurally
            # parallel: chain upward.  The root call site (the one with
            # lexical regions) becomes the context identity, so every
            # function on one chain shares a ``nid``.
            parent = resolve(cs.caller, seen | {fname})
            if parent is None:
                return None
            ctx = ParallelContext(
                info=parent.info,
                serialized=cs.serialized or parent.serialized,
                nid=parent.nid,
            )
        else:
            ctx = ParallelContext(
                info=info, serialized=cs.serialized, nid=cs.nid
            )
        resolved[fname] = ctx
        return ctx

    for fname in candidates:
        resolve(fname, frozenset())
    del resolve  # the recursive closure's own cell: a reference cycle
    return resolved
