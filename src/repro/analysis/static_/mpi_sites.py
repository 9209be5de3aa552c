"""MPI call-site discovery.

Finds every MPI call in a program, records its lexical context (OpenMP
parallel nesting, enclosing criticals, enclosing function) and extracts
statically known argument values.  Optionally propagates parallel
context *interprocedurally* along the call graph: a function invoked
from inside a parallel region executes on team threads, so its MPI
sites are hybrid sites too (the paper lists this refinement as future
work; it is implemented here behind a flag that defaults on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ...minilang import ast_nodes as A
from ...minilang.nodetable import NodeTable
from ...mpi.constants import LANGUAGE_CONSTANTS

#: Call names treated as MPI routines by the static pass.
MPI_PREFIXES = ("mpi_", "hmpi_")

#: MPI routines that are pure queries — never instrumented (no monitored
#: variables are associated with them).
QUERY_OPS = frozenset(
    {
        "mpi_comm_rank", "mpi_comm_size", "mpi_wtime",
        "mpi_is_thread_main", "mpi_initialized",
        "mpi_comm_get_errhandler", "mpi_error_string", "mpi_set_timeout",
    }
)


@dataclass
class MPISite:
    """One static MPI call site."""

    nid: int                      # CallExpr node id
    op: str                       # canonical op name (mpi_*)
    func: str                     # enclosing function
    loc: str                      # "line:col"
    in_parallel: bool             # lexically or interprocedurally hybrid
    lexical_parallel: bool        # lexically inside omp parallel
    criticals: Tuple[str, ...]    # enclosing critical-section names
    in_master: bool               # lexically inside omp master/single
    static_args: Dict[int, object] = field(default_factory=dict)
    call_chain: Tuple[str, ...] = ()

    @property
    def instrumentable(self) -> bool:
        return self.op not in QUERY_OPS

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        ctx = "hybrid" if self.in_parallel else "serial"
        return f"{self.op} at {self.func}:{self.loc} [{ctx}]"


def fold_static_value(expr: A.Expr) -> Optional[object]:
    """Best-effort constant folding of an expression.

    The one shared folding helper of the static phase: literals,
    language constants (``MPI_ANY_TAG`` …), unary minus (nested too) and
    constant arithmetic (``+ - * / %`` with the runtime's C-like
    truncating semantics — see :meth:`repro.runtime.values._apply`).
    Division/modulo by zero never folds (the runtime aborts there), and
    booleans never participate in arithmetic.  Everything
    dataflow-dependent is the job of
    :mod:`repro.analysis.static_.dataflow`.
    """
    if isinstance(expr, A.IntLit):
        return expr.value
    if isinstance(expr, A.FloatLit):
        return expr.value
    if isinstance(expr, A.BoolLit):
        return expr.value
    if isinstance(expr, A.StrLit):
        return expr.value
    if isinstance(expr, A.Name) and expr.ident in LANGUAGE_CONSTANTS:
        return LANGUAGE_CONSTANTS[expr.ident]
    if isinstance(expr, A.Unary) and expr.op == "-":
        inner = fold_static_value(expr.operand)
        if _is_number(inner):
            return -inner
    if isinstance(expr, A.Binary) and expr.op in ("+", "-", "*", "/", "%"):
        left = fold_static_value(expr.left)
        right = fold_static_value(expr.right)
        if _is_number(left) and _is_number(right):
            return _fold_arith(expr.op, left, right)
    return None


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _fold_arith(op: str, a, b) -> Optional[object]:
    """Constant arithmetic with the runtime's C-like semantics."""
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            return None  # the runtime aborts: not a static constant
        if isinstance(a, int) and isinstance(b, int):
            q = abs(a) // abs(b)
            return q if (a >= 0) == (b >= 0) else -q
        return a / b
    if op == "%":
        if b == 0 or not (isinstance(a, int) and isinstance(b, int)):
            return None  # runtime aborts on zero / non-int operands
        r = abs(a) % abs(b)
        return r if a >= 0 else -r
    return None


class _FunctionSites:
    """One function's MPI sites, read off the node table in post-order
    (arguments before the call that takes them).

    A call in a ``num_threads`` clause is a site like any other: the
    clause runs in the construct's enclosing context.
    """

    def __init__(self, func: A.FuncDef, table: NodeTable) -> None:
        self.sites: List[MPISite] = []
        for expr in table.calls(func):
            ctx = table.ctx[expr.nid]
            in_parallel = ctx.region != 0
            name = expr.name
            if name.startswith(MPI_PREFIXES) and name != "mpi_monitor_setup":
                self.sites.append(
                    MPISite(
                        nid=expr.nid,
                        op=name[1:] if name.startswith("hmpi_") else name,
                        func=func.name,
                        loc=f"{expr.loc.line}:{expr.loc.col}",
                        in_parallel=in_parallel,
                        lexical_parallel=in_parallel,
                        criticals=tuple(c or "<anonymous>" for c in ctx.criticals),
                        in_master=ctx.master != 0,
                        static_args={
                            i: v
                            for i, arg in enumerate(expr.args)
                            if (v := fold_static_value(arg)) is not None
                        },
                        call_chain=(func.name,),
                    )
                )


def _per_function(program: A.Program) -> Dict[str, _FunctionSites]:
    table = program.table
    return {fn.name: _FunctionSites(fn, table) for fn in program.functions}


def collect_sites(
    program: A.Program,
    interprocedural: bool = True,
    callgraph: Optional[object] = None,
) -> List[MPISite]:
    """All MPI sites in *program*, with hybrid-context classification.

    Interprocedural sites additionally inherit the master/critical
    guards that hold on *every* parallel path into their function (the
    call-graph guard meet), so the thread-level checker and the
    MPI-candidate serialization pruning see a funneled helper as
    funneled.  The parallel-reached functions and their hybrid callers
    come from the :class:`..callgraph.CallGraph` (*callgraph* when the
    caller already built it).
    """
    per_func = _per_function(program)
    if interprocedural:
        from .callgraph import build_callgraph, parallel_callers

        cg = callgraph if callgraph is not None else build_callgraph(program)
        hybrid_funcs = parallel_callers(cg)
        for fname, collector in per_func.items():
            if fname in hybrid_funcs:
                for site in collector.sites:
                    if not site.in_parallel:
                        site.in_parallel = True
                        site.call_chain = tuple(sorted(hybrid_funcs[fname])) + (fname,)
        _inherit_guards(per_func, hybrid_funcs, cg)

    sites: List[MPISite] = []
    for collector in per_func.values():
        sites.extend(collector.sites)
    return sites


def _inherit_guards(
    per_func: Dict[str, _FunctionSites],
    hybrid_funcs: Dict[str, Set[str]],
    cg: object,
) -> None:
    """Merge every-parallel-path guards into interprocedural sites."""
    if not hybrid_funcs:
        return
    from .callgraph import parallel_guard_contexts

    inherited = parallel_guard_contexts(cg)
    for fname, collector in per_func.items():
        guard = inherited.get(fname)
        if guard is None or (not guard.in_master and not guard.criticals):
            continue
        for site in collector.sites:
            if site.in_parallel and not site.lexical_parallel:
                if guard.in_master:
                    site.in_master = True
                if guard.criticals:
                    site.criticals = tuple(
                        sorted(set(site.criticals) | guard.criticals)
                    )


def functions_called_from_parallel(program: A.Program) -> Set[str]:
    """Names of functions transitively reachable from a parallel region
    (:attr:`..callgraph.CallGraph.reached_from_parallel`).

    Such functions may run on multiple team threads (or spawned threads)
    concurrently, so analyses relying on single-team lexical structure
    must treat them conservatively.
    """
    from .callgraph import build_callgraph

    return set(build_callgraph(program).reached_from_parallel)
