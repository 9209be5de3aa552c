"""Thread-dependence (divergence) taint analysis.

PARCOACH-style collective matching needs to know which branch
conditions can evaluate *differently on different threads of one team*:
only a thread-dependent branch can steer members of a team toward
differently-colored collective sequences.  This module provides the
forward dataflow half of that question — a may-taint analysis over the
mini-language CFG whose fact is the set of variable names holding a
thread-dependent value at a program point.

Taint sources:

* ``omp_get_thread_num()`` — the canonical source;
* ``omp for`` loop indices — each thread iterates a different chunk,
  so inside the worksharing loop the index is thread-dependent.  These
  are supplied by the caller as *always-tainted* names (the loop-init
  ``var z = 0`` would otherwise kill the taint at the loop head).

Propagation is the classic gen/kill over assignments: an assignment
whose right-hand side mentions a tainted name (or a thread-dependent
call) gens the target, an assignment from a clean expression kills it.
Writes through a tainted subscript taint the whole array (per-element
precision is not worth the machinery here — over-tainting only costs
pruning precision, never soundness of the divergence pass).  The join
is set union (may-analysis).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional

from ....minilang import ast_nodes as A
from ....minilang.nodetable import NodeTable, function_table, subtree
from ... import cfg as C
from .engine import DataflowResult, ForwardAnalysis, solve

TaintSet = FrozenSet[str]

#: builtin calls whose result differs between threads of one team
THREAD_DEPENDENT_CALLS = frozenset({"omp_get_thread_num"})

#: builtin calls that are team-uniform even though they query the runtime
_UNIFORM_CALLS = frozenset({
    "omp_get_num_threads", "omp_get_max_threads", "mpi_comm_rank",
    "mpi_comm_size",
})


def expr_thread_dependent(
    expr: Optional[A.Expr],
    tainted: TaintSet,
    tainted_calls: FrozenSet[str] = frozenset(),
    table: Optional[NodeTable] = None,
) -> bool:
    """May *expr* evaluate differently across threads of one team?

    *tainted_calls* names user functions whose return value is known
    (from interprocedural summaries) to be thread-dependent; *table* is
    the program's node table.
    """
    if expr is None:
        return False
    for sub in subtree(expr, table):
        if isinstance(sub, A.CallExpr):
            if sub.name in THREAD_DEPENDENT_CALLS or sub.name in tainted_calls:
                return True
        elif isinstance(sub, A.Name):
            if sub.ident in tainted:
                return True
    return False


class ThreadDependenceAnalysis(ForwardAnalysis[TaintSet]):
    """Forward may-taint of thread-dependent variable names."""

    def __init__(
        self,
        always_tainted: Iterable[str] = (),
        tainted_calls: Iterable[str] = (),
        table: Optional[NodeTable] = None,
    ) -> None:
        #: names that stay tainted through every kill (omp-for indices)
        self.always_tainted = frozenset(always_tainted)
        #: user functions returning thread-dependent values (summaries)
        self.tainted_calls = frozenset(tainted_calls)
        self.table = table

    def boundary(self, cfg: C.CFG) -> TaintSet:
        return self.always_tainted

    def join(self, a: TaintSet, b: TaintSet) -> TaintSet:
        return a | b

    def transfer(self, node: C.CFGNode, tainted: TaintSet) -> TaintSet:
        if node.kind != C.STMT or node.ast is None:
            return tainted
        stmt = node.ast.stmt if isinstance(node.ast, A.OmpAtomic) else node.ast
        if isinstance(stmt, A.VarDecl):
            return self._assign(stmt.name, stmt.init, tainted)
        if isinstance(stmt, A.Assign):
            target = stmt.target
            if isinstance(target, A.Name):
                return self._assign(target.ident, stmt.value, tainted)
            if isinstance(target, A.Index) and isinstance(target.base, A.Name):
                # a[tid] = e or a[i] = tid-dep: the array as a whole may
                # now hold thread-dependent values
                if expr_thread_dependent(
                    target.index, tainted, self.tainted_calls, self.table
                ) or expr_thread_dependent(
                    stmt.value, tainted, self.tainted_calls, self.table
                ):
                    return tainted | {target.base.ident}
        return tainted

    def _assign(
        self, name: str, value: Optional[A.Expr], tainted: TaintSet
    ) -> TaintSet:
        if expr_thread_dependent(value, tainted, self.tainted_calls, self.table):
            return tainted | {name}
        if name in self.always_tainted:
            return tainted
        return tainted - {name}


def omp_for_indices(func: A.FuncDef, table: Optional[NodeTable] = None) -> FrozenSet[str]:
    """Loop-index names of every ``omp for`` in *func* (taint seeds)."""
    if table is None or not table.owns(func):
        table = function_table(func)
    if table is None:
        return frozenset()
    names = (
        table.loop_index(node.nid)
        for node in table.subtree(func)
        if isinstance(node, A.OmpFor)
    )
    return frozenset(name for name in names if name is not None)


def solve_thread_dependence(
    func: A.FuncDef, cfg: C.CFG
) -> DataflowResult[TaintSet]:
    """Thread-dependence facts for one function's CFG."""
    return solve_thread_dependence_with(cfg, omp_for_indices(func, cfg.table))


def solve_thread_dependence_with(
    cfg: C.CFG,
    always_tainted: Iterable[str],
    tainted_calls: Iterable[str] = (),
) -> DataflowResult[TaintSet]:
    """Thread-dependence facts with explicit seeds — the entry point the
    interprocedural summary fixpoint uses (tainted formal parameters as
    extra always-tainted names, taint-returning callees as sources)."""
    return solve(
        cfg, ThreadDependenceAnalysis(always_tainted, tainted_calls, cfg.table)
    )


def branch_taints(
    func: A.FuncDef,
    cfg: C.CFG,
    extra_tainted: Iterable[str] = (),
    tainted_calls: Iterable[str] = (),
) -> Dict[int, TaintSet]:
    """Taint fact *before* each BRANCH / LOOP_HEAD node, keyed by the
    AST nid of the ``If`` / loop statement it tests.

    *extra_tainted* / *tainted_calls* inject interprocedural summary
    knowledge (tainted formals, taint-returning callees)."""
    result = solve_thread_dependence_with(
        cfg,
        omp_for_indices(func, cfg.table) | frozenset(extra_tainted),
        tainted_calls,
    )
    out: Dict[int, TaintSet] = {}
    for node in cfg.nodes.values():
        if node.kind not in (C.BRANCH, C.LOOP_HEAD) or node.ast is None:
            continue
        fact = result.fact_before(node)
        out[node.ast.nid] = fact if fact is not None else frozenset()
    return out
