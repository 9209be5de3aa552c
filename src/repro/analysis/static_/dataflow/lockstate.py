"""Lock-state (must-hold) analysis.

Tracks, along every path, which OpenMP locks are *definitely held* at
each CFG node: named/anonymous critical sections (via the CFG's
``ompCriticalBegin``/``End`` markers) and explicit user locks
(``omp_set_lock("m")`` / ``omp_unset_lock("m")``).  Two MPI sites whose
must-held sets intersect are serialized by that common lock, exactly
like the lexical-critical exclusion the candidate pass already applies
— but path-sensitively, so a lock acquired three statements earlier
still counts.

Must-analysis conventions: the fact is a set of held-lock tokens, the
join at merge points is set *intersection* (held on every path), and
anything the analysis cannot see releases conservatively:

* ``omp_unset_lock`` with a non-literal name drops every user lock;
* a call to a user-defined function drops every user lock (the callee
  could release them) — critical tokens survive, criticals are lexical.

The interprocedural summary layer sharpens the last rule: functions the
call-graph pass proves *lock-transparent* (no ``omp_set_lock`` /
``omp_unset_lock`` anywhere in their transitive callee closure) cannot
release anything, so held user locks survive calls to them.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, Optional, Set

from ....minilang import ast_nodes as A
from ....minilang.nodetable import NodeTable, OmpContext, subtree
from ... import cfg as C
from .engine import ForwardAnalysis

LockSet = FrozenSet[str]

CRITICAL_PREFIX = "critical:"
LOCK_PREFIX = "lock:"


def critical_token(name: str) -> str:
    return CRITICAL_PREFIX + (name or "<anonymous>")


#: guard token for ``omp atomic`` (one process-wide lock at runtime)
ATOMIC_TOKEN = "atomic"


def guard_tokens(ctx: OmpContext) -> FrozenSet[str]:
    """The lexical guards of a node's OpenMP context: its enclosing
    criticals, plus ``omp atomic``."""
    guards = {critical_token(name) for name in ctx.criticals}
    if ctx.atomic:
        guards.add(ATOMIC_TOKEN)
    return frozenset(guards)


def lock_token(name: str) -> str:
    return LOCK_PREFIX + name


def leaf_exprs(node: C.CFGNode) -> Iterator[A.Expr]:
    """Expressions evaluated *at* this node (never a nested statement's)."""
    ast = node.ast
    if ast is None:
        return
    if node.kind == C.STMT:
        stmt = ast.stmt if isinstance(ast, A.OmpAtomic) else ast
        if isinstance(stmt, A.ExprStmt):
            yield stmt.expr
        elif isinstance(stmt, A.Assign):
            yield stmt.value
        elif isinstance(stmt, A.VarDecl):
            if stmt.init is not None:
                yield stmt.init
        elif isinstance(stmt, (A.Print,)):
            yield from stmt.args
        elif isinstance(stmt, A.AssertStmt):
            yield stmt.cond
        elif isinstance(stmt, A.Return):
            if stmt.value is not None:
                yield stmt.value
    elif node.kind == C.BRANCH and isinstance(ast, A.If):
        yield ast.cond
    elif node.kind == C.LOOP_HEAD:
        cond = getattr(ast, "cond", None)
        if cond is not None:
            yield cond


def calls_in(node: C.CFGNode, table: Optional[NodeTable] = None) -> Iterator[A.CallExpr]:
    for expr in leaf_exprs(node):
        for sub in subtree(expr, table):
            if isinstance(sub, A.CallExpr):
                yield sub


class LockStateAnalysis(ForwardAnalysis[Optional[LockSet]]):
    """Forward must-hold analysis; the fact is a frozenset of tokens."""

    def __init__(
        self,
        user_functions: Set[str] = frozenset(),
        lock_transparent: FrozenSet[str] = frozenset(),
        table: Optional[NodeTable] = None,
    ) -> None:
        self.user_functions = set(user_functions)
        self.lock_transparent = frozenset(lock_transparent)
        #: node table of the analysed program (the CFG's)
        self.table = table

    def boundary(self, cfg: C.CFG) -> LockSet:
        return frozenset()

    def join(self, a: LockSet, b: LockSet) -> LockSet:
        return a & b

    def transfer(self, node: C.CFGNode, held: LockSet) -> LockSet:
        if node.kind == C.OMP_CRITICAL_BEGIN and isinstance(node.ast, A.OmpCritical):
            return held | {critical_token(node.ast.name)}
        if node.kind == C.OMP_CRITICAL_END and isinstance(node.ast, A.OmpCritical):
            return held - {critical_token(node.ast.name)}
        out = held
        for call in calls_in(node, self.table):
            out = self._apply_call(call, out)
        return out

    def _apply_call(self, call: A.CallExpr, held: LockSet) -> LockSet:
        name = call.name
        if name == "omp_set_lock":
            if call.args and isinstance(call.args[0], A.StrLit):
                return held | {lock_token(call.args[0].value)}
            return held
        if name == "omp_unset_lock":
            if call.args and isinstance(call.args[0], A.StrLit):
                return held - {lock_token(call.args[0].value)}
            return frozenset(t for t in held if not t.startswith(LOCK_PREFIX))
        if name in self.user_functions:
            if name in self.lock_transparent:
                return held  # callee provably touches no user locks
            # the callee may release user locks; criticals are lexical
            return frozenset(t for t in held if not t.startswith(LOCK_PREFIX))
        return held
