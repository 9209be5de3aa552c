"""Constant / symbolic-interval envelope propagation.

The client analysis behind precise envelope pairing: an abstract
environment maps scalar variable names to :class:`SymInterval` values
and is propagated through the CFG, so an MPI site whose tag argument is
``tag`` (assigned ``rank + 4`` earlier) still gets a provable value.

OpenMP-awareness (all conservative, i.e. may only widen):

* entering an ``omp parallel`` region *poisons* every shared variable
  that is assigned anywhere inside the region — concurrent writes make
  its value unpredictable at any use in the region; a write is to a
  shared variable unless its name binds to a declaration inside the
  region (node table bindings);
* ``private`` / ``reduction`` variables are undefined on entry;
  ``firstprivate`` keeps the incoming value;
* none of the per-thread copies (``private``/``firstprivate``/
  ``reduction``) survive past the region end;
* a declaration that shadows a visible one of the same name (node
  table ``shadows``), and every assignment to it, leaves the name
  unknown: the environment is keyed by name, and the shadowed
  variable's value outlives the inner block;
* ``mpi_comm_rank`` / ``mpi_comm_size`` results become *symbols* —
  process-constant unknowns that support exact difference reasoning —
  while ``omp_get_thread_num()`` is only an interval (``>= 0``),
  because it differs between the very threads whose calls we compare.

Globals need two extra guards (scalars are passed by value, so locals
are immune): a call to a user-defined function kills every global the
program ever assigns (the callee may assign it sequentially), and
globals that *concurrently running* code may assign — from functions
reachable from a parallel region or ``thread_spawn`` — are never
tracked at all (``volatile``).  A function's parameters hide the
globals of their names, so :func:`.facts.compute_dataflow` leaves those
out of the function's entry environment.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Set

from ....minilang import ast_nodes as A
from ....minilang.nodetable import DeclKey, NodeTable, subtree
from ... import cfg as C
from ..mpi_sites import fold_static_value
from .engine import ForwardAnalysis
from .lockstate import calls_in
from .values import (
    POS_INF,
    SymInterval,
    Symbol,
    TOP,
    binary,
    const,
    interval,
    join as value_join,
    neg,
    symbol,
    widen as value_widen,
)

#: Abstract environment: variable name -> SymInterval (missing = TOP).
Env = Mapping[str, SymInterval]


def eval_expr(expr: A.Expr, env: Env) -> SymInterval:
    """Abstract evaluation of *expr* under *env*."""
    folded = fold_static_value(expr)
    if isinstance(folded, bool):
        return const(int(folded))
    if isinstance(folded, int):
        return const(folded)
    if isinstance(expr, A.Name):
        return env.get(expr.ident, TOP)
    if isinstance(expr, A.Unary):
        inner = eval_expr(expr.operand, env)
        if expr.op == "-":
            return neg(inner)
        return interval(0.0, 1.0)  # logical not
    if isinstance(expr, A.Binary):
        return binary(expr.op, eval_expr(expr.left, env), eval_expr(expr.right, env))
    if isinstance(expr, A.CallExpr):
        return _eval_call(expr)
    return TOP


def _eval_call(expr: A.CallExpr) -> SymInterval:
    name = expr.name
    if name.startswith("hmpi_"):
        name = name[1:]
    if name == "mpi_comm_rank":
        return symbol(Symbol("rank", expr.nid, 0.0, POS_INF))
    if name == "mpi_comm_size":
        return symbol(Symbol("size", expr.nid, 1.0, POS_INF))
    if name == "omp_get_thread_num":
        # thread-VARYING: must stay base-less, two threads see different
        # values so no cross-site cancellation is sound
        return interval(0.0, POS_INF)
    if name in ("omp_get_num_threads", "omp_get_max_threads"):
        return interval(1.0, POS_INF)
    return TOP


def _without(env: Env, names: Iterable[str]) -> Env:
    names = set(names)
    if not names & set(env):
        return env
    return {k: v for k, v in env.items() if k not in names}


def assigned_decls(root: A.Node, table: NodeTable) -> Set[DeclKey]:
    """The declarations written or declared under *root*: each
    ``VarDecl``, and the one each assignment's target name, or the array
    it indexes, binds to."""
    out: Set[DeclKey] = set()
    for node in table.subtree(root):
        if isinstance(node, A.VarDecl):
            out.add((node.nid, node.name))
        elif isinstance(node, A.Assign):
            target = node.target
            if isinstance(target, A.Index):
                target = target.base
            if isinstance(target, A.Name):
                out.add(table.decl_key(target))
    return out


def _region_poison(region: A.OmpParallel, table: Optional[NodeTable]) -> FrozenSet[str]:
    """Shared variables whose value is unpredictable inside *region*:
    assigned somewhere in the body through a name that does not bind
    inside the region, and not privatized.  A write binds inside when
    its name resolves (node table) to a declaration in the body, which
    is per-thread; a same-named declaration elsewhere in the body does
    not make an outer variable's writes local.  Without a table every
    assigned name counts as shared."""
    shared: Set[str] = set()
    for node in subtree(region.body, table):
        if isinstance(node, A.Assign) and isinstance(node.target, A.Name):
            decl = table.binding.get(node.target.nid) if table is not None else None
            if decl is None or not table.contains(region.nid, decl):
                shared.add(node.target.ident)
    private = set(region.private) | set(region.firstprivate)
    private |= {name for _, name in region.reductions}
    return frozenset(shared - private)


class EnvelopeAnalysis(ForwardAnalysis[Env]):
    """Forward propagation of the abstract environment."""

    def __init__(
        self,
        cfg: C.CFG,
        globals_env: Env = None,
        *,
        volatile: FrozenSet[str] = frozenset(),
        call_kill: FrozenSet[str] = frozenset(),
        user_functions: FrozenSet[str] = frozenset(),
    ) -> None:
        self.cfg = cfg
        self.globals_env = dict(globals_env or {})
        #: names never trackable (mutable by concurrently running code)
        self.volatile = frozenset(volatile)
        #: names killed by any user-defined call (callee may assign them)
        self.call_kill = frozenset(call_kill)
        self.user_functions = frozenset(user_functions)
        self.table = cfg.table
        #: declarations hiding a same-named one: their values stay unknown
        self.shadows = cfg.table.shadows if cfg.table is not None else frozenset()
        self._poison = self._compute_poison(cfg)

    @staticmethod
    def _compute_poison(cfg: C.CFG) -> Dict[int, FrozenSet[str]]:
        """Per-node union of the poison sets of enclosing parallel regions."""
        poison: Dict[int, FrozenSet[str]] = {}
        stack: list = []
        for node in cfg.linearize():
            if node.kind == C.OMP_PARALLEL_BEGIN and isinstance(node.ast, A.OmpParallel):
                stack.append(_region_poison(node.ast, cfg.table))
            current: FrozenSet[str] = frozenset().union(*stack) if stack else frozenset()
            poison[node.cfg_id] = current
            if node.kind == C.OMP_PARALLEL_END and stack:
                stack.pop()
        return poison

    # -- lattice ------------------------------------------------------------

    def boundary(self, cfg: C.CFG) -> Env:
        return {k: v for k, v in self.globals_env.items() if k not in self.volatile}

    def join(self, a: Env, b: Env) -> Env:
        out: Dict[str, SymInterval] = {}
        for name in set(a) & set(b):
            merged = value_join(a[name], b[name])
            if not merged.is_top:
                out[name] = merged
        return out

    def widen(self, old: Env, new: Env) -> Env:
        out: Dict[str, SymInterval] = {}
        for name in set(old) & set(new):
            widened = value_widen(old[name], new[name])
            if not widened.is_top:
                out[name] = widened
        return out

    # -- transfer -----------------------------------------------------------

    def _set(self, env: Env, node: C.CFGNode, name: str, value: SymInterval) -> Env:
        out = dict(env)
        out.pop(name, None)
        blocked = self._poison.get(node.cfg_id, frozenset()) | self.volatile
        if name not in blocked and not value.is_top:
            out[name] = value
        return out

    def _kill_callee_effects(self, node: C.CFGNode, env: Env) -> Env:
        """Drop globals a user-defined callee evaluated here may assign."""
        if not self.call_kill:
            return env
        if any(c.name in self.user_functions for c in calls_in(node, self.table)):
            return _without(env, self.call_kill)
        return env

    def transfer(self, node: C.CFGNode, env: Env) -> Env:
        kind, ast = node.kind, node.ast
        if kind == C.OMP_PARALLEL_BEGIN and isinstance(ast, A.OmpParallel):
            drop = set(ast.private) | {name for _, name in ast.reductions}
            drop |= self._poison.get(node.cfg_id, frozenset())
            return _without(env, drop)
        if kind == C.OMP_PARALLEL_END and isinstance(ast, A.OmpParallel):
            drop = set(ast.private) | set(ast.firstprivate)
            drop |= {name for _, name in ast.reductions}
            return _without(env, drop)
        if kind in (C.OMP_WS_BEGIN, C.OMP_WS_END) and ast is not None:
            drop = set(getattr(ast, "private", ()))
            drop |= {name for _, name in getattr(ast, "reductions", ())}
            return _without(env, drop) if drop else env
        if kind not in (C.STMT, C.BRANCH, C.LOOP_HEAD) or ast is None:
            return env
        env = self._kill_callee_effects(node, env)
        if kind != C.STMT:
            return env
        stmt = ast.stmt if isinstance(ast, A.OmpAtomic) else ast
        if isinstance(stmt, A.VarDecl) and not stmt.is_array:
            known = stmt.init is not None and stmt.nid not in self.shadows
            value = eval_expr(stmt.init, env) if known else TOP
            return self._set(env, node, stmt.name, value)
        if isinstance(stmt, A.Assign) and isinstance(stmt.target, A.Name):
            target = stmt.target
            decl = self.table.binding.get(target.nid) if self.table is not None else None
            value = TOP if decl in self.shadows else eval_expr(stmt.value, env)
            return self._set(env, node, target.ident, value)
        return env


def program_globals_env(program: A.Program) -> Env:
    """Initial environment from never-reassigned scalar globals."""
    mutated: Set[DeclKey] = set()
    for fn in program.functions:
        mutated |= assigned_decls(fn.body, program.table)
    env: Dict[str, SymInterval] = {}
    for decl in program.globals:
        if decl.is_array or decl.init is None or (decl.nid, decl.name) in mutated:
            continue
        value = eval_expr(decl.init, {})
        if not value.is_top:
            env[decl.name] = value
    return env
