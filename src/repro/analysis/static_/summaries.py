"""Context-sensitive interprocedural function summaries.

The static passes of PR-1..6 are precise *within* a function but fall
back to worst-case assumptions across calls: interprocedural array
accesses are delegated wholesale to the dynamic phase, the MHP answer
for cross-function pairs is "maybe", and a helper call kills every
tracked lock.  This module computes, in one bottom-up pass over the
(cycle-collapsed) call graph, a :class:`FunctionSummary` per function:

* **parameterized array accesses** — every would-be-``unresolved``
  shared-array access with its subscript rewritten as a linear form
  ``coeff * param + [lo, hi]`` over the function's formal parameters
  (or the thread id), composed transitively through sequential call
  chains so a three-level helper stack still yields a form over the
  outermost helper's parameters;
* **lock transparency** — whether a call to the function can disturb
  user-lock state (drives the lock-state transfer function);
* **thread-dependence taint** — which formal parameters receive
  thread-dependent arguments at some call site (top-down fixpoint) and
  which functions *return* thread-dependent values (bottom-up), so the
  divergence pass sees taint flow in and out of calls.

Instantiation at parallel call sites is the consumer's job
(:func:`..races.find_races` turns summary accesses into pairable
:class:`..races.AccessSite` rows; :mod:`..collectives` splices callee
collective sequences).  Soundness contract: any access whose form could
not be computed, composed, or instantiated on **every** parallel path is
recorded in :attr:`SummaryTable.escaped` and stays delegated to the
dynamic phase — summaries only ever *move* accesses from "unresolved"
to "analyzed", never drop them.

Recursion bound: members of nontrivial SCCs (and self-recursive
functions) get an *opaque* summary — no accesses, no composition — and
composition depth through sequential chains is capped at
:data:`MAX_COMPOSE_DEPTH`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from ...minilang import ast_nodes as A
from ...minilang.nodetable import NodeTable
from ...mpi.constants import LANGUAGE_CONSTANTS
from .. import cfg as C
from .callgraph import CallGraph, CallSite, build_callgraph
from .dataflow.divergence import (
    expr_thread_dependent,
    omp_for_indices,
    solve_thread_dependence_with,
)

if TYPE_CHECKING:
    from .races import _FunctionWalker

#: symbolic base standing for ``omp_get_thread_num()`` in a LinForm
TID_BASE = "<tid>"

#: maximum composition depth through sequential call chains; deeper
#: accesses escape to the dynamic phase (recursion bound of the pass)
MAX_COMPOSE_DEPTH = 8


@dataclass(frozen=True)
class LinForm:
    """``coeff * base + d`` with ``d`` in ``[lo, hi]``.

    ``base`` is a formal-parameter name of the summarized function,
    :data:`TID_BASE`, or ``None`` for a pure constant interval (then
    ``coeff`` is 0).
    """

    base: Optional[str]
    coeff: int
    lo: int
    hi: int

    def shift(self, lo: int, hi: int) -> "LinForm":
        return LinForm(self.base, self.coeff, self.lo + lo, self.hi + hi)

    def scale(self, k: int) -> "LinForm":
        if k >= 0:
            return LinForm(self.base, self.coeff * k, self.lo * k, self.hi * k)
        return LinForm(self.base, self.coeff * k, self.hi * k, self.lo * k)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        rng = f"[{self.lo}, {self.hi}]" if self.lo != self.hi else str(self.lo)
        if self.base is None:
            return rng
        return f"{self.coeff}*{self.base} + {rng}"


@dataclass(frozen=True)
class SummaryAccess:
    """One parameterized shared-array access of a function summary."""

    var: str
    key: Tuple[str, str]
    is_write: bool
    #: nid of the original ``Index`` expression (coverage bookkeeping)
    nid: int
    loc: str
    #: function the access lexically sits in (reporting)
    func: str
    #: critical/atomic guard tokens accumulated along the callee chain
    guards: FrozenSet[str]
    #: subscript as a linear form over the *summarized* function's params
    form: LinForm
    #: composition depth (0 = the summarized function's own access)
    depth: int = 0


@dataclass
class FunctionSummary:
    """Everything later passes need to know about calling one function."""

    name: str
    params: Tuple[str, ...]
    #: recursion / SCC membership: no accesses, no composition
    opaque: bool = False
    accesses: List[SummaryAccess] = field(default_factory=list)


@dataclass
class SummaryTable:
    """Per-function summaries plus the graph-level derived sets."""

    callgraph: CallGraph
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    #: access nids whose form failed to compute/compose somewhere — the
    #: dynamic phase keeps them (soundness: never dropped)
    escaped: Set[int] = field(default_factory=set)
    #: functions whose call leaves user-lock state undisturbed
    lock_transparent: FrozenSet[str] = frozenset()
    #: formal parameters holding thread-dependent values at some site
    tainted_params: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    #: functions whose return value may be thread-dependent
    ret_tainted: FrozenSet[str] = frozenset()
    #: each summarized function's race walk as a parallel-reachable
    #: function; the race pass takes the walks of such functions
    #: instead of walking them again, and empties this
    race_walks: Dict[str, "_FunctionWalker"] = field(default_factory=dict)

    def summary_for(self, name: str) -> Optional[FunctionSummary]:
        summ = self.functions.get(name)
        if summ is None or summ.opaque:
            return None
        return summ


# ---------------------------------------------------------------------------
# Linear abstract interpretation over one function body
# ---------------------------------------------------------------------------

_Env = Dict[str, Optional[LinForm]]


def _const(value: int) -> LinForm:
    return LinForm(None, 0, value, value)


def _eval_form(expr: A.Expr, env: _Env) -> Optional[LinForm]:
    """Best-effort linear form of *expr* under *env* (None = unknown)."""
    if isinstance(expr, A.IntLit):
        return _const(expr.value)
    if isinstance(expr, A.Name):
        if expr.ident in env:
            return env[expr.ident]
        constant = LANGUAGE_CONSTANTS.get(expr.ident)
        if isinstance(constant, int) and not isinstance(constant, bool):
            return _const(constant)
        return None
    if isinstance(expr, A.CallExpr):
        if expr.name == "omp_get_thread_num" and not expr.args:
            return LinForm(TID_BASE, 1, 0, 0)
        return None
    if isinstance(expr, A.Unary) and expr.op == "-":
        inner = _eval_form(expr.operand, env)
        return None if inner is None else inner.scale(-1)
    if isinstance(expr, A.Binary):
        left = _eval_form(expr.left, env)
        right = _eval_form(expr.right, env)
        if left is None or right is None:
            return None
        if expr.op in ("+", "-"):
            if expr.op == "-":
                right = right.scale(-1)
            if left.base is None:
                return right.shift(left.lo, left.hi)
            if right.base is None:
                return left.shift(right.lo, right.hi)
            if left.base == right.base:
                return LinForm(
                    left.base, left.coeff + right.coeff,
                    left.lo + right.lo, left.hi + right.hi,
                )
            return None  # two distinct symbols
        if expr.op == "*":
            if left.base is None and left.lo == left.hi:
                return right.scale(left.lo)
            if right.base is None and right.lo == right.hi:
                return left.scale(right.lo)
            return None
        if expr.op == "%":
            if (
                right.base is None
                and right.lo == right.hi
                and right.lo > 0
                and left.base is None
                and left.lo >= 0
            ):
                m = right.lo
                return LinForm(None, 0, 0, min(left.hi, m - 1))
            return None
    return None


def _assigned_names(stmt: A.Stmt, table: NodeTable) -> Set[str]:
    """Every name assigned (or declared) anywhere under *stmt*."""
    out: Set[str] = set()
    for node in table.subtree(stmt):
        if isinstance(node, A.VarDecl):
            out.add(node.name)
        elif isinstance(node, A.Assign):
            target = node.target
            if isinstance(target, A.Name):
                out.add(target.ident)
            elif isinstance(target, A.Index) and isinstance(target.base, A.Name):
                out.add(target.base.ident)
    return out


def _counted_loop_range(stmt: A.For, env: _Env) -> Optional[Tuple[str, int, int]]:
    """``(index, lo, hi)`` of a constant-bound counted loop, else None."""
    init = stmt.init
    if isinstance(init, A.VarDecl) and init.init is not None:
        name, init_expr = init.name, init.init
    elif isinstance(init, A.Assign) and isinstance(init.target, A.Name):
        name, init_expr = init.target.ident, init.value
    else:
        return None
    start = _eval_form(init_expr, env)
    if start is None or start.base is not None:
        return None
    cond = stmt.cond
    if not (
        isinstance(cond, A.Binary)
        and cond.op in ("<", "<=")
        and isinstance(cond.left, A.Name)
        and cond.left.ident == name
    ):
        return None
    bound = _eval_form(cond.right, env)
    if bound is None or bound.base is not None:
        return None
    step = stmt.step
    if not (
        isinstance(step, A.Assign)
        and isinstance(step.target, A.Name)
        and step.target.ident == name
        and isinstance(step.value, A.Binary)
        and step.value.op == "+"
    ):
        return None
    increment = _eval_form(step.value.right, env)
    if (
        increment is None
        or increment.base is not None
        or increment.lo != increment.hi
        or increment.lo <= 0
        or not (
            isinstance(step.value.left, A.Name)
            and step.value.left.ident == name
        )
    ):
        return None
    hi = bound.hi if cond.op == "<=" else bound.hi - 1
    if hi < start.lo:
        return None
    return (name, start.lo, hi)


class _FormWalker:
    """Records the linear form of every ``Index`` subscript and every
    user-call argument list of one function, in execution order."""

    def __init__(
        self, func: A.FuncDef, user_funcs: FrozenSet[str], table: NodeTable
    ) -> None:
        self.func = func
        self.user_funcs = user_funcs
        self.table = table
        self.env: _Env = {p: LinForm(p, 1, 0, 0) for p in func.params}
        #: Index-expr nid -> subscript form (None = unknown)
        self.index_forms: Dict[int, Optional[LinForm]] = {}
        #: user-call nid -> per-argument forms (None entries = unknown)
        self.arg_forms: Dict[int, Tuple[Optional[LinForm], ...]] = {}

    def run(self) -> None:
        self._walk_stmt(self.func.body)

    # -- expression scan ----------------------------------------------------

    def _scan_expr(self, expr: Optional[A.Expr]) -> None:
        if expr is None:
            return
        if isinstance(expr, A.Index):
            self.index_forms[expr.nid] = _eval_form(expr.index, self.env)
            self._scan_expr(expr.index)
            return
        if isinstance(expr, A.CallExpr) and expr.name in self.user_funcs:
            self.arg_forms[expr.nid] = tuple(
                _eval_form(arg, self.env) for arg in expr.args
            )
        for child in expr.children():
            if isinstance(child, A.Expr):
                self._scan_expr(child)

    def _kill(self, names: Set[str]) -> None:
        for name in names:
            self.env[name] = None

    # -- statement traversal ------------------------------------------------

    def _walk_stmt(self, stmt: A.Stmt) -> None:
        if isinstance(stmt, A.Block):
            for sub in stmt.stmts:
                self._walk_stmt(sub)
        elif isinstance(stmt, A.VarDecl):
            self._scan_expr(stmt.init)
            self._scan_expr(stmt.size)
            if stmt.is_array or stmt.init is None:
                self.env[stmt.name] = None
            else:
                self.env[stmt.name] = _eval_form(stmt.init, self.env)
        elif isinstance(stmt, A.Assign):
            self._scan_expr(stmt.value)
            target = stmt.target
            if isinstance(target, A.Name):
                self.env[target.ident] = _eval_form(stmt.value, self.env)
            elif isinstance(target, A.Index):
                self._scan_expr(target)
        elif isinstance(stmt, A.If):
            self._scan_expr(stmt.cond)
            snapshot = dict(self.env)
            self._walk_stmt(stmt.then)
            after_then = self.env
            self.env = dict(snapshot)
            if stmt.els is not None:
                self._walk_stmt(stmt.els)
            merged: _Env = {}
            for name in set(after_then) | set(self.env):
                a, b = after_then.get(name), self.env.get(name)
                merged[name] = a if a == b else None
            self.env = merged
        elif isinstance(stmt, A.While):
            self._kill(_assigned_names(stmt, self.table))
            self._scan_expr(stmt.cond)
            self._walk_stmt(stmt.body)
            self._kill(_assigned_names(stmt, self.table))
        elif isinstance(stmt, A.For):
            counted = _counted_loop_range(stmt, self.env)
            assigned = _assigned_names(stmt, self.table)
            self._kill(assigned)
            if counted is not None:
                name, lo, hi = counted
                self.env[name] = LinForm(None, 0, lo, hi)
            self._scan_expr(stmt.cond)
            self._walk_stmt(stmt.body)
            self._kill(assigned)
        elif isinstance(stmt, A.OmpParallel):
            # team execution: composed sequential reasoning stops here;
            # accesses inside have a lexical region of their own
            self._scan_expr(stmt.num_threads)
            self._kill(_assigned_names(stmt, self.table))
        elif isinstance(stmt, A.OmpFor):
            # orphaned worksharing: the distribution context is its own
            # (such accesses are never instantiated through calls)
            self._kill(_assigned_names(stmt, self.table))
        elif isinstance(stmt, (A.OmpSingle, A.OmpMaster, A.OmpCritical)):
            self._walk_stmt(stmt.body)
        elif isinstance(stmt, A.OmpAtomic):
            self._walk_stmt(stmt.stmt)
        else:
            for child in stmt.children():
                if isinstance(child, A.Expr):
                    self._scan_expr(child)
                elif isinstance(child, A.Stmt):
                    self._walk_stmt(child)


# ---------------------------------------------------------------------------
# Summary construction
# ---------------------------------------------------------------------------


def _own_accesses(
    walker: "_FunctionWalker",
    forms: _FormWalker,
    escaped: Set[int],
) -> List[SummaryAccess]:
    """The function's own would-be-unresolved accesses (from its race
    walk as a parallel-reachable function), parameterized."""
    out: List[SummaryAccess] = []
    for site in walker.unresolved:
        if site.omp_for is not None:
            escaped.add(site.nid)
            continue  # distributed by the callee's own worksharing
        form = forms.index_forms.get(site.nid)
        if form is None:
            escaped.add(site.nid)
            continue
        out.append(
            SummaryAccess(
                var=site.var,
                key=site.key,
                is_write=site.is_write,
                nid=site.nid,
                loc=site.loc,
                func=site.func,
                guards=site.guards,
                form=form,
            )
        )
    return out


def _rebase(
    acc: SummaryAccess,
    cs: CallSite,
    callee_params: Tuple[str, ...],
    arg_forms: Tuple[Optional[LinForm], ...],
) -> Optional[LinForm]:
    """Rewrite *acc*'s form from callee-parameter terms to caller terms."""
    form = acc.form
    if form.base is None or form.base == TID_BASE:
        return form
    try:
        position = callee_params.index(form.base)
    except ValueError:
        return None
    if position >= len(arg_forms):
        return None
    arg = arg_forms[position]
    if arg is None:
        return None
    scaled = arg.scale(form.coeff)
    if scaled.base is None:
        return LinForm(None, 0, scaled.lo + form.lo, scaled.hi + form.hi)
    return LinForm(
        scaled.base, scaled.coeff, scaled.lo + form.lo, scaled.hi + form.hi
    )


def _lock_transparent(cg: CallGraph, program: A.Program) -> FrozenSet[str]:
    """Functions that provably leave user-lock state alone."""
    touching = {
        fn.name
        for fn in program.functions
        if any(
            call.name in ("omp_set_lock", "omp_unset_lock")
            for call in program.table.calls(fn)
        )
    }
    may_touch: Set[str] = set()
    import networkx as nx

    for root in touching:
        may_touch.add(root)
        if root in cg.graph:
            may_touch |= nx.ancestors(cg.graph, root)
    return frozenset(cg.user_funcs - may_touch)


def _taint_fixpoint(
    program: A.Program,
    cg: CallGraph,
    cfgs: Dict[str, C.CFG],
) -> Tuple[Dict[str, FrozenSet[str]], FrozenSet[str]]:
    """Top-down parameter taint and bottom-up return taint, to fixpoint."""
    table = program.table
    funcs = {fn.name: fn for fn in program.functions}
    tainted_params: Dict[str, FrozenSet[str]] = {
        name: frozenset() for name in funcs
    }
    ret_tainted: Set[str] = set()
    call_maps = {
        name: C.innermost_node_map(cfg) for name, cfg in cfgs.items() if name in funcs
    }
    # user calls in pre-order, and the omp-for indices every solve seeds
    calls_by_func: Dict[str, List[Tuple[A.CallExpr, str]]] = {
        fn.name: [
            (node, node.name)
            for node in table.subtree(fn.body)
            if isinstance(node, A.CallExpr) and node.name in funcs
        ]
        for fn in program.functions
    }
    loop_indices = {name: omp_for_indices(fn, table) for name, fn in funcs.items()}

    for _ in range(len(funcs) + 2):
        changed = False
        frozen_ret = frozenset(ret_tainted)
        for name, fn in funcs.items():
            cfg = cfgs.get(name)
            if cfg is None:
                continue
            always = loop_indices[name] | tainted_params[name]
            result = solve_thread_dependence_with(cfg, always, frozen_ret)
            node_map = call_maps.get(name, {})
            for call, callee in calls_by_func[name]:
                node = node_map.get(call.nid)
                fact = result.fact_before(node) if node is not None else None
                fact = fact if fact is not None else frozenset()
                callee_params = funcs[callee].params
                newly = set()
                for i, arg in enumerate(call.args):
                    if i >= len(callee_params):
                        break
                    if expr_thread_dependent(arg, fact, frozen_ret, table):
                        newly.add(callee_params[i])
                merged = tainted_params[callee] | newly
                if merged != tainted_params[callee]:
                    tainted_params[callee] = frozenset(merged)
                    changed = True
            if name in ret_tainted:
                continue
            for cfg_node in cfg.nodes.values():
                if cfg_node.kind != C.STMT or not isinstance(
                    cfg_node.ast, A.Return
                ):
                    continue
                ret = cfg_node.ast
                if ret.value is None:
                    continue
                fact = result.fact_before(cfg_node)
                fact = fact if fact is not None else always
                if expr_thread_dependent(ret.value, fact, frozen_ret, table):
                    ret_tainted.add(name)
                    changed = True
                    break
        if not changed:
            break
    return tainted_params, frozenset(ret_tainted)


def compute_summaries(
    program: A.Program,
    callgraph: Optional[CallGraph] = None,
    cfgs: Optional[Dict[str, C.CFG]] = None,
) -> SummaryTable:
    """Bottom-up summary computation over the whole program."""
    from .races import _FunctionWalker  # deferred: races imports this module

    cg = callgraph if callgraph is not None else build_callgraph(program)
    table = SummaryTable(callgraph=cg)
    globals_ = {decl.name: decl.is_array for decl in program.globals}
    funcs = {fn.name: fn for fn in program.functions}

    form_walkers: Dict[str, _FormWalker] = {}
    for fn in program.functions:
        walker = _FormWalker(fn, cg.user_funcs, program.table)
        walker.run()
        form_walkers[fn.name] = walker

    for name in cg.bottom_up:
        fn = funcs.get(name)
        if fn is None:
            continue
        summary = FunctionSummary(name=name, params=tuple(fn.params))
        if name in cg.recursive:
            summary.opaque = True
            table.functions[name] = summary
            continue
        forms = form_walkers[name]
        walker = _FunctionWalker(fn, globals_, True, program.table)
        walker.run()
        table.race_walks[name] = walker
        summary.accesses = _own_accesses(walker, forms, table.escaped)
        # Compose callee summaries through *sequential-context* call
        # sites: a call inside a lexical parallel region is instantiated
        # directly at that site by the race pass instead.
        for cs in cg.sites_by_caller.get(name, ()):
            if cs.region is not None or cs.spawned:
                continue
            callee = table.functions.get(cs.callee)
            if callee is None or callee.opaque:
                continue
            arg_forms = forms.arg_forms.get(cs.nid, ())
            for acc in callee.accesses:
                if acc.depth + 1 > MAX_COMPOSE_DEPTH:
                    table.escaped.add(acc.nid)
                    continue
                rebased = _rebase(acc, cs, callee.params, arg_forms)
                if rebased is None:
                    table.escaped.add(acc.nid)
                    continue
                summary.accesses.append(
                    SummaryAccess(
                        var=acc.var,
                        key=acc.key,
                        is_write=acc.is_write,
                        nid=acc.nid,
                        loc=acc.loc,
                        func=acc.func,
                        guards=acc.guards | cs.guards,
                        form=rebased,
                        depth=acc.depth + 1,
                    )
                )
        table.functions[name] = summary

    table.lock_transparent = _lock_transparent(cg, program)
    if cfgs:
        table.tainted_params, table.ret_tainted = _taint_fixpoint(
            program, cg, cfgs
        )
    return table
