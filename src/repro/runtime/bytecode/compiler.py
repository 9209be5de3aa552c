"""AST -> closure-array compiler for the bytecode execution engine.

The tree-walking interpreter pays for its flexibility on every scheduler
step: each statement re-runs an ``isinstance`` dispatch ladder, each
sub-expression is a suspended generator frame, and each name walks the
scope chain.  This module lowers every function body and OpenMP region
body **once per program** into flat tuples of compiled closures
("instructions") that the VM replays:

* statements compile to ``(is_gen, fn)`` pairs.  ``fn`` is a plain
  closure when the statement cannot reach a scheduling point and a
  generator closure otherwise, so the dispatch loop only builds
  generator frames where a yield can actually occur;
* expression operands, constants and operator dispatch are resolved at
  compile time (literal folding, specialized binary ops, superinstruction
  style fused load/store sequences for the common assignment shapes);
* variable references are resolved to *scope hops* against a compile-time
  model of the lexical scope chain, replacing the per-access name walk
  with ``k`` pointer dereferences plus one dict probe.  Scopes that can
  never receive a declaration are elided entirely;
* memory monitoring is decided at compile time, as binary
  instrumentation patches only the selected variables: a variable site
  whose identifier the run's monitoring spec does not select compiles
  with no hook, and a selected site calls one lean emitter.

Byte-identity contract: yield-point placement is computed here so the
compiled program presents the scheduler with *exactly* the same sequence
of :class:`Step`/:class:`Block` yields — same count, same order, same
costs — as ``Interpreter``'s tree-walk, and emits the same events in the
same order.  The scheduler draws one RNG number per step, so any drift
desynchronizes every downstream schedule; the equivalence suite in
``tests/runtime/test_engine_equivalence.py`` pins this down.

The compile-time scope model is conservative: when a name cannot be
resolved statically (conditional declaration, late global), the emitted
closure falls back to the dynamic ``Scope.lookup`` walk, which preserves
tree-walk semantics including the "undefined variable" abort.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from ...errors import SimAbort
from ...events import MemAccess, ThreadBegin, ThreadEnd, ThreadFork, ThreadJoin
from ...events.event import COLLECTIVE_OPS
from ...minilang import ast_nodes as A
from ...mpi import LANGUAGE_CONSTANTS
from ...omp import (
    ForState,
    SectionsState,
    SingleState,
    Team,
    check_iteration_budget,
    static_chunks,
)
from ..interpreter import (
    _REDUCTION_SEMANTICS,
    _SIMPLE_BUILTINS,
    ThreadCtx,
    _bi_compute,
    _lock_name,
)
from ..scheduler import Block, Step
from ..values import ArrayValue, BinOps, Scope, as_int, truthy

#: statement/expression instruction modes
PURE = False  # plain closure, cannot reach a scheduling point
GEN = True  # generator closure, driven with ``yield from``

#: a compiled body: (tuple of (is_gen, fn) statement entries, push-scope flag)
Code = Tuple[Tuple[Tuple[bool, Callable], ...], bool]

_MISSING = object()

#: the monitoring spec of a program compiled with no memory monitoring;
#: the other specs are None (every shared variable) and a frozenset of
#: the monitored variable names
MONITOR_OFF = False


def monitor_spec(config) -> Any:
    """The monitoring spec a run under *config* compiles its program with."""
    if not config.monitor_memory:
        return MONITOR_OFF
    monitored = config.monitored_vars
    return None if monitored is None else frozenset(monitored)


def _mem_event(vm, ctx: ThreadCtx, cell, is_write: bool, callsite: int,
               index: int) -> None:
    """Memory hook of a monitored site: ``Interpreter._mem_access`` with
    the monitoring-spec checks settled at compile time.

    Exact because every resolved cell's ``name`` is the identifier of
    the site that resolved it.  Charges, then takes seq and time in
    :meth:`Interpreter.emit`'s order.
    """
    if cell.shared and ctx.in_parallel:
        task = ctx.task
        task.clock += vm.charge_cfg.mem_event_cost
        vm._log_append(MemAccess(
            ctx.proc.rank, ctx.tid, vm.log.next_seq(), task.clock,
            is_write, cell.cid, cell.name, callsite, index,
        ))


# ---------------------------------------------------------------------------
# Dispatch loop
# ---------------------------------------------------------------------------


# The statement-driving loop — one scheduler Step yield per statement
# (the tree-walk's `_exec_stmt` preamble), then the statement closure,
# stopping at the first control-flow signal (("return", v)) — is
# deliberately INLINED at every execution site below rather than hoisted
# into a shared driver generator: each level of `yield from` delegation
# is a frame every later resume must traverse, so a shared driver would
# tax every statement under it on every scheduler step.


def _worker_task(vm, body_code: Code, ret_msg: str, wctx: ThreadCtx,
                 reduction_outers):
    """Compiled analogue of ``Interpreter._worker_body``.

    The region body's statement loop is inlined so a worker's yield
    chain for straight-line region statements is a single generator
    frame deep.
    """
    team = wctx.team
    vm.emit(ThreadBegin, wctx, team=team.team_id, parent=team.master_tid)
    try:
        stmts, push = body_code
        step = vm._step_stmt
        if push:
            saved = wctx.scope
            wctx.scope = Scope(parent=saved)
        try:
            for is_gen, fn in stmts:
                yield step
                flow = (yield from fn(vm, wctx)) if is_gen else fn(vm, wctx)
                if flow is not None:
                    raise SimAbort(ret_msg)
        finally:
            if push:
                wctx.scope = saved
        yield from vm._fold_reductions(wctx, reduction_outers)
        vm._collective_close(wctx)
    except SimAbort as err:
        vm.note(f"rank {wctx.proc.rank} thread {wctx.tid}: aborted: {err}")
    finally:
        vm.emit(ThreadEnd, wctx, team=team.team_id)
        team.worker_done(wctx.team_index, wctx.clock)


# ---------------------------------------------------------------------------
# Compile-time scope model
# ---------------------------------------------------------------------------


class _Frame:
    """Model of one lexical scope during compilation.

    ``materialized`` mirrors whether the runtime pushes a real
    :class:`Scope` for it; only materialized frames count toward hop
    distances.  A frame must be marked before its body is compiled.
    """

    __slots__ = ("parent", "materialized", "names")

    def __init__(self, parent: Optional["_Frame"], materialized: bool) -> None:
        self.parent = parent
        self.materialized = materialized
        self.names: set = set()


def _resolve_hops(frame: Optional[_Frame], ident: str) -> Optional[int]:
    """Number of ``.parent`` hops from ctx.scope to the frame declaring
    *ident*, or None when the model cannot place it."""
    hops = 0
    while frame is not None:
        if frame.materialized:
            if ident in frame.names:
                return hops
            hops += 1
        frame = frame.parent
    return None


def _block_declares(block: A.Block) -> bool:
    return any(isinstance(s, A.VarDecl) for s in block.stmts)


def _make_resolver(frame: _Frame, ident: str) -> Callable[[ThreadCtx], Any]:
    """Build a ``ctx -> Cell`` resolver for *ident*.

    The static hop count is a fast path only: a dict miss after hopping
    (conditional declaration not yet executed) falls back to the dynamic
    walk so semantics — including the undefined-variable abort — match
    the tree-walk exactly.
    """
    hops = _resolve_hops(frame, ident)
    if hops is None:
        def resolve(ctx, _ident=ident):
            return ctx.scope.lookup(_ident)
        return resolve
    if hops == 0:
        def resolve(ctx, _ident=ident):
            scope = ctx.scope
            cell = scope.cells.get(_ident)
            if cell is None:
                return scope.lookup(_ident)
            return cell
        return resolve
    if hops == 1:
        def resolve(ctx, _ident=ident):
            scope = ctx.scope.parent
            cell = scope.cells.get(_ident)
            if cell is None:
                return ctx.scope.lookup(_ident)
            return cell
        return resolve
    if hops == 2:
        def resolve(ctx, _ident=ident):
            scope = ctx.scope.parent.parent
            cell = scope.cells.get(_ident)
            if cell is None:
                return ctx.scope.lookup(_ident)
            return cell
        return resolve
    def resolve(ctx, _ident=ident, _hops=hops):
        scope = ctx.scope
        for _ in range(_hops):
            scope = scope.parent
        cell = scope.cells.get(_ident)
        if cell is None:
            return ctx.scope.lookup(_ident)
        return cell
    return resolve


# ---------------------------------------------------------------------------
# Compiled-program containers
# ---------------------------------------------------------------------------


class FuncCode:
    """One compiled function body."""

    __slots__ = ("fn", "needs_frame", "code")

    def __init__(self, fn: A.FuncDef, needs_frame: bool, code: Code) -> None:
        self.fn = fn
        self.needs_frame = needs_frame
        self.code = code


class CompiledProgram:
    __slots__ = ("program", "codes")

    def __init__(self, program: A.Program, codes: Dict[str, FuncCode]) -> None:
        self.program = program
        self.codes = codes


# ---------------------------------------------------------------------------
# Expression compilation helpers
# ---------------------------------------------------------------------------


def _as_gen(cexpr):
    """Wrap a pure expression closure as a zero-yield generator closure."""
    is_gen, fn = cexpr
    if is_gen:
        return fn

    def gen(vm, ctx, _fn=fn):
        return _fn(vm, ctx)
        yield  # pragma: no cover - marks this function as a generator

    return gen


def _literal_value(node: A.Expr):
    if isinstance(node, (A.IntLit, A.FloatLit, A.BoolLit, A.StrLit)):
        return node.value
    return _MISSING


#: binary operators inlined without the BinOps dispatch ladder
_FOLDABLE_OPS = ("+", "-", "*")


def _make_inline_binop(op: str, lf, rf):
    """Specialized pure closures for the hot arithmetic/comparison ops,
    replicating BinOps.apply's TypeError -> SimAbort translation."""
    if op == "+":
        def fn(vm, ctx):
            a = lf(vm, ctx)
            b = rf(vm, ctx)
            try:
                return a + b
            except TypeError:
                raise SimAbort(
                    f"operator '+' not supported between "
                    f"{type(a).__name__} and {type(b).__name__}"
                ) from None
        return fn
    if op == "-":
        def fn(vm, ctx):
            a = lf(vm, ctx)
            b = rf(vm, ctx)
            try:
                return a - b
            except TypeError:
                raise SimAbort(
                    f"operator '-' not supported between "
                    f"{type(a).__name__} and {type(b).__name__}"
                ) from None
        return fn
    if op == "*":
        def fn(vm, ctx):
            a = lf(vm, ctx)
            b = rf(vm, ctx)
            try:
                return a * b
            except TypeError:
                raise SimAbort(
                    f"operator '*' not supported between "
                    f"{type(a).__name__} and {type(b).__name__}"
                ) from None
        return fn
    if op == "<":
        def fn(vm, ctx):
            a = lf(vm, ctx)
            b = rf(vm, ctx)
            try:
                return a < b
            except TypeError:
                raise SimAbort(
                    f"operator '<' not supported between "
                    f"{type(a).__name__} and {type(b).__name__}"
                ) from None
        return fn
    if op == "<=":
        def fn(vm, ctx):
            a = lf(vm, ctx)
            b = rf(vm, ctx)
            try:
                return a <= b
            except TypeError:
                raise SimAbort(
                    f"operator '<=' not supported between "
                    f"{type(a).__name__} and {type(b).__name__}"
                ) from None
        return fn
    if op == ">":
        def fn(vm, ctx):
            a = lf(vm, ctx)
            b = rf(vm, ctx)
            try:
                return a > b
            except TypeError:
                raise SimAbort(
                    f"operator '>' not supported between "
                    f"{type(a).__name__} and {type(b).__name__}"
                ) from None
        return fn
    if op == ">=":
        def fn(vm, ctx):
            a = lf(vm, ctx)
            b = rf(vm, ctx)
            try:
                return a >= b
            except TypeError:
                raise SimAbort(
                    f"operator '>=' not supported between "
                    f"{type(a).__name__} and {type(b).__name__}"
                ) from None
        return fn
    return None


# Pure specializations of the non-scheduling simple builtins; signatures
# intentionally replicate the tree-walk bodies (including native
# IndexError/ValueError on bad arity, which the tree-walk also raises).


def _pb_thread_num(vm, ctx, args):
    return ctx.team_index if ctx.team is not None else 0


def _pb_num_threads(vm, ctx, args):
    return ctx.team.size if ctx.team is not None else 1


def _pb_set_num_threads(vm, ctx, args):
    ctx.proc.default_threads = max(1, as_int(args[0], "num threads"))
    return 0


def _pb_max_threads(vm, ctx, args):
    return ctx.proc.default_threads


def _pb_init_lock(vm, ctx, args):
    ctx.proc.locks.user_lock(_lock_name(args))
    return 0


def _pb_unset_lock(vm, ctx, args):
    lock = ctx.proc.locks.user_lock(_lock_name(args))
    vm._release(lock, ctx)
    return 0


def _pb_array_size(vm, ctx, args):
    arr = args[0]
    if not isinstance(arr, ArrayValue):
        raise SimAbort("array_size() requires an array")
    return len(arr)


def _pb_min(vm, ctx, args):
    return min(args)


def _pb_max(vm, ctx, args):
    return max(args)


def _pb_abs(vm, ctx, args):
    return abs(args[0])


def _pb_monitor_setup(vm, ctx, args):
    return 0


_PURE_BUILTINS = {
    "omp_get_thread_num": _pb_thread_num,
    "omp_get_num_threads": _pb_num_threads,
    "omp_set_num_threads": _pb_set_num_threads,
    "omp_get_max_threads": _pb_max_threads,
    "omp_init_lock": _pb_init_lock,
    "omp_destroy_lock": _pb_init_lock,
    "omp_unset_lock": _pb_unset_lock,
    "array_size": _pb_array_size,
    "min": _pb_min,
    "max": _pb_max,
    "abs": _pb_abs,
    "mpi_monitor_setup": _pb_monitor_setup,
}


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------


class _Compiler:
    def __init__(self, program: A.Program, monitor: Any = MONITOR_OFF) -> None:
        self.program = program
        self.monitor = monitor
        self.functions = {fn.name: fn for fn in program.functions}
        from .. import mpi_builtins  # deferred: import cycle with runtime

        self.mpi_table = mpi_builtins.BUILTINS

    def compile(self) -> CompiledProgram:
        gframe = _Frame(None, True)
        gframe.names.update(LANGUAGE_CONSTANTS)
        for decl in self.program.globals:
            gframe.names.add(decl.name)
        codes: Dict[str, FuncCode] = {}
        for fn in self.program.functions:
            codes[fn.name] = self._compile_func(fn, gframe)
        return CompiledProgram(self.program, codes)

    def _mem_hook(self, ident: str) -> Optional[Callable]:
        """The memory hook for a variable site on *ident*: None when the
        monitoring spec leaves *ident* unmonitored (no hook is compiled)."""
        monitor = self.monitor
        if monitor is MONITOR_OFF or (monitor is not None and ident not in monitor):
            return None
        return _mem_event

    def _compile_func(self, fn: A.FuncDef, gframe: _Frame) -> FuncCode:
        needs_frame = bool(fn.params) or _block_declares(fn.body)
        frame = _Frame(gframe, needs_frame)
        frame.names.update(fn.params)
        code = self._compile_body(fn.body, frame)
        return FuncCode(fn, needs_frame, code)

    # -- bodies ----------------------------------------------------------

    def _compile_body(self, block: A.Block, frame: _Frame) -> Code:
        """Compile a block whose scope is managed by the caller."""
        stmts = tuple(self._compile_stmt(s, frame) for s in block.stmts)
        return (stmts, False)

    def _compile_block(self, block: A.Block, frame: _Frame) -> Code:
        """Compile a block that owns its scope (elided when empty)."""
        inner = _Frame(frame, _block_declares(block))
        stmts = tuple(self._compile_stmt(s, inner) for s in block.stmts)
        return (stmts, inner.materialized)

    # -- statements ------------------------------------------------------

    def _compile_stmt(self, node: A.Stmt, frame: _Frame):
        if isinstance(node, A.VarDecl):
            return self._compile_vardecl(node, frame)
        if isinstance(node, A.Assign):
            return self._compile_assign(node, frame)
        if isinstance(node, A.ExprStmt):
            return self._compile_expr_stmt(node, frame)
        if isinstance(node, A.If):
            return self._compile_if(node, frame)
        if isinstance(node, A.While):
            return self._compile_while(node, frame)
        if isinstance(node, A.For):
            return self._compile_for(node, frame)
        if isinstance(node, A.Return):
            return self._compile_return(node, frame)
        if isinstance(node, A.Print):
            return self._compile_print(node, frame)
        if isinstance(node, A.AssertStmt):
            return self._compile_assert(node, frame)
        if isinstance(node, A.Block):
            stmts, push = self._compile_block(node, frame)

            def fn(vm, ctx):
                step = vm._step_stmt
                if push:
                    saved = ctx.scope
                    ctx.scope = Scope(parent=saved)
                try:
                    for s_gen, s_fn in stmts:
                        yield step
                        flow = (
                            (yield from s_fn(vm, ctx))
                            if s_gen else s_fn(vm, ctx)
                        )
                        if flow is not None:
                            return flow
                finally:
                    if push:
                        ctx.scope = saved
                return None

            return (GEN, fn)
        if isinstance(node, A.OmpParallel):
            return self._compile_parallel(node, frame)
        if isinstance(node, A.OmpFor):
            return self._compile_omp_for(node, frame)
        if isinstance(node, A.OmpSections):
            return self._compile_omp_sections(node, frame)
        if isinstance(node, A.OmpCritical):
            return self._compile_critical(node, frame)
        if isinstance(node, A.OmpBarrier):
            def fn(vm, ctx, _node=node):
                vm._collective_arrive(ctx, _node, "barrier")
                yield from vm._team_barrier(ctx)
                return None

            return (GEN, fn)
        if isinstance(node, A.OmpSingle):
            return self._compile_single(node, frame)
        if isinstance(node, A.OmpMaster):
            return self._compile_master(node, frame)
        if isinstance(node, A.OmpAtomic):
            return self._compile_atomic(node, frame)
        msg = f"cannot execute statement {type(node).__name__}"

        def fail(vm, ctx, _msg=msg):
            raise SimAbort(_msg)

        return (PURE, fail)

    def _compile_vardecl(self, node: A.VarDecl, frame: _Frame):
        name = node.name
        if node.size is not None:
            sg, sf = self._compile_expr(node.size, frame)
            frame.names.add(name)
            if sg:
                def fn(vm, ctx):
                    size_val = yield from sf(vm, ctx)
                    ctx.scope.declare(name, ArrayValue(as_int(size_val, "array size")))
                    return None

                return (GEN, fn)

            def fn(vm, ctx):
                ctx.scope.declare(name, ArrayValue(as_int(sf(vm, ctx), "array size")))
                return None

            return (PURE, fn)
        if node.init is not None:
            ig, vf = self._compile_expr(node.init, frame)
            frame.names.add(name)
            if ig:
                def fn(vm, ctx):
                    value = yield from vf(vm, ctx)
                    ctx.scope.declare(name, value)
                    return None

                return (GEN, fn)

            def fn(vm, ctx):
                ctx.scope.declare(name, vf(vm, ctx))
                return None

            return (PURE, fn)
        frame.names.add(name)

        def fn(vm, ctx):
            ctx.scope.declare(name, 0)
            return None

        return (PURE, fn)

    def _compile_assign(self, node: A.Assign, frame: _Frame):
        vg, vf = self._compile_expr(node.value, frame)
        target = node.target
        if isinstance(target, A.Name):
            resolve = _make_resolver(frame, target.ident)
            hook = self._mem_hook(target.ident)
            tnid = target.nid
            if not vg:
                # superinstruction: eval + store in one closure
                def fn(vm, ctx):
                    value = vf(vm, ctx)
                    cell = resolve(ctx)
                    if hook is not None:
                        hook(vm, ctx, cell, True, tnid, -1)
                    cell.value = value
                    return None

                return (PURE, fn)

            def fn(vm, ctx):
                value = yield from vf(vm, ctx)
                cell = resolve(ctx)
                if hook is not None:
                    hook(vm, ctx, cell, True, tnid, -1)
                cell.value = value
                return None

            return (GEN, fn)
        if isinstance(target, A.Index):
            ig, idxf = self._compile_expr(target.index, frame)
            tnid = target.nid
            base = target.base
            if isinstance(base, A.Name):
                resolve = _make_resolver(frame, base.ident)
                hook = self._mem_hook(base.ident)
                not_array = f"{base.ident!r} is not an array"
                if not vg and not ig:
                    def fn(vm, ctx):
                        value = vf(vm, ctx)
                        cell = resolve(ctx)
                        arr = cell.value
                        if not isinstance(arr, ArrayValue):
                            raise SimAbort(not_array)
                        idx = idxf(vm, ctx)
                        if type(idx) is not int:
                            idx = as_int(idx, "array index")
                        if hook is not None:
                            hook(vm, ctx, cell, True, tnid, idx)
                        arr.set(idx, value)
                        return None

                    return (PURE, fn)
                vgen, igen = _as_gen((vg, vf)), _as_gen((ig, idxf))

                def fn(vm, ctx):
                    value = yield from vgen(vm, ctx)
                    cell = resolve(ctx)
                    arr = cell.value
                    if not isinstance(arr, ArrayValue):
                        raise SimAbort(not_array)
                    idx = as_int((yield from igen(vm, ctx)), "array index")
                    if hook is not None:
                        hook(vm, ctx, cell, True, tnid, idx)
                    arr.set(idx, value)
                    return None

                return (GEN, fn)
            bg, bf = self._compile_expr(base, frame)
            if not vg and not bg and not ig:
                def fn(vm, ctx):
                    value = vf(vm, ctx)
                    arr = bf(vm, ctx)
                    if not isinstance(arr, ArrayValue):
                        raise SimAbort("indexed expression is not an array")
                    idx = idxf(vm, ctx)
                    if type(idx) is not int:
                        idx = as_int(idx, "array index")
                    arr.set(idx, value)
                    return None

                return (PURE, fn)
            vgen = _as_gen((vg, vf))
            bgen = _as_gen((bg, bf))
            igen = _as_gen((ig, idxf))

            def fn(vm, ctx):
                value = yield from vgen(vm, ctx)
                arr = yield from bgen(vm, ctx)
                if not isinstance(arr, ArrayValue):
                    raise SimAbort("indexed expression is not an array")
                idx = as_int((yield from igen(vm, ctx)), "array index")
                arr.set(idx, value)
                return None

            return (GEN, fn)

        def fail(vm, ctx):
            raise SimAbort("invalid assignment target")

        return (PURE, fail)

    def _compile_expr_stmt(self, node: A.ExprStmt, frame: _Frame):
        if isinstance(node.expr, A.CallExpr):
            entry = self._compile_call_stmt(node.expr, frame)
            if entry is not None:
                return entry
        eg, ef = self._compile_expr(node.expr, frame)
        if not eg:
            def fn(vm, ctx):
                ef(vm, ctx)
                return None

            return (PURE, fn)

        def fn(vm, ctx):
            yield from ef(vm, ctx)
            return None

        return (GEN, fn)

    def _compile_call_stmt(self, node: A.CallExpr, frame: _Frame):
        """Call-as-statement superinstructions.

        A call in statement position discards its value, so the ExprStmt
        wrapper generator can be fused with the call closure — one frame
        instead of two on every resume under it.  Returns None for call
        shapes the generic expression path already handles frame-free
        (pure builtins, unknown names).
        """
        name = node.name
        ag, af = self._compile_args(node.args, frame)
        if name.startswith("hmpi_") or name.startswith("mpi_"):
            op = name[1:] if name.startswith("hmpi_") else name
            handler = self.mpi_table.get(op)
            if handler is not None:
                instrumented = name.startswith("hmpi_")
                is_collective = op in COLLECTIVE_OPS

                def fn(vm, ctx):
                    args = (yield from af(vm, ctx)) if ag else af(vm, ctx)
                    if is_collective:
                        vm._collective_arrive(ctx, node, "mpi", op=op)
                    yield from handler(vm, ctx, node, args, instrumented)
                    return None

                return (GEN, fn)
        if name in _PURE_BUILTINS:
            return None
        builtin = _SIMPLE_BUILTINS.get(name)
        if builtin is _bi_compute:
            # compute(N) is the workloads' virtual-work knob and by far
            # the most common yielding statement: charge the cost from
            # this closure, reusing one Step object per distinct cost.
            steps: Dict[float, Step] = {}

            def fn(vm, ctx):
                args = (yield from af(vm, ctx)) if ag else af(vm, ctx)
                units = as_int(args[0], "compute units") if args else 1
                cost = max(0, units) * vm.cm.compute_unit
                s = steps.get(cost)
                if s is None:
                    s = steps[cost] = Step(cost)
                yield s
                return None

            return (GEN, fn)
        if builtin is not None:
            def fn(vm, ctx):
                args = (yield from af(vm, ctx)) if ag else af(vm, ctx)
                yield from builtin(vm, ctx, node, args)
                return None

            return (GEN, fn)
        user_fn = self.functions.get(name)
        if user_fn is not None:
            def fn(vm, ctx):
                args = (yield from af(vm, ctx)) if ag else af(vm, ctx)
                yield from vm._call_user(user_fn, args, ctx)
                return None

            return (GEN, fn)
        return None

    def _compile_if(self, node: A.If, frame: _Frame):
        cg, cf = self._compile_expr(node.cond, frame)
        then_code = self._compile_block(node.then, frame)
        els_code = None
        if node.els is not None:
            els = node.els if isinstance(node.els, A.Block) else A.Block([node.els])
            els_code = self._compile_block(els, frame)
        if not cg:
            def fn(vm, ctx):
                code = then_code if truthy(cf(vm, ctx)) else els_code
                if code is None:
                    return None
                stmts, push = code
                step = vm._step_stmt
                if push:
                    saved = ctx.scope
                    ctx.scope = Scope(parent=saved)
                try:
                    for s_gen, s_fn in stmts:
                        yield step
                        flow = (
                            (yield from s_fn(vm, ctx))
                            if s_gen else s_fn(vm, ctx)
                        )
                        if flow is not None:
                            return flow
                finally:
                    if push:
                        ctx.scope = saved
                return None

            return (GEN, fn)

        def fn(vm, ctx):
            cond = yield from cf(vm, ctx)
            code = then_code if truthy(cond) else els_code
            if code is None:
                return None
            stmts, push = code
            step = vm._step_stmt
            if push:
                saved = ctx.scope
                ctx.scope = Scope(parent=saved)
            try:
                for s_gen, s_fn in stmts:
                    yield step
                    flow = (
                        (yield from s_fn(vm, ctx))
                        if s_gen else s_fn(vm, ctx)
                    )
                    if flow is not None:
                        return flow
            finally:
                if push:
                    ctx.scope = saved
            return None

        return (GEN, fn)

    def _compile_while(self, node: A.While, frame: _Frame):
        cg, cf = self._compile_expr(node.cond, frame)
        body_stmts, body_push = self._compile_block(node.body, frame)
        if not cg:
            def fn(vm, ctx):
                step = vm._step_stmt
                while True:
                    if not truthy(cf(vm, ctx)):
                        return None
                    if body_push:
                        saved = ctx.scope
                        ctx.scope = Scope(parent=saved)
                    try:
                        for s_gen, s_fn in body_stmts:
                            yield step
                            flow = (
                                (yield from s_fn(vm, ctx))
                                if s_gen else s_fn(vm, ctx)
                            )
                            if flow is not None:
                                return flow
                    finally:
                        if body_push:
                            ctx.scope = saved
                    yield step

            return (GEN, fn)

        def fn(vm, ctx):
            step = vm._step_stmt
            while True:
                cond = yield from cf(vm, ctx)
                if not truthy(cond):
                    return None
                if body_push:
                    saved = ctx.scope
                    ctx.scope = Scope(parent=saved)
                try:
                    for s_gen, s_fn in body_stmts:
                        yield step
                        flow = (
                            (yield from s_fn(vm, ctx))
                            if s_gen else s_fn(vm, ctx)
                        )
                        if flow is not None:
                            return flow
                finally:
                    if body_push:
                        ctx.scope = saved
                yield step

        return (GEN, fn)

    def _compile_for(self, node: A.For, frame: _Frame):
        # The tree-walk always pushes a For scope; it is only observable
        # when the init declares the loop variable, so elide it otherwise.
        push = isinstance(node.init, A.VarDecl)
        inner = _Frame(frame, push)
        init_entry = None
        init_is_decl = False
        if node.init is not None:
            if isinstance(node.init, A.VarDecl):
                init_entry = self._compile_vardecl(node.init, inner)
                init_is_decl = True
            else:
                init_entry = self._compile_stmt(node.init, inner)
        cond_entry = (
            self._compile_expr(node.cond, inner) if node.cond is not None else None
        )
        body_stmts, body_push = self._compile_block(node.body, inner)
        step_entry = (
            self._compile_stmt(node.step, inner) if node.step is not None else None
        )
        # unpack once at compile time; the loop head runs per iteration
        ig, ifn = init_entry if init_entry is not None else (False, None)
        cg, cf = cond_entry if cond_entry is not None else (False, None)
        sg, sf = step_entry if step_entry is not None else (False, None)

        def fn(vm, ctx):
            step_yield = vm._step_stmt
            if push:
                saved = ctx.scope
                ctx.scope = Scope(parent=saved)
            try:
                if ifn is not None:
                    if init_is_decl:
                        if ig:
                            yield from ifn(vm, ctx)
                        else:
                            ifn(vm, ctx)
                    else:
                        yield step_yield
                        flow = (yield from ifn(vm, ctx)) if ig else ifn(vm, ctx)
                        if flow is not None:
                            return flow
                while True:
                    if cf is not None:
                        cond = (yield from cf(vm, ctx)) if cg else cf(vm, ctx)
                        if not truthy(cond):
                            return None
                    if body_push:
                        b_saved = ctx.scope
                        ctx.scope = Scope(parent=b_saved)
                    try:
                        for s_gen, s_fn in body_stmts:
                            yield step_yield
                            flow = (
                                (yield from s_fn(vm, ctx))
                                if s_gen else s_fn(vm, ctx)
                            )
                            if flow is not None:
                                return flow
                    finally:
                        if body_push:
                            ctx.scope = b_saved
                    yield step_yield
                    if sf is not None:
                        flow = (yield from sf(vm, ctx)) if sg else sf(vm, ctx)
                        if flow is not None:
                            return flow
            finally:
                if push:
                    ctx.scope = saved

        return (GEN, fn)

    def _compile_return(self, node: A.Return, frame: _Frame):
        if node.value is None:
            def fn(vm, ctx):
                return (_RETURN_NONE)

            return (PURE, fn)
        vg, vf = self._compile_expr(node.value, frame)
        if not vg:
            def fn(vm, ctx):
                return ("return", vf(vm, ctx))

            return (PURE, fn)

        def fn(vm, ctx):
            value = yield from vf(vm, ctx)
            return ("return", value)

        return (GEN, fn)

    def _compile_print(self, node: A.Print, frame: _Frame):
        parts = [self._compile_expr(a, frame) for a in node.args]
        if all(not g for g, _f in parts):
            fns = tuple(f for _g, f in parts)

            def fn(vm, ctx):
                vm.outputs.append(
                    (ctx.proc.rank, ctx.tid, " ".join(str(f(vm, ctx)) for f in fns))
                )
                return None

            return (PURE, fn)
        gens = tuple(_as_gen(p) for p in parts)

        def fn(vm, ctx):
            out = []
            for g in gens:
                val = yield from g(vm, ctx)
                out.append(str(val))
            vm.outputs.append((ctx.proc.rank, ctx.tid, " ".join(out)))
            return None

        return (GEN, fn)

    def _compile_assert(self, node: A.AssertStmt, frame: _Frame):
        cg, cf = self._compile_expr(node.cond, frame)
        msg = f"assertion failed at {node.loc}"
        if not cg:
            def fn(vm, ctx):
                if not truthy(cf(vm, ctx)):
                    raise SimAbort(msg)
                return None

            return (PURE, fn)

        def fn(vm, ctx):
            cond = yield from cf(vm, ctx)
            if not truthy(cond):
                raise SimAbort(msg)
            return None

        return (GEN, fn)

    # -- OpenMP constructs ----------------------------------------------

    def _compile_parallel(self, node: A.OmpParallel, frame: _Frame):
        nt_entry = (
            self._compile_expr(node.num_threads, frame)
            if node.num_threads is not None
            else None
        )
        private = tuple(node.private)
        firstprivate = tuple(node.firstprivate)
        reductions = tuple(node.reductions)
        red_idents = tuple(
            (op, nm, _REDUCTION_SEMANTICS[op][0]) for op, nm in reductions
        )
        member = _Frame(frame, False)
        member.names.update(private)
        member.names.update(firstprivate)
        member.names.update(nm for _op, nm in reductions)
        member.materialized = bool(member.names) or _block_declares(node.body)
        elide_member = not member.materialized
        body_code = self._compile_body(node.body, member)
        ret_msg = f"return inside omp parallel at {node.loc}"

        def member_scope(ctx):
            if elide_member:
                return ctx.scope
            scope = Scope(parent=ctx.scope)
            for nm in private:
                scope.declare(nm, 0)
            for nm in firstprivate:
                outer = ctx.scope.lookup(nm)
                init = outer.value
                if isinstance(init, ArrayValue):
                    copy = ArrayValue(len(init))
                    copy.load(init.snapshot())
                    init = copy
                scope.declare(nm, init)
            for _op, nm, ident in red_idents:
                scope.declare(nm, ident)
            return scope

        def fn(vm, ctx):
            pctx = ctx.proc
            if nt_entry is not None:
                ng, nf = nt_entry
                nt_val = (yield from nf(vm, ctx)) if ng else nf(vm, ctx)
                nthreads = as_int(nt_val, "num_threads")
            else:
                nthreads = pctx.default_threads
            if nthreads < 1:
                raise SimAbort(f"num_threads must be >= 1, got {nthreads}")

            for cell in ctx.scope.visible_cells():
                cell.shared = True

            team = Team(pctx.rank, nthreads, ctx.tid, ctx.team, next(vm._team_id))
            fork_cost = vm.cm.fork_per_thread * nthreads
            instr_cost = vm.charge_cfg.per_thread_setup * nthreads
            yield Step(fork_cost + instr_cost)

            reduction_outers = [
                (op, nm, ctx.scope.lookup(nm)) for op, nm in reductions
            ]

            worker_tids = []
            for index in range(1, nthreads):
                tid = pctx.fresh_tid()
                team.register_worker(index, tid)
                wctx = ThreadCtx(pctx, tid, member_scope(ctx), team, index)
                task = vm.scheduler.spawn(
                    f"p{pctx.rank}.t{tid}", pctx.rank, tid,
                    _worker_task(vm, body_code, ret_msg, wctx, reduction_outers),
                    start_clock=ctx.clock,
                )
                wctx.task = task
                worker_tids.append(tid)

            vm.emit(ThreadFork, ctx, team=team.team_id, children=tuple(worker_tids))

            saved = (ctx.scope, ctx.team, ctx.team_index, ctx.construct_visits)
            ctx.scope = member_scope(ctx)
            ctx.team, ctx.team_index = team, 0
            ctx.construct_visits = {}
            try:
                stmts, push = body_code
                step = vm._step_stmt
                if push:
                    b_saved = ctx.scope
                    ctx.scope = Scope(parent=b_saved)
                try:
                    for s_gen, s_fn in stmts:
                        yield step
                        flow = (
                            (yield from s_fn(vm, ctx))
                            if s_gen else s_fn(vm, ctx)
                        )
                        if flow is not None:
                            raise SimAbort(ret_msg)
                finally:
                    if push:
                        ctx.scope = b_saved
                yield from vm._fold_reductions(ctx, reduction_outers)
                vm._collective_close(ctx)
            finally:
                team.final_clocks[0] = ctx.clock
                ctx.scope, ctx.team, ctx.team_index, ctx.construct_visits = saved

            yield Block("join omp parallel team", lambda: team.all_workers_done)
            ctx.advance_to(max(team.final_clocks))
            ctx.charge(vm.cm.barrier)
            vm.emit(ThreadJoin, ctx, team=team.team_id, children=tuple(worker_tids))
            if vm.config.monitor_collectives and team.size > 1:
                mismatch = team.collectives.first_mismatch()
                if mismatch is not None:
                    idx, a, b = mismatch
                    vm.note(
                        f"rank {pctx.rank} team {team.team_id}: collective "
                        f"arrival mismatch at position {idx} between members "
                        f"{a} and {b}"
                    )
            return None

        return (GEN, fn)

    def _compile_omp_for(self, node: A.OmpFor, frame: _Frame):
        loop = node.loop
        nid = node.nid
        reductions = tuple(node.reductions)
        red_idents = tuple(
            (op, nm, _REDUCTION_SEMANTICS[op][0]) for op, nm in reductions
        )
        ret_msg = f"return inside omp for at {node.loc}"

        # Header structure is validated at compile time; invalid shapes
        # compile to closures aborting at the same evaluation stage (and
        # hence after the same yields) as the tree-walk's _loop_header.
        bad_init = bad_cond = bad_step = None
        var = None
        start_entry = bound_entry = inc_entry = None
        cond_op = None
        negate = False
        init = loop.init
        if isinstance(init, A.VarDecl) and init.init is not None:
            var = init.name
            start_expr = init.init
        elif isinstance(init, A.Assign) and isinstance(init.target, A.Name):
            var = init.target.ident
            start_expr = init.value
        else:
            bad_init = f"omp for at {loop.loc}: unsupported init form"
        if bad_init is None:
            start_entry = self._compile_expr(start_expr, frame)
            cond = loop.cond
            if not (isinstance(cond, A.Binary) and isinstance(cond.left, A.Name)
                    and cond.left.ident == var
                    and cond.op in ("<", "<=", ">", ">=")):
                bad_cond = (
                    f"omp for at {loop.loc}: condition must test the loop variable"
                )
            else:
                cond_op = cond.op
                bound_entry = self._compile_expr(cond.right, frame)
                step_stmt = loop.step
                step_msg = f"omp for at {loop.loc}: unsupported step form"
                if not (isinstance(step_stmt, A.Assign)
                        and isinstance(step_stmt.target, A.Name)
                        and step_stmt.target.ident == var
                        and isinstance(step_stmt.value, A.Binary)
                        and step_stmt.value.op in ("+", "-")):
                    bad_step = step_msg
                else:
                    sval = step_stmt.value
                    if isinstance(sval.left, A.Name) and sval.left.ident == var:
                        inc_entry = self._compile_expr(sval.right, frame)
                    elif (isinstance(sval.right, A.Name)
                          and sval.right.ident == var and sval.op == "+"):
                        inc_entry = self._compile_expr(sval.left, frame)
                    else:
                        bad_step = step_msg
                    negate = sval.op == "-"
        zero_msg = f"omp for at {loop.loc}: zero loop step"
        is_static = node.schedule == "static"
        chunk_entry = (
            self._compile_expr(node.chunk, frame) if node.chunk is not None else None
        )
        nowait = node.nowait

        outer: _Frame = frame
        if reductions:
            red_frame = _Frame(frame, True)
            red_frame.names.update(nm for _op, nm in reductions)
            outer = red_frame
        iter_frame = _Frame(outer, True)
        if var is not None:
            iter_frame.names.add(var)
        body_stmts, body_push = self._compile_block(loop.body, iter_frame)

        def fn(vm, ctx):
            vm._collective_arrive(ctx, node, "for")
            if bad_init is not None:
                raise SimAbort(bad_init)
            sg, sf = start_entry
            start = (yield from sf(vm, ctx)) if sg else sf(vm, ctx)
            if bad_cond is not None:
                raise SimAbort(bad_cond)
            bg, bf = bound_entry
            bound = (yield from bf(vm, ctx)) if bg else bf(vm, ctx)
            if bad_step is not None:
                raise SimAbort(bad_step)
            ig, inf = inc_entry
            inc = (yield from inf(vm, ctx)) if ig else inf(vm, ctx)
            inc = as_int(inc, "loop step")
            if negate:
                inc = -inc
            if inc == 0:
                raise SimAbort(zero_msg)
            start = as_int(start, "loop start")
            bound = as_int(bound, "loop bound")
            # lazy ranges, as in the ast engine: guard before anything
            # proportional to the (possibly enormous) iteration span
            empty = range(0)
            if cond_op == "<":
                iterations = range(start, bound, inc) if inc > 0 else empty
            elif cond_op == "<=":
                iterations = range(start, bound + 1, inc) if inc > 0 else empty
            elif cond_op == ">":
                iterations = range(start, bound, inc) if inc < 0 else empty
            else:  # >=
                iterations = range(start, bound - 1, inc) if inc < 0 else empty
            check_iteration_budget(
                len(iterations), vm.config.max_steps, node.loc
            )

            team = ctx.team
            chunk = None
            if chunk_entry is not None:
                cg, cf = chunk_entry
                cval = (yield from cf(vm, ctx)) if cg else cf(vm, ctx)
                chunk = max(1, as_int(cval, "chunk"))

            reduction_outers = [
                (op, nm, ctx.scope.lookup(nm)) for op, nm in reductions
            ]
            loop_scope = None
            if reduction_outers:
                loop_scope = Scope(parent=ctx.scope)
                for _op, nm, ident in red_idents:
                    loop_scope.declare(nm, ident)
                ctx.scope = loop_scope
            # Iterations are inlined rather than delegated to a helper
            # generator: one fresh scope binding the loop variable, then
            # the body's statement loop, all in this frame.
            step = vm._step_stmt
            try:
                if team is None or team.size == 1 or is_static:
                    if team is None or team.size == 1:
                        plan = iterations
                    else:
                        ctx.visit(nid)
                        plan = static_chunks(
                            iterations, team.size, ctx.team_index, chunk
                        )
                    for i in plan:
                        saved = ctx.scope
                        iscope = Scope(parent=saved)
                        iscope.declare(var, i)
                        ctx.scope = (
                            Scope(parent=iscope) if body_push else iscope
                        )
                        try:
                            for s_gen, s_fn in body_stmts:
                                yield step
                                flow = (
                                    (yield from s_fn(vm, ctx))
                                    if s_gen else s_fn(vm, ctx)
                                )
                                if flow is not None:
                                    raise SimAbort(ret_msg)
                        finally:
                            ctx.scope = saved
                else:  # dynamic
                    key = (nid, ctx.visit(nid))
                    state = team.construct_state(
                        key, lambda: ForState(iterations)
                    )
                    grab = chunk or 1
                    while True:
                        batch = state.grab(grab)
                        if not batch:
                            break
                        for i in batch:
                            saved = ctx.scope
                            iscope = Scope(parent=saved)
                            iscope.declare(var, i)
                            ctx.scope = (
                                Scope(parent=iscope) if body_push else iscope
                            )
                            try:
                                for s_gen, s_fn in body_stmts:
                                    yield step
                                    flow = (
                                        (yield from s_fn(vm, ctx))
                                        if s_gen else s_fn(vm, ctx)
                                    )
                                    if flow is not None:
                                        raise SimAbort(ret_msg)
                            finally:
                                ctx.scope = saved
                yield from vm._fold_reductions(ctx, reduction_outers)
            finally:
                if loop_scope is not None:
                    ctx.scope = loop_scope.parent
            if not nowait:
                yield from vm._team_barrier(ctx)
            return None

        return (GEN, fn)

    def _compile_omp_sections(self, node: A.OmpSections, frame: _Frame):
        sec_codes = tuple(self._compile_block(sec, frame) for sec in node.sections)
        nsections = len(sec_codes)
        nid = node.nid
        nowait = node.nowait
        ret_msg = f"return inside omp sections at {node.loc}"

        def fn(vm, ctx):
            vm._collective_arrive(ctx, node, "sections")
            team = ctx.team
            step = vm._step_stmt
            if team is None or team.size == 1:
                for stmts, push in sec_codes:
                    if push:
                        saved = ctx.scope
                        ctx.scope = Scope(parent=saved)
                    try:
                        for s_gen, s_fn in stmts:
                            yield step
                            flow = (
                                (yield from s_fn(vm, ctx))
                                if s_gen else s_fn(vm, ctx)
                            )
                            if flow is not None:
                                return flow
                    finally:
                        if push:
                            ctx.scope = saved
                return None
            key = (nid, ctx.visit(nid))
            state = team.construct_state(key, lambda: SectionsState(nsections))
            while True:
                idx = state.grab()
                if idx is None:
                    break
                stmts, push = sec_codes[idx]
                if push:
                    saved = ctx.scope
                    ctx.scope = Scope(parent=saved)
                try:
                    for s_gen, s_fn in stmts:
                        yield step
                        flow = (
                            (yield from s_fn(vm, ctx))
                            if s_gen else s_fn(vm, ctx)
                        )
                        if flow is not None:
                            raise SimAbort(ret_msg)
                finally:
                    if push:
                        ctx.scope = saved
            if not nowait:
                yield from vm._team_barrier(ctx)
            return None

        return (GEN, fn)

    def _compile_single(self, node: A.OmpSingle, frame: _Frame):
        body_stmts, body_push = self._compile_block(node.body, frame)
        nid = node.nid
        nowait = node.nowait
        ret_msg = f"return inside omp single at {node.loc}"

        def fn(vm, ctx):
            vm._collective_arrive(ctx, node, "single")
            team = ctx.team
            step = vm._step_stmt
            if team is None or team.size == 1:
                if body_push:
                    saved = ctx.scope
                    ctx.scope = Scope(parent=saved)
                try:
                    for s_gen, s_fn in body_stmts:
                        yield step
                        flow = (
                            (yield from s_fn(vm, ctx))
                            if s_gen else s_fn(vm, ctx)
                        )
                        if flow is not None:
                            return flow
                finally:
                    if body_push:
                        ctx.scope = saved
                return None
            key = (nid, ctx.visit(nid))
            state = team.construct_state(key, lambda: SingleState())
            if state.try_claim():
                ctx.serialized_depth += 1
                try:
                    if body_push:
                        saved = ctx.scope
                        ctx.scope = Scope(parent=saved)
                    try:
                        for s_gen, s_fn in body_stmts:
                            yield step
                            flow = (
                                (yield from s_fn(vm, ctx))
                                if s_gen else s_fn(vm, ctx)
                            )
                            if flow is not None:
                                raise SimAbort(ret_msg)
                    finally:
                        if body_push:
                            ctx.scope = saved
                finally:
                    ctx.serialized_depth -= 1
            if not nowait:
                yield from vm._team_barrier(ctx)
            return None

        return (GEN, fn)

    def _compile_critical(self, node: A.OmpCritical, frame: _Frame):
        body_stmts, body_push = self._compile_block(node.body, frame)
        name = node.name
        reason = f"omp critical ({name or 'anon'})"

        def fn(vm, ctx):
            lock = ctx.proc.locks.critical(name)
            yield from vm._acquire(lock, ctx, reason)
            flow = None
            step = vm._step_stmt
            try:
                if body_push:
                    saved = ctx.scope
                    ctx.scope = Scope(parent=saved)
                try:
                    for s_gen, s_fn in body_stmts:
                        yield step
                        flow = (
                            (yield from s_fn(vm, ctx))
                            if s_gen else s_fn(vm, ctx)
                        )
                        if flow is not None:
                            break
                finally:
                    if body_push:
                        ctx.scope = saved
            finally:
                vm._release(lock, ctx)
            return flow

        return (GEN, fn)

    def _compile_master(self, node: A.OmpMaster, frame: _Frame):
        body_stmts, body_push = self._compile_block(node.body, frame)

        def fn(vm, ctx):
            if ctx.team is None or ctx.team_index == 0:
                ctx.serialized_depth += 1
                step = vm._step_stmt
                try:
                    if body_push:
                        saved = ctx.scope
                        ctx.scope = Scope(parent=saved)
                    try:
                        for s_gen, s_fn in body_stmts:
                            yield step
                            flow = (
                                (yield from s_fn(vm, ctx))
                                if s_gen else s_fn(vm, ctx)
                            )
                            if flow is not None:
                                return flow
                    finally:
                        if body_push:
                            ctx.scope = saved
                finally:
                    ctx.serialized_depth -= 1
            return None

        return (GEN, fn)

    def _compile_atomic(self, node: A.OmpAtomic, frame: _Frame):
        ag, af = self._compile_assign(node.stmt, frame)

        def fn(vm, ctx):
            lock = ctx.proc.locks.atomic()
            yield from vm._acquire(lock, ctx, "omp atomic")
            try:
                if ag:
                    yield from af(vm, ctx)
                else:
                    af(vm, ctx)
            finally:
                vm._release(lock, ctx)
            return None

        return (GEN, fn)

    # -- expressions -----------------------------------------------------

    def _compile_expr(self, node: A.Expr, frame: _Frame):
        if isinstance(node, (A.IntLit, A.FloatLit, A.BoolLit, A.StrLit)):
            value = node.value

            def fn(vm, ctx):
                return value

            return (PURE, fn)
        if isinstance(node, A.Name):
            resolve = _make_resolver(frame, node.ident)
            hook = self._mem_hook(node.ident)
            nid = node.nid

            def fn(vm, ctx):
                cell = resolve(ctx)
                if hook is not None:
                    hook(vm, ctx, cell, False, nid, -1)
                return cell.value

            return (PURE, fn)
        if isinstance(node, A.Index):
            return self._compile_index(node, frame)
        if isinstance(node, A.Unary):
            og, of = self._compile_expr(node.operand, frame)
            op = node.op
            if not og:
                lit = _literal_value(node.operand)
                if lit is not _MISSING and op == "-" and not isinstance(lit, str):
                    folded = -lit

                    def fn(vm, ctx):
                        return folded

                    return (PURE, fn)

                def fn(vm, ctx):
                    return BinOps.apply_unary(op, of(vm, ctx))

                return (PURE, fn)

            def fn(vm, ctx):
                operand = yield from of(vm, ctx)
                return BinOps.apply_unary(op, operand)

            return (GEN, fn)
        if isinstance(node, A.Binary):
            return self._compile_binary(node, frame)
        if isinstance(node, A.CallExpr):
            return self._compile_call(node, frame)
        msg = f"cannot evaluate expression {type(node).__name__}"

        def fail(vm, ctx):
            raise SimAbort(msg)

        return (PURE, fail)

    def _compile_index(self, node: A.Index, frame: _Frame):
        ig, idxf = self._compile_expr(node.index, frame)
        nid = node.nid
        base = node.base
        if isinstance(base, A.Name):
            resolve = _make_resolver(frame, base.ident)
            hook = self._mem_hook(base.ident)
            not_array = f"{base.ident!r} is not an array"
            if not ig:
                def fn(vm, ctx):
                    cell = resolve(ctx)
                    arr = cell.value
                    if not isinstance(arr, ArrayValue):
                        raise SimAbort(not_array)
                    idx = idxf(vm, ctx)
                    if type(idx) is not int:
                        idx = as_int(idx, "array index")
                    if hook is not None:
                        hook(vm, ctx, cell, False, nid, idx)
                    return arr.get(idx)

                return (PURE, fn)

            def fn(vm, ctx):
                cell = resolve(ctx)
                arr = cell.value
                if not isinstance(arr, ArrayValue):
                    raise SimAbort(not_array)
                idx = as_int((yield from idxf(vm, ctx)), "array index")
                if hook is not None:
                    hook(vm, ctx, cell, False, nid, idx)
                return arr.get(idx)

            return (GEN, fn)
        bg, bf = self._compile_expr(base, frame)
        if not bg and not ig:
            def fn(vm, ctx):
                arr = bf(vm, ctx)
                if not isinstance(arr, ArrayValue):
                    raise SimAbort("indexed expression is not an array")
                idx = idxf(vm, ctx)
                if type(idx) is not int:
                    idx = as_int(idx, "array index")
                return arr.get(idx)

            return (PURE, fn)
        bgen, igen = _as_gen((bg, bf)), _as_gen((ig, idxf))

        def fn(vm, ctx):
            arr = yield from bgen(vm, ctx)
            if not isinstance(arr, ArrayValue):
                raise SimAbort("indexed expression is not an array")
            idx = as_int((yield from igen(vm, ctx)), "array index")
            return arr.get(idx)

        return (GEN, fn)

    def _compile_binary(self, node: A.Binary, frame: _Frame):
        lg, lf = self._compile_expr(node.left, frame)
        rg, rf = self._compile_expr(node.right, frame)
        op = node.op
        if not lg and not rg:
            lv = _literal_value(node.left)
            rv = _literal_value(node.right)
            if lv is not _MISSING and rv is not _MISSING and op in _FOLDABLE_OPS:
                try:
                    folded = BinOps.apply(op, lv, rv)
                except SimAbort:
                    # a type error between literals (e.g. "s" + 1) must
                    # abort at *execution* time, in the executing
                    # rank's context, exactly like the tree-walk
                    pass
                else:
                    def fn(vm, ctx):
                        return folded

                    return (PURE, fn)
            if op == "&&":
                def fn(vm, ctx):
                    if not truthy(lf(vm, ctx)):
                        return False
                    return truthy(rf(vm, ctx))

                return (PURE, fn)
            if op == "||":
                def fn(vm, ctx):
                    if truthy(lf(vm, ctx)):
                        return True
                    return truthy(rf(vm, ctx))

                return (PURE, fn)
            inlined = _make_inline_binop(op, lf, rf)
            if inlined is not None:
                return (PURE, inlined)

            def fn(vm, ctx):
                return BinOps.apply(op, lf(vm, ctx), rf(vm, ctx))

            return (PURE, fn)
        lgen, rgen = _as_gen((lg, lf)), _as_gen((rg, rf))
        if op == "&&":
            def fn(vm, ctx):
                left = yield from lgen(vm, ctx)
                if not truthy(left):
                    return False
                right = yield from rgen(vm, ctx)
                return truthy(right)

            return (GEN, fn)
        if op == "||":
            def fn(vm, ctx):
                left = yield from lgen(vm, ctx)
                if truthy(left):
                    return True
                right = yield from rgen(vm, ctx)
                return truthy(right)

            return (GEN, fn)

        def fn(vm, ctx):
            left = yield from lgen(vm, ctx)
            right = yield from rgen(vm, ctx)
            return BinOps.apply(op, left, right)

        return (GEN, fn)

    def _compile_args(self, argnodes, frame: _Frame):
        parts = [self._compile_expr(a, frame) for a in argnodes]
        if all(not g for g, _f in parts):
            fns = tuple(f for _g, f in parts)
            if not fns:
                def fn(vm, ctx):
                    return []

                return (PURE, fn)

            def fn(vm, ctx):
                return [f(vm, ctx) for f in fns]

            return (PURE, fn)
        gens = tuple(_as_gen(p) for p in parts)

        def fn(vm, ctx):
            args = []
            for g in gens:
                val = yield from g(vm, ctx)
                args.append(val)
            return args

        return (GEN, fn)

    def _compile_call(self, node: A.CallExpr, frame: _Frame):
        name = node.name
        ag, af = self._compile_args(node.args, frame)
        if name.startswith("hmpi_") or name.startswith("mpi_"):
            op = name[1:] if name.startswith("hmpi_") else name
            handler = self.mpi_table.get(op)
            if handler is not None:
                instrumented = name.startswith("hmpi_")
                is_collective = op in COLLECTIVE_OPS
                if not ag:
                    def fn(vm, ctx):
                        args = af(vm, ctx)
                        if is_collective:
                            vm._collective_arrive(ctx, node, "mpi", op=op)
                        return (yield from handler(vm, ctx, node, args, instrumented))

                    return (GEN, fn)

                def fn(vm, ctx):
                    args = yield from af(vm, ctx)
                    if is_collective:
                        vm._collective_arrive(ctx, node, "mpi", op=op)
                    return (yield from handler(vm, ctx, node, args, instrumented))

                return (GEN, fn)
        pure_builtin = _PURE_BUILTINS.get(name)
        if pure_builtin is not None:
            if not ag:
                def fn(vm, ctx):
                    return pure_builtin(vm, ctx, af(vm, ctx))

                return (PURE, fn)

            def fn(vm, ctx):
                args = yield from af(vm, ctx)
                return pure_builtin(vm, ctx, args)

            return (GEN, fn)
        builtin = _SIMPLE_BUILTINS.get(name)
        if builtin is not None:
            if not ag:
                def fn(vm, ctx):
                    args = af(vm, ctx)
                    return (yield from builtin(vm, ctx, node, args))

                return (GEN, fn)

            def fn(vm, ctx):
                args = yield from af(vm, ctx)
                return (yield from builtin(vm, ctx, node, args))

            return (GEN, fn)
        user_fn = self.functions.get(name)
        if user_fn is not None:
            if not ag:
                def fn(vm, ctx):
                    args = af(vm, ctx)
                    return (yield from vm._call_user(user_fn, args, ctx))

                return (GEN, fn)

            def fn(vm, ctx):
                args = yield from af(vm, ctx)
                return (yield from vm._call_user(user_fn, args, ctx))

            return (GEN, fn)
        # Unknown functions abort before evaluating arguments, like the
        # tree-walk's _eval_call fall-through.
        msg = f"unknown function {name!r} at {node.loc}"

        def fail(vm, ctx):
            raise SimAbort(msg)

        return (PURE, fail)


_RETURN_NONE = ("return", None)


# ---------------------------------------------------------------------------
# Compile cache
# ---------------------------------------------------------------------------

#: (program id, monitoring spec) -> (program ref, compiled) — the strong
#: ref both keeps the id stable and lets campaign cells / serve workers
#: that re-run the same Program object (varying seeds and plans) compile
#: once per monitoring spec.
_COMPILE_CACHE: "OrderedDict[Tuple[int, Any], Tuple[A.Program, CompiledProgram]]" = (
    OrderedDict()
)
_COMPILE_CACHE_SIZE = 8


def compile_program(program: A.Program, monitor: Any = MONITOR_OFF) -> CompiledProgram:
    """Compile *program* under the monitoring spec *monitor* (see
    :func:`monitor_spec`; default: no memory monitoring), memoized on
    (program identity, spec) and LRU-bounded."""
    key = (id(program), monitor)
    hit = _COMPILE_CACHE.get(key)
    if hit is not None and hit[0] is program:
        _COMPILE_CACHE.move_to_end(key)
        return hit[1]
    compiled = _Compiler(program, monitor).compile()
    _COMPILE_CACHE[key] = (program, compiled)
    _COMPILE_CACHE.move_to_end(key)
    while len(_COMPILE_CACHE) > _COMPILE_CACHE_SIZE:
        _COMPILE_CACHE.popitem(last=False)
    return compiled


def clear_compile_cache() -> None:
    _COMPILE_CACHE.clear()
