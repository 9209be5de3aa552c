"""Tree-walking interpreter executing mini-language programs over the
cooperative scheduler.

Each simulated thread runs as a generator; OpenMP directives fork/join
teams, MPI builtins operate on the shared :class:`~repro.mpi.MPIWorld`.
The interpreter is also the event source for all dynamic analyses: it
emits lock/barrier/fork/join/MPI events always, memory-access events
when full monitoring is on (the ITC model), and monitored-variable
writes when executing ``hmpi_*`` wrapper calls (HOME's instrumentation).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..errors import DeadlockError, SchedulerError, SimAbort
from ..events import (
    BarrierEvent,
    CollectiveArrive,
    EventLog,
    FaultEvent,
    LockAcquire,
    LockRelease,
    MemAccess,
    ThreadBegin,
    ThreadEnd,
    ThreadFork,
    ThreadJoin,
)
from ..events.event import COLLECTIVE_OPS
from ..events.intern import intern_loc
from ..faults import FaultInjector
from ..minilang import ast_nodes as A
from ..mpi import LANGUAGE_CONSTANTS, MPIWorld
from ..mpi.deadlock import diagnose
from ..omp import (
    ForState,
    LockTable,
    SectionsState,
    SingleState,
    Team,
    check_iteration_budget,
    static_chunks,
)
from .config import ExecutionResult, RunConfig, abort_note
from .scheduler import Block, Scheduler, Step
from .values import ArrayValue, BinOps, Cell, Scope, as_int, store_element, truthy

_RETURN = "return"

#: reduction operator -> (identity value, combine function)
_REDUCTION_SEMANTICS = {
    "+": (0, lambda a, b: a + b),
    "*": (1, lambda a, b: a * b),
    "min": (float("inf"), lambda a, b: min(a, b)),
    "max": (float("-inf"), lambda a, b: max(a, b)),
}

Flow = Optional[Tuple[str, Any]]
Gen = Generator  # alias for brevity in signatures


class ProcessCtx:
    """Per-process interpreter state (one MPI rank)."""

    def __init__(self, interp: "Interpreter", rank: int) -> None:
        self.rank = rank
        self.globals = Scope(cell_ids=interp.cell_ids)
        self.locks = LockTable(rank)
        self.mpi = interp.world.proc(rank)
        self._tid_counter = itertools.count(1)  # 0 is the main thread
        self.default_threads = interp.config.num_threads
        #: spawned (pthread-style) threads: handle -> state dict
        self.pthreads: Dict[int, dict] = {}
        self._pthread_handle = itertools.count(1)
        #: count of live explicitly spawned threads
        self.live_pthreads = 0
        #: set once the process ever spawned an explicit thread — memory
        #: monitoring then stays on (conservative: join edges order any
        #: post-join accesses, so no false positives arise)
        self.ever_pthreads = False
        for cname, cvalue in LANGUAGE_CONSTANTS.items():
            self.globals.declare(cname, cvalue)

    def fresh_tid(self) -> int:
        return next(self._tid_counter)


class ThreadCtx:
    """Per-thread interpreter state."""

    __slots__ = (
        "proc", "tid", "scope", "team", "team_index", "held_locks",
        "call_depth", "task", "construct_visits", "is_pthread",
        "handler_depth", "serialized_depth",
    )

    def __init__(
        self,
        proc: ProcessCtx,
        tid: int,
        scope: Scope,
        team: Optional[Team] = None,
        team_index: int = 0,
    ) -> None:
        self.proc = proc
        self.tid = tid
        self.scope = scope
        self.team = team
        self.team_index = team_index
        self.held_locks: List[str] = []
        self.call_depth = 0
        self.task = None  # linked after Scheduler.spawn
        #: per-thread visit counters for worksharing construct instances
        self.construct_visits: Dict[int, int] = {}
        #: True for explicitly spawned (pthread-style) threads
        self.is_pthread = False
        #: nesting depth of MPI error-handler invocations on this thread
        self.handler_depth = 0
        #: nesting depth of master / claimed-single bodies — MPI
        #: collectives issued here are the sanctioned funneled pattern,
        #: not a per-thread collective arrival
        self.serialized_depth = 0

    # -- clock --------------------------------------------------------------

    @property
    def clock(self) -> float:
        return self.task.clock

    def advance_to(self, t: float) -> None:
        if t > self.task.clock:
            self.task.clock = t

    def charge(self, cost: float) -> None:
        """Accrue cost without a scheduling point."""
        self.task.clock += cost

    # -- misc -----------------------------------------------------------------

    @property
    def in_parallel(self) -> bool:
        """True when other threads may access this thread's shared state:
        inside a multi-thread OpenMP team, on a spawned thread, or while
        the process has live spawned threads."""
        if self.is_pthread or self.proc.ever_pthreads:
            return True
        team = self.team
        while team is not None:
            if team.size > 1:
                return True
            team = team.parent
        return False

    @property
    def is_main_thread(self) -> bool:
        return self.tid == self.proc.mpi.main_thread

    def visit(self, nid: int) -> int:
        """Per-thread visit counter for a worksharing construct node."""
        count = self.construct_visits.get(nid, 0)
        self.construct_visits[nid] = count + 1
        return count


class Interpreter:
    """Executes one program across ``config.nprocs`` simulated processes."""

    def __init__(self, program: A.Program, config: RunConfig) -> None:
        self.program = program
        self.config = config
        self.cm = config.cost_model
        self.charge_cfg = config.charge
        self.world = MPIWorld(config.nprocs)
        self.faults = FaultInjector(
            config.fault_plan, config.nprocs, seed=config.seed
        )
        self.scheduler = Scheduler(
            seed=config.seed,
            max_steps=config.max_steps,
            max_wall_seconds=config.max_wall_seconds,
        )
        # When the whole job stalls, let the FT layer time out the
        # earliest armed waiter instead of declaring deadlock.  With no
        # retry policies set this never fires and deadlock detection is
        # unchanged.
        self.scheduler.stall_handler = self.world.ft.escape_earliest
        self.log = EventLog()
        #: bound list.append — emission is the single hottest call site
        #: in the interpreter, so skip the EventLog method dispatch
        self._log_append = self.log.raw_append()
        self.outputs: List[tuple] = []
        self.notes: List[str] = []
        self.procs: List[ProcessCtx] = []
        #: the run's cell ids: every rank's root scope shares this one
        #: counter, so cells are numbered in global creation order
        self.cell_ids = itertools.count(1)
        self._call_id = itertools.count(1)
        self._team_id = itertools.count(1)
        self._functions = {fn.name: fn for fn in program.functions}
        self._mpi_calls = 0
        # MPI builtin table is installed lazily to avoid an import cycle.
        from . import mpi_builtins

        self._mpi_table = mpi_builtins.BUILTINS
        self._arity_error = mpi_builtins.arity_error

    # -- event helpers ------------------------------------------------------

    def emit(self, ctor, ctx: ThreadCtx, **fields) -> None:
        self._log_append(
            ctor(
                proc=ctx.proc.rank,
                thread=ctx.tid,
                seq=self.log.next_seq(),
                time=ctx.clock,
                **fields,
            )
        )

    def emit_batch(self, events) -> None:
        """Append pre-built events in one call.

        Wrappers that emit several events per MPI call (one
        ``MonitoredWrite`` per monitored variable plus the call bracket)
        construct the ``__slots__``-ed event objects themselves —
        allocating seqs via :meth:`EventLog.next_seq` in emission order
        — and land them with a single ``list.extend``.
        """
        self.log.extend(events)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def fault_fired(self, ctx: "ThreadCtx", spec, detail: str, op: str = "") -> None:
        """Record one fired fault: trace event + run note + injector log."""
        self.faults.record(spec, ctx.proc.rank, detail)
        self.emit(FaultEvent, ctx, kind=spec.kind, detail=detail, op=op)
        self.note(f"fault injected: {detail}")

    def next_call_id(self) -> int:
        self._mpi_calls += 1
        return next(self._call_id)

    def _collective_arrive(
        self, ctx: "ThreadCtx", node: A.Node, kind: str, op: str = ""
    ) -> None:
        """PARCOACH-style confirm pass: record that this team member
        encountered a collective construct.

        Called at *encounter*, before any blocking, so divergent
        arrivals are in the ledger and on the trace even when the run
        subsequently deadlocks.  Off unless the run config enables
        collective monitoring, and narrowable to the static divergence
        candidates' site locs.
        """
        config = self.config
        if not config.monitor_collectives:
            return
        team = ctx.team
        if team is None or team.size < 2:
            return
        if kind == "mpi" and ctx.serialized_depth > 0:
            # funneled MPI collective under master/single: one arrival
            # on behalf of the whole team, the sanctioned pattern
            return
        loc = intern_loc(node.loc)
        sites = config.collective_sites
        if sites is not None and loc not in sites:
            return
        index = team.collectives.record(ctx.team_index, kind, loc, op)
        self.emit(
            CollectiveArrive, ctx, team=team.team_id, kind=kind, op=op,
            callsite=node.nid, loc=loc, index=index,
        )

    def _collective_close(self, ctx: "ThreadCtx") -> None:
        """Mark this member's collective sequence complete (it reached
        the end of the region body)."""
        if self.config.monitor_collectives and ctx.team is not None:
            ctx.team.collectives.close(ctx.team_index)

    # -- top level ------------------------------------------------------------

    def run(self) -> ExecutionResult:
        for rank in range(self.config.nprocs):
            pctx = ProcessCtx(self, rank)
            self.procs.append(pctx)
            ctx = ThreadCtx(pctx, tid=0, scope=Scope(parent=pctx.globals))
            task = self.scheduler.spawn(f"p{rank}.main", rank, 0, self._main_task(ctx))
            ctx.task = task

        result = ExecutionResult(self.program.name, self.config)
        try:
            try:
                self.scheduler.run()
            except DeadlockError as err:
                if self.config.raise_on_deadlock:
                    raise
                result.deadlock = diagnose(err.blocked)
            except SchedulerError as err:
                # Step/wall budget exhaustion: the partial trace is still a
                # valid prefix of the execution — salvage it when asked.
                if not self.config.capture_partial:
                    raise
                result.failure = str(err)
            result.log = self.log
            result.outputs = self.outputs
            result.notes = self.notes
            result.makespan = self.scheduler.makespan()
            result.proc_clocks = self.scheduler.clocks_by_process()
            result.stats = {
                "scheduler_steps": self.scheduler.total_steps,
                "messages_sent": self.world.messages_sent,
                "mpi_calls": self._mpi_calls,
                "events": len(self.log),
            }
            if self.faults.enabled:
                result.stats["faults"] = self.faults.summary()
                result.stats["faults_injected"] = list(self.faults.injected)
            return result
        finally:
            self._close_suspended_threads()

    def _close_suspended_threads(self) -> None:
        """Close the threads a run left suspended (deadlock, rank abort,
        budget) now, with the log and notes detached: they never
        finished, so what their unwinding emits (``ThreadEnd``,
        ``LockRelease``) must never reach the result, as it did when
        the garbage collector closed them after the run."""
        log, notes = self.log, self.notes
        self.log, self.notes = EventLog(), []
        self._log_append = self.log.raw_append()
        for task in self.scheduler.tasks:
            # innermost first, the order closing a ``yield from`` chain
            # unwinds its frames in
            for gen in (task.gen, *reversed(task.stack)):
                try:
                    gen.close()
                except Exception:  # noqa: BLE001 - the run is over; an
                    # error unwinding a thread that never finished is not
                    # part of it (the garbage collector ignored these too)
                    pass
        self.log, self.notes = log, notes
        self._log_append = log.raw_append()

    def _main_task(self, ctx: ThreadCtx) -> Gen:
        try:
            # Program globals are per-process (each rank has its own copy,
            # like distinct address spaces).
            for decl in self.program.globals:
                yield from self._exec_vardecl(decl, ctx, target=ctx.proc.globals)
            main = self._functions.get("main")
            if main is None:
                raise SimAbort(f"program {self.program.name!r} has no main()")
            yield self._call_user(main, [], ctx)
        except SimAbort as err:
            self.note(abort_note(f"rank {ctx.proc.rank}", err))

    # -- statement execution -------------------------------------------------

    def _exec_block(self, block: A.Block, ctx: ThreadCtx, new_scope: bool = True) -> Gen:
        if new_scope:
            saved = ctx.scope
            ctx.scope = Scope(parent=saved)
        flow: Flow = None
        try:
            for stmt in block.stmts:
                flow = yield from self._exec_stmt(stmt, ctx)
                if flow is not None:
                    break
        finally:
            if new_scope:
                ctx.scope = saved
        return flow

    def _exec_stmt(self, node: A.Stmt, ctx: ThreadCtx) -> Gen:
        yield Step(self.cm.stmt)
        if isinstance(node, A.VarDecl):
            yield from self._exec_vardecl(node, ctx, target=ctx.scope)
            return None
        if isinstance(node, A.Assign):
            yield from self._exec_assign(node, ctx)
            return None
        if isinstance(node, A.ExprStmt):
            yield from self._eval(node.expr, ctx)
            return None
        if isinstance(node, A.If):
            cond = yield from self._eval(node.cond, ctx)
            if truthy(cond):
                return (yield from self._exec_block(node.then, ctx))
            if node.els is not None:
                els = node.els if isinstance(node.els, A.Block) else A.Block([node.els])
                return (yield from self._exec_block(els, ctx))
            return None
        if isinstance(node, A.While):
            while True:
                cond = yield from self._eval(node.cond, ctx)
                if not truthy(cond):
                    return None
                flow = yield from self._exec_block(node.body, ctx)
                if flow is not None:
                    return flow
                yield Step(self.cm.stmt)
        if isinstance(node, A.For):
            return (yield from self._exec_for(node, ctx))
        if isinstance(node, A.Return):
            value = None
            if node.value is not None:
                value = yield from self._eval(node.value, ctx)
            return (_RETURN, value)
        if isinstance(node, A.Print):
            parts = []
            for arg in node.args:
                val = yield from self._eval(arg, ctx)
                parts.append(str(val))
            self.outputs.append((ctx.proc.rank, ctx.tid, " ".join(parts)))
            return None
        if isinstance(node, A.AssertStmt):
            cond = yield from self._eval(node.cond, ctx)
            if not truthy(cond):
                raise SimAbort(f"assertion failed at {node.loc}")
            return None
        if isinstance(node, A.Block):
            return (yield from self._exec_block(node, ctx))
        if isinstance(node, A.OmpParallel):
            yield from self._exec_parallel(node, ctx)
            return None
        if isinstance(node, A.OmpFor):
            return (yield from self._exec_omp_for(node, ctx))
        if isinstance(node, A.OmpSections):
            return (yield from self._exec_omp_sections(node, ctx))
        if isinstance(node, A.OmpCritical):
            return (yield from self._exec_critical(node, ctx))
        if isinstance(node, A.OmpBarrier):
            self._collective_arrive(ctx, node, "barrier")
            yield from self._team_barrier(ctx)
            return None
        if isinstance(node, A.OmpSingle):
            return (yield from self._exec_single(node, ctx))
        if isinstance(node, A.OmpMaster):
            if ctx.team is None or ctx.team_index == 0:
                ctx.serialized_depth += 1
                try:
                    return (yield from self._exec_block(node.body, ctx))
                finally:
                    ctx.serialized_depth -= 1
            return None
        if isinstance(node, A.OmpAtomic):
            return (yield from self._exec_atomic(node, ctx))
        raise SimAbort(f"cannot execute statement {type(node).__name__}")

    def _exec_vardecl(self, node: A.VarDecl, ctx: ThreadCtx, target: Scope) -> Gen:
        if node.size is not None:
            size_val = yield from self._eval(node.size, ctx)
            value: Any = ArrayValue(as_int(size_val, "array size"))
        elif node.init is not None:
            value = yield from self._eval(node.init, ctx)
        else:
            value = 0
        target.declare(node.name, value)
        return None

    def _exec_assign(self, node: A.Assign, ctx: ThreadCtx) -> Gen:
        value = yield from self._eval(node.value, ctx)
        yield from self._store(node.target, value, ctx)
        return None

    def _store(self, target: A.Expr, value: Any, ctx: ThreadCtx) -> Gen:
        if isinstance(target, A.Name):
            cell = ctx.scope.lookup(target.ident)
            self._mem_access(ctx, cell, is_write=True, site=target)
            cell.value = value
            return None
        if isinstance(target, A.Index):
            arr, cell = yield from self._eval_array(target.base, ctx)
            index = yield from self._eval(target.index, ctx)
            idx = as_int(index, "array index")
            if cell is not None:
                self._mem_access(ctx, cell, is_write=True, site=target, index=idx)
            store_element(arr, idx, value)
            return None
        raise SimAbort("invalid assignment target")

    def _exec_for(self, node: A.For, ctx: ThreadCtx) -> Gen:
        saved = ctx.scope
        ctx.scope = Scope(parent=saved)
        try:
            if node.init is not None:
                if isinstance(node.init, A.VarDecl):
                    yield from self._exec_vardecl(node.init, ctx, target=ctx.scope)
                else:
                    flow = yield from self._exec_stmt(node.init, ctx)
                    if flow is not None:
                        return flow
            while True:
                if node.cond is not None:
                    cond = yield from self._eval(node.cond, ctx)
                    if not truthy(cond):
                        return None
                flow = yield from self._exec_block(node.body, ctx)
                if flow is not None:
                    return flow
                if node.step is not None:
                    flow = yield from self._exec_stmt(node.step, ctx)
                    if flow is not None:
                        return flow
                else:
                    yield Step(self.cm.stmt)
        finally:
            ctx.scope = saved

    # -- OpenMP ------------------------------------------------------------

    def _exec_parallel(self, node: A.OmpParallel, ctx: ThreadCtx) -> Gen:
        pctx = ctx.proc
        if node.num_threads is not None:
            nt_val = yield from self._eval(node.num_threads, ctx)
            nthreads = as_int(nt_val, "num_threads")
        else:
            nthreads = pctx.default_threads
        if nthreads < 1:
            raise SimAbort(f"num_threads must be >= 1, got {nthreads}")

        # Everything visible at region entry is shared by default.
        for cell in ctx.scope.visible_cells():
            cell.shared = True

        team = Team(pctx.rank, nthreads, ctx.tid, ctx.team, next(self._team_id))
        fork_cost = self.cm.fork_per_thread * nthreads
        instr_cost = self.charge_cfg.per_thread_setup * nthreads
        yield Step(fork_cost + instr_cost)

        reduction_outers = [
            (op, nm, ctx.scope.lookup(nm)) for op, nm in node.reductions
        ]

        def member_scope() -> Scope:
            scope = Scope(parent=ctx.scope)
            for nm in node.private:
                scope.declare(nm, 0)
            for nm in node.firstprivate:
                outer = ctx.scope.lookup(nm)
                init = outer.value
                if isinstance(init, ArrayValue):
                    copy = ArrayValue(len(init))
                    copy.load(init.snapshot())
                    init = copy
                scope.declare(nm, init)
            for op, nm, _outer in reduction_outers:
                scope.declare(nm, _REDUCTION_SEMANTICS[op][0])
            return scope

        worker_tids: List[int] = []
        for index in range(1, nthreads):
            tid = pctx.fresh_tid()
            team.register_worker(index, tid)
            wctx = ThreadCtx(pctx, tid, member_scope(), team, index)
            task = self.scheduler.spawn(
                f"p{pctx.rank}.t{tid}", pctx.rank, tid,
                self._worker_body(node, wctx, reduction_outers),
                start_clock=ctx.clock,
            )
            wctx.task = task
            worker_tids.append(tid)

        self.emit(ThreadFork, ctx, team=team.team_id, children=tuple(worker_tids))

        # Worksharing-instance visit counters are scoped to the team:
        # workers start with fresh ThreadCtx objects, so the master must
        # also enter the region with a clean counter set (otherwise its
        # counters from earlier regions desynchronize single/sections/
        # dynamic-for instance keys against the workers\').
        saved = (ctx.scope, ctx.team, ctx.team_index, ctx.construct_visits)
        ctx.scope = member_scope()
        ctx.team, ctx.team_index = team, 0
        ctx.construct_visits = {}
        try:
            flow = yield from self._exec_block(node.body, ctx, new_scope=False)
            if flow is not None:
                raise SimAbort(f"return inside omp parallel at {node.loc}")
            yield from self._fold_reductions(ctx, reduction_outers, node)
            self._collective_close(ctx)
        finally:
            team.final_clocks[0] = ctx.clock
            ctx.scope, ctx.team, ctx.team_index, ctx.construct_visits = saved

        yield Block("join omp parallel team", lambda: team.all_workers_done)
        ctx.advance_to(max(team.final_clocks))
        ctx.charge(self.cm.barrier)
        self.emit(ThreadJoin, ctx, team=team.team_id, children=tuple(worker_tids))
        if self.config.monitor_collectives and team.size > 1:
            mismatch = team.collectives.first_mismatch()
            if mismatch is not None:
                idx, a, b = mismatch
                self.note(
                    f"rank {pctx.rank} team {team.team_id}: collective "
                    f"arrival mismatch at position {idx} between members "
                    f"{a} and {b}"
                )
        return None

    def _worker_body(self, node: A.OmpParallel, wctx: ThreadCtx,
                     reduction_outers=()) -> Gen:
        self.emit(ThreadBegin, wctx, team=wctx.team.team_id, parent=wctx.team.master_tid)
        try:
            flow = yield from self._exec_block(node.body, wctx, new_scope=False)
            if flow is not None:
                raise SimAbort(f"return inside omp parallel at {node.loc}")
            yield from self._fold_reductions(wctx, reduction_outers, node)
            self._collective_close(wctx)
        except SimAbort as err:
            self.note(abort_note(f"rank {wctx.proc.rank} thread {wctx.tid}", err))
        finally:
            self.emit(ThreadEnd, wctx, team=wctx.team.team_id)
            wctx.team.worker_done(wctx.team_index, wctx.clock)

    def _fold_reductions(
        self, ctx: ThreadCtx, reduction_outers, construct: A.Stmt
    ) -> Gen:
        """Combine a member's private reduction partials into the shared
        variables under the process atomic lock (the synchronization a
        real OpenMP runtime performs, visible to the analyses).  The
        folds' memory site is *construct*, the ``omp parallel``/``omp
        for`` whose clause names the variables."""
        if not reduction_outers:
            return None
        monitored = self._monitors_site(construct)
        lock = ctx.proc.locks.atomic()
        yield from self._acquire(lock, ctx, "omp reduction")
        try:
            for op, nm, outer in reduction_outers:
                partial = ctx.scope.lookup(nm).value
                combine = _REDUCTION_SEMANTICS[op][1]
                if monitored:
                    self._mem_event(ctx, outer, is_write=True, callsite=0)
                outer.value = combine(outer.value, partial)
        finally:
            self._release(lock, ctx)
        return None

    def _loop_header(self, loop: A.For, ctx: ThreadCtx) -> Gen:
        """Evaluate an ``omp for`` header into (varname, iteration list)."""
        init = loop.init
        if isinstance(init, A.VarDecl) and init.init is not None:
            var = init.name
            start = yield from self._eval(init.init, ctx)
        elif isinstance(init, A.Assign) and isinstance(init.target, A.Name):
            var = init.target.ident
            start = yield from self._eval(init.value, ctx)
        else:
            raise SimAbort(f"omp for at {loop.loc}: unsupported init form")
        cond = loop.cond
        if not (isinstance(cond, A.Binary) and isinstance(cond.left, A.Name)
                and cond.left.ident == var and cond.op in ("<", "<=", ">", ">=")):
            raise SimAbort(f"omp for at {loop.loc}: condition must test the loop variable")
        bound = yield from self._eval(cond.right, ctx)
        step_stmt = loop.step
        if not (isinstance(step_stmt, A.Assign) and isinstance(step_stmt.target, A.Name)
                and step_stmt.target.ident == var
                and isinstance(step_stmt.value, A.Binary)
                and step_stmt.value.op in ("+", "-")):
            raise SimAbort(f"omp for at {loop.loc}: unsupported step form")
        sval = step_stmt.value
        if isinstance(sval.left, A.Name) and sval.left.ident == var:
            inc = yield from self._eval(sval.right, ctx)
        elif isinstance(sval.right, A.Name) and sval.right.ident == var and sval.op == "+":
            inc = yield from self._eval(sval.left, ctx)
        else:
            raise SimAbort(f"omp for at {loop.loc}: unsupported step form")
        inc = as_int(inc, "loop step")
        if sval.op == "-":
            inc = -inc
        if inc == 0:
            raise SimAbort(f"omp for at {loop.loc}: zero loop step")
        start = as_int(start, "loop start")
        bound = as_int(bound, "loop bound")
        # lazy ranges, not materialized lists: a generated loop header
        # may span billions of iterations, and the budget guard below
        # must fire before any allocation proportional to the span
        empty = range(0)
        if cond.op == "<":
            iters = range(start, bound, inc) if inc > 0 else empty
        elif cond.op == "<=":
            iters = range(start, bound + 1, inc) if inc > 0 else empty
        elif cond.op == ">":
            iters = range(start, bound, inc) if inc < 0 else empty
        else:  # >=
            iters = range(start, bound - 1, inc) if inc < 0 else empty
        return var, iters

    def _exec_omp_for(self, node: A.OmpFor, ctx: ThreadCtx) -> Gen:
        self._collective_arrive(ctx, node, "for")
        var, iterations = yield from self._loop_header(node.loop, ctx)
        check_iteration_budget(
            len(iterations), self.config.max_steps, node.loc
        )
        team = ctx.team
        chunk = None
        if node.chunk is not None:
            cval = yield from self._eval(node.chunk, ctx)
            chunk = max(1, as_int(cval, "chunk"))

        # reduction(...) clause: shadow each variable with a per-thread
        # partial for the duration of the loop, folded before the barrier.
        reduction_outers = [
            (op, nm, ctx.scope.lookup(nm)) for op, nm in node.reductions
        ]
        loop_scope: Optional[Scope] = None
        if reduction_outers:
            loop_scope = Scope(parent=ctx.scope)
            for op, nm, _outer in reduction_outers:
                loop_scope.declare(nm, _REDUCTION_SEMANTICS[op][0])
            ctx.scope = loop_scope

        def run_iteration(i: int) -> Gen:
            saved = ctx.scope
            ctx.scope = Scope(parent=saved)
            ctx.scope.declare(var, i)
            try:
                flow = yield from self._exec_block(node.loop.body, ctx)
                if flow is not None:
                    raise SimAbort(f"return inside omp for at {node.loc}")
            finally:
                ctx.scope = saved

        try:
            if team is None or team.size == 1:
                for i in iterations:
                    yield from run_iteration(i)
            elif node.schedule == "static":
                key = (node.nid, ctx.visit(node.nid))
                for i in static_chunks(iterations, team.size, ctx.team_index, chunk):
                    yield from run_iteration(i)
            else:  # dynamic
                key = (node.nid, ctx.visit(node.nid))
                state = team.construct_state(key, lambda: ForState(iterations))
                grab = chunk or 1
                while True:
                    batch = state.grab(grab)
                    if not batch:
                        break
                    for i in batch:
                        yield from run_iteration(i)
            yield from self._fold_reductions(ctx, reduction_outers, node)
        finally:
            if loop_scope is not None:
                ctx.scope = loop_scope.parent
        if not node.nowait:
            yield from self._team_barrier(ctx)
        return None

    def _exec_omp_sections(self, node: A.OmpSections, ctx: ThreadCtx) -> Gen:
        self._collective_arrive(ctx, node, "sections")
        team = ctx.team
        if team is None or team.size == 1:
            for section in node.sections:
                flow = yield from self._exec_block(section, ctx)
                if flow is not None:
                    return flow
            return None
        key = (node.nid, ctx.visit(node.nid))
        state = team.construct_state(key, lambda: SectionsState(len(node.sections)))
        while True:
            idx = state.grab()
            if idx is None:
                break
            flow = yield from self._exec_block(node.sections[idx], ctx)
            if flow is not None:
                raise SimAbort(f"return inside omp sections at {node.loc}")
        if not node.nowait:
            yield from self._team_barrier(ctx)
        return None

    def _exec_single(self, node: A.OmpSingle, ctx: ThreadCtx) -> Gen:
        self._collective_arrive(ctx, node, "single")
        team = ctx.team
        if team is None or team.size == 1:
            flow = yield from self._exec_block(node.body, ctx)
            if flow is not None:
                return flow
            return None
        key = (node.nid, ctx.visit(node.nid))
        state = team.construct_state(key, lambda: SingleState())
        if state.try_claim():
            ctx.serialized_depth += 1
            try:
                flow = yield from self._exec_block(node.body, ctx)
            finally:
                ctx.serialized_depth -= 1
            if flow is not None:
                raise SimAbort(f"return inside omp single at {node.loc}")
        if not node.nowait:
            yield from self._team_barrier(ctx)
        return None

    def _acquire(self, lock, ctx: ThreadCtx, reason: str) -> Gen:
        yield Block(reason, lambda: not lock.held)
        now = lock.acquire(ctx.tid, ctx.clock)
        ctx.advance_to(now)
        ctx.charge(self.cm.lock)
        if self.faults.enabled:
            jitter, spec = self.faults.lock_jitter(ctx.proc.rank)
            if spec is not None:
                ctx.charge(jitter)
                self.faults.record(
                    spec, ctx.proc.rank,
                    f"lock {lock.name!r} acquire jittered by {jitter:.2f}",
                )
        ctx.held_locks.append(lock.name)
        self.emit(LockAcquire, ctx, lock=lock.name)

    def _release(self, lock, ctx: ThreadCtx) -> None:
        lock.release(ctx.tid, ctx.clock)
        ctx.charge(self.cm.lock)
        ctx.held_locks.remove(lock.name)
        self.emit(LockRelease, ctx, lock=lock.name)

    def _exec_critical(self, node: A.OmpCritical, ctx: ThreadCtx) -> Gen:
        lock = ctx.proc.locks.critical(node.name)
        yield from self._acquire(lock, ctx, f"omp critical ({node.name or 'anon'})")
        try:
            flow = yield from self._exec_block(node.body, ctx)
        finally:
            self._release(lock, ctx)
        return flow

    def _exec_atomic(self, node: A.OmpAtomic, ctx: ThreadCtx) -> Gen:
        lock = ctx.proc.locks.atomic()
        yield from self._acquire(lock, ctx, "omp atomic")
        try:
            yield from self._exec_assign(node.stmt, ctx)
        finally:
            self._release(lock, ctx)
        return None

    def _team_barrier(self, ctx: ThreadCtx) -> Gen:
        team = ctx.team
        if team is None or team.size == 1:
            ctx.charge(self.cm.barrier)
            return None
        epoch = team.barrier.arrive(ctx.clock)
        yield Block("omp barrier", lambda: team.barrier.passed(epoch))
        ctx.advance_to(team.barrier.release_time)
        ctx.charge(self.cm.barrier)
        self.emit(BarrierEvent, ctx, team=team.team_id, epoch=epoch)
        return None

    # -- expressions ------------------------------------------------------------

    def _monitors_site(self, site: A.Node) -> bool:
        """Does the run's memory monitoring select the access site
        *site*?  The bytecode VM settles this when it compiles a site."""
        config = self.config
        if not config.monitor_memory:
            return False
        sites = config.memory_sites
        return sites is None or intern_loc(site.loc) in sites

    def _mem_access(
        self, ctx: ThreadCtx, cell: Cell, is_write: bool, site: A.Expr,
        index: int = -1,
    ) -> None:
        """Record (and charge for) a shared-memory access at the
        variable or element expression *site*, when it is monitored."""
        if self._monitors_site(site):
            self._mem_event(ctx, cell, is_write, site.nid, index)

    def _mem_event(
        self, ctx: ThreadCtx, cell: Cell, is_write: bool, callsite: int,
        index: int = -1,
    ) -> None:
        """Record (and charge for) an access at a monitored site: a
        shared cell, in parallel context.

        Array accesses carry their element index so the race analyses are
        address-granular, like a real binary-instrumentation checker.
        The bytecode VM inlines this at its compiled monitored sites;
        reduction folds come here on both engines.
        """
        if not cell.shared or not ctx.in_parallel:
            return
        ctx.charge(self.charge_cfg.mem_event_cost)
        self.emit(
            MemAccess, ctx,
            is_write=is_write, cell=cell.cid, var=cell.name, callsite=callsite,
            index=index,
        )

    def _eval(self, node: A.Expr, ctx: ThreadCtx) -> Gen:
        if isinstance(node, A.IntLit):
            return node.value
        if isinstance(node, A.FloatLit):
            return node.value
        if isinstance(node, A.BoolLit):
            return node.value
        if isinstance(node, A.StrLit):
            return node.value
        if isinstance(node, A.Name):
            cell = ctx.scope.lookup(node.ident)
            self._mem_access(ctx, cell, is_write=False, site=node)
            return cell.value
        if isinstance(node, A.Index):
            arr, cell = yield from self._eval_array(node.base, ctx)
            index = yield from self._eval(node.index, ctx)
            idx = as_int(index, "array index")
            if cell is not None:
                self._mem_access(ctx, cell, is_write=False, site=node, index=idx)
            return arr.get(idx)
        if isinstance(node, A.Unary):
            operand = yield from self._eval(node.operand, ctx)
            return BinOps.apply_unary(node.op, operand)
        if isinstance(node, A.Binary):
            left = yield from self._eval(node.left, ctx)
            if node.op == "&&":
                if not truthy(left):
                    return False
                right = yield from self._eval(node.right, ctx)
                return truthy(right)
            if node.op == "||":
                if truthy(left):
                    return True
                right = yield from self._eval(node.right, ctx)
                return truthy(right)
            right = yield from self._eval(node.right, ctx)
            return BinOps.apply(node.op, left, right)
        if isinstance(node, A.CallExpr):
            return (yield from self._eval_call(node, ctx))
        raise SimAbort(f"cannot evaluate expression {type(node).__name__}")

    def _eval_array(self, base: A.Expr, ctx: ThreadCtx) -> Gen:
        """Evaluate an array-valued expression, returning (array, cell|None)."""
        if isinstance(base, A.Name):
            cell = ctx.scope.lookup(base.ident)
            arr = cell.value
            if not isinstance(arr, ArrayValue):
                raise SimAbort(f"{base.ident!r} is not an array")
            return arr, cell
        value = yield from self._eval(base, ctx)
        if not isinstance(value, ArrayValue):
            raise SimAbort("indexed expression is not an array")
        return value, None

    # -- calls --------------------------------------------------------------

    def _eval_call(self, node: A.CallExpr, ctx: ThreadCtx) -> Gen:
        name = node.name
        # HOME's instrumented wrappers and plain MPI builtins.
        if name.startswith("hmpi_") or name.startswith("mpi_"):
            op = name[1:] if name.startswith("hmpi_") else name
            handler = self._mpi_table.get(op)
            if handler is not None:
                args = []
                for arg in node.args:
                    val = yield from self._eval(arg, ctx)
                    args.append(val)
                short = self._arity_error(op, len(args))
                if short is not None:
                    raise SimAbort(short)
                if op in COLLECTIVE_OPS:
                    # an MPI collective issued from inside a team is a
                    # per-thread collective arrival (PARCOACH matching)
                    self._collective_arrive(ctx, node, "mpi", op=op)
                instrumented = name.startswith("hmpi_")
                return (yield from handler(self, ctx, node, args, instrumented))
        builtin = _SIMPLE_BUILTINS.get(name)
        if builtin is not None:
            args = []
            for arg in node.args:
                val = yield from self._eval(arg, ctx)
                args.append(val)
            short = self._arity_error(name, len(args))
            if short is not None:
                raise SimAbort(short)
            return (yield from builtin(self, ctx, node, args))
        fn = self._functions.get(name)
        if fn is not None:
            args = []
            for arg in node.args:
                val = yield from self._eval(arg, ctx)
                args.append(val)
            return (yield from self._call_user(fn, args, ctx))
        raise SimAbort(f"unknown function {name!r} at {node.loc}")

    def _call_user(self, fn: A.FuncDef, args: List[Any], ctx: ThreadCtx) -> Gen:
        if len(args) != len(fn.params):
            raise SimAbort(
                f"{fn.name}() expects {len(fn.params)} argument(s), got {len(args)}"
            )
        ctx.call_depth += 1
        if ctx.call_depth > self.config.max_call_depth:
            ctx.call_depth -= 1
            raise SimAbort(f"call depth exceeded in {fn.name}()")
        saved = ctx.scope
        ctx.scope = Scope(parent=ctx.proc.globals)
        for pname, pval in zip(fn.params, args):
            ctx.scope.declare(pname, pval)
        try:
            flow = yield from self._exec_block(fn.body, ctx, new_scope=False)
        finally:
            ctx.scope = saved
            ctx.call_depth -= 1
        if flow is not None and flow[0] == _RETURN:
            return flow[1]
        return 0


    # -- pthread-style explicit threads ------------------------------------
    #
    # The paper lists "extending HOME to handle ... PThreads" as future
    # work; these builtins implement that model: free-form threads that
    # share the process address space without an OpenMP team.  Fork/join
    # events reuse the team-event vocabulary (a one-child pseudo-team),
    # so the happens-before pass needs no special cases.

    def _spawn_pthread(self, ctx: ThreadCtx, fname: str, arg: Any) -> int:
        fn = self._functions.get(fname)
        if fn is None:
            raise SimAbort(f"thread_spawn: unknown function {fname!r}")
        if len(fn.params) != 1:
            raise SimAbort(
                f"thread_spawn: {fname}() must take exactly one parameter"
            )
        pctx = ctx.proc
        handle = next(pctx._pthread_handle)
        tid = pctx.fresh_tid()
        team_id = next(self._team_id)
        state = {"done": False, "result": 0, "tid": tid,
                 "team": team_id, "clock": 0.0}
        pctx.pthreads[handle] = state
        pctx.live_pthreads += 1
        pctx.ever_pthreads = True
        # Everything visible to the spawner (its locals are not passed,
        # but globals are shared) may now be accessed concurrently.
        for cell in ctx.scope.visible_cells():
            cell.shared = True

        tctx = ThreadCtx(pctx, tid, Scope(parent=pctx.globals))
        tctx.is_pthread = True
        ctx.charge(self.cm.fork_per_thread + self.charge_cfg.per_thread_setup)
        task = self.scheduler.spawn(
            f"p{pctx.rank}.pt{tid}", pctx.rank, tid,
            self._pthread_body(fn, arg, tctx, state, team_id),
            start_clock=ctx.clock,
        )
        tctx.task = task
        self.emit(ThreadFork, ctx, team=team_id, children=(tid,))
        return handle

    def _pthread_body(self, fn: A.FuncDef, arg: Any, tctx: ThreadCtx,
                      state: dict, team_id: int) -> Gen:
        self.emit(ThreadBegin, tctx, team=team_id, parent=0)
        try:
            result = yield self._call_user(fn, [arg], tctx)
            state["result"] = result
        except SimAbort as err:
            self.note(abort_note(f"rank {tctx.proc.rank} thread {tctx.tid}", err))
        finally:
            self.emit(ThreadEnd, tctx, team=team_id)
            state["done"] = True
            state["clock"] = tctx.clock
            tctx.proc.live_pthreads -= 1

    def _join_pthread(self, ctx: ThreadCtx, handle: int) -> Gen:
        state = ctx.proc.pthreads.get(handle)
        if state is None:
            raise SimAbort(f"thread_join: unknown thread handle {handle}")
        yield Block(
            f"thread_join({handle})", lambda: state["done"]
        )
        ctx.advance_to(state["clock"])
        ctx.charge(self.cm.fork_per_thread)
        self.emit(ThreadJoin, ctx, team=state["team"], children=(state["tid"],))
        return state["result"]


# ---------------------------------------------------------------------------
# Simple (non-MPI) builtins
# ---------------------------------------------------------------------------


def _bi_compute(interp: Interpreter, ctx: ThreadCtx, node, args) -> Gen:
    units = as_int(args[0], "compute units") if args else 1
    yield Step(max(0, units) * interp.cm.compute_unit)
    return 0


def _bi_thread_num(interp, ctx, node, args) -> Gen:
    return ctx.team_index if ctx.team is not None else 0
    yield  # pragma: no cover


def _bi_num_threads(interp, ctx, node, args) -> Gen:
    return ctx.team.size if ctx.team is not None else 1
    yield  # pragma: no cover


def _bi_set_num_threads(interp, ctx, node, args) -> Gen:
    ctx.proc.default_threads = max(1, as_int(args[0], "num threads"))
    return 0
    yield  # pragma: no cover


def _bi_max_threads(interp, ctx, node, args) -> Gen:
    return ctx.proc.default_threads
    yield  # pragma: no cover


def _lock_name(args) -> str:
    if not isinstance(args[0], str):
        raise SimAbort("lock routines take a lock name string")
    return args[0]


def _bi_init_lock(interp, ctx, node, args) -> Gen:
    ctx.proc.locks.user_lock(_lock_name(args))
    return 0
    yield  # pragma: no cover


def _bi_set_lock(interp: Interpreter, ctx, node, args) -> Gen:
    lock = ctx.proc.locks.user_lock(_lock_name(args))
    yield from interp._acquire(lock, ctx, f"omp_set_lock({lock.name})")
    return 0


def _bi_unset_lock(interp: Interpreter, ctx, node, args) -> Gen:
    lock = ctx.proc.locks.user_lock(_lock_name(args))
    interp._release(lock, ctx)
    return 0
    yield  # pragma: no cover


def _bi_test_lock(interp: Interpreter, ctx, node, args) -> Gen:
    lock = ctx.proc.locks.user_lock(_lock_name(args))
    if lock.held:
        return False
    yield from interp._acquire(lock, ctx, f"omp_test_lock({lock.name})")
    return True


def _bi_array_size(interp, ctx, node, args) -> Gen:
    arr = args[0]
    if not isinstance(arr, ArrayValue):
        raise SimAbort("array_size() requires an array")
    return len(arr)
    yield  # pragma: no cover


def _bi_min(interp, ctx, node, args) -> Gen:
    return min(args)
    yield  # pragma: no cover


def _bi_max(interp, ctx, node, args) -> Gen:
    return max(args)
    yield  # pragma: no cover


def _bi_abs(interp, ctx, node, args) -> Gen:
    return abs(args[0])
    yield  # pragma: no cover


def _bi_thread_spawn(interp: Interpreter, ctx, node, args) -> Gen:
    if len(args) != 2 or not isinstance(args[0], str):
        raise SimAbort('thread_spawn expects ("function_name", arg)')
    yield Step(interp.cm.stmt)
    return interp._spawn_pthread(ctx, args[0], args[1])


def _bi_thread_join(interp: Interpreter, ctx, node, args) -> Gen:
    handle = as_int(args[0], "thread handle")
    return (yield from interp._join_pthread(ctx, handle))


def _bi_monitor_setup(interp, ctx, node, args) -> Gen:
    """MPI_MonitorVariableSetup — cosmetic marker inserted by HOME's
    instrumentation (monitored cells exist implicitly per process)."""
    return 0
    yield  # pragma: no cover


_SIMPLE_BUILTINS = {
    "compute": _bi_compute,
    "omp_get_thread_num": _bi_thread_num,
    "omp_get_num_threads": _bi_num_threads,
    "omp_set_num_threads": _bi_set_num_threads,
    "omp_get_max_threads": _bi_max_threads,
    "omp_init_lock": _bi_init_lock,
    "omp_destroy_lock": _bi_init_lock,
    "omp_set_lock": _bi_set_lock,
    "omp_unset_lock": _bi_unset_lock,
    "omp_test_lock": _bi_test_lock,
    "array_size": _bi_array_size,
    "min": _bi_min,
    "max": _bi_max,
    "abs": _bi_abs,
    "mpi_monitor_setup": _bi_monitor_setup,
    "thread_spawn": _bi_thread_spawn,
    "thread_join": _bi_thread_join,
}
