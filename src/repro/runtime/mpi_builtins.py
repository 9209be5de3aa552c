"""MPI builtin implementations for the interpreter.

Every handler has the signature::

    handler(interp, ctx, node, args, instrumented) -> generator -> value

``instrumented=True`` means the call site was rewritten by HOME's static
pass into an ``hmpi_*`` wrapper: the handler then charges the wrapper
overhead and writes the monitored variables (srctmp, tagtmp, commtmp,
requesttmp, collectivetmp, finalizetmp) *before* performing the real
operation — exactly the paper's Listing 1-6 wrapper structure.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..errors import MPIUsageError, PayloadShapeError, RankCrashFault, SimAbort
from ..events import ErrorHandlerEvent, FaultEvent, MonitoredWrite, MPICall, MPIErrorEvent
from ..faults.injector import kill_worker_process
from ..events.event import MonitoredKind
from ..events.intern import intern_loc
from ..mpi.collectives import apply_reduce
from ..mpi.constants import (
    MPI_THREAD_FUNNELED,
    MPI_THREAD_SERIALIZED,
    MPI_THREAD_SINGLE,
    THREAD_LEVEL_NAMES,
)
from ..mpi.errors import (
    MPI_ERR_PROC_FAILED,
    MPI_ERR_REVOKED,
    MPI_ERR_TIMEOUT,
    MPI_ERRORS_ARE_FATAL,
    MPI_ERRORS_RETURN,
    MPI_SUCCESS,
    error_string,
)
from ..mpi.ftmpi import RetryPolicy
from ..mpi.message import Payload
from ..mpi.requests import Request
from .scheduler import Block, Step
from .values import ELEMENT_ERRORS, ArrayValue, as_int, describe_value

Gen = Generator


def _loc(node) -> str:
    return intern_loc(node.loc)


def _payload(buf: Any, count: int) -> Payload:
    """Snapshot a send buffer (array slice or scalar) into a payload."""
    if isinstance(buf, ArrayValue):
        data = buf.data
        return tuple(data[:count] if count > 0 else data)
    if isinstance(buf, (int, float, bool)):
        return (float(buf),)
    raise SimAbort(f"cannot send value of type {type(buf).__name__}")


def _deliver(buf: Any, payload: Payload, count: int) -> None:
    if isinstance(buf, ArrayValue):
        buf.load(payload, count if count > 0 else None)
    # Scalar receive buffers have value semantics in the mini language;
    # callers use the return value instead.


class _CallInfo:
    """Per-invocation bookkeeping shared by the helpers below."""

    __slots__ = ("call_id", "skipped")

    def __init__(self, call_id: int, skipped: bool) -> None:
        self.call_id = call_id
        self.skipped = skipped


def _prologue(
    interp, ctx, node, op: str, instrumented: bool,
    monitored: List[Tuple[MonitoredKind, Any]],
    args_dict: Dict[str, Any],
) -> _CallInfo:
    """Wrapper writes, manager round trip, thread-level gate, begin event."""
    _crash_gate(interp, ctx, op)
    charge = interp.charge_cfg
    call_id = interp.next_call_id()
    if instrumented:
        ctx.charge(charge.wrapper_cost)
        if monitored:
            # Build all monitored-variable writes locally and land them
            # with one batched append.  Each write is charged *before*
            # its event is stamped, so the per-event virtual times match
            # one-at-a-time emission exactly.
            log = interp.log
            rank = ctx.proc.rank
            tid = ctx.tid
            loc = _loc(node)
            batch = []
            for kind, value in monitored:
                ctx.charge(charge.monitored_event_cost)
                batch.append(
                    MonitoredWrite(
                        proc=rank, thread=tid, seq=log.next_seq(),
                        time=ctx.clock, kind=kind, value=value, mpi_op=op,
                        callsite=node.nid, loc=loc, call_id=call_id,
                    )
                )
            interp.emit_batch(batch)
    skipped = not _thread_level_gate(interp, ctx, op)
    args = dict(args_dict)
    if skipped:
        args["skipped"] = True
    interp.emit(
        MPICall, ctx,
        op=op, phase="begin", call_id=call_id, callsite=node.nid, loc=_loc(node),
        is_main_thread=ctx.is_main_thread, instrumented=instrumented, args=args,
    )
    if not skipped:
        ctx.proc.mpi.calls_in_flight += 1
    return _CallInfo(call_id, skipped)


def _epilogue(interp, ctx, node, op: str, info: _CallInfo, instrumented: bool,
              args_dict: Optional[Dict[str, Any]] = None) -> None:
    if not info.skipped:
        ctx.proc.mpi.calls_in_flight -= 1
    interp.emit(
        MPICall, ctx,
        op=op, phase="end", call_id=info.call_id, callsite=node.nid, loc=_loc(node),
        is_main_thread=ctx.is_main_thread, instrumented=instrumented,
        args=dict(args_dict or {}),
    )
    # Marmot-style central manager: every MPI call reports to a single
    # analysis process *after* completing (a PMPI post-hook).  The
    # manager is a shared resource serving the whole job, so the
    # expected queueing delay per report grows with the number of
    # processes feeding it — the source of Marmot's poor scaling.
    charge = interp.charge_cfg
    if charge.manager_rtt:
        delay = charge.manager_rtt
        if charge.manager_serializes:
            delay += charge.manager_service * interp.config.nprocs
        ctx.charge(delay)
        interp.world.manager_free_at = max(interp.world.manager_free_at, ctx.clock)


def _crash_gate(interp, ctx, op: str) -> None:
    """Injected rank-crash (MPI_Abort model): the victim rank dies at
    its Nth MPI call and every later MPI call from any of its threads
    fails immediately — the rank is gone."""
    faults = interp.faults
    if not faults.enabled:
        return
    rank = ctx.proc.rank
    if faults.crashed(rank):
        raise RankCrashFault(
            f"rank {rank}: {op} on dead rank (earlier injected crash)"
        )
    spec = faults.on_mpi_call(rank)
    if spec is not None:
        detail = (
            f"rank {rank} crashed (injected MPI_Abort) at MPI call "
            f"#{spec.at_call} ({op})"
        )
        ctx.proc.mpi.crashed = True
        interp.world.ft.mark_failed(rank)
        interp.faults.record(spec, rank, detail)
        interp.emit(FaultEvent, ctx, kind=spec.kind, detail=detail, op=op)
        interp.note(f"fault injected: {detail}")
        raise RankCrashFault(detail)
    spec = faults.worker_kill_due(rank)
    if spec is not None:
        # poison-cell drill: SIGKILL the hosting worker process (or, in
        # a non-disposable process, unwind as an ordinary cell error)
        detail = (
            f"worker-kill drill at rank {rank}'s MPI call "
            f"#{spec.at_call} ({op})"
        )
        interp.faults.record(spec, rank, detail)
        kill_worker_process(detail)


def _post_send_faulted(
    interp, ctx, dst_local: int, tag: int, comm_id: int,
    payload: Payload, sync: bool, op: str,
):
    """world.post_send with the injector consulted on delivery.

    Returns the delivered :class:`~repro.mpi.message.Message`; *sync*
    may have been forced on by an eager→rendezvous flip (check
    ``msg.sync``).
    """
    world = interp.world
    dst_world = world.comm(comm_id).world_rank(dst_local)
    perturb = interp.faults.perturb_send(ctx.proc.rank, dst_world)
    msg = world.post_send(
        src_world=ctx.proc.rank,
        dst_local=dst_local,
        tag=tag,
        comm_id=comm_id,
        payload=payload,
        sent_time=ctx.clock,
        latency=interp.cm.msg_latency + perturb.extra_latency,
        per_elem=interp.cm.msg_per_elem,
        sync=sync or perturb.force_sync,
        sender_thread=ctx.tid,
    )
    if perturb.reorder:
        world.perturb_mailbox(dst_world, comm_id, interp.faults.rng)
    for spec in perturb.applied:
        detail = (
            f"{spec.kind} on message #{msg.msg_id} "
            f"rank {ctx.proc.rank} -> rank {dst_world} ({op})"
        )
        interp.faults.record(spec, ctx.proc.rank, detail)
        interp.emit(FaultEvent, ctx, kind=spec.kind, detail=detail, op=op)
    return msg


# ---------------------------------------------------------------------------
# Fault tolerance: error surfacing, timeouts, handler dispatch
# ---------------------------------------------------------------------------


def _ft_wait(interp, ctx, comm_id: int, what: str, ready, peer_failed=None,
             always_block: bool = False) -> Gen:
    """Block until *ready()*, with fault-tolerant escapes.

    Returns ``MPI_SUCCESS`` once ready; otherwise the error class the
    wait failed over to: ``MPI_ERR_REVOKED`` (communicator revoked),
    ``MPI_ERR_PROC_FAILED`` (*peer_failed()* true and no completion
    possible), or ``MPI_ERR_TIMEOUT`` (retry budget exhausted).

    When the FT layer is inactive on this communicator the behavior is
    the legacy one — a single bare Block whose wake predicate is
    *ready* — so fault-free runs are byte-identical to the pre-FT
    simulator.  Timeouts only fire through the scheduler's stall hook:
    a blocked op can never out-wait a runnable peer, so an armed waiter
    escapes only when the entire job has stalled.
    """
    ft = interp.world.ft
    if not ft.active(comm_id):
        if always_block or not ready():
            yield Block(what, ready)
        return MPI_SUCCESS
    policy = ft.policy(comm_id)
    attempt = 0
    first = True
    while True:
        if not (always_block and first):
            if ready():
                return MPI_SUCCESS
            if ft.is_revoked(comm_id):
                return MPI_ERR_REVOKED
            if peer_failed is not None and peer_failed():
                return MPI_ERR_PROC_FAILED
        first = False
        waiter = ft.arm(ctx.clock + policy.timeout) if policy is not None else None

        def wake(w=waiter):
            return (
                ready()
                or ft.is_revoked(comm_id)
                or (peer_failed is not None and peer_failed())
                or (w is not None and w.escaped)
            )

        yield Block(what, wake)
        if waiter is None:
            continue
        if waiter.escaped and not (
            ready()
            or ft.is_revoked(comm_id)
            or (peer_failed is not None and peer_failed())
        ):
            # Pure timeout: back off and retry, bounded.
            if attempt >= policy.max_retries:
                return MPI_ERR_TIMEOUT
            backoff = interp.faults.retry_backoff(
                policy.backoff_base, policy.backoff_factor, attempt
            )
            ctx.charge(backoff)
            attempt += 1
            interp.note(
                f"rank {ctx.proc.rank}: {what}: timed out, retry "
                f"{attempt}/{policy.max_retries} after backoff {backoff:.1f}"
            )
            continue
        ft.disarm(waiter)


def _dispatch_error(interp, ctx, node, op: str, comm_id: int, code: int,
                    info: "_CallInfo", instrumented: bool, detail: str = "") -> Gen:
    """Surface error *code* through the communicator's error handler.

    ``MPI_ERRORS_ARE_FATAL`` aborts the rank (the pre-FT behavior for
    any fault); ``MPI_ERRORS_RETURN`` and user handler functions let
    the builtin hand the error class back to the program.  A user
    handler runs *inside* the failing MPI call — exactly the reentrancy
    hazard the new violation rule checks — as ``handler(comm, code)``.
    Must be called before the op's ``_epilogue``.
    """
    ft = interp.world.ft
    handler = ft.handler(comm_id)
    hname = (
        "fatal" if handler == MPI_ERRORS_ARE_FATAL
        else "return" if handler == MPI_ERRORS_RETURN
        else str(handler)
    )
    interp.emit(
        MPIErrorEvent, ctx,
        op=op, comm=comm_id, error_class=error_string(code), code=code,
        handler=hname, detail=detail,
    )
    interp.note(
        f"rank {ctx.proc.rank}: {op} on comm {comm_id} raised "
        f"{error_string(code)} (handler: {hname})"
        + (f": {detail}" if detail else "")
    )
    if handler == MPI_ERRORS_ARE_FATAL:
        if not info.skipped:
            ctx.proc.mpi.calls_in_flight -= 1
        raise SimAbort(
            f"rank {ctx.proc.rank}: {op}: {error_string(code)} "
            f"with MPI_ERRORS_ARE_FATAL"
        )
    if isinstance(handler, str):
        fn = interp._functions.get(handler)
        if fn is None:
            interp.note(
                f"rank {ctx.proc.rank}: unknown error handler {handler!r}; "
                "treating as MPI_ERRORS_RETURN"
            )
        else:
            interp.emit(
                ErrorHandlerEvent, ctx,
                phase="enter", comm=comm_id, code=code, handler=handler,
            )
            ctx.handler_depth += 1
            try:
                yield from interp._call_user(fn, [comm_id, code], ctx)
            finally:
                ctx.handler_depth -= 1
                interp.emit(
                    ErrorHandlerEvent, ctx,
                    phase="exit", comm=comm_id, code=code, handler=handler,
                )
    return code


_GATE_EXEMPT = frozenset({"mpi_init", "mpi_init_thread", "mpi_finalize",
                          "mpi_comm_rank", "mpi_comm_size", "mpi_wtime",
                          "mpi_is_thread_main", "mpi_initialized"})


def _thread_level_gate(interp, ctx, op: str) -> bool:
    """Enforce the granted thread level; returns False if the call is skipped."""
    pstate = ctx.proc.mpi
    if op in ("mpi_init", "mpi_init_thread"):
        return True
    if not pstate.initialized:
        raise SimAbort(f"{op} called before MPI initialization")
    if pstate.finalized and op != "mpi_finalize":
        raise SimAbort(f"{op} called after mpi_finalize")
    if op in _GATE_EXEMPT:
        return True
    level = pstate.thread_level
    breach = None
    if level in (MPI_THREAD_SINGLE, MPI_THREAD_FUNNELED) and not ctx.is_main_thread:
        breach = (
            f"rank {ctx.proc.rank}: {op} from non-main thread {ctx.tid} "
            f"under {THREAD_LEVEL_NAMES[level]}"
        )
    elif level == MPI_THREAD_SERIALIZED and pstate.calls_in_flight > 0:
        breach = (
            f"rank {ctx.proc.rank}: {op} on thread {ctx.tid} overlaps another "
            f"MPI call under {THREAD_LEVEL_NAMES[level]}"
        )
    if breach is None:
        return True
    interp.note(breach)
    mode = interp.config.thread_level_mode
    if mode == "strict":
        raise SimAbort(breach)
    return mode != "skip"


# ---------------------------------------------------------------------------
# Initialization / finalization
# ---------------------------------------------------------------------------


def mpi_init(interp, ctx, node, args, instrumented) -> Gen:
    return (yield from _init_common(interp, ctx, node, MPI_THREAD_SINGLE, instrumented,
                                    op="mpi_init"))


def mpi_init_thread(interp, ctx, node, args, instrumented) -> Gen:
    required = as_int(args[0], "required thread level") if args else MPI_THREAD_SINGLE
    return (yield from _init_common(interp, ctx, node, required, instrumented,
                                    op="mpi_init_thread"))


def _init_common(interp, ctx, node, required: int, instrumented: bool, op: str) -> Gen:
    pstate = ctx.proc.mpi
    if pstate.initialized:
        raise SimAbort(f"rank {ctx.proc.rank}: MPI initialized twice")
    provided = min(required, interp.config.max_thread_level)
    granted, downgrade = interp.faults.granted_thread_level(
        ctx.proc.rank, provided
    )
    pstate.initialized = True
    pstate.thread_level = granted
    pstate.main_thread = ctx.tid
    if downgrade is not None:
        detail = (
            f"rank {ctx.proc.rank}: library granted thread level {granted} "
            f"({THREAD_LEVEL_NAMES.get(granted, granted)}) although "
            f"{THREAD_LEVEL_NAMES.get(provided, provided)} was available "
            "(injected thread-level downgrade)"
        )
        interp.fault_fired(ctx, downgrade, detail, op=op)
    provided = granted
    if ctx.tid != 0:
        interp.note(f"rank {ctx.proc.rank}: MPI initialized from thread {ctx.tid}")
    info = _prologue(interp, ctx, node, op, instrumented, [],
                     {"required": required, "provided": provided})
    yield Step(interp.cm.mpi_call)
    _epilogue(interp, ctx, node, op, info, instrumented)
    return provided


def mpi_finalize(interp, ctx, node, args, instrumented) -> Gen:
    pstate = ctx.proc.mpi
    monitored = [(MonitoredKind.FINALIZE, 1)]
    info = _prologue(interp, ctx, node, "mpi_finalize", instrumented, monitored, {})
    if not ctx.is_main_thread:
        interp.note(
            f"rank {ctx.proc.rank}: mpi_finalize called from non-main thread {ctx.tid}"
        )
    pending = pstate.requests.pending()
    if pending:
        interp.note(
            f"rank {ctx.proc.rank}: mpi_finalize with {len(pending)} pending request(s)"
        )
    if pstate.calls_in_flight > 1:  # >1: this finalize itself is in flight
        interp.note(
            f"rank {ctx.proc.rank}: mpi_finalize while other MPI calls are executing"
        )
    yield Step(interp.cm.mpi_call)
    pstate.finalized = True
    _epilogue(interp, ctx, node, "mpi_finalize", info, instrumented)
    return 0


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


def _comm_arg(args, op: str) -> int:
    if len(args) != 1:
        raise SimAbort(f"{op} expects (comm)")
    return as_int(args[0], "communicator")


def mpi_comm_rank(interp, ctx, node, args, instrumented) -> Gen:
    comm = interp.world.comm(_comm_arg(args, "mpi_comm_rank"))
    return comm.local_rank(ctx.proc.rank)
    yield  # pragma: no cover


def mpi_comm_size(interp, ctx, node, args, instrumented) -> Gen:
    comm = interp.world.comm(_comm_arg(args, "mpi_comm_size"))
    return comm.size
    yield  # pragma: no cover


def mpi_wtime(interp, ctx, node, args, instrumented) -> Gen:
    return ctx.clock
    yield  # pragma: no cover


def mpi_is_thread_main(interp, ctx, node, args, instrumented) -> Gen:
    return ctx.is_main_thread
    yield  # pragma: no cover


def mpi_initialized(interp, ctx, node, args, instrumented) -> Gen:
    return ctx.proc.mpi.initialized
    yield  # pragma: no cover


# ---------------------------------------------------------------------------
# Point-to-point
# ---------------------------------------------------------------------------


def _p2p_args(args, op: str):
    if len(args) != 5:
        raise SimAbort(f"{op} expects (buf, count, peer, tag, comm)")
    buf, count, peer, tag, comm_id = args
    return (
        buf,
        as_int(count, "count"),
        as_int(peer, "peer rank"),
        as_int(tag, "tag"),
        as_int(comm_id, "communicator"),
    )


def mpi_send(interp, ctx, node, args, instrumented) -> Gen:
    buf, count, dest, tag, comm_id = _p2p_args(args, "mpi_send")
    monitored = [
        (MonitoredKind.SRC, dest),
        (MonitoredKind.TAG, tag),
        (MonitoredKind.COMM, comm_id),
    ]
    adict = {"peer": dest, "tag": tag, "comm": comm_id, "count": count}
    info = _prologue(interp, ctx, node, "mpi_send", instrumented, monitored, adict)
    if info.skipped:
        _epilogue(interp, ctx, node, "mpi_send", info, instrumented, adict)
        return 0
    payload = _payload(buf, count)
    sync = interp.config.sync_sends or len(payload) >= interp.config.eager_threshold
    yield Step(interp.cm.mpi_call)
    msg = _post_send_faulted(interp, ctx, dest, tag, comm_id, payload, sync,
                             "mpi_send")
    if msg.sync:
        ft = interp.world.ft
        comm = interp.world.comm(comm_id)
        err = yield from _ft_wait(
            interp, ctx, comm_id,
            f"mpi_send (sync) to rank {dest} tag {tag} comm {comm_id}",
            lambda: msg.consumed,
            peer_failed=lambda: ft.peer_failed(comm, dest),
        )
        if err != MPI_SUCCESS:
            code = yield from _dispatch_error(
                interp, ctx, node, "mpi_send", comm_id, err, info, instrumented
            )
            _epilogue(interp, ctx, node, "mpi_send", info, instrumented,
                      dict(adict, error=error_string(err)))
            return code
        ctx.advance_to(msg.consumed_time)
    _epilogue(interp, ctx, node, "mpi_send", info, instrumented,
              dict(adict, msg_id=msg.msg_id))
    return 0


def _match_blocking(interp, ctx, comm_id: int, src: int, tag: int, what: str) -> Gen:
    """Match a message for a blocking receive; returns ``(msg, errcode)``
    where *msg* is None iff *errcode* is not ``MPI_SUCCESS``."""
    world = interp.world
    me = ctx.proc.rank
    comm = world.comm(comm_id)
    ft = world.ft
    msg = world.match_recv(me, comm_id, src, tag)
    while msg is None:
        err = yield from _ft_wait(
            interp, ctx, comm_id,
            f"{what} waiting for message (src={src}, tag={tag}, comm={comm_id}) "
            f"at rank {me}",
            lambda: world.peek_recv(me, comm_id, src, tag) is not None,
            peer_failed=lambda: ft.peer_failed(comm, src),
        )
        if err != MPI_SUCCESS:
            return None, err
        msg = world.match_recv(me, comm_id, src, tag)
    return msg, MPI_SUCCESS


def mpi_recv(interp, ctx, node, args, instrumented) -> Gen:
    buf, count, src, tag, comm_id = _p2p_args(args, "mpi_recv")
    monitored = [
        (MonitoredKind.SRC, src),
        (MonitoredKind.TAG, tag),
        (MonitoredKind.COMM, comm_id),
    ]
    adict = {"peer": src, "tag": tag, "comm": comm_id, "count": count}
    info = _prologue(interp, ctx, node, "mpi_recv", instrumented, monitored, adict)
    if info.skipped:
        _epilogue(interp, ctx, node, "mpi_recv", info, instrumented, adict)
        return -1
    yield Step(interp.cm.mpi_call)
    msg, err = yield from _match_blocking(interp, ctx, comm_id, src, tag, "mpi_recv")
    if err != MPI_SUCCESS:
        code = yield from _dispatch_error(
            interp, ctx, node, "mpi_recv", comm_id, err, info, instrumented
        )
        _epilogue(interp, ctx, node, "mpi_recv", info, instrumented,
                  dict(adict, error=error_string(err)))
        return code
    ctx.advance_to(msg.avail_time)
    if msg.sync:
        msg.consumed_time = ctx.clock
    _deliver(buf, msg.payload, count)
    adict = dict(adict, matched_src=msg.src, matched_tag=msg.tag,
                 msg_id=msg.msg_id)
    _epilogue(interp, ctx, node, "mpi_recv", info, instrumented, adict)
    return msg.src


def mpi_isend(interp, ctx, node, args, instrumented) -> Gen:
    buf, count, dest, tag, comm_id = _p2p_args(args, "mpi_isend")
    req = Request(kind="send", comm=comm_id, src=ctx.proc.rank, tag=tag,
                  dst=dest, count=count, owner_thread=ctx.tid)
    ctx.proc.mpi.requests.allocate(req)
    monitored = [
        (MonitoredKind.SRC, dest),
        (MonitoredKind.TAG, tag),
        (MonitoredKind.COMM, comm_id),
        (MonitoredKind.REQUEST, req.handle),
    ]
    adict = {"peer": dest, "tag": tag, "comm": comm_id, "request": req.handle}
    info = _prologue(interp, ctx, node, "mpi_isend", instrumented, monitored, adict)
    if info.skipped:
        _epilogue(interp, ctx, node, "mpi_isend", info, instrumented, adict)
        return 0
    payload = _payload(buf, count)
    yield Step(interp.cm.mpi_call)
    msg = _post_send_faulted(interp, ctx, dest, tag, comm_id, payload, False,
                             "mpi_isend")
    if msg.sync:
        ft = interp.world.ft
        comm = interp.world.comm(comm_id)
        err = yield from _ft_wait(
            interp, ctx, comm_id,
            f"mpi_isend (rendezvous) to rank {dest} tag {tag} comm {comm_id}",
            lambda: msg.consumed,
            peer_failed=lambda: ft.peer_failed(comm, dest),
        )
        if err != MPI_SUCCESS:
            code = yield from _dispatch_error(
                interp, ctx, node, "mpi_isend", comm_id, err, info, instrumented
            )
            _epilogue(interp, ctx, node, "mpi_isend", info, instrumented,
                      dict(adict, error=error_string(err)))
            return code
        ctx.advance_to(msg.consumed_time)
    req.done = True
    req.complete_time = ctx.clock
    req.msg_id = msg.msg_id
    ctx.proc.mpi.requests.register(req)
    _epilogue(interp, ctx, node, "mpi_isend", info, instrumented,
              dict(adict, msg_id=msg.msg_id))
    return req.handle


def mpi_irecv(interp, ctx, node, args, instrumented) -> Gen:
    buf, count, src, tag, comm_id = _p2p_args(args, "mpi_irecv")
    if not isinstance(buf, ArrayValue):
        raise SimAbort("mpi_irecv requires an array receive buffer")
    req = Request(kind="recv", comm=comm_id, src=src, tag=tag,
                  buf=buf, count=count, owner_thread=ctx.tid)
    ctx.proc.mpi.requests.allocate(req)
    monitored = [
        (MonitoredKind.SRC, src),
        (MonitoredKind.TAG, tag),
        (MonitoredKind.COMM, comm_id),
        (MonitoredKind.REQUEST, req.handle),
    ]
    adict = {"peer": src, "tag": tag, "comm": comm_id, "request": req.handle}
    info = _prologue(interp, ctx, node, "mpi_irecv", instrumented, monitored, adict)
    if info.skipped:
        _epilogue(interp, ctx, node, "mpi_irecv", info, instrumented, adict)
        return 0
    yield Step(interp.cm.mpi_call)
    ctx.proc.mpi.requests.register(req)
    _epilogue(interp, ctx, node, "mpi_irecv", info, instrumented, adict)
    return req.handle


def _complete_recv_request(interp, ctx, req: Request) -> Gen:
    """Complete a pending receive request, waking early if another thread
    races us to it (the Concurrent-Request violation scenario: the loser
    must not hang waiting for a message that was already consumed).

    Returns ``MPI_SUCCESS`` or the error class the wait failed with.
    """
    world = interp.world
    me = ctx.proc.rank
    comm = world.comm(req.comm)
    ft = world.ft
    while not req.done:
        msg = world.match_recv(me, req.comm, req.src, req.tag)
        if msg is not None:
            ctx.advance_to(msg.avail_time)
            if msg.sync:
                msg.consumed_time = ctx.clock
            _deliver(req.buf, msg.payload, req.count)
            req.done = True
            req.complete_time = ctx.clock
            req.msg_id = msg.msg_id
            return MPI_SUCCESS
        err = yield from _ft_wait(
            interp, ctx, req.comm,
            f"mpi_wait(request {req.handle}) waiting for message "
            f"(src={req.src}, tag={req.tag}, comm={req.comm}) at rank {me}",
            lambda: req.done
            or world.peek_recv(me, req.comm, req.src, req.tag) is not None,
            peer_failed=(
                (lambda: ft.peer_failed(comm, req.src))
                if req.kind == "recv" else None
            ),
        )
        if err != MPI_SUCCESS:
            return err
    # Completed by a racing thread.
    interp.note(
        f"rank {me}: request {req.handle} was completed by another thread "
        f"while thread {ctx.tid} waited — concurrent request usage"
    )
    ctx.advance_to(req.complete_time)
    return MPI_SUCCESS


def mpi_wait(interp, ctx, node, args, instrumented) -> Gen:
    handle = as_int(args[0], "request handle")
    monitored = [(MonitoredKind.REQUEST, handle)]
    adict = {"request": handle}
    info = _prologue(interp, ctx, node, "mpi_wait", instrumented, monitored, adict)
    if info.skipped:
        _epilogue(interp, ctx, node, "mpi_wait", info, instrumented, adict)
        return 0
    table = ctx.proc.mpi.requests
    req = table.requests.get(handle)
    yield Step(interp.cm.mpi_call)
    if req is None:
        interp.note(
            f"rank {ctx.proc.rank}: mpi_wait on unknown/freed request {handle} "
            f"(thread {ctx.tid}) — possible concurrent wait"
        )
    else:
        if req.done:
            if req.kind == "recv" and req.owner_thread != ctx.tid:
                interp.note(
                    f"rank {ctx.proc.rank}: request {handle} already completed when "
                    f"thread {ctx.tid} waited — concurrent request usage"
                )
            ctx.advance_to(req.complete_time)
        else:
            err = yield from _complete_recv_request(interp, ctx, req)
            if err != MPI_SUCCESS:
                table.free(handle)
                code = yield from _dispatch_error(
                    interp, ctx, node, "mpi_wait", req.comm, err, info, instrumented)
                _epilogue(interp, ctx, node, "mpi_wait", info, instrumented,
                          dict(adict, error=error_string(err)))
                return code
        adict = dict(adict, msg_id=req.msg_id, peer=req.src, tag=req.tag,
                     comm=req.comm, kind=req.kind)
        table.free(handle)
    _epilogue(interp, ctx, node, "mpi_wait", info, instrumented, adict)
    return 0


def mpi_test(interp, ctx, node, args, instrumented) -> Gen:
    handle = as_int(args[0], "request handle")
    monitored = [(MonitoredKind.REQUEST, handle)]
    adict = {"request": handle}
    info = _prologue(interp, ctx, node, "mpi_test", instrumented, monitored, adict)
    if info.skipped:
        _epilogue(interp, ctx, node, "mpi_test", info, instrumented, adict)
        return False
    table = ctx.proc.mpi.requests
    req = table.requests.get(handle)
    yield Step(interp.cm.mpi_call)
    done = False
    if req is None:
        interp.note(
            f"rank {ctx.proc.rank}: mpi_test on unknown/freed request {handle}"
        )
        done = True
    elif req.done:
        ctx.advance_to(req.complete_time)
        table.free(handle)
        done = True
    elif req.kind == "recv":
        msg = interp.world.match_recv(ctx.proc.rank, req.comm, req.src, req.tag)
        if msg is not None:
            ctx.advance_to(msg.avail_time)
            if msg.sync:
                msg.consumed_time = ctx.clock
            _deliver(req.buf, msg.payload, req.count)
            req.done = True
            req.complete_time = ctx.clock
            table.free(handle)
            done = True
    _epilogue(interp, ctx, node, "mpi_test", info, instrumented, adict)
    return done


def mpi_probe(interp, ctx, node, args, instrumented) -> Gen:
    src = as_int(args[0], "source")
    tag = as_int(args[1], "tag")
    comm_id = as_int(args[2], "communicator")
    monitored = [
        (MonitoredKind.SRC, src),
        (MonitoredKind.TAG, tag),
        (MonitoredKind.COMM, comm_id),
    ]
    adict = {"peer": src, "tag": tag, "comm": comm_id}
    info = _prologue(interp, ctx, node, "mpi_probe", instrumented, monitored, adict)
    if info.skipped:
        _epilogue(interp, ctx, node, "mpi_probe", info, instrumented, adict)
        return -1
    world = interp.world
    me = ctx.proc.rank
    comm = world.comm(comm_id)
    ft = world.ft
    yield Step(interp.cm.mpi_call)
    msg = world.peek_recv(me, comm_id, src, tag)
    while msg is None:
        err = yield from _ft_wait(
            interp, ctx, comm_id,
            f"mpi_probe waiting (src={src}, tag={tag}, comm={comm_id}) at rank {me}",
            lambda: world.peek_recv(me, comm_id, src, tag) is not None,
            peer_failed=lambda: ft.peer_failed(comm, src),
        )
        if err != MPI_SUCCESS:
            code = yield from _dispatch_error(
                interp, ctx, node, "mpi_probe", comm_id, err, info, instrumented)
            _epilogue(interp, ctx, node, "mpi_probe", info, instrumented,
                      dict(adict, error=error_string(err)))
            return code
        msg = world.peek_recv(me, comm_id, src, tag)
    ctx.advance_to(msg.avail_time)
    _epilogue(interp, ctx, node, "mpi_probe", info, instrumented,
              dict(adict, matched_src=msg.src, matched_tag=msg.tag))
    return msg.src


def mpi_iprobe(interp, ctx, node, args, instrumented) -> Gen:
    src = as_int(args[0], "source")
    tag = as_int(args[1], "tag")
    comm_id = as_int(args[2], "communicator")
    monitored = [
        (MonitoredKind.SRC, src),
        (MonitoredKind.TAG, tag),
        (MonitoredKind.COMM, comm_id),
    ]
    adict = {"peer": src, "tag": tag, "comm": comm_id}
    info = _prologue(interp, ctx, node, "mpi_iprobe", instrumented, monitored, adict)
    if info.skipped:
        _epilogue(interp, ctx, node, "mpi_iprobe", info, instrumented, adict)
        return False
    yield Step(interp.cm.mpi_call)
    msg = interp.world.peek_recv(ctx.proc.rank, comm_id, src, tag)
    found = msg is not None
    if found:
        ctx.advance_to(msg.avail_time)
    _epilogue(interp, ctx, node, "mpi_iprobe", info, instrumented, adict)
    return found


# ---------------------------------------------------------------------------
# Collectives
# ---------------------------------------------------------------------------


def _collective(interp, ctx, node, op: str, comm_id: int, instrumented: bool,
                value: Any = None, root: Optional[int] = None,
                reduce_op: Optional[int] = None, extra: Optional[dict] = None) -> Gen:
    """Common collective machinery; returns ``(slot, errcode)``.

    ``slot`` is None when the call was skipped, malformed, or failed;
    ``errcode`` is ``MPI_SUCCESS`` unless a fault-tolerance escape fired
    (peer death, revocation, timeout) — in that case the error has
    already been dispatched to the communicator's handler.
    """
    monitored = [
        (MonitoredKind.COLLECTIVE, op),
        (MonitoredKind.COMM, comm_id),
    ]
    adict = {"comm": comm_id, "root": root}
    if extra:
        adict.update(extra)
    info = _prologue(interp, ctx, node, op, instrumented, monitored, adict)
    if info.skipped:
        _epilogue(interp, ctx, node, op, info, instrumented, adict)
        return None, MPI_SUCCESS
    world = interp.world
    comm = world.comm(comm_id)
    engine = world.collectives
    ft = world.ft
    yield Step(interp.cm.mpi_call)
    index = engine.next_index(comm_id, ctx.proc.rank)
    try:
        slot = engine.arrive(
            comm, index, ctx.proc.rank, op, ctx.clock,
            value=value, root=root, reduce_op=reduce_op,
        )
    except MPIUsageError as err:
        interp.note(str(err))
        _epilogue(interp, ctx, node, op, info, instrumented, adict)
        return None, MPI_SUCCESS
    err = yield from _ft_wait(
        interp, ctx, comm_id,
        f"{op} on {comm.name} (slot {index}) at rank {ctx.proc.rank}",
        lambda: engine.complete(comm, index),
        peer_failed=lambda: any(w in ft.failed for w in comm.members),
        always_block=True,
    )
    if err != MPI_SUCCESS:
        code = yield from _dispatch_error(
            interp, ctx, node, op, comm_id, err, info, instrumented)
        _epilogue(interp, ctx, node, op, info, instrumented,
                  dict(adict, error=error_string(err)))
        return None, code
    ctx.advance_to(engine.completion_time(comm, index))
    ctx.charge(interp.cm.barrier)
    if slot.mismatch:
        interp.note(slot.mismatch)
    _epilogue(interp, ctx, node, op, info, instrumented, adict)
    return slot, MPI_SUCCESS


def _contribution(value: Any) -> Any:
    if isinstance(value, ArrayValue):
        return value.snapshot()
    return value


def mpi_barrier(interp, ctx, node, args, instrumented) -> Gen:
    comm_id = as_int(args[0], "communicator")
    _slot, err = yield from _collective(
        interp, ctx, node, "mpi_barrier", comm_id, instrumented)
    return err if err != MPI_SUCCESS else 0


def mpi_bcast(interp, ctx, node, args, instrumented) -> Gen:
    value, root, comm_id = args[0], as_int(args[1], "root"), as_int(args[2], "communicator")
    slot, err = yield from _collective(
        interp, ctx, node, "mpi_bcast", comm_id, instrumented,
        value=_contribution(value), root=root,
    )
    if err != MPI_SUCCESS:
        return err
    if slot is None or slot.mismatch:
        return value if not isinstance(value, ArrayValue) else 0
    comm = interp.world.comm(comm_id)
    root_value = slot.contributions.get(comm.world_rank(root))
    if isinstance(value, ArrayValue):
        if isinstance(root_value, tuple):
            value.load(root_value)
        return 0
    if isinstance(root_value, tuple):
        raise PayloadShapeError(
            f"mpi_bcast: root {root} sent an array of {len(root_value)} "
            "element(s) to a scalar receive buffer"
        )
    return root_value


def _reduced(slot, comm, op: str, op_h: int) -> Any:
    """The members' contributions, in rank order, combined by *op_h*."""
    contribs = [slot.contributions[w] for w in comm.members]
    for local, contrib in enumerate(contribs):
        if not isinstance(contrib, (tuple, int, float)):
            raise SimAbort(
                f"{op}: rank {local} sent {describe_value(contrib)}, not a number"
            )
    return apply_reduce(op_h, contribs)


def mpi_reduce(interp, ctx, node, args, instrumented) -> Gen:
    value, op_h, root, comm_id = (
        args[0], as_int(args[1], "op"), as_int(args[2], "root"),
        as_int(args[3], "communicator"),
    )
    slot, err = yield from _collective(
        interp, ctx, node, "mpi_reduce", comm_id, instrumented,
        value=_contribution(value), root=root, reduce_op=op_h,
    )
    if err != MPI_SUCCESS:
        return err
    if slot is None or slot.mismatch:
        return 0
    comm = interp.world.comm(comm_id)
    if comm.local_rank(ctx.proc.rank) != root:
        return 0
    result = _reduced(slot, comm, "mpi_reduce", op_h)
    if isinstance(value, ArrayValue):
        value.load(result)
        return 0
    return result


def mpi_allreduce(interp, ctx, node, args, instrumented) -> Gen:
    value, op_h, comm_id = args[0], as_int(args[1], "op"), as_int(args[2], "communicator")
    slot, err = yield from _collective(
        interp, ctx, node, "mpi_allreduce", comm_id, instrumented,
        value=_contribution(value), reduce_op=op_h,
    )
    if err != MPI_SUCCESS:
        return err
    if slot is None or slot.mismatch:
        return 0
    comm = interp.world.comm(comm_id)
    result = _reduced(slot, comm, "mpi_allreduce", op_h)
    if isinstance(value, ArrayValue):
        value.load(result)
        return 0
    return result


def mpi_gather(interp, ctx, node, args, instrumented) -> Gen:
    value, recvbuf, root, comm_id = (
        args[0], args[1], as_int(args[2], "root"), as_int(args[3], "communicator"),
    )
    slot, err = yield from _collective(
        interp, ctx, node, "mpi_gather", comm_id, instrumented,
        value=_contribution(value), root=root,
    )
    if err != MPI_SUCCESS:
        return err
    if slot is None or slot.mismatch:
        return 0
    comm = interp.world.comm(comm_id)
    if comm.local_rank(ctx.proc.rank) == root and isinstance(recvbuf, ArrayValue):
        recvbuf.load(_first_elements(slot, comm, "mpi_gather"))
    return 0


def _first_elements(slot, comm, op: str) -> Payload:
    """Each member's first payload element, in rank order (gather and
    allgather move one element per rank)."""
    out = []
    for local, w in enumerate(comm.members):
        contrib = slot.contributions[w]
        if not isinstance(contrib, tuple):
            try:
                out.append(float(contrib))
            except ELEMENT_ERRORS:
                raise SimAbort(
                    f"{op}: rank {local} sent {describe_value(contrib)}, "
                    "not a number"
                ) from None
        elif contrib:
            out.append(contrib[0])
        else:
            raise PayloadShapeError(f"{op}: rank {local} sent an empty array")
    return tuple(out)


def mpi_allgather(interp, ctx, node, args, instrumented) -> Gen:
    value, recvbuf, comm_id = args[0], args[1], as_int(args[2], "communicator")
    slot, err = yield from _collective(
        interp, ctx, node, "mpi_allgather", comm_id, instrumented,
        value=_contribution(value),
    )
    if err != MPI_SUCCESS:
        return err
    if slot is None or slot.mismatch:
        return 0
    comm = interp.world.comm(comm_id)
    if isinstance(recvbuf, ArrayValue):
        recvbuf.load(_first_elements(slot, comm, "mpi_allgather"))
    return 0


def mpi_scatter(interp, ctx, node, args, instrumented) -> Gen:
    sendbuf, root, comm_id = args[0], as_int(args[1], "root"), as_int(args[2], "communicator")
    slot, err = yield from _collective(
        interp, ctx, node, "mpi_scatter", comm_id, instrumented,
        value=_contribution(sendbuf), root=root,
    )
    if err != MPI_SUCCESS:
        return err
    if slot is None or slot.mismatch:
        return 0
    comm = interp.world.comm(comm_id)
    root_contrib = slot.contributions.get(comm.world_rank(root))
    my_local = comm.local_rank(ctx.proc.rank)
    if isinstance(root_contrib, tuple) and my_local < len(root_contrib):
        return root_contrib[my_local]
    return 0


def mpi_alltoall(interp, ctx, node, args, instrumented) -> Gen:
    sendbuf, recvbuf, comm_id = args[0], args[1], as_int(args[2], "communicator")
    slot, err = yield from _collective(
        interp, ctx, node, "mpi_alltoall", comm_id, instrumented,
        value=_contribution(sendbuf),
    )
    if err != MPI_SUCCESS:
        return err
    if slot is None or slot.mismatch:
        return 0
    comm = interp.world.comm(comm_id)
    my_local = comm.local_rank(ctx.proc.rank)
    if isinstance(recvbuf, ArrayValue):
        row = []
        for local, w in enumerate(comm.members):
            contrib = slot.contributions[w]
            if not isinstance(contrib, tuple):
                raise PayloadShapeError(
                    f"mpi_alltoall: rank {local} sent a scalar, not an array"
                )
            row.append(contrib[my_local] if my_local < len(contrib) else 0.0)
        recvbuf.load(tuple(row))
    return 0


# ---------------------------------------------------------------------------
# Communicator management
# ---------------------------------------------------------------------------


def mpi_comm_dup(interp, ctx, node, args, instrumented) -> Gen:
    comm_id = as_int(args[0], "communicator")
    pstate = ctx.proc.mpi
    registry = interp.world.comms
    instance = pstate.dup_counter.get(comm_id, 0)
    pstate.dup_counter[comm_id] = instance + 1
    adict = {"comm": comm_id, "instance": instance}
    info = _prologue(interp, ctx, node, "mpi_comm_dup", instrumented,
                     [(MonitoredKind.COMM, comm_id)], adict)
    if info.skipped:
        _epilogue(interp, ctx, node, "mpi_comm_dup", info, instrumented, adict)
        return comm_id
    registry.dup_arrive(comm_id, instance, ctx.proc.rank)
    ft = interp.world.ft
    comm = interp.world.comm(comm_id)
    err = yield from _ft_wait(
        interp, ctx, comm_id,
        f"mpi_comm_dup({comm_id}) instance {instance} at rank {ctx.proc.rank}",
        lambda: registry.dup_complete(comm_id, instance),
        peer_failed=lambda: any(w in ft.failed for w in comm.members),
        always_block=True,
    )
    if err != MPI_SUCCESS:
        code = yield from _dispatch_error(
            interp, ctx, node, "mpi_comm_dup", comm_id, err, info, instrumented)
        _epilogue(interp, ctx, node, "mpi_comm_dup", info, instrumented,
                  dict(adict, error=error_string(err)))
        return code
    new_cid = registry.dup_result(comm_id, instance)
    ctx.charge(interp.cm.barrier)
    _epilogue(interp, ctx, node, "mpi_comm_dup", info, instrumented, adict)
    return new_cid


def mpi_comm_split(interp, ctx, node, args, instrumented) -> Gen:
    comm_id = as_int(args[0], "communicator")
    color = as_int(args[1], "color")
    key = as_int(args[2], "key")
    pstate = ctx.proc.mpi
    registry = interp.world.comms
    instance = pstate.split_counter.get(comm_id, 0)
    pstate.split_counter[comm_id] = instance + 1
    adict = {"comm": comm_id, "color": color, "instance": instance}
    info = _prologue(interp, ctx, node, "mpi_comm_split", instrumented,
                     [(MonitoredKind.COMM, comm_id)], adict)
    if info.skipped:
        _epilogue(interp, ctx, node, "mpi_comm_split", info, instrumented, adict)
        return comm_id
    registry.split_arrive(comm_id, instance, ctx.proc.rank, color, key)
    ft = interp.world.ft
    comm = interp.world.comm(comm_id)
    err = yield from _ft_wait(
        interp, ctx, comm_id,
        f"mpi_comm_split({comm_id}) instance {instance} at rank {ctx.proc.rank}",
        lambda: registry.split_complete(comm_id, instance),
        peer_failed=lambda: any(w in ft.failed for w in comm.members),
        always_block=True,
    )
    if err != MPI_SUCCESS:
        code = yield from _dispatch_error(
            interp, ctx, node, "mpi_comm_split", comm_id, err, info, instrumented)
        _epilogue(interp, ctx, node, "mpi_comm_split", info, instrumented,
                  dict(adict, error=error_string(err)))
        return code
    new_cid = registry.split_result(comm_id, instance, ctx.proc.rank)
    ctx.charge(interp.cm.barrier)
    _epilogue(interp, ctx, node, "mpi_comm_split", info, instrumented, adict)
    return new_cid




def mpi_ssend(interp, ctx, node, args, instrumented) -> Gen:
    """Synchronous-mode send: always rendezvous, regardless of config."""
    buf, count, dest, tag, comm_id = _p2p_args(args, "mpi_ssend")
    monitored = [
        (MonitoredKind.SRC, dest),
        (MonitoredKind.TAG, tag),
        (MonitoredKind.COMM, comm_id),
    ]
    adict = {"peer": dest, "tag": tag, "comm": comm_id, "count": count}
    info = _prologue(interp, ctx, node, "mpi_ssend", instrumented, monitored, adict)
    if info.skipped:
        _epilogue(interp, ctx, node, "mpi_ssend", info, instrumented, adict)
        return 0
    payload = _payload(buf, count)
    yield Step(interp.cm.mpi_call)
    msg = _post_send_faulted(interp, ctx, dest, tag, comm_id, payload, True,
                             "mpi_ssend")
    ft = interp.world.ft
    comm = interp.world.comm(comm_id)
    err = yield from _ft_wait(
        interp, ctx, comm_id,
        f"mpi_ssend to rank {dest} tag {tag} comm {comm_id}",
        lambda: msg.consumed,
        peer_failed=lambda: ft.peer_failed(comm, dest),
    )
    if err != MPI_SUCCESS:
        code = yield from _dispatch_error(
            interp, ctx, node, "mpi_ssend", comm_id, err, info, instrumented
        )
        _epilogue(interp, ctx, node, "mpi_ssend", info, instrumented,
                  dict(adict, error=error_string(err)))
        return code
    ctx.advance_to(msg.consumed_time)
    _epilogue(interp, ctx, node, "mpi_ssend", info, instrumented,
              dict(adict, msg_id=msg.msg_id))
    return 0


def mpi_sendrecv(interp, ctx, node, args, instrumented) -> Gen:
    """Combined send+receive (deadlock-free halo-exchange primitive).

    Signature: mpi_sendrecv(sendbuf, count, dest, sendtag,
                            recvbuf, source, recvtag, comm).
    """
    if len(args) != 8:
        raise SimAbort(
            "mpi_sendrecv expects (sendbuf, count, dest, sendtag, "
            "recvbuf, source, recvtag, comm)"
        )
    sendbuf = args[0]
    count = as_int(args[1], "count")
    dest = as_int(args[2], "dest")
    sendtag = as_int(args[3], "sendtag")
    recvbuf = args[4]
    source = as_int(args[5], "source")
    recvtag = as_int(args[6], "recvtag")
    comm_id = as_int(args[7], "communicator")
    monitored = [
        (MonitoredKind.SRC, source),
        (MonitoredKind.TAG, recvtag),
        (MonitoredKind.COMM, comm_id),
    ]
    adict = {"peer": source, "tag": recvtag, "comm": comm_id,
             "dest": dest, "sendtag": sendtag}
    info = _prologue(interp, ctx, node, "mpi_sendrecv", instrumented, monitored, adict)
    if info.skipped:
        _epilogue(interp, ctx, node, "mpi_sendrecv", info, instrumented, adict)
        return -1
    payload = _payload(sendbuf, count)
    yield Step(interp.cm.mpi_call)
    # The send half is always buffered: sendrecv must not deadlock even
    # in a ring where everyone sends first.  A forced rendezvous flip
    # may still mark the message sync; the sender deliberately does not
    # wait on it here.
    _post_send_faulted(interp, ctx, dest, sendtag, comm_id, payload, False,
                       "mpi_sendrecv")
    msg, err = yield from _match_blocking(
        interp, ctx, comm_id, source, recvtag, "mpi_sendrecv"
    )
    if err != MPI_SUCCESS:
        code = yield from _dispatch_error(
            interp, ctx, node, "mpi_sendrecv", comm_id, err, info, instrumented)
        _epilogue(interp, ctx, node, "mpi_sendrecv", info, instrumented,
                  dict(adict, error=error_string(err)))
        return code
    ctx.advance_to(msg.avail_time)
    if msg.sync:
        msg.consumed_time = ctx.clock
    _deliver(recvbuf, msg.payload, count)
    _epilogue(interp, ctx, node, "mpi_sendrecv", info, instrumented,
              dict(adict, matched_src=msg.src, msg_id=msg.msg_id))
    return msg.src


def mpi_waitall(interp, ctx, node, args, instrumented) -> Gen:
    """Wait for every request handle passed (varargs)."""
    handles = [as_int(a, "request handle") for a in args]
    monitored = [(MonitoredKind.REQUEST, h) for h in handles]
    adict = {"requests": tuple(handles)}
    info = _prologue(interp, ctx, node, "mpi_waitall", instrumented, monitored, adict)
    if info.skipped:
        _epilogue(interp, ctx, node, "mpi_waitall", info, instrumented, adict)
        return 0
    table = ctx.proc.mpi.requests
    yield Step(interp.cm.mpi_call)
    for handle in handles:
        req = table.requests.get(handle)
        if req is None:
            interp.note(
                f"rank {ctx.proc.rank}: mpi_waitall on unknown/freed request "
                f"{handle}"
            )
            continue
        if req.done:
            ctx.advance_to(req.complete_time)
        else:
            err = yield from _complete_recv_request(interp, ctx, req)
            if err != MPI_SUCCESS:
                table.free(handle)
                code = yield from _dispatch_error(
                    interp, ctx, node, "mpi_waitall", req.comm, err, info,
                    instrumented)
                _epilogue(interp, ctx, node, "mpi_waitall", info, instrumented,
                          dict(adict, error=error_string(err)))
                return code
        table.free(handle)
    _epilogue(interp, ctx, node, "mpi_waitall", info, instrumented, adict)
    return 0


# ---------------------------------------------------------------------------
# Fault tolerance & recovery (error handlers, timeouts, ULFM-style shrink)
# ---------------------------------------------------------------------------


def mpi_comm_set_errhandler(interp, ctx, node, args, instrumented) -> Gen:
    """Attach an error handler to a communicator.

    The handler may be MPI_ERRORS_ARE_FATAL, MPI_ERRORS_RETURN, or the
    name of a two-argument function ``handler(comm, code)`` defined in
    the program, which then runs inside any failing MPI call on that
    communicator.
    """
    comm_id = as_int(args[0], "communicator")
    hval = args[1] if isinstance(args[1], str) else as_int(args[1], "error handler")
    adict = {"comm": comm_id, "handler": str(hval)}
    info = _prologue(interp, ctx, node, "mpi_comm_set_errhandler", instrumented,
                     [(MonitoredKind.COMM, comm_id)], adict)
    if not info.skipped:
        yield Step(interp.cm.mpi_call)
        interp.world.ft.set_handler(comm_id, hval)
    _epilogue(interp, ctx, node, "mpi_comm_set_errhandler", info, instrumented,
              adict)
    return 0


def mpi_comm_get_errhandler(interp, ctx, node, args, instrumented) -> Gen:
    return interp.world.ft.handler(as_int(args[0], "communicator"))
    yield  # pragma: no cover


def mpi_error_string(interp, ctx, node, args, instrumented) -> Gen:
    return error_string(as_int(args[0], "error code"))
    yield  # pragma: no cover


def mpi_set_timeout(interp, ctx, node, args, instrumented) -> Gen:
    """Arm a timeout/retry policy on a communicator: blocking operations
    on it surface MPI_ERR_TIMEOUT after the retry budget is spent instead
    of hanging until the deadlock detector fires.

    Signature: mpi_set_timeout(comm, timeout[, max_retries]).  Query
    style on purpose: it must not shift fault-plan call counting.
    """
    comm_id = as_int(args[0], "communicator")
    timeout = float(as_int(args[1], "timeout") if not isinstance(args[1], float)
                    else args[1])
    retries = as_int(args[2], "max retries") if len(args) > 2 else 3
    interp.world.ft.set_policy(comm_id, RetryPolicy(
        timeout=timeout, max_retries=retries,
        backoff_base=interp.cm.retry_backoff,
    ))
    return 0
    yield  # pragma: no cover


def mpi_comm_failure_ack(interp, ctx, node, args, instrumented) -> Gen:
    """Acknowledge locally-known failed processes; returns how many."""
    comm_id = as_int(args[0], "communicator")
    adict = {"comm": comm_id}
    info = _prologue(interp, ctx, node, "mpi_comm_failure_ack", instrumented,
                     [(MonitoredKind.COMM, comm_id)], adict)
    acked = 0
    if not info.skipped:
        yield Step(interp.cm.mpi_call)
        acked = interp.world.ft.ack_failures(ctx.proc.rank)
    _epilogue(interp, ctx, node, "mpi_comm_failure_ack", info, instrumented,
              dict(adict, acked=acked))
    return acked


def mpi_comm_revoke(interp, ctx, node, args, instrumented) -> Gen:
    """Revoke a communicator: every pending and future blocking call on
    it (at any rank) surfaces MPI_ERR_REVOKED instead of completing."""
    comm_id = as_int(args[0], "communicator")
    adict = {"comm": comm_id}
    info = _prologue(interp, ctx, node, "mpi_comm_revoke", instrumented,
                     [(MonitoredKind.COMM, comm_id)], adict)
    if not info.skipped:
        yield Step(interp.cm.mpi_call)
        interp.world.ft.revoke(comm_id)
        interp.note(
            f"rank {ctx.proc.rank}: mpi_comm_revoke({comm_id}) — pending "
            f"operations on the communicator will surface MPI_ERR_REVOKED"
        )
    _epilogue(interp, ctx, node, "mpi_comm_revoke", info, instrumented, adict)
    return 0


def mpi_comm_shrink(interp, ctx, node, args, instrumented) -> Gen:
    """ULFM-style recovery collective: survivors of *comm* agree on a new
    communicator excluding failed ranks.  Collective among survivors —
    failed members count as arrived.  Each calling thread gets its own
    shrink instance; two threads shrinking the same communicator race to
    create two different replacements (the recovery-race hazard)."""
    comm_id = as_int(args[0], "communicator")
    pstate = ctx.proc.mpi
    ft = interp.world.ft
    instance = pstate.shrink_counter.get(comm_id, 0)
    pstate.shrink_counter[comm_id] = instance + 1
    adict = {"comm": comm_id, "instance": instance}
    monitored = [
        (MonitoredKind.COLLECTIVE, "mpi_comm_shrink"),
        (MonitoredKind.COMM, comm_id),
    ]
    info = _prologue(interp, ctx, node, "mpi_comm_shrink", instrumented,
                     monitored, adict)
    if info.skipped:
        _epilogue(interp, ctx, node, "mpi_comm_shrink", info, instrumented, adict)
        return comm_id
    yield Step(interp.cm.mpi_call)
    ft.shrink_arrive(comm_id, instance, ctx.proc.rank)
    yield Block(
        f"mpi_comm_shrink({comm_id}) instance {instance} at rank {ctx.proc.rank}",
        lambda: ft.shrink_complete(comm_id, instance),
    )
    new_cid = ft.shrink_result(comm_id, instance)
    ctx.charge(interp.cm.barrier)
    _epilogue(interp, ctx, node, "mpi_comm_shrink", info, instrumented,
              dict(adict, new_comm=new_cid))
    return new_cid


BUILTINS = {
    "mpi_init": mpi_init,
    "mpi_init_thread": mpi_init_thread,
    "mpi_finalize": mpi_finalize,
    "mpi_comm_rank": mpi_comm_rank,
    "mpi_comm_size": mpi_comm_size,
    "mpi_wtime": mpi_wtime,
    "mpi_is_thread_main": mpi_is_thread_main,
    "mpi_initialized": mpi_initialized,
    "mpi_send": mpi_send,
    "mpi_ssend": mpi_ssend,
    "mpi_sendrecv": mpi_sendrecv,
    "mpi_recv": mpi_recv,
    "mpi_isend": mpi_isend,
    "mpi_irecv": mpi_irecv,
    "mpi_wait": mpi_wait,
    "mpi_waitall": mpi_waitall,
    "mpi_test": mpi_test,
    "mpi_probe": mpi_probe,
    "mpi_iprobe": mpi_iprobe,
    "mpi_barrier": mpi_barrier,
    "mpi_bcast": mpi_bcast,
    "mpi_reduce": mpi_reduce,
    "mpi_allreduce": mpi_allreduce,
    "mpi_gather": mpi_gather,
    "mpi_allgather": mpi_allgather,
    "mpi_scatter": mpi_scatter,
    "mpi_alltoall": mpi_alltoall,
    "mpi_comm_dup": mpi_comm_dup,
    "mpi_comm_split": mpi_comm_split,
    "mpi_comm_set_errhandler": mpi_comm_set_errhandler,
    "mpi_comm_get_errhandler": mpi_comm_get_errhandler,
    "mpi_error_string": mpi_error_string,
    "mpi_set_timeout": mpi_set_timeout,
    "mpi_comm_failure_ack": mpi_comm_failure_ack,
    "mpi_comm_revoke": mpi_comm_revoke,
    "mpi_comm_shrink": mpi_comm_shrink,
}
