"""Append-only event log with typed query helpers.

One :class:`EventLog` is produced per simulated execution.  The dynamic
analyses are offline: they replay this log after the run terminates,
which matches the paper's "StartExecLog(); // record all the arguments
in log" wrapper design.

Per-process queries read an index built from one pass over the log the
first time any of them needs it (see :class:`_LogIndex`), so the several
analyses of one run share a single scan instead of each filtering the
whole log for its process and event types.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Tuple, Type, TypeVar

from .event import (
    Event,
    MemAccess,
    MPICall,
)

E = TypeVar("E", bound=Event)

class _ProcessIndex:
    """One process's events, split by type on first use.

    Memory accesses (most of a dense trace) are grouped by location only
    on request, and the groups are not kept: one reader takes them once
    per process, and keeping every process's groups alive with the log
    would raise the run's peak memory.
    """

    __slots__ = ("events", "_typed")

    def __init__(self, events: List[Event]) -> None:
        #: the process's events, in log order
        self.events = events
        self._typed: Dict[type, List[Event]] | None = None

    def typed(self, etype: type) -> List[Event]:
        """The process's events of exactly *etype*, in log order."""
        typed = self._typed
        if typed is None:
            split: Dict[type, List[Event]] = defaultdict(list)
            # memory accesses come in long runs between sync events
            for kind, run in itertools.groupby(self.events, type):
                split[kind].extend(run)
            typed = self._typed = dict(split)
        return typed.get(etype, [])

    def locations(self) -> Dict[Tuple[int, int], List[MemAccess]]:
        """Memory accesses by ``(cell, index)``, each list in log order,
        locations in order of first access; built on every call."""
        groups: Dict[Tuple[int, int], List[MemAccess]] = defaultdict(list)
        for event in self.typed(MemAccess):
            groups[event.cell, event.index].append(event)
        return dict(groups)


class _LogIndex:
    """The log split by process, from one pass over its events.

    Valid while the log holds *size* events: the interpreter appends
    through :meth:`EventLog.raw_append`, which the log never sees, so
    the length is the only reliable staleness check.
    """

    __slots__ = ("size", "procs")

    def __init__(self, events: List[Event]) -> None:
        self.size = len(events)
        by_proc: Dict[int, List[Event]] = defaultdict(list)
        # the one pass over the log
        for event in events:
            by_proc[event.proc].append(event)
        #: process -> its index, processes in ascending order
        self.procs: Dict[int, _ProcessIndex] = {
            proc: _ProcessIndex(by_proc[proc]) for proc in sorted(by_proc)
        }

    def process(self, proc: int) -> _ProcessIndex:
        index = self.procs.get(proc)
        return index if index is not None else _ProcessIndex([])


class EventLog:
    """Totally ordered (by emission) log of runtime events."""

    __slots__ = ("_events", "_seqs", "_index")

    def __init__(self) -> None:
        self._events: List[Event] = []
        #: the seq allocator: a C-level counter, so the per-access hot
        #: path can bind it (see :meth:`seq_counter`)
        self._seqs = itertools.count()
        self._index: _LogIndex | None = None

    # pickling: ``itertools.count`` pickling is deprecated, and the
    # index is derived data
    def __getstate__(self):
        return self._events, self._peek_seq()

    def __setstate__(self, state) -> None:
        self._events, next_seq = state
        self._seqs = itertools.count(next_seq)
        self._index = None

    # -- recording -----------------------------------------------------------

    def next_seq(self) -> int:
        """Allocate the next emission sequence number."""
        return next(self._seqs)

    def seq_counter(self) -> Iterator[int]:
        """The seq allocator itself: ``next()`` of it is
        :meth:`next_seq` without the method call.  Valid until
        :meth:`reserve_seqs` or pickling replaces it."""
        return self._seqs

    def _peek_seq(self) -> int:
        """The seq :meth:`next_seq` would return, without allocating it."""
        upcoming = next(self._seqs)
        self._seqs = itertools.count(upcoming)
        return upcoming

    def append(self, event: Event) -> None:
        self._events.append(event)

    def extend(self, events: Iterable[Event]) -> None:
        self._events.extend(events)

    def reserve_seqs(self, upto: int) -> None:
        """Fast-forward the seq allocator past *upto* (trace loaders)."""
        upcoming = self._peek_seq()
        if upto >= upcoming:
            self._seqs = itertools.count(upto + 1)

    def raw_append(self):
        """The underlying list's bound ``append`` — the interpreter's
        per-event hot path binds this once instead of paying a method
        dispatch per emission."""
        return self._events.append

    # -- querying ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, idx: int) -> Event:
        return self._events[idx]

    def _indexed(self) -> _LogIndex:
        """The index, rebuilt when events were appended since it was made."""
        index = self._index
        if index is None or index.size != len(self._events):
            index = self._index = _LogIndex(self._events)
        return index

    def of_type(self, etype: Type[E]) -> List[E]:
        """All events of exactly the given type, in emission order."""
        return [e for e in self._events if type(e) is etype]

    def of_process_type(self, proc: int, etype: Type[E]) -> List[E]:
        """Events of *proc* of exactly *etype*, in emission order."""
        return list(self._indexed().process(proc).typed(etype))

    def memory_locations(self, proc: int) -> Dict[Tuple[int, int], List[MemAccess]]:
        """*proc*'s :class:`MemAccess` events by ``(cell, index)``: each
        list in log order, locations in order of first access.  Grouped
        afresh on each call, from the index's per-type list."""
        return self._indexed().process(proc).locations()

    def processes(self) -> List[int]:
        return list(self._indexed().procs)

    def by_thread(self, proc: int) -> Dict[int, List[Event]]:
        """Per-thread event streams of one process, each in program order."""
        streams: Dict[int, List[Event]] = defaultdict(list)
        for e in self._indexed().process(proc).events:
            streams[e.thread].append(e)
        return dict(streams)

    def mpi_calls(self, proc: int | None = None, phase: str = "begin") -> List[MPICall]:
        calls = (
            self.of_type(MPICall) if proc is None
            else self._indexed().process(proc).typed(MPICall)
        )
        return [e for e in calls if e.phase == phase]

    def mpi_call_intervals(self, proc: int) -> List[Tuple[MPICall, MPICall]]:
        """(begin, end) pairs for each completed MPI call in *proc*.

        Calls that never completed (e.g. blocked at deadlock) are paired
        with ``None`` end markers and excluded here; the Marmot model
        inspects unfinished calls separately via :meth:`unfinished_mpi_calls`.
        """
        begins: Dict[int, MPICall] = {}
        pairs: List[Tuple[MPICall, MPICall]] = []
        for e in self._indexed().process(proc).typed(MPICall):
            if e.phase == "begin":
                begins[e.call_id] = e
            else:
                begin = begins.pop(e.call_id, None)
                if begin is not None:
                    pairs.append((begin, e))
        return pairs

    def unfinished_mpi_calls(self, proc: int) -> List[MPICall]:
        """MPI calls that began but never ended (blocked forever)."""
        begins: Dict[int, MPICall] = {}
        for e in self._indexed().process(proc).typed(MPICall):
            if e.phase == "begin":
                begins[e.call_id] = e
            else:
                begins.pop(e.call_id, None)
        return list(begins.values())

    # -- statistics ------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Event counts by type name (diagnostics / tests)."""
        out: Dict[str, int] = defaultdict(int)
        for e in self._events:
            out[type(e).__name__] += 1
        return dict(out)


__all__ = ["EventLog"]
