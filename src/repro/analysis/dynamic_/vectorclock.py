"""Vector clocks over process-local thread ids.

Sparse dict-backed implementation: component absent == 0.  Used by the
happens-before pass to order events of one process's threads (Lamport's
partial order, as the paper cites).

Two representations share the component dict format:

* :class:`VectorClock` — immutable; ``tick``/``join`` return new clocks
  and allocate exactly one dict (the old implementation copied once in
  ``copy()`` and forced callers to defensively copy again).  The hash
  is computed once and cached, so clocks can key large dicts cheaply.
* :class:`VectorClockBuilder` — a mutable scratch clock for hot loops
  that apply several synchronization edges before snapshotting (the
  happens-before replay joins fork/join/barrier/lock clocks and then
  ticks once per synchronization event); it mutates in place and
  ``freeze()``\\ s into an immutable clock with a single dict
  allocation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Tuple

#: sentinel meaning "hash not computed yet" (a real hash can be any int,
#: so use a private object, not 0/None ambiguity — None is fine here
#: because hash() never returns None)
_UNHASHED = None


class VectorClock:
    """An immutable vector clock (``tick``/``join`` return new clocks)."""

    __slots__ = ("_c", "_hash")

    def __init__(self, components: Dict[int, int] | None = None) -> None:
        self._c: Dict[int, int] = dict(components) if components else {}
        self._hash = _UNHASHED

    @classmethod
    def _adopt(cls, components: Dict[int, int]) -> "VectorClock":
        """Wrap *components* without copying (internal: the caller must
        relinquish ownership of the dict)."""
        out = cls.__new__(cls)
        out._c = components
        out._hash = _UNHASHED
        return out

    # -- accessors -----------------------------------------------------------

    def get(self, tid: int) -> int:
        return self._c.get(tid, 0)

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter(self._c.items())

    def copy(self) -> "VectorClock":
        """Clocks are immutable, so a copy is the clock itself."""
        return self

    def mutable(self) -> "VectorClockBuilder":
        """A mutable scratch copy for multi-step updates."""
        return VectorClockBuilder(dict(self._c))

    # -- derivation (pure) ---------------------------------------------------

    def tick(self, tid: int) -> "VectorClock":
        """A new clock with *tid*'s component incremented."""
        components = dict(self._c)
        components[tid] = components.get(tid, 0) + 1
        return VectorClock._adopt(components)

    def join(self, other: "VectorClock") -> "VectorClock":
        """Pointwise maximum.  A join that changes nothing returns
        ``self`` without allocating (common once clocks stabilize behind
        a lock or barrier edge)."""
        mine = self._c
        components = None
        for tid, val in other._c.items():
            if val > (components or mine).get(tid, 0):
                if components is None:
                    components = dict(mine)
                components[tid] = val
        if components is None:
            return self
        return VectorClock._adopt(components)

    # -- ordering -----------------------------------------------------------

    def leq(self, other: "VectorClock") -> bool:
        """True iff self <= other pointwise."""
        theirs = other._c
        return all(val <= theirs.get(tid, 0) for tid, val in self._c.items())

    def happens_before(self, other: "VectorClock") -> bool:
        """Strict Lamport order: self <= other and not other <= self."""
        return self.leq(other) and not other.leq(self)

    def concurrent(self, other: "VectorClock") -> bool:
        return not self.leq(other) and not other.leq(self)

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return {k: v for k, v in self._c.items() if v} == {
            k: v for k, v in other._c.items() if v
        }

    def __hash__(self) -> int:
        cached = self._hash
        if cached is _UNHASHED:
            cached = hash(frozenset((k, v) for k, v in self._c.items() if v))
            self._hash = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"t{t}:{v}" for t, v in sorted(self._c.items()))
        return f"VC({inner})"


class VectorClockBuilder:
    """Mutable vector clock for hot loops; ``freeze()`` when done.

    All operations mutate in place and return ``self`` so edge chains
    read naturally::

        clock = clock.mutable().join(fork).join(release).tick(tid).freeze()
    """

    __slots__ = ("_c",)

    def __init__(self, components: Dict[int, int] | None = None) -> None:
        self._c: Dict[int, int] = components if components is not None else {}

    def get(self, tid: int) -> int:
        return self._c.get(tid, 0)

    def tick(self, tid: int) -> "VectorClockBuilder":
        self._c[tid] = self._c.get(tid, 0) + 1
        return self

    def join(self, other: "VectorClock | VectorClockBuilder") -> "VectorClockBuilder":
        mine = self._c
        for tid, val in other._c.items():
            if val > mine.get(tid, 0):
                mine[tid] = val
        return self

    def freeze(self) -> VectorClock:
        """Snapshot into an immutable clock (one dict allocation); the
        builder stays usable and independent of the snapshot."""
        return VectorClock(self._c)

    def into_clock(self) -> VectorClock:
        """Transfer the components into an immutable clock with *zero*
        copies; the builder is reset to empty afterwards."""
        components = self._c
        self._c = {}
        return VectorClock._adopt(components)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"t{t}:{v}" for t, v in sorted(self._c.items()))
        return f"VCBuilder({inner})"


def join_all(clocks: Iterable[VectorClock]) -> VectorClock:
    builder = VectorClockBuilder()
    for clock in clocks:
        builder.join(clock)
    return builder.freeze()
