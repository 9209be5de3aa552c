"""Vector clocks over thread keys.

Sparse dict-backed implementation: component absent == 0.  Used by the
happens-before replay to order events of one process's threads, or of
every thread of the job (Lamport's partial order, as the paper cites).

A :class:`VectorClock` is immutable: ``tick``/``join`` return new
clocks and allocate exactly one dict.  The hash is computed once and
cached, so clocks can key large dicts cheaply.  The replay builds each
synchronization event's clock in a plain component dict, joins its
edges into it in place, and adopts the dict without copying
(:meth:`VectorClock._adopt`).
"""

from __future__ import annotations

from typing import Dict

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

