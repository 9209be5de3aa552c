"""Simulated memory: cells, arrays and lexical scopes.

Variables live in :class:`Cell` objects so OpenMP data-sharing semantics
work naturally: a *shared* variable is one whose cell is visible to more
than one thread; ``private``/``firstprivate`` clauses give each team
member a fresh cell.  Cells carry an id, unique within one run, used by
the ITC model's full memory-access monitoring and by race reports.  The
ids come from the run's own counter, which every scope of the run
shares, so a trace never depends on what ran earlier in the process.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..errors import SimAbort

#: Largest array a declaration may create: far above any workload, and
#: an abort instead of an allocation that exhausts memory.
MAX_ARRAY_SIZE = 1 << 24


class Cell:
    """One storage location holding a scalar or an array value."""

    __slots__ = ("cid", "name", "value", "shared")

    def __init__(self, cid: int, name: str, value: Any = 0) -> None:
        self.cid = cid
        self.name = name
        self.value = value
        #: Marked True when the cell becomes visible to an OpenMP team.
        self.shared = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cell {self.name}#{self.cid}={self.value!r} shared={self.shared}>"


class ArrayValue:
    """A fixed-size 1-D numeric array with reference semantics.

    Elements are Python floats (IEEE float64) in a list: element access
    is the VM's hottest array path.  MPI payloads are tuples of those
    floats: :meth:`snapshot` hands one out and :meth:`load` copies one
    back in, mirroring real MPI buffer semantics (sends copy out,
    receives copy back in).  A stored value converts exactly as
    assigning it into a float64 ndarray did (``None`` becomes NaN;
    strings parse as ``float`` parses them), and a value that
    conversion rejected raises the same error.  Tuple payloads keep the
    product on the standard library: ``import repro.cli`` loads 208
    modules instead of 305, and a fresh check peaks at about 30 MB RSS
    instead of 43 (``docs/PERFORMANCE.md``, "Standard-library MPI
    payloads").
    """

    __slots__ = ("data",)

    def __init__(self, size: int) -> None:
        if size < 0:
            raise SimAbort(f"negative array size {size}")
        if size > MAX_ARRAY_SIZE:
            raise SimAbort(
                f"array size {size} exceeds the limit of {MAX_ARRAY_SIZE} elements"
            )
        self.data: List[float] = [0.0] * int(size)

    def __len__(self) -> int:
        return len(self.data)

    def get(self, index: int) -> float:
        self._check(index)
        return self.data[index]

    def set(self, index: int, value: Any) -> None:
        self._check(index)
        if type(value) is not float:
            value = _as_float64(value)
        self.data[index] = value

    def snapshot(self) -> Tuple[float, ...]:
        return tuple(self.data)

    def load(self, payload: Tuple[float, ...], count: Optional[int] = None) -> None:
        n = len(payload) if count is None else min(count, len(payload))
        n = min(n, len(self.data))
        self.data[:n] = payload[:n]

    def _check(self, index: int) -> None:
        if not isinstance(index, int):
            raise SimAbort(f"array index must be an integer, got {index!r}")
        if not 0 <= index < len(self.data):
            raise SimAbort(
                f"array index {index} out of bounds for array of size {len(self.data)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArrayValue(len={len(self.data)})"


def _as_float64(value: Any) -> float:
    """*value* as a float64 array element holds it."""
    return _NAN if value is None else float(value)


_NAN = float("nan")

#: what converting a value no float64 element can hold raises
ELEMENT_ERRORS = (TypeError, ValueError, OverflowError)


def describe_value(value: Any) -> str:
    """A mini-language value as an abort message names it."""
    if isinstance(value, ArrayValue):
        return "an array"
    if value is None:
        return "no value"
    if isinstance(value, str):
        return f"the string {value!r}"
    return f"a {type(value).__name__}"


def store_element(arr: ArrayValue, index: int, value: Any) -> None:
    """A program's element store: :meth:`ArrayValue.set`, with a value
    no element can hold aborting the rank instead of escaping as a
    Python error."""
    try:
        arr.set(index, value)
    except ELEMENT_ERRORS:
        raise SimAbort(
            f"array element cannot hold {describe_value(value)}"
        ) from None


class Scope:
    """A lexical scope: name -> Cell, chained to a parent scope.

    A root scope takes the run's cell-id counter (*cell_ids*; a fresh
    one starting at 1 when omitted); child scopes inherit their
    parent's, so every cell of a run draws from one sequence.
    """

    __slots__ = ("parent", "cells", "cell_ids")

    def __init__(
        self,
        parent: Optional["Scope"] = None,
        cell_ids: Optional[Iterator[int]] = None,
    ) -> None:
        self.parent = parent
        self.cells: Dict[str, Cell] = {}
        if parent is not None:
            self.cell_ids = parent.cell_ids
        else:
            self.cell_ids = itertools.count(1) if cell_ids is None else cell_ids

    def declare(self, name: str, value: Any = 0) -> Cell:
        """Declare a variable in *this* scope (shadowing any outer binding).

        A cell enters a scope only here or in the bytecode compiler's
        declarations, which do the same inline; either way it is found
        under its own ``name``, which the compiler's per-site memory
        monitoring relies on.
        """
        cell = Cell(next(self.cell_ids), name, value)
        self.cells[name] = cell
        return cell

    def lookup(self, name: str) -> Cell:
        scope: Optional[Scope] = self
        while scope is not None:
            cell = scope.cells.get(name)
            if cell is not None:
                return cell
            scope = scope.parent
        raise SimAbort(f"undefined variable {name!r}")

    def visible_cells(self) -> Iterator[Cell]:
        """All cells visible from this scope (inner shadowing outer)."""
        seen: set = set()
        scope: Optional[Scope] = self
        while scope is not None:
            for name, cell in scope.cells.items():
                if name not in seen:
                    seen.add(name)
                    yield cell
            scope = scope.parent


def truthy(value: Any) -> bool:
    """Mini-language truthiness: numbers nonzero, bools as-is."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    if isinstance(value, str):
        return bool(value)
    if isinstance(value, ArrayValue):
        return True
    raise SimAbort(f"cannot use {type(value).__name__} value in a condition")


def as_int(value: Any, what: str = "value") -> int:
    """Coerce a mini-language value to a Python int (for tags, ranks...)."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise SimAbort(f"{what} must be an integer, got {value!r}")


class BinOps:
    """Binary operator semantics shared by the interpreter and constant folding."""

    @staticmethod
    def apply(op: str, a: Any, b: Any) -> Any:
        try:
            return BinOps._apply(op, a, b)
        except TypeError:
            raise SimAbort(
                f"operator {op!r} not supported between "
                f"{type(a).__name__} and {type(b).__name__}"
            ) from None

    @staticmethod
    def _apply(op: str, a: Any, b: Any) -> Any:
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0:
                raise SimAbort("division by zero")
            if isinstance(a, int) and isinstance(b, int):
                # C-like integer division truncating toward zero.
                q = abs(a) // abs(b)
                return q if (a >= 0) == (b >= 0) else -q
            return a / b
        if op == "%":
            if b == 0:
                raise SimAbort("modulo by zero")
            if isinstance(a, int) and isinstance(b, int):
                r = abs(a) % abs(b)
                return r if a >= 0 else -r
            raise SimAbort("'%' requires integer operands")
        if op == "==":
            return a == b
        if op == "!=":
            return a != b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        if op == ">=":
            return a >= b
        if op == "&&":
            return truthy(a) and truthy(b)
        if op == "||":
            return truthy(a) or truthy(b)
        raise SimAbort(f"unknown binary operator {op!r}")

    @staticmethod
    def apply_unary(op: str, a: Any) -> Any:
        if op == "-":
            return -a
        if op == "!":
            return not truthy(a)
        raise SimAbort(f"unknown unary operator {op!r}")
