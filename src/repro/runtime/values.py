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
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from ..errors import SimAbort


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

    Message payloads in the MPI simulator are snapshots of these arrays;
    receives copy back into the destination array, mirroring real MPI
    buffer semantics.
    """

    __slots__ = ("data",)

    def __init__(self, size: int) -> None:
        if size < 0:
            raise SimAbort(f"negative array size {size}")
        self.data = np.zeros(int(size), dtype=np.float64)

    def __len__(self) -> int:
        return len(self.data)

    def get(self, index: int) -> float:
        self._check(index)
        return float(self.data[index])

    def set(self, index: int, value: float) -> None:
        self._check(index)
        self.data[index] = value

    def snapshot(self) -> np.ndarray:
        return self.data.copy()

    def load(self, payload: np.ndarray, count: Optional[int] = None) -> None:
        n = len(payload) if count is None else min(count, len(payload))
        n = min(n, len(self.data))
        self.data[:n] = payload[:n]

    def _check(self, index: int) -> None:
        if not isinstance(index, (int, np.integer)):
            raise SimAbort(f"array index must be an integer, got {index!r}")
        if not 0 <= index < len(self.data):
            raise SimAbort(
                f"array index {index} out of bounds for array of size {len(self.data)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArrayValue(len={len(self.data)})"


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

        This is the only way a cell enters a scope, so a cell is always
        found under its own ``name``; the bytecode compiler's per-site
        memory monitoring relies on that.
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

    def try_lookup(self, name: str) -> Optional[Cell]:
        try:
            return self.lookup(name)
        except SimAbort:
            return None

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
    if isinstance(value, (int, float, np.integer, np.floating)):
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
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
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
