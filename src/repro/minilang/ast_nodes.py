"""AST node definitions for the mini hybrid MPI/OpenMP language.

The language is a small C-like imperative language with first-class
OpenMP directives and MPI routines (modelled as builtin calls).  It is
rich enough to express the hybrid programming patterns the CLUSTER 2015
paper analyses: MPI calls nested inside ``omp parallel`` regions,
worksharing constructs, named critical sections, locks and barriers.

Every node carries a source location (``loc``) and a node id (``nid``):
its pre-order position in its own :class:`Program`, assigned when the
program is built (see :func:`renumber_nids`).  Node ids let the static
analysis map CFG nodes and instrumentation sites back to the AST, and
let the dynamic analysis attribute runtime events to call sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence


def renumber_nids(root: "Node") -> "Node":
    """Number *root*'s tree in pre-order, starting from 1.

    This is the one place node ids are assigned: :class:`Program` calls
    it on construction, and every transform that changes a finished
    tree (instrumentation, violation injection, the serializing fix)
    calls it once at the end.  Ids are therefore a pure function of the
    program's structure, never of what else the process has parsed.
    The same walk builds a program's node table (:attr:`Program.table`).
    Returns ``root`` for call-site convenience.
    """
    table = NodeTable(root)
    if isinstance(root, Program):
        root._table = table
    return root


@dataclass(frozen=True, slots=True)
class SourceLoc:
    """A (line, column) position in mini-language source text."""

    line: int = 0
    col: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.line}:{self.col}"


NOLOC = SourceLoc(0, 0)


class Node:
    """Base class for all AST nodes."""

    __slots__ = ("nid", "loc")

    def __init__(self, loc: SourceLoc = NOLOC) -> None:
        self.nid: int = 0
        self.loc: SourceLoc = loc

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes (used by generic walkers)."""
        return iter(())

    def walk(self) -> Iterator["Node"]:
        """Yield this node and every descendant in pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} nid={self.nid} loc={self.loc}>"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    """Base class for expressions."""

    __slots__ = ()


class IntLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int, loc: SourceLoc = NOLOC) -> None:
        super().__init__(loc)
        self.value = int(value)


class FloatLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float, loc: SourceLoc = NOLOC) -> None:
        super().__init__(loc)
        self.value = float(value)


class BoolLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: bool, loc: SourceLoc = NOLOC) -> None:
        super().__init__(loc)
        self.value = bool(value)


class StrLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: str, loc: SourceLoc = NOLOC) -> None:
        super().__init__(loc)
        self.value = str(value)


class Name(Expr):
    """Reference to a variable."""

    __slots__ = ("ident",)

    def __init__(self, ident: str, loc: SourceLoc = NOLOC) -> None:
        super().__init__(loc)
        self.ident = ident


class Index(Expr):
    """Array element access ``base[index]``."""

    __slots__ = ("base", "index")

    def __init__(self, base: Expr, index: Expr, loc: SourceLoc = NOLOC) -> None:
        super().__init__(loc)
        self.base = base
        self.index = index

    def children(self) -> Iterator[Node]:
        yield self.base
        yield self.index


UNARY_OPS = ("-", "!")
BINARY_OPS = (
    "+", "-", "*", "/", "%",
    "==", "!=", "<", "<=", ">", ">=",
    "&&", "||",
)


class Unary(Expr):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr, loc: SourceLoc = NOLOC) -> None:
        super().__init__(loc)
        if op not in UNARY_OPS:
            raise ValueError(f"unknown unary operator {op!r}")
        self.op = op
        self.operand = operand

    def children(self) -> Iterator[Node]:
        yield self.operand


class Binary(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr, loc: SourceLoc = NOLOC) -> None:
        super().__init__(loc)
        if op not in BINARY_OPS:
            raise ValueError(f"unknown binary operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> Iterator[Node]:
        yield self.left
        yield self.right


class CallExpr(Expr):
    """Call to a user function or a builtin (``mpi_*``, ``omp_*``, ``compute``)."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expr], loc: SourceLoc = NOLOC) -> None:
        super().__init__(loc)
        self.name = name
        self.args = list(args)

    def children(self) -> Iterator[Node]:
        yield from self.args


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    """Base class for statements."""

    __slots__ = ()


class Block(Stmt):
    __slots__ = ("stmts",)

    def __init__(self, stmts: Sequence[Stmt] = (), loc: SourceLoc = NOLOC) -> None:
        super().__init__(loc)
        self.stmts = list(stmts)

    def children(self) -> Iterator[Node]:
        yield from self.stmts


class VarDecl(Stmt):
    """``var x = e;`` or ``var a[n];`` (array of zeros)."""

    __slots__ = ("name", "init", "size")

    def __init__(
        self,
        name: str,
        init: Optional[Expr] = None,
        size: Optional[Expr] = None,
        loc: SourceLoc = NOLOC,
    ) -> None:
        super().__init__(loc)
        self.name = name
        self.init = init
        self.size = size

    @property
    def is_array(self) -> bool:
        return self.size is not None

    def children(self) -> Iterator[Node]:
        if self.init is not None:
            yield self.init
        if self.size is not None:
            yield self.size


class Assign(Stmt):
    """Assignment to a name or array element."""

    __slots__ = ("target", "value")

    def __init__(self, target: Expr, value: Expr, loc: SourceLoc = NOLOC) -> None:
        super().__init__(loc)
        if not isinstance(target, (Name, Index)):
            raise ValueError("assignment target must be a Name or Index")
        self.target = target
        self.value = value

    def children(self) -> Iterator[Node]:
        yield self.target
        yield self.value


class If(Stmt):
    __slots__ = ("cond", "then", "els")

    def __init__(
        self,
        cond: Expr,
        then: Block,
        els: Optional[Stmt] = None,
        loc: SourceLoc = NOLOC,
    ) -> None:
        super().__init__(loc)
        self.cond = cond
        self.then = then
        self.els = els

    def children(self) -> Iterator[Node]:
        yield self.cond
        yield self.then
        if self.els is not None:
            yield self.els


class While(Stmt):
    __slots__ = ("cond", "body")

    def __init__(self, cond: Expr, body: Block, loc: SourceLoc = NOLOC) -> None:
        super().__init__(loc)
        self.cond = cond
        self.body = body

    def children(self) -> Iterator[Node]:
        yield self.cond
        yield self.body


class For(Stmt):
    """C-style ``for (init; cond; step) body`` loop.

    ``init`` and ``step`` are optional statements (VarDecl/Assign/ExprStmt);
    ``cond`` is an optional expression (absent means "true").
    """

    __slots__ = ("init", "cond", "step", "body")

    def __init__(
        self,
        init: Optional[Stmt],
        cond: Optional[Expr],
        step: Optional[Stmt],
        body: Block,
        loc: SourceLoc = NOLOC,
    ) -> None:
        super().__init__(loc)
        self.init = init
        self.cond = cond
        self.step = step
        self.body = body

    def children(self) -> Iterator[Node]:
        if self.init is not None:
            yield self.init
        if self.cond is not None:
            yield self.cond
        if self.step is not None:
            yield self.step
        yield self.body


class Return(Stmt):
    __slots__ = ("value",)

    def __init__(self, value: Optional[Expr] = None, loc: SourceLoc = NOLOC) -> None:
        super().__init__(loc)
        self.value = value

    def children(self) -> Iterator[Node]:
        if self.value is not None:
            yield self.value


class ExprStmt(Stmt):
    """Expression evaluated for effect — typically an MPI/builtin call."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr, loc: SourceLoc = NOLOC) -> None:
        super().__init__(loc)
        self.expr = expr

    def children(self) -> Iterator[Node]:
        yield self.expr


class Print(Stmt):
    __slots__ = ("args",)

    def __init__(self, args: Sequence[Expr], loc: SourceLoc = NOLOC) -> None:
        super().__init__(loc)
        self.args = list(args)

    def children(self) -> Iterator[Node]:
        yield from self.args


class AssertStmt(Stmt):
    __slots__ = ("cond",)

    def __init__(self, cond: Expr, loc: SourceLoc = NOLOC) -> None:
        super().__init__(loc)
        self.cond = cond

    def children(self) -> Iterator[Node]:
        yield self.cond


# ---------------------------------------------------------------------------
# OpenMP directives
# ---------------------------------------------------------------------------

SCHEDULE_KINDS = ("static", "dynamic")

#: reduction operators supported by the reduction(...) clause
REDUCTION_OPS = ("+", "*", "min", "max")


class OmpParallel(Stmt):
    """``omp parallel [num_threads(e)] [private(...)] [shared(...)] [firstprivate(...)]``."""

    __slots__ = ("body", "num_threads", "private", "shared", "firstprivate",
                 "reductions")

    def __init__(
        self,
        body: Block,
        num_threads: Optional[Expr] = None,
        private: Sequence[str] = (),
        shared: Sequence[str] = (),
        firstprivate: Sequence[str] = (),
        reductions: Sequence[tuple] = (),
        loc: SourceLoc = NOLOC,
    ) -> None:
        super().__init__(loc)
        self.body = body
        self.num_threads = num_threads
        self.private = list(private)
        self.shared = list(shared)
        self.firstprivate = list(firstprivate)
        #: list of (op, varname) pairs from reduction(op: vars) clauses
        self.reductions = list(reductions)

    def children(self) -> Iterator[Node]:
        if self.num_threads is not None:
            yield self.num_threads
        yield self.body


class OmpFor(Stmt):
    """``omp for [schedule(kind[, chunk])] [nowait]`` wrapping a For loop."""

    __slots__ = ("loop", "schedule", "chunk", "nowait", "private", "reductions")

    def __init__(
        self,
        loop: For,
        schedule: str = "static",
        chunk: Optional[Expr] = None,
        nowait: bool = False,
        private: Sequence[str] = (),
        reductions: Sequence[tuple] = (),
        loc: SourceLoc = NOLOC,
    ) -> None:
        super().__init__(loc)
        if schedule not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {schedule!r}")
        self.loop = loop
        self.schedule = schedule
        self.chunk = chunk
        self.nowait = nowait
        self.private = list(private)
        #: list of (op, varname) pairs from reduction(op: vars) clauses
        self.reductions = list(reductions)

    def children(self) -> Iterator[Node]:
        if self.chunk is not None:
            yield self.chunk
        yield self.loop


class OmpSections(Stmt):
    """``omp sections { omp section {...} ... }``."""

    __slots__ = ("sections", "nowait")

    def __init__(
        self, sections: Sequence[Block], nowait: bool = False, loc: SourceLoc = NOLOC
    ) -> None:
        super().__init__(loc)
        self.sections = list(sections)
        self.nowait = nowait

    def children(self) -> Iterator[Node]:
        yield from self.sections


class OmpCritical(Stmt):
    """``omp critical [(name)]`` — anonymous criticals share one global lock."""

    __slots__ = ("name", "body")

    def __init__(self, body: Block, name: str = "", loc: SourceLoc = NOLOC) -> None:
        super().__init__(loc)
        self.name = name
        self.body = body

    def children(self) -> Iterator[Node]:
        yield self.body


class OmpBarrier(Stmt):
    __slots__ = ()


class OmpSingle(Stmt):
    __slots__ = ("body", "nowait")

    def __init__(self, body: Block, nowait: bool = False, loc: SourceLoc = NOLOC) -> None:
        super().__init__(loc)
        self.body = body
        self.nowait = nowait

    def children(self) -> Iterator[Node]:
        yield self.body


class OmpMaster(Stmt):
    __slots__ = ("body",)

    def __init__(self, body: Block, loc: SourceLoc = NOLOC) -> None:
        super().__init__(loc)
        self.body = body

    def children(self) -> Iterator[Node]:
        yield self.body


class OmpAtomic(Stmt):
    """``omp atomic`` wrapping a single assignment statement."""

    __slots__ = ("stmt",)

    def __init__(self, stmt: Assign, loc: SourceLoc = NOLOC) -> None:
        super().__init__(loc)
        self.stmt = stmt

    def children(self) -> Iterator[Node]:
        yield self.stmt


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


class FuncDef(Node):
    __slots__ = ("name", "params", "body")

    def __init__(
        self, name: str, params: Sequence[str], body: Block, loc: SourceLoc = NOLOC
    ) -> None:
        super().__init__(loc)
        self.name = name
        self.params = list(params)
        self.body = body

    def children(self) -> Iterator[Node]:
        yield self.body


class Program(Node):
    """A whole mini-language translation unit."""

    __slots__ = ("name", "globals", "functions", "_table", "__weakref__")

    def __init__(
        self,
        name: str,
        globals: Sequence[VarDecl] = (),
        functions: Sequence[FuncDef] = (),
        loc: SourceLoc = NOLOC,
    ) -> None:
        super().__init__(loc)
        self.name = name
        self.globals = list(globals)
        self.functions = list(functions)
        renumber_nids(self)

    @property
    def table(self) -> "NodeTable":
        """The node table built by the last :func:`renumber_nids`.

        A copy made without it (unpickled, or copied by the ``copy``
        module) numbers itself again on first use; its ids are already
        pre-order, so they do not change.
        """
        table = getattr(self, "_table", None)
        if table is None:
            renumber_nids(self)
            table = self._table
        return table

    def __getstate__(self) -> tuple:
        # the node table is derived state: leave it out of pickles/copies
        return None, {
            slot: getattr(self, slot)
            for slot in ("nid", "loc", "name", "globals", "functions")
        }

    def children(self) -> Iterator[Node]:
        yield from self.globals
        yield from self.functions

    def function(self, name: str) -> FuncDef:
        """Return the function definition called *name*.

        Raises :class:`KeyError` if no such function exists.
        """
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function named {name!r} in program {self.name!r}")

    @property
    def main(self) -> FuncDef:
        return self.function("main")


# Statement types that open an OpenMP parallel context.
OMP_DIRECTIVE_TYPES = (
    OmpParallel,
    OmpFor,
    OmpSections,
    OmpCritical,
    OmpBarrier,
    OmpSingle,
    OmpMaster,
    OmpAtomic,
)


from .nodetable import NodeTable  # noqa: E402  (imports this module)
