"""Programmatic construction helpers for mini-language ASTs.

Workload generators (:mod:`repro.workloads`) assemble large benchmark
programs; doing that through raw AST constructors is verbose, so this
module provides a tiny combinator layer plus structural-equality and
cloning utilities that the instrumentation pass and the round-trip
property tests rely on.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence, Union

from . import ast_nodes as A

ExprLike = Union[A.Expr, int, float, bool, str]


def expr(value: ExprLike) -> A.Expr:
    """Coerce a Python literal (or an existing Expr) into an expression node.

    Strings are treated as *variable names*; use :func:`lit` for string
    literals.
    """
    if isinstance(value, A.Expr):
        return value
    if isinstance(value, bool):
        return A.BoolLit(value)
    if isinstance(value, int):
        return A.IntLit(value)
    if isinstance(value, float):
        return A.FloatLit(value)
    if isinstance(value, str):
        return A.Name(value)
    raise TypeError(f"cannot coerce {value!r} to an expression")


def lit(value: Union[int, float, bool, str]) -> A.Expr:
    """Build a literal node (strings become string literals here)."""
    if isinstance(value, bool):
        return A.BoolLit(value)
    if isinstance(value, int):
        return A.IntLit(value)
    if isinstance(value, float):
        return A.FloatLit(value)
    if isinstance(value, str):
        return A.StrLit(value)
    raise TypeError(f"cannot build literal from {value!r}")


def name(ident: str) -> A.Name:
    return A.Name(ident)


def idx(base: ExprLike, index: ExprLike) -> A.Index:
    return A.Index(expr(base), expr(index))


def binop(op: str, left: ExprLike, right: ExprLike) -> A.Binary:
    return A.Binary(op, expr(left), expr(right))


def add(a: ExprLike, b: ExprLike) -> A.Binary:
    return binop("+", a, b)


def sub(a: ExprLike, b: ExprLike) -> A.Binary:
    return binop("-", a, b)


def mul(a: ExprLike, b: ExprLike) -> A.Binary:
    return binop("*", a, b)


def mod(a: ExprLike, b: ExprLike) -> A.Binary:
    return binop("%", a, b)


def eq(a: ExprLike, b: ExprLike) -> A.Binary:
    return binop("==", a, b)


def lt(a: ExprLike, b: ExprLike) -> A.Binary:
    return binop("<", a, b)


def call(fname: str, *args: ExprLike) -> A.CallExpr:
    return A.CallExpr(fname, [expr(a) for a in args])


def callstmt(fname: str, *args: ExprLike) -> A.ExprStmt:
    return A.ExprStmt(call(fname, *args))


def block(*stmts: A.Stmt) -> A.Block:
    return A.Block(list(stmts))


def decl(var_name: str, init: Optional[ExprLike] = None, size: Optional[ExprLike] = None) -> A.VarDecl:
    return A.VarDecl(
        var_name,
        init=expr(init) if init is not None else None,
        size=expr(size) if size is not None else None,
    )


def assign(target: Union[str, A.Expr], value: ExprLike) -> A.Assign:
    tgt = A.Name(target) if isinstance(target, str) else target
    return A.Assign(tgt, expr(value))


def if_(cond: ExprLike, then: Sequence[A.Stmt], els: Optional[Sequence[A.Stmt]] = None) -> A.If:
    return A.If(
        expr(cond),
        A.Block(list(then)),
        A.Block(list(els)) if els is not None else None,
    )


def for_range(var: str, start: ExprLike, stop: ExprLike, body: Sequence[A.Stmt], step: int = 1) -> A.For:
    """Build ``for (var v = start; v < stop; v = v + step) { body }``."""
    return A.For(
        A.VarDecl(var, init=expr(start)),
        binop("<", A.Name(var), expr(stop)),
        A.Assign(A.Name(var), binop("+", A.Name(var), A.IntLit(step))),
        A.Block(list(body)),
    )


def parallel(
    body: Sequence[A.Stmt],
    num_threads: Optional[ExprLike] = None,
    private: Sequence[str] = (),
    shared: Sequence[str] = (),
    firstprivate: Sequence[str] = (),
) -> A.OmpParallel:
    return A.OmpParallel(
        A.Block(list(body)),
        num_threads=expr(num_threads) if num_threads is not None else None,
        private=private,
        shared=shared,
        firstprivate=firstprivate,
    )


def omp_for(
    var: str,
    start: ExprLike,
    stop: ExprLike,
    body: Sequence[A.Stmt],
    schedule: str = "static",
    chunk: Optional[ExprLike] = None,
    nowait: bool = False,
) -> A.OmpFor:
    loop = for_range(var, start, stop, body)
    return A.OmpFor(
        loop,
        schedule=schedule,
        chunk=expr(chunk) if chunk is not None else None,
        nowait=nowait,
    )


def sections(*bodies: Sequence[A.Stmt], nowait: bool = False) -> A.OmpSections:
    return A.OmpSections([A.Block(list(b)) for b in bodies], nowait=nowait)


def critical(body: Sequence[A.Stmt], name: str = "") -> A.OmpCritical:
    return A.OmpCritical(A.Block(list(body)), name=name)


def barrier() -> A.OmpBarrier:
    return A.OmpBarrier()


def single(body: Sequence[A.Stmt], nowait: bool = False) -> A.OmpSingle:
    return A.OmpSingle(A.Block(list(body)), nowait=nowait)


def master(body: Sequence[A.Stmt]) -> A.OmpMaster:
    return A.OmpMaster(A.Block(list(body)))


def func(fname: str, params: Sequence[str], body: Sequence[A.Stmt]) -> A.FuncDef:
    return A.FuncDef(fname, list(params), A.Block(list(body)))


def program(pname: str, functions: Sequence[A.FuncDef], globals: Sequence[A.VarDecl] = ()) -> A.Program:
    return A.Program(pname, list(globals), list(functions))


# ---------------------------------------------------------------------------
# Structural utilities
# ---------------------------------------------------------------------------


def clone(node: A.Node) -> A.Node:
    """Structural copy of an AST subtree, keeping its node ids.

    Transforms rewrite the copy so they never alias nodes with the
    original; because the ids match, anything the static phase keyed on
    the original's ids addresses the copy directly.  A transform that
    adds or removes nodes renumbers the copy once it is done
    (:func:`~repro.minilang.ast_nodes.renumber_nids`).

    Child nodes are copied; lists (clause name lists, reductions) are
    copied shallowly; everything else, including the frozen
    :class:`~repro.minilang.ast_nodes.SourceLoc`, is shared.
    """
    cls = type(node)
    new = cls.__new__(cls)
    for slot in _copy_slots(cls):
        value = getattr(node, slot)
        if isinstance(value, A.Node):
            value = clone(value)
        elif type(value) is list:
            value = [clone(v) if isinstance(v, A.Node) else v for v in value]
        setattr(new, slot, value)
    return new


_EQ_IGNORED_SLOTS = {"nid", "loc", "_table"}


@functools.cache
def _copy_slots(cls: type) -> tuple:
    """Every slot of *cls* except derived state (a program's table and
    its weak-reference slot)."""
    slots = [s for klass in cls.__mro__ for s in getattr(klass, "__slots__", ())]
    return tuple(s for s in slots if s not in ("_table", "__weakref__"))


@functools.cache
def _node_fields(cls: type) -> tuple:
    return tuple(s for s in _copy_slots(cls) if s not in _EQ_IGNORED_SLOTS)


def ast_equal(a: object, b: object) -> bool:
    """Structural equality of two AST subtrees, ignoring node ids and locations."""
    if isinstance(a, A.Node) != isinstance(b, A.Node):
        return False
    if isinstance(a, A.Node):
        if type(a) is not type(b):
            return False
        for fname in _node_fields(type(a)):
            if not ast_equal(getattr(a, fname), getattr(b, fname)):
                return False
        return True
    if isinstance(a, (list, tuple)):
        if not isinstance(b, (list, tuple)) or len(a) != len(b):
            return False
        return all(ast_equal(x, y) for x, y in zip(a, b))
    return a == b
