"""General violation injection into arbitrary hybrid programs.

The NPB generator bakes its six violations in at source-generation
time; this module provides the same capability as a *program
transformation*: take any mini-language program and graft a chosen
violation pattern into it (the paper's methodology — "we artificially
implemented several tricky errors inside of these benchmarks" — as a
reusable library feature).

Each injection is a self-contained ``home_inject_<class>`` function
appended to the program plus a call inserted into ``main`` just before
its final ``mpi_finalize`` (or at the end).  Paired processes exchange
with ``rank XOR 1``, so any even process count works.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import ToolError
from ..minilang import Program, ast_nodes as A, parse, print_program
from ..minilang.builder import clone
from ..violations.spec import (
    COLLECTIVE,
    CONCURRENT_RECV,
    CONCURRENT_REQUEST,
    FINALIZATION,
    INITIALIZATION,
    PROBE,
)

#: Base tag for injected traffic; spaced so multiple injections coexist.
_TAG_BASE = 9200


@dataclass(frozen=True)
class InjectionSpec:
    """Parameters of one graftable violation."""

    vclass: str
    func_name: str
    #: mini-language source of the injection function (format: ``tag``)
    template: str
    #: skew (compute units) applied to thread 1, when supported
    supports_skew: bool = False


_TEMPLATES: Dict[str, InjectionSpec] = {}


def _register(vclass: str, func_name: str, template: str, supports_skew=False):
    _TEMPLATES[vclass] = InjectionSpec(vclass, func_name, template, supports_skew)


_register(CONCURRENT_RECV, "home_inject_recv", """
func home_inject_recv(rank, size) {{
    var partner = rank + 1 - 2 * (rank % 2);
    var ibuf[2];
    mpi_send(ibuf, 1, partner, {tag}, MPI_COMM_WORLD);
    mpi_send(ibuf, 1, partner, {tag}, MPI_COMM_WORLD);
    omp parallel num_threads(2) {{{skew}
        mpi_recv(ibuf, 1, partner, {tag}, MPI_COMM_WORLD);
    }}
    return 0;
}}
""", supports_skew=True)

_register(CONCURRENT_REQUEST, "home_inject_request", """
func home_inject_request(rank, size) {{
    var partner = rank + 1 - 2 * (rank % 2);
    var ibuf[2];
    compute(60);
    mpi_send(ibuf, 1, partner, {tag}, MPI_COMM_WORLD);
    var ireq = mpi_irecv(ibuf, 1, partner, {tag}, MPI_COMM_WORLD);
    omp parallel num_threads(2) {{{skew}
        mpi_wait(ireq);
    }}
    return 0;
}}
""", supports_skew=True)

_register(PROBE, "home_inject_probe", """
func home_inject_probe(rank, size) {{
    var partner = rank + 1 - 2 * (rank % 2);
    var ibuf[2];
    mpi_send(ibuf, 1, partner, {tag}, MPI_COMM_WORLD);
    omp parallel num_threads(2) {{
        mpi_probe(partner, {tag}, MPI_COMM_WORLD);
    }}
    mpi_recv(ibuf, 1, partner, {tag}, MPI_COMM_WORLD);
    return 0;
}}
""")

_register(COLLECTIVE, "home_inject_collective", """
func home_inject_collective(rank, size) {{
    omp parallel num_threads(2) {{
        mpi_barrier(MPI_COMM_WORLD);
    }}
    return 0;
}}
""")

_register(FINALIZATION, "home_inject_finalize", """
func home_inject_finalize(rank, size) {{
    omp parallel num_threads(2) {{
        if (omp_get_thread_num() == 1) {{
            mpi_finalize();
        }}
    }}
    return 0;
}}
""")


INJECTABLE_CLASSES = tuple(_TEMPLATES) + (INITIALIZATION,)


@dataclass
class InjectedProgram:
    """Result of grafting violations into a program."""

    program: Program
    injected: List[str] = field(default_factory=list)  # violation classes
    functions: List[str] = field(default_factory=list)


def _parse_injection(spec: InjectionSpec, tag: int, skew: int) -> A.FuncDef:
    skew_text = ""
    if skew > 0:
        if not spec.supports_skew:
            raise ToolError(f"{spec.vclass} injection does not support skew")
        skew_text = (
            "\n        if (omp_get_thread_num() == 1) {"
            f"\n            compute({skew});"
            "\n        }"
        )
    source = "program stub;\n" + spec.template.format(tag=tag, skew=skew_text)
    stub = parse(source)
    return stub.functions[0]


def _find_finalize_index(main: A.FuncDef) -> Optional[int]:
    for i, stmt in enumerate(main.body.stmts):
        if (
            isinstance(stmt, A.ExprStmt)
            and isinstance(stmt.expr, A.CallExpr)
            and stmt.expr.name.removeprefix("h") == "mpi_finalize"
        ):
            return i
    return None


def _downgrade_thread_level(program: Program) -> bool:
    """Initialization injection: weaken the requested level to SERIALIZED."""
    for node in program.walk():
        if isinstance(node, A.CallExpr) and node.name.removeprefix("h") == "mpi_init_thread":
            if node.args:
                node.args[0] = A.Name("MPI_THREAD_SERIALIZED")
                return True
    return False


def inject_violations(
    program: Program,
    classes: Sequence[str],
    skew: int = 0,
    tag_base: int = _TAG_BASE,
) -> InjectedProgram:
    """Graft the given violation classes into a copy of *program*.

    ``skew`` (compute units on thread 1) makes the recv/request
    injections *unmanifested*: still potential races, but their calls
    never overlap in time — the pattern a purely observational checker
    misses.

    The initialization class has no code block: it is injected by
    downgrading the program's requested thread level to
    ``MPI_THREAD_SERIALIZED`` (which the other injections' concurrency
    then violates); the program must call ``mpi_init_thread``.
    """
    unknown = [c for c in classes if c not in INJECTABLE_CLASSES]
    if unknown:
        raise ToolError(f"cannot inject violation class(es): {unknown}")

    new_program = clone(program)
    assert isinstance(new_program, Program)
    result = InjectedProgram(new_program)
    try:
        main = new_program.function("main")
    except KeyError:
        raise ToolError("program has no main() to inject into") from None

    declared = {
        stmt.name for stmt in main.body.walk() if isinstance(stmt, A.VarDecl)
    }
    needs_rank = any(c != INITIALIZATION for c in classes)
    if needs_rank and not {"rank", "size"} <= declared:
        raise ToolError(
            "injection requires main() to declare 'rank' and 'size' "
            "(e.g. var rank = mpi_comm_rank(MPI_COMM_WORLD);)"
        )

    calls: List[A.Stmt] = []
    for offset, vclass in enumerate(c for c in classes if c != INITIALIZATION):
        spec = _TEMPLATES[vclass]
        fn = _parse_injection(spec, tag_base + offset, skew)
        new_program.functions.append(fn)
        call = A.ExprStmt(A.CallExpr(fn.name, [A.Name("rank"), A.Name("size")]))
        calls.append(call)
        result.injected.append(vclass)
        result.functions.append(fn.name)

    if calls:
        guard = A.If(
            A.Binary(">=", A.Name("size"), A.IntLit(2)),
            A.Block(calls),
        )
        idx = _find_finalize_index(main)
        if FINALIZATION in classes:
            # the finalize injection replaces the program's own finalize
            if idx is not None:
                del main.body.stmts[idx]
            main.body.stmts.append(guard)
        elif idx is not None:
            main.body.stmts.insert(idx, guard)
        else:
            main.body.stmts.append(guard)

    if INITIALIZATION in classes:
        if not _downgrade_thread_level(new_program):
            raise ToolError(
                "initialization injection requires an mpi_init_thread call"
            )
        result.injected.append(INITIALIZATION)

    A.renumber_nids(new_program)
    return result


def inject_all(program: Program, skew: int = 0) -> InjectedProgram:
    """Graft one violation of every class (the paper's 6-per-benchmark
    methodology) into *program*."""
    return inject_violations(
        program,
        [CONCURRENT_RECV, CONCURRENT_REQUEST, PROBE, COLLECTIVE,
         FINALIZATION, INITIALIZATION],
        skew=skew,
    )
