"""Control-flow graph construction for mini-language functions.

The paper's static phase (Algorithm 1) generates the CFG of the hybrid
program, walks its node list (``srcCFG``), and flags MPI call nodes that
fall between an ``ompParallelBegin`` and its matching ``ompParallelEnd``.
We reproduce that structure: every statement becomes a CFG node; OpenMP
regions contribute explicit *begin*/*end* marker nodes; and
:meth:`CFG.linearize` yields the marker-bracketed node list the
algorithm iterates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import AnalysisError
from ..minilang import ast_nodes as A
from ..minilang.nodetable import NodeTable, function_table, subtree

# Marker kinds for structured constructs.
ENTRY = "entry"
EXIT = "exit"
STMT = "stmt"
BRANCH = "branch"
LOOP_HEAD = "loop-head"
OMP_PARALLEL_BEGIN = "ompParallelBegin"
OMP_PARALLEL_END = "ompParallelEnd"
OMP_WS_BEGIN = "ompWorksharingBegin"
OMP_WS_END = "ompWorksharingEnd"
OMP_CRITICAL_BEGIN = "ompCriticalBegin"
OMP_CRITICAL_END = "ompCriticalEnd"
OMP_BARRIER = "ompBarrier"


@dataclass
class CFGNode:
    """One control-flow graph node."""

    cfg_id: int
    kind: str
    ast: Optional[A.Node] = None
    label: str = ""

    @property
    def is_mpi_call(self) -> bool:
        return (
            self.kind == STMT
            and isinstance(self.ast, A.ExprStmt)
            and isinstance(self.ast.expr, A.CallExpr)
            and self.ast.expr.name.startswith(("mpi_", "hmpi_"))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CFGNode {self.cfg_id} {self.kind} {self.label}>"


class CFG:
    """Control-flow graph of one function."""

    def __init__(self, func_name: str, table: Optional[NodeTable] = None) -> None:
        self.func_name = func_name
        #: node table of the program the function belongs to
        self.table = table
        #: node ids are per-CFG, numbered from 1 in creation order
        self.nodes: Dict[int, CFGNode] = {}
        #: successor / predecessor ids per node, each edge once, in the
        #: order the builder first linked it
        self.succ: Dict[int, List[int]] = {}
        self.pred: Dict[int, List[int]] = {}
        self.entry = self._new_node(ENTRY, label=f"entry({func_name})")
        self.exit = self._new_node(EXIT, label=f"exit({func_name})")
        #: emission order of node creation (the paper's srcCFG list)
        self._order: List[int] = [self.entry.cfg_id]

    def _new_node(self, kind: str, ast: Optional[A.Node] = None, label: str = "") -> CFGNode:
        node = CFGNode(len(self.nodes) + 1, kind, ast, label)
        self.nodes[node.cfg_id] = node
        self.succ[node.cfg_id] = []
        self.pred[node.cfg_id] = []
        return node

    def add(self, kind: str, ast: Optional[A.Node] = None, label: str = "") -> CFGNode:
        node = self._new_node(kind, ast, label)
        self._order.append(node.cfg_id)
        return node

    def edge(self, a: CFGNode, b: CFGNode) -> None:
        succ = self.succ[a.cfg_id]
        if b.cfg_id not in succ:
            succ.append(b.cfg_id)
            self.pred[b.cfg_id].append(a.cfg_id)

    def finish(self) -> None:
        self._order.append(self.exit.cfg_id)

    def linearize(self) -> List[CFGNode]:
        """Nodes in construction order — Algorithm 1's ``srcCFG`` list.

        Construction order follows source order, so an MPI node appears
        between its region's begin/end markers exactly as the paper's
        traversal expects.
        """
        return [self.nodes[nid] for nid in self._order]

    def successors(self, node: CFGNode) -> List[CFGNode]:
        return [self.nodes[n] for n in self.succ[node.cfg_id]]

    def predecessors(self, node: CFGNode) -> List[CFGNode]:
        return [self.nodes[n] for n in self.pred[node.cfg_id]]


#: CFG node kinds whose AST bracket a statement's transfer: end markers
#: re-reference the whole construct and are left out.
_BRACKET_KINDS = (
    STMT, BRANCH, LOOP_HEAD, OMP_PARALLEL_BEGIN, OMP_WS_BEGIN, OMP_CRITICAL_BEGIN,
)


def innermost_node_map(cfg: CFG) -> Dict[int, CFGNode]:
    """Tightest CFG node containing each AST sub-node, by nid.

    Compound nodes (branch heads, region begin markers) precede their
    body statements in construction order, so iterating in linearize
    order and letting later nodes win maps every AST node to the CFG
    node whose transfer actually brackets it.  A subtree is a range of
    nids in the node table.
    """
    out: Dict[int, CFGNode] = {}
    table = cfg.table
    for node in cfg.linearize():
        ast = node.ast
        if node.kind not in _BRACKET_KINDS or ast is None:
            continue
        if table is not None and table.owns(ast):
            out.update(dict.fromkeys(range(ast.nid, table.end[ast.nid] + 1), node))
        else:
            out.update((sub.nid, node) for sub in subtree(ast, table))
    return out


class _Builder:
    """Recursive CFG builder. Returns (first, lasts) fragments."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg

    def build_block(
        self, block: A.Block, preds: List[CFGNode]
    ) -> List[CFGNode]:
        current = preds
        for stmt in block.stmts:
            current = self.build_stmt(stmt, current)
        return current

    def _link(self, preds: List[CFGNode], node: CFGNode) -> None:
        for p in preds:
            self.cfg.edge(p, node)

    def build_stmt(self, stmt: A.Stmt, preds: List[CFGNode]) -> List[CFGNode]:
        cfg = self.cfg
        if isinstance(stmt, (A.VarDecl, A.Assign, A.ExprStmt, A.Print, A.AssertStmt)):
            node = cfg.add(STMT, stmt, label=type(stmt).__name__)
            self._link(preds, node)
            return [node]
        if isinstance(stmt, A.Return):
            node = cfg.add(STMT, stmt, label="Return")
            self._link(preds, node)
            cfg.edge(node, cfg.exit)
            return []
        if isinstance(stmt, A.Block):
            return self.build_block(stmt, preds)
        if isinstance(stmt, A.If):
            branch = cfg.add(BRANCH, stmt, label="If")
            self._link(preds, branch)
            then_last = self.build_block(stmt.then, [branch])
            if stmt.els is not None:
                els = stmt.els if isinstance(stmt.els, A.Block) else A.Block([stmt.els])
                else_last = self.build_block(els, [branch])
            else:
                else_last = [branch]
            return then_last + else_last
        if isinstance(stmt, A.While):
            head = cfg.add(LOOP_HEAD, stmt, label="While")
            self._link(preds, head)
            body_last = self.build_block(stmt.body, [head])
            self._link(body_last, head)
            return [head]
        if isinstance(stmt, A.For):
            pre = preds
            if stmt.init is not None:
                init_node = cfg.add(STMT, stmt.init, label="ForInit")
                self._link(pre, init_node)
                pre = [init_node]
            head = cfg.add(LOOP_HEAD, stmt, label="For")
            self._link(pre, head)
            body_last = self.build_block(stmt.body, [head])
            if stmt.step is not None:
                step_node = cfg.add(STMT, stmt.step, label="ForStep")
                self._link(body_last, step_node)
                body_last = [step_node]
            self._link(body_last, head)
            return [head]
        if isinstance(stmt, A.OmpParallel):
            begin = cfg.add(OMP_PARALLEL_BEGIN, stmt, label="omp parallel")
            self._link(preds, begin)
            body_last = self.build_block(stmt.body, [begin])
            end = cfg.add(OMP_PARALLEL_END, stmt, label="end omp parallel")
            self._link(body_last, end)
            return [end]
        if isinstance(stmt, A.OmpFor):
            begin = cfg.add(OMP_WS_BEGIN, stmt, label="omp for")
            self._link(preds, begin)
            body_last = self.build_stmt(stmt.loop, [begin])
            end = cfg.add(OMP_WS_END, stmt, label="end omp for")
            self._link(body_last, end)
            return [end]
        if isinstance(stmt, A.OmpSections):
            begin = cfg.add(OMP_WS_BEGIN, stmt, label="omp sections")
            self._link(preds, begin)
            lasts: List[CFGNode] = []
            for section in stmt.sections:
                lasts.extend(self.build_block(section, [begin]))
            end = cfg.add(OMP_WS_END, stmt, label="end omp sections")
            self._link(lasts, end)
            return [end]
        if isinstance(stmt, A.OmpSingle):
            begin = cfg.add(OMP_WS_BEGIN, stmt, label="omp single")
            self._link(preds, begin)
            body_last = self.build_block(stmt.body, [begin])
            end = cfg.add(OMP_WS_END, stmt, label="end omp single")
            self._link(body_last + [begin], end)
            return [end]
        if isinstance(stmt, A.OmpMaster):
            begin = cfg.add(OMP_WS_BEGIN, stmt, label="omp master")
            self._link(preds, begin)
            body_last = self.build_block(stmt.body, [begin])
            end = cfg.add(OMP_WS_END, stmt, label="end omp master")
            self._link(body_last + [begin], end)
            return [end]
        if isinstance(stmt, A.OmpCritical):
            begin = cfg.add(OMP_CRITICAL_BEGIN, stmt, label=f"omp critical({stmt.name})")
            self._link(preds, begin)
            body_last = self.build_block(stmt.body, [begin])
            end = cfg.add(OMP_CRITICAL_END, stmt, label="end omp critical")
            self._link(body_last, end)
            return [end]
        if isinstance(stmt, A.OmpBarrier):
            node = cfg.add(OMP_BARRIER, stmt, label="omp barrier")
            self._link(preds, node)
            return [node]
        if isinstance(stmt, A.OmpAtomic):
            node = cfg.add(STMT, stmt, label="omp atomic")
            self._link(preds, node)
            return [node]
        raise AnalysisError(f"cannot build CFG for {type(stmt).__name__}")


def build_cfg(func: A.FuncDef, table: Optional[NodeTable] = None) -> CFG:
    """Build the CFG of one function.

    *table* is the node table of the function's program; without it a
    table over the function alone is built.
    """
    cfg = CFG(func.name, table if table is not None else function_table(func))
    builder = _Builder(cfg)
    lasts = builder.build_block(func.body, [cfg.entry])
    for node in lasts:
        cfg.edge(node, cfg.exit)
    cfg.finish()
    return cfg


def build_program_cfgs(program: A.Program) -> Dict[str, CFG]:
    """CFGs for every function of *program*."""
    table = program.table
    return {fn.name: build_cfg(fn, table) for fn in program.functions}
