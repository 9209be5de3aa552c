"""Reference MHP walker: the per-function AST walk the node-table MHP
solve in :mod:`repro.analysis.static_.dataflow.mhp` replaced, kept
unchanged as the oracle its tests compare both option sets against.
"""

from typing import Dict, List, Optional, Tuple

from repro.analysis.static_.dataflow.mhp import MHPInfo
from repro.minilang import ast_nodes as A


class _Region:
    __slots__ = ("nid", "phase", "reliable", "entry_cond_depth")

    def __init__(self, nid: int, entry_cond_depth: int) -> None:
        self.nid = nid
        self.phase = 0
        self.reliable = True
        self.entry_cond_depth = entry_cond_depth


class _MHPWalker:
    """One function's AST walk, recording context per CallExpr nid.

    With ``record_all`` every expression node (names, index expressions,
    calls) gets an :class:`MHPInfo` — the static race pass needs the
    context of plain variable accesses, not just MPI calls.  With
    ``implicit_ws_barriers`` the implicit closing barrier of a non-
    ``nowait`` worksharing construct bumps the phase like an explicit
    ``omp barrier`` does (sound for races; the MPI-candidate pass keeps
    the coarser historical phases so its counts stay comparable).
    """

    def __init__(
        self,
        func: A.FuncDef,
        record_all: bool = False,
        implicit_ws_barriers: bool = False,
    ) -> None:
        self.func = func
        self.record_all = record_all
        self.implicit_ws_barriers = implicit_ws_barriers
        self.regions: List[_Region] = []
        self.cond_depth = 0
        self.loop_depth = 0
        self.section: Optional[Tuple[int, int]] = None
        self.section_serial = True
        #: nid -> (regions, phase, section, section_serial); reliability
        #: is resolved after the walk (a later conditional barrier can
        #: retroactively invalidate earlier phases)
        self._raw: Dict[int, Tuple[Tuple[int, ...], int, Optional[Tuple[int, int]], bool]] = {}
        self._reliable: Dict[int, bool] = {}

    def run(self) -> Dict[int, MHPInfo]:
        self._walk_stmt(self.func.body)
        infos: Dict[int, MHPInfo] = {}
        for nid, (regions, phase, section, serial) in self._raw.items():
            reliable = self._reliable.get(regions[-1], True) if regions else True
            infos[nid] = MHPInfo(
                func=self.func.name,
                regions=regions,
                phase=phase,
                phase_reliable=reliable,
                section=section,
                section_serial=serial,
            )
        return infos

    # -- recording ----------------------------------------------------------

    def _record_expr(self, expr: A.Expr) -> None:
        for node in expr.walk():
            if self.record_all or isinstance(node, A.CallExpr):
                regions = tuple(r.nid for r in self.regions)
                phase = self.regions[-1].phase if self.regions else 0
                self._raw[node.nid] = (
                    regions, phase, self.section, self.section_serial,
                )

    def _implicit_barrier(self) -> None:
        """Phase effect of a worksharing construct's closing barrier."""
        if not self.implicit_ws_barriers or not self.regions:
            return
        region = self.regions[-1]
        if self.cond_depth == region.entry_cond_depth:
            region.phase += 1
        else:
            region.reliable = False

    def _record_stmt_exprs(self, stmt: A.Stmt) -> None:
        for child in stmt.children():
            if isinstance(child, A.Expr):
                self._record_expr(child)

    # -- traversal ----------------------------------------------------------

    def _walk_block(self, block: A.Block) -> None:
        for stmt in block.stmts:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: A.Stmt) -> None:
        if isinstance(stmt, A.Block):
            self._walk_block(stmt)
            return
        if isinstance(stmt, A.OmpParallel):
            if stmt.num_threads is not None:
                self._record_expr(stmt.num_threads)
            self.regions.append(_Region(stmt.nid, self.cond_depth))
            self._walk_block(stmt.body)
            region = self.regions.pop()
            self._reliable[region.nid] = region.reliable
            return
        if isinstance(stmt, A.OmpBarrier):
            if self.regions:
                region = self.regions[-1]
                if self.cond_depth == region.entry_cond_depth:
                    region.phase += 1
                else:
                    region.reliable = False
            return
        if isinstance(stmt, A.If):
            self._record_expr(stmt.cond)
            self.cond_depth += 1
            self._walk_stmt(stmt.then)
            if stmt.els is not None:
                self._walk_stmt(stmt.els)
            self.cond_depth -= 1
            return
        if isinstance(stmt, A.While):
            self._record_expr(stmt.cond)
            self.cond_depth += 1
            self.loop_depth += 1
            self._walk_block(stmt.body)
            self.cond_depth -= 1
            self.loop_depth -= 1
            return
        if isinstance(stmt, A.For):
            if stmt.init is not None:
                self._walk_stmt(stmt.init)
            if stmt.cond is not None:
                self._record_expr(stmt.cond)
            self.cond_depth += 1
            self.loop_depth += 1
            if stmt.step is not None:
                self._walk_stmt(stmt.step)
            self._walk_block(stmt.body)
            self.cond_depth -= 1
            self.loop_depth -= 1
            return
        if isinstance(stmt, A.OmpSections):
            # a nowait sections inside a loop can overlap its own
            # encounters, so same-section ordering is only provable
            # outside loops or with the implicit closing barrier
            serial = (self.loop_depth == 0) or not stmt.nowait
            saved = (self.section, self.section_serial)
            for index, section in enumerate(stmt.sections):
                self.section, self.section_serial = (stmt.nid, index), serial
                self._walk_block(section)
            self.section, self.section_serial = saved
            if not stmt.nowait:
                self._implicit_barrier()
            return
        if isinstance(stmt, A.OmpFor):
            if stmt.chunk is not None:
                self._record_expr(stmt.chunk)
            self._walk_stmt(stmt.loop)
            if not stmt.nowait:
                self._implicit_barrier()
            return
        if isinstance(stmt, A.OmpSingle):
            self._walk_block(stmt.body)
            if not stmt.nowait:
                self._implicit_barrier()
            return
        if isinstance(stmt, (A.OmpMaster, A.OmpCritical)):
            self._walk_block(stmt.body)
            return
        if isinstance(stmt, A.OmpAtomic):
            self._walk_stmt(stmt.stmt)
            return
        # leaf statements: record their expressions
        self._record_stmt_exprs(stmt)


def compute_mhp(
    program: A.Program,
    record_all: bool = False,
    implicit_ws_barriers: bool = False,
) -> Dict[int, MHPInfo]:
    """MHP context for every call expression of *program*.

    ``record_all`` extends the map to every expression node;
    ``implicit_ws_barriers`` counts the closing barriers of non-nowait
    worksharing constructs as phase boundaries (see :class:`_MHPWalker`).
    """
    infos: Dict[int, MHPInfo] = {}
    for fn in program.functions:
        infos.update(
            _MHPWalker(
                fn,
                record_all=record_all,
                implicit_ws_barriers=implicit_ws_barriers,
            ).run()
        )
    return infos
