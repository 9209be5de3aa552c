"""Static OpenMP data-race detection (LLOV-style).

The paper's static phase only produces *MPI-call* candidates; shared
memory races are left to the dynamic lockset/happens-before phase.
This pass closes the gap at compile time, in four steps:

1. **Classification** — every variable referenced in an ``omp
   parallel``/``omp for`` region is classified as ``shared``,
   ``private``, ``firstprivate``, ``reduction`` or ``loop-index``
   following the default-sharing rules (globals and variables visible
   at region entry are shared; clause lists and in-region declarations
   privatize) — the question LLOV answers from OpenMP clause structure.
2. **Access collection** — read/write sites of shared variables inside
   parallel regions, plus accesses to globals in functions reachable
   from a parallel region (:func:`functions_called_from_parallel`).
3. **Conflict pairing + pruning** — pairs with at least one write are
   pruned by the PR-1 worklist machinery: May-Happen-in-Parallel
   context (regions, barrier phases — including the *implicit* closing
   barriers of non-``nowait`` worksharing constructs — and serialized
   sections), a shared must-held lock or lexical ``omp critical`` /
   ``omp atomic`` guard, ``master``/``single`` serialization, and a
   ZIV/SIV-style subscript disjointness test: ``a[i]`` vs ``a[i]``
   under one ``omp for`` is iteration-disjoint, ``a[i+1]`` write vs
   ``a[i]`` read is loop-carried and stays.
4. **Reporting** — surviving pairs become :class:`StaticRaceCandidate`
   entries.  Their variables are the *monitored variables* the
   instrumented program announces, and their access sites are the
   *monitored sites* (:attr:`StaticRaceReport.monitored_locs`) the
   dynamic phase watches, instead of every shared access (the ITC
   model's monitor-everything behaviour).

Names resolve through the node table's bindings, so block scope and
shadowing are exact; subscripts are read as linear forms by the one
evaluator, :func:`.summaries.eval_form`.

Known imprecision: array aliasing through call arguments is ignored
(an array is tracked by the variable it is named by), and pairing keys
are ``(function, name)``, so two same-named declarations of one
function pair as one variable (a false positive at worst).  An array
access with a non-constant subscript in a function reached from a
parallel region is paired at each parallel call site through the
callee's summary; where its form could not be computed or instantiated
on every parallel path it stays *delegated* to the dynamic phase
(reported as unresolved, never paired).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .callgraph import ParallelContext

from ...minilang import ast_nodes as A
from ...minilang.nodetable import DeclKey, NodeTable
from ...mpi.constants import LANGUAGE_CONSTANTS
from .. import cfg as C
from .dataflow.engine import solve
from .dataflow.lockstate import LockStateAnalysis, guard_tokens
from .dataflow.mhp import MHPInfo, MHPSolution, may_happen_in_parallel
from .mpi_sites import functions_called_from_parallel
from .prunes import count_prune as _count_prune
from .prunes import make_prune_dict, total_pruned as _total_pruned
from .summaries import (
    LOOP_BASE,
    TID_BASE,
    LinForm,
    SummaryTable,
    compute_summaries,
    eval_form,
    rebase,
)

#: sharing classes (per parallel/worksharing region)
SHARED = "shared"
PRIVATE = "private"
FIRSTPRIVATE = "firstprivate"
REDUCTION = "reduction"
LOOP_INDEX = "loop-index"
#: declaration kind of sequential (function-level) locals
_LOCAL = "local"

#: race-prune categories (surfaced next to the PR-1 dataflow counters)
PRUNE_RACE_MHP = "race-mhp"
PRUNE_RACE_LOCK = "race-lock"
PRUNE_RACE_GUARD = "race-guard"
PRUNE_RACE_SUBSCRIPT = "race-subscript"
#: subscript-disjointness prune of a pair with a summary-instantiated side
PRUNE_RACE_INTERPROC = "race-interproc"
RACE_PRUNE_KINDS = (
    PRUNE_RACE_MHP, PRUNE_RACE_LOCK, PRUNE_RACE_GUARD, PRUNE_RACE_SUBSCRIPT,
    PRUNE_RACE_INTERPROC,
)

#: scope marker for program globals in access keys
GLOBAL_SCOPE = "<global>"


@dataclass
class AccessSite:
    """One read or write of a shared variable in parallel context."""

    nid: int
    var: str
    #: (scope, var) pairing key; scope is ``<global>`` or the function
    #: owning the shared local
    key: Tuple[str, str]
    is_write: bool
    func: str
    loc: str
    #: innermost lexical ``omp parallel`` nid; None = reached only
    #: interprocedurally (function called from a parallel region)
    region: Optional[int]
    is_array: bool = False
    #: an element access (False: scalar or whole-array use, e.g. an
    #: array passed as a call argument)
    element: bool = False
    #: enclosing ``omp for`` construct nid
    omp_for: Optional[int] = None
    #: encounters of that omp for cannot overlap (implicit barrier, or
    #: single encounter outside sequential loops)
    omp_for_serial: bool = True
    #: lexical critical/atomic tokens, widened with must-held locks
    guards: FrozenSet[str] = frozenset()
    in_master: bool = False
    #: (omp single nid, encounters-serial) of the innermost single
    single: Optional[Tuple[int, bool]] = None
    #: the element's subscript as a linear form over the enclosing
    #: ``omp for``'s index (:data:`LOOP_BASE`) or the thread id (None:
    #: not an element access, or not linear)
    lin: Optional[LinForm] = None
    #: callee the access was instantiated from (None: lexical access)
    via: Optional[str] = None

    @property
    def kind(self) -> str:
        return "write" if self.is_write else "read"


@dataclass
class RegionInfo:
    """Per-region variable classification (the LLOV-style table)."""

    nid: int
    func: str
    loc: str
    #: "parallel" or "for"
    kind: str
    sharing: Dict[str, str] = field(default_factory=dict)


@dataclass
class StaticRaceCandidate:
    """A statically possible data race between two access sites."""

    var: str
    scope: str
    a: AccessSite
    b: AccessSite
    reason: str

    def locs(self) -> Tuple[str, ...]:
        return tuple(sorted({self.a.loc, self.b.loc}))

    def __str__(self) -> str:
        return (
            f"[static-race] {self.var}: {self.a.kind}@{self.a.func}:{self.a.loc}"
            f" vs {self.b.kind}@{self.b.func}:{self.b.loc} — {self.reason}"
        )


@dataclass
class StaticRaceReport:
    """Outcome of the static race pass."""

    candidates: List[StaticRaceCandidate] = field(default_factory=list)
    regions: List[RegionInfo] = field(default_factory=list)
    #: every shared access considered for pairing
    accesses: List[AccessSite] = field(default_factory=list)
    #: interprocedural array accesses delegated to the dynamic phase
    unresolved: List[AccessSite] = field(default_factory=list)
    #: formerly-unresolved accesses fully covered by summary
    #: instantiation (every parallel path analyzed statically)
    resolved_interproc: List[AccessSite] = field(default_factory=list)
    #: count of summary-instantiated access sites that joined pairing
    instantiated_sites: int = 0
    pruned: Dict[str, int] = field(
        default_factory=lambda: make_prune_dict(RACE_PRUNE_KINDS)
    )

    @property
    def monitored_vars(self) -> FrozenSet[str]:
        """Variables of the static candidates: the variables the
        instrumented program announces as monitored."""
        return frozenset(c.var for c in self.candidates)

    @property
    def whole_vars(self) -> FrozenSet[str]:
        """Monitored variables the pass cannot pair completely, so every
        access of theirs is monitored: those with an ``unresolved``
        interprocedural access, and those named in a ``reduction``
        clause (a reduction fold is no access site, so it is never
        paired)."""
        incomplete = {site.var for site in self.unresolved}
        for region in self.regions:
            incomplete.update(
                name for name, cls in region.sharing.items() if cls == REDUCTION
            )
        return self.monitored_vars & incomplete

    def site_locs(self, names: FrozenSet[str]) -> FrozenSet[str]:
        """The "line:col" locs of every access site of the variables
        *names*: each lexical and summary-instantiated access (the
        callee's loc), each interprocedural access, and each construct
        whose ``reduction`` clause names one of them (its folds' site)."""
        sites = (*self.accesses, *self.unresolved, *self.resolved_interproc)
        locs = {site.loc for site in sites if site.var in names}
        locs.update(
            region.loc for region in self.regions
            if any(region.sharing.get(name) == REDUCTION for name in names)
        )
        return frozenset(locs)

    @property
    def monitored_locs(self) -> FrozenSet[str]:
        """The access sites the dynamic phase monitors (site-directed
        narrowing, ``RunConfig.memory_sites``): both sides of every
        candidate, plus every site of each :attr:`whole_vars` variable.
        A site is keyed by its "line:col" loc, which survives the
        instrumented clone's renumbering."""
        locs = {loc for cand in self.candidates for loc in (cand.a.loc, cand.b.loc)}
        return frozenset(locs) | self.site_locs(self.whole_vars)

    @property
    def total_pruned(self) -> int:
        return _total_pruned(self.pruned)

    def count_prune(self, kind: str) -> None:
        _count_prune(self.pruned, kind)

    def as_dict(self) -> Dict[str, object]:
        def site(s: AccessSite) -> Dict[str, object]:
            row: Dict[str, object] = {
                "var": s.var,
                "kind": s.kind,
                "func": s.func,
                "loc": s.loc,
                "array": s.is_array,
                "interprocedural": s.region is None,
            }
            if s.via is not None:
                row["via"] = s.via
            return row

        return {
            "candidates": [
                {
                    "var": c.var,
                    "scope": c.scope,
                    "a": site(c.a),
                    "b": site(c.b),
                    "reason": c.reason,
                }
                for c in self.candidates
            ],
            "monitored_vars": sorted(self.monitored_vars),
            "monitored_locs": sorted(self.monitored_locs),
            "accesses": len(self.accesses),
            "unresolved": [site(s) for s in self.unresolved],
            "interproc": {
                "resolved": [site(s) for s in self.resolved_interproc],
                "instantiated_sites": self.instantiated_sites,
            },
            "regions": [
                {
                    "func": r.func,
                    "loc": r.loc,
                    "kind": r.kind,
                    "sharing": dict(sorted(r.sharing.items())),
                }
                for r in self.regions
            ],
            "pruned": dict(self.pruned),
            "total_pruned": self.total_pruned,
        }


# ---------------------------------------------------------------------------
# Classification + access collection
# ---------------------------------------------------------------------------


class _FunctionWalker:
    """Collects shared-variable accesses of one function.

    Sharing resolution reads the declaration each name binds to (the
    node table's bindings).  Inside a parallel region, the enclosing
    ``omp for``'s index is a loop index; a declaration inside the
    innermost region keeps its class (the clause class when the region
    or a worksharing construct in it declares the name, else
    ``private``); a declaration outside it was visible at region entry,
    hence shared.  A program global is shared whenever executed in
    parallel context (lexically, or because the whole function is
    reachable from a parallel region); an undeclared name is skipped.
    """

    def __init__(self, func: A.FuncDef, unsafe: bool, table: NodeTable) -> None:
        self.func = func
        self.unsafe = unsafe
        #: the program's node table: bindings and OpenMP context
        self.table = table
        #: enclosing ``omp parallel`` regions, innermost last
        self.region_stack: List[RegionInfo] = []
        #: enclosing ``omp for`` regions with their index declarations
        self.ws_stack: List[Tuple[RegionInfo, Optional[DeclKey]]] = []
        self.accesses: List[AccessSite] = []
        self.unresolved: List[AccessSite] = []
        self.regions: List[RegionInfo] = []

    def run(self) -> None:
        self._walk_block(self.func.body)

    # -- sharing resolution -------------------------------------------------

    def _resolve(self, name: A.Name) -> Optional[Tuple[str, bool, bool]]:
        """-> (sharing class, is_array, is_global), or None to skip."""
        if name.ident in LANGUAGE_CONSTANTS:
            return None
        table = self.table
        decl = table.binding.get(name.nid)
        if decl is None:
            return None  # unknown identifier (builtin value, etc.)
        node = table.nodes[decl]
        is_array = isinstance(node, A.VarDecl) and node.is_array
        if table.func[decl] is None:
            return (SHARED, is_array, True)
        if not self.region_stack:
            return (_LOCAL, is_array, False)
        region = self.region_stack[-1].nid
        key = (decl, name.ident)
        for ws, index in reversed(self.ws_stack):
            if ws.nid < region:
                break  # outside the innermost region
            if key == index:
                return (LOOP_INDEX, False, False)
        if not table.contains(region, decl):
            # declared outside the innermost region: visible at entry,
            # therefore shared within the region
            return (SHARED, is_array, False)
        if isinstance(node, (A.OmpParallel, A.OmpFor)):
            return (_clause_class(node, name.ident), False, False)
        return (PRIVATE, is_array, False)

    def _classify_into_regions(self, name: str, cls: str) -> None:
        if self.region_stack:
            self.region_stack[-1].sharing.setdefault(name, cls)
        if self.ws_stack:
            self.ws_stack[-1][0].sharing.setdefault(name, cls)

    # -- access recording ---------------------------------------------------

    def _access(
        self,
        node: A.Expr,
        name: A.Name,
        is_write: bool,
        subscript: Optional[A.Expr] = None,
    ) -> None:
        resolved = self._resolve(name)
        if resolved is None:
            return
        cls, is_array, is_global = resolved
        var = name.ident
        self._classify_into_regions(var, cls if cls != _LOCAL else SHARED)
        if cls != SHARED:
            return
        in_region = bool(self.region_stack)
        if not in_region and not (self.unsafe and is_global):
            return  # sequential context: cannot race
        table = self.table
        ctx = table.ctx[node.nid]
        # a schedule chunk is read inside its own omp for
        clause = ctx.clause
        omp_for = clause if isinstance(table.nodes[clause], A.OmpFor) else ctx.omp_for
        single = table.innermost(node.nid, A.OmpSingle)
        lin = None
        if subscript is not None:
            lin = eval_form(subscript, _loop_env(table, omp_for), table)
        site = AccessSite(
            nid=node.nid,
            var=var,
            key=(GLOBAL_SCOPE if is_global else self.func.name, var),
            is_write=is_write,
            func=self.func.name,
            loc=f"{node.loc.line}:{node.loc.col}",
            region=self.region_stack[-1].nid if in_region else None,
            is_array=is_array,
            element=subscript is not None,
            omp_for=omp_for or None,
            omp_for_serial=table.encounters_serial(omp_for),
            guards=guard_tokens(ctx),
            in_master=table.innermost(node.nid, A.OmpMaster) != 0,
            single=(single, table.encounters_serial(single)) if single else None,
            lin=lin,
        )
        if (
            site.region is None
            and is_array
            and not (lin is not None and lin.base is None and lin.lo == lin.hi)
        ):
            # interprocedural array access with unknown element: the
            # caller's distribution is invisible — delegate to dynamic
            self.unresolved.append(site)
        else:
            self.accesses.append(site)

    def _reads(self, expr: Optional[A.Expr]) -> None:
        if expr is None:
            return
        if isinstance(expr, A.Name):
            self._access(expr, expr, is_write=False)
            return
        if isinstance(expr, A.Index) and isinstance(expr.base, A.Name):
            self._access(expr, expr.base, is_write=False, subscript=expr.index)
            self._reads(expr.index)
            return
        for child in expr.children():
            if isinstance(child, A.Expr):
                self._reads(child)

    # -- traversal ----------------------------------------------------------

    def _walk_block(self, block: A.Block) -> None:
        for stmt in block.stmts:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: A.Stmt) -> None:
        if isinstance(stmt, A.Block):
            self._walk_block(stmt)
        elif isinstance(stmt, A.VarDecl):
            self._reads(stmt.init)
            self._reads(stmt.size)
            if self.region_stack:
                self._classify_into_regions(stmt.name, PRIVATE)
        elif isinstance(stmt, A.Assign):
            self._reads(stmt.value)
            target = stmt.target
            if isinstance(target, A.Name):
                self._access(target, target, is_write=True)
            elif isinstance(target, A.Index) and isinstance(target.base, A.Name):
                self._reads(target.index)
                self._access(target, target.base, is_write=True, subscript=target.index)
        elif isinstance(stmt, A.If):
            self._reads(stmt.cond)
            self._walk_stmt(stmt.then)
            if stmt.els is not None:
                self._walk_stmt(stmt.els)
        elif isinstance(stmt, A.While):
            self._reads(stmt.cond)
            self._walk_block(stmt.body)
        elif isinstance(stmt, A.For):
            if stmt.init is not None:
                self._walk_stmt(stmt.init)
            self._reads(stmt.cond)
            if stmt.step is not None:
                self._walk_stmt(stmt.step)
            self._walk_block(stmt.body)
        elif isinstance(stmt, A.OmpParallel):
            self._walk_parallel(stmt)
        elif isinstance(stmt, A.OmpFor):
            self._walk_omp_for(stmt)
        elif isinstance(stmt, A.OmpSections):
            # section-level serialization is the MHP analysis' job
            for section in stmt.sections:
                self._walk_block(section)
        elif isinstance(stmt, (A.OmpSingle, A.OmpMaster, A.OmpCritical)):
            self._walk_block(stmt.body)
        elif isinstance(stmt, A.OmpAtomic):
            self._walk_stmt(stmt.stmt)
        elif isinstance(stmt, A.OmpBarrier):
            pass
        else:
            # leaf statements: ExprStmt, Print, AssertStmt, Return...
            for child in stmt.children():
                if isinstance(child, A.Expr):
                    self._reads(child)

    def _region_info(self, stmt: A.Stmt, kind: str) -> RegionInfo:
        info = RegionInfo(
            nid=stmt.nid,
            func=self.func.name,
            loc=f"{stmt.loc.line}:{stmt.loc.col}",
            kind=kind,
        )
        for name in stmt.private:
            info.sharing[name] = PRIVATE
        for name in getattr(stmt, "firstprivate", ()):
            info.sharing[name] = FIRSTPRIVATE
        for _op, name in stmt.reductions:
            info.sharing[name] = REDUCTION
        self.regions.append(info)
        return info

    def _walk_parallel(self, stmt: A.OmpParallel) -> None:
        self._reads(stmt.num_threads)
        info = self._region_info(stmt, "parallel")
        for name in stmt.shared:
            info.sharing[name] = SHARED
        self.region_stack.append(info)
        self._walk_block(stmt.body)
        self.region_stack.pop()

    def _walk_omp_for(self, stmt: A.OmpFor) -> None:
        loop = stmt.loop
        info = self._region_info(stmt, "for")
        index = self.table.loop_index_key(loop)
        if index is not None:
            # the runtime re-declares the index per iteration, so it is
            # private even when a pre-existing variable is reused
            info.sharing[index[1]] = LOOP_INDEX
        self.ws_stack.append((info, index))
        self._reads(stmt.chunk)
        if isinstance(loop.init, A.VarDecl):
            self._reads(loop.init.init)
        elif isinstance(loop.init, A.Assign):
            self._reads(loop.init.value)
        self._reads(loop.cond)
        if loop.step is not None:
            self._walk_stmt(loop.step)
        self._walk_block(loop.body)
        self.ws_stack.pop()


def _loop_env(table: NodeTable, omp_for: Optional[int]) -> Dict[DeclKey, LinForm]:
    """The form environment of code in the ``omp for`` at *omp_for*
    (0/None: none): its index is :data:`LOOP_BASE`."""
    if not omp_for:
        return {}
    index = table.loop_index_key(table.nodes[omp_for].loop)
    return {index: LinForm(LOOP_BASE, 1, 0, 0)} if index else {}


def _clause_class(construct: A.Stmt, name: str) -> str:
    """The class a construct's clauses give *name*, which they declare."""
    if any(name == reduced for _op, reduced in construct.reductions):
        return REDUCTION
    if name in getattr(construct, "firstprivate", ()):
        return FIRSTPRIVATE
    return PRIVATE


# ---------------------------------------------------------------------------
# Subscript disjointness (ZIV / SIV)
# ---------------------------------------------------------------------------


def _nonzero_multiple_in(coeff: int, lo: int, hi: int) -> bool:
    """Is some nonzero multiple of ``coeff`` inside ``[lo, hi]``?"""
    magnitude = abs(coeff)
    return hi // magnitude >= 1 or -((-lo) // magnitude) <= -1


def _subscripts_disjoint(
    a: AccessSite,
    b: AccessSite,
    mhp_a: Optional[MHPInfo],
    mhp_b: Optional[MHPInfo],
    overlap_unsafe: bool,
) -> bool:
    """Can the two element accesses provably never touch one address?

    Generalized over interval forms: ``c*sym + [lo, hi]``.  Two same-
    symbol forms with equal nonzero coefficient collide only when
    ``c * (i - i')`` can equal some delta difference, i.e. when a
    nonzero multiple of ``c`` falls in ``[lo_b - hi_a, hi_b - lo_a]``
    (the zero multiple is the same iteration/thread — program-ordered).
    Point forms reduce to the historical ZIV/SIV tests.
    """
    fa, fb = a.lin, b.lin
    if fa is None or fb is None:
        return False
    sa, ca, la, ha = fa.base, fa.coeff, fa.lo, fa.hi
    sb, cb, lb, hb = fb.base, fb.coeff, fb.lo, fb.hi
    if sa is None and sb is None:
        return ha < lb or hb < la  # ZIV: disjoint constant ranges
    if overlap_unsafe:
        return False  # overlapping region instances repeat the symbols
    if sa == LOOP_BASE and sb == LOOP_BASE:
        # SIV within one omp for: iteration i only touches c*i+[lo,hi],
        # and only cross-iteration overlap races (same iteration = same
        # thread = program order).
        return (
            a.omp_for is not None
            and a.omp_for == b.omp_for
            and a.omp_for_serial
            and b.omp_for_serial
            and ca == cb
            and ca != 0
            and not _nonzero_multiple_in(ca, lb - ha, hb - la)
        )
    if sa == TID_BASE and sb == TID_BASE:
        # each thread of one team owns its c*tid+[lo,hi] slice
        return (
            mhp_a is not None
            and mhp_b is not None
            and len(mhp_a.regions) == 1
            and mhp_a.regions == mhp_b.regions
            and ca == cb
            and ca != 0
            and not _nonzero_multiple_in(ca, lb - ha, hb - la)
        )
    return False


# ---------------------------------------------------------------------------
# Pairing
# ---------------------------------------------------------------------------


def _serialized_by_construct(
    a: AccessSite,
    b: AccessSite,
    mhp_a: Optional[MHPInfo],
    mhp_b: Optional[MHPInfo],
    overlap_unsafe: bool,
) -> bool:
    """master/master and same-serial-single pairs run on one thread."""
    if overlap_unsafe or mhp_a is None or mhp_b is None:
        return False
    if len(mhp_a.regions) != 1 or mhp_a.regions != mhp_b.regions:
        return False
    if a.in_master and b.in_master:
        return True  # both on thread 0 of the same (single-level) team
    if (
        a.single is not None
        and a.single == b.single
        and a.single[1]  # encounters provably serial
    ):
        return True
    return False


def _pair_reason(a: AccessSite, b: AccessSite) -> str:
    kinds = f"{a.kind}/{b.kind}"
    if a.is_array or b.is_array:
        if a.element and b.element:
            detail = "subscripts not provably disjoint"
        else:
            detail = "whole-array use overlaps element accesses"
        reason = f"unsynchronized {kinds} of shared array ({detail})"
    else:
        reason = f"unsynchronized {kinds} of shared variable"
    if a.region is None or b.region is None:
        reason += "; reached from a parallel region"
    via = sorted({v for v in (a.via, b.via) if v})
    if via:
        reason += "; instantiated from " + ", ".join(via)
    return reason


def find_races(
    program: A.Program,
    cfgs: Optional[Dict[str, C.CFG]] = None,
    unsafe_funcs: Optional[Set[str]] = None,
    summaries: Optional[SummaryTable] = None,
    interprocedural: bool = True,
    mhp: Optional[MHPSolution] = None,
) -> StaticRaceReport:
    """Run the full static race pass over *program*.

    *mhp* is the program's MHP solution when another pass already
    solved it; the race pass reads its worksharing-phase contexts.

    With *cfgs* supplied, the must-held lock-state analysis widens each
    access's lexical guard set path-sensitively (a user lock taken three
    statements earlier still serializes).

    With *summaries* (or by default, computed on the fly while
    *interprocedural* is true), every parallel call site instantiates
    the callee's parameterized array accesses under the caller context,
    so previously-``unresolved`` interprocedural accesses join pairing
    with interval subscript forms, and the MHP test uses resolved
    call-site contexts for regionless sites.  Unresolved accesses whose
    every parallel path was analyzed move to ``resolved_interproc``;
    anything that escaped instantiation anywhere stays delegated to the
    dynamic phase.
    """
    unsafe = (
        set(unsafe_funcs)
        if unsafe_funcs is not None
        else functions_called_from_parallel(program)
    )
    solution = mhp if mhp is not None else MHPSolution(program)
    mhp = solution.infos(record_all=True, implicit_ws_barriers=True)

    if summaries is None and interprocedural:
        summaries = compute_summaries(program)

    report = StaticRaceReport()
    user_funcs = frozenset(fn.name for fn in program.functions)
    walked = summaries.race_walks if summaries is not None else {}
    for fn in program.functions:
        walker = _walk(fn, fn.name in unsafe, program.table, walked)
        report.accesses.extend(walker.accesses)
        report.unresolved.extend(walker.unresolved)
        report.regions.extend(walker.regions)
        if cfgs and fn.name in cfgs and walker.accesses:
            _widen_guards(walker.accesses, cfgs[fn.name], user_funcs)
    # used up; also keeps the walks out of a static report that is
    # shipped to campaign workers
    walked.clear()

    contexts = None
    if summaries is not None:
        from .callgraph import resolve_parallel_contexts

        contexts = resolve_parallel_contexts(summaries.callgraph, mhp)
        _instantiate_summaries(report, summaries, cfgs, user_funcs, program.table)

    by_key: Dict[Tuple[str, str], List[AccessSite]] = {}
    for site in report.accesses:
        by_key.setdefault(site.key, []).append(site)

    for key, sites in sorted(by_key.items()):
        if not any(s.is_write for s in sites):
            continue  # read-only sharing is race-free
        for i in range(len(sites)):
            for j in range(i, len(sites)):
                a, b = sites[i], sites[j]
                if not (a.is_write or b.is_write):
                    continue
                _check_pair(report, key, a, b, mhp, unsafe, contexts)
    return report


def _walk(
    func: A.FuncDef,
    unsafe: bool,
    table: NodeTable,
    walked: Dict[str, _FunctionWalker],
) -> _FunctionWalker:
    """*func*'s race walk: the summary layer's walk from *walked* when
    it walked this same function with this *unsafe* flag (a walk is a
    function of the function, its program and the flag), else a fresh
    one.  The race pass widens a walk's guards in place, so it empties
    *walked* once it has taken what it reuses."""
    walker = walked.get(func.name)
    if walker is None or walker.func is not func or walker.unsafe != unsafe:
        walker = _FunctionWalker(func, unsafe, table)
        walker.run()
    return walker


def _instantiate_summaries(
    report: StaticRaceReport,
    table: SummaryTable,
    cfgs: Optional[Dict[str, C.CFG]],
    user_funcs: FrozenSet[str],
    nodes: NodeTable,
) -> None:
    """Materialize summary accesses at parallel call sites and settle
    which unresolved accesses are now fully covered."""
    cg = table.callgraph
    instantiated: Dict[int, int] = {}
    escaped = set(table.escaped)
    by_caller: Dict[str, List[AccessSite]] = {}

    for cs in cg.sites:
        if cs.region is None or cs.spawned:
            continue
        summary = table.summary_for(cs.callee)
        if summary is None or not summary.accesses:
            continue
        env = _loop_env(nodes, cs.omp_for)
        args = tuple(eval_form(arg, env, nodes) for arg in cs.args)
        for acc in summary.accesses:
            lin = rebase(acc.form, summary.params, args)
            if lin is None:
                escaped.add(acc.nid)
                continue
            site = AccessSite(
                nid=cs.nid,
                var=acc.var,
                key=acc.key,
                is_write=acc.is_write,
                func=cs.caller,
                loc=acc.loc,
                region=cs.region,
                is_array=True,
                element=True,
                omp_for=cs.omp_for,
                omp_for_serial=cs.omp_for_serial,
                guards=acc.guards | cs.guards,
                in_master=cs.in_master,
                single=cs.single,
                lin=lin,
                via=acc.func,
            )
            instantiated[acc.nid] = instantiated.get(acc.nid, 0) + 1
            by_caller.setdefault(cs.caller, []).append(site)

    for fname, sites in by_caller.items():
        # must-held locks at the call statement persist through the call
        # only when the whole callee chain leaves lock state alone
        if cfgs and fname in cfgs:
            transparent = [
                s for s in sites if s.via in table.lock_transparent
            ]
            if transparent:
                _widen_guards(transparent, cfgs[fname], user_funcs)
        report.accesses.extend(sites)
        report.instantiated_sites += len(sites)

    still_unresolved: List[AccessSite] = []
    for site in report.unresolved:
        covered = (
            instantiated.get(site.nid, 0) >= 1
            and site.nid not in escaped
            and site.func not in cg.spawn_reachable
            and site.func not in cg.recursive
        )
        if covered:
            report.resolved_interproc.append(site)
        else:
            still_unresolved.append(site)
    report.unresolved = still_unresolved


def _widen_guards(
    accesses: List[AccessSite], cfg: C.CFG, user_funcs: FrozenSet[str]
) -> None:
    """Merge must-held lock tokens into each access's guard set."""
    result = solve(cfg, LockStateAnalysis(user_funcs, table=cfg.table))
    node_map = C.innermost_node_map(cfg)
    for site in accesses:
        node = node_map.get(site.nid)
        if node is None:
            continue
        held = result.fact_before(node)
        if held:
            site.guards = site.guards | held


def _check_pair(
    report: StaticRaceReport,
    key: Tuple[str, str],
    a: AccessSite,
    b: AccessSite,
    mhp: Dict[int, MHPInfo],
    unsafe: Set[str],
    contexts: Optional[Dict[str, "ParallelContext"]] = None,
) -> None:
    mhp_a, mhp_b = mhp.get(a.nid), mhp.get(b.nid)
    if not may_happen_in_parallel(mhp_a, mhp_b, unsafe, contexts):
        report.count_prune(PRUNE_RACE_MHP)
        return
    if a.guards & b.guards:
        report.count_prune(PRUNE_RACE_LOCK)
        return
    overlap_unsafe = a.func in unsafe or b.func in unsafe
    if _serialized_by_construct(a, b, mhp_a, mhp_b, overlap_unsafe):
        report.count_prune(PRUNE_RACE_GUARD)
        return
    if (
        a.is_array
        and b.is_array
        and a.element
        and b.element
        and _subscripts_disjoint(a, b, mhp_a, mhp_b, overlap_unsafe)
    ):
        report.count_prune(
            PRUNE_RACE_INTERPROC if (a.via or b.via) else PRUNE_RACE_SUBSCRIPT
        )
        return
    scope, var = key
    report.candidates.append(
        StaticRaceCandidate(
            var=var, scope=scope, a=a, b=b, reason=_pair_reason(a, b)
        )
    )
