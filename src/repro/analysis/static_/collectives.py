"""PARCOACH-family static collective-matching / barrier-divergence pass.

OpenMP requires every thread of a team to encounter the *same sequence*
of collective constructs: explicit ``omp barrier``, the worksharing
constructs (``for``, ``sections``, ``single`` — with or without
``nowait``, encountering is what must match), and the implicit barrier
at region exit.  An MPI collective executed from inside a ``parallel``
region is collective over threads too: if a thread-dependent branch
funnels it to a subset of the team the matched-send/recv structure of
the rank-level collective breaks.  PARCOACH detects both families by
coloring each collective site and checking, along CFG paths out of
control-flow divergence, that every thread reaches the same color
sequence; this module is the static half of that check for the
mini-language.

The pass walks each function's AST (structured control flow makes path
sequences syntax-directed), colors every collective site, and uses the
:mod:`.dataflow.divergence` taint facts to decide which branches are
*thread-dependent* (conditions on ``omp_get_thread_num()``, ``omp for``
indices, or data derived from them).  A
:class:`CollectiveDivergenceCandidate` is emitted when:

* the two arms of a thread-dependent branch contain different collective
  color sequences (including one arm empty — the MPI-under-divergent-
  branch case);
* a collective sits in a context that is divergent by construction: the
  body of ``omp master`` / ``omp single`` (OMP collectives only — a
  *funneled* MPI collective there is the sanctioned hybrid pattern and
  is pruned), an ``omp section``, a worksharing loop body, or a loop
  whose trip count is thread-dependent.

Everything the pass discards is tallied per prune kind (shared plumbing
with the race pass via :mod:`.prunes`):

* ``div-uniform`` — arms differ but the condition is team-uniform;
* ``div-balanced`` — thread-dependent branch, arms match;
* ``div-serial`` — MPI collective under ``master``/``single`` (funneled);
* ``div-mhp`` — divergent collectives outside any parallel context
  (lexically serial and not reachable from a region per
  :func:`~.mpi_sites.functions_called_from_parallel`), or an MPI call
  not in the cross-checked site list.

The candidates drive race-directed narrowing of the dynamic confirm
pass: :attr:`CollectiveDivergenceReport.monitored_locs` is the site set
the runtime needs to track.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ...events.event import COLLECTIVE_OPS
from ...minilang import ast_nodes as A
from ...minilang.nodetable import NodeTable
from ..cfg import CFG, build_program_cfgs
from ..graphs import reachable
from .dataflow.divergence import TaintSet, branch_taints, expr_thread_dependent
from .mpi_sites import MPISite, functions_called_from_parallel
from .prunes import count_prune, make_prune_dict, total_pruned

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .summaries import SummaryTable

#: divergence-prune categories (rendered next to the race-prune counters)
PRUNE_DIV_UNIFORM = "div-uniform"
PRUNE_DIV_BALANCED = "div-balanced"
PRUNE_DIV_SERIAL = "div-serial"
PRUNE_DIV_MHP = "div-mhp"
DIV_PRUNE_KINDS = (
    PRUNE_DIV_UNIFORM, PRUNE_DIV_BALANCED, PRUNE_DIV_SERIAL, PRUNE_DIV_MHP,
)

#: PARCOACH-style color table (numbers follow the exemplar
#: instrumentation: explicit barrier 36, implicit region-end 1,
#: early return 38, single 3, sections 4, for 5; MPI collectives get
#: their own color 2 and are further distinguished by op + site).
COLLECTIVE_COLORS: Dict[str, int] = {
    "barrier": 36,
    "region-end": 1,
    "return": 38,
    "single": 3,
    "sections": 4,
    "for": 5,
    "mpi": 2,
}

#: candidate kinds
KIND_BARRIER_DIVERGENCE = "barrier-divergence"
KIND_COLLECTIVE_ORDER = "collective-order"
KIND_MPI_COLLECTIVE = "mpi-collective"


@dataclass(frozen=True)
class ColorSite:
    """One colored collective site."""

    kind: str     # key into COLLECTIVE_COLORS
    nid: int      # AST node id of the construct / call
    loc: str      # "line:col" (stable across program clones)
    func: str     # enclosing function
    op: str = ""  # MPI op name for kind == "mpi"

    @property
    def color(self) -> int:
        return COLLECTIVE_COLORS[self.kind]

    def describe(self) -> str:
        label = self.op if self.kind == "mpi" else self.kind
        return f"{label}[{self.color}]@{self.loc}"


#: one element of a collective sequence: a colored site, or an opaque
#: token standing in for a uniform sub-branch / loop whose contribution
#: is identical on every thread that reaches it
SeqEntry = Union[ColorSite, Tuple]
ColorSeq = Tuple[SeqEntry, ...]


def _entry_sites(entries: Iterable[SeqEntry]) -> List[ColorSite]:
    """Every ColorSite inside *entries*, recursing into loop tokens."""
    out: List[ColorSite] = []
    for entry in entries:
        if isinstance(entry, ColorSite):
            out.append(entry)
        elif isinstance(entry, tuple) and entry and entry[0] == "loop":
            out.extend(_entry_sites(entry[2]))
    return out


def _seq_key(entries: Sequence[SeqEntry]) -> Tuple:
    """Canonical *color* key of a sequence: two arms match when every
    position has the same collective color — (kind, op) — regardless of
    which source line the site sits on (balanced branch arms).  Opaque
    branch/loop tokens keep their node identity: a uniform sub-branch in
    one arm never matches a different one in the other."""
    out: List[Tuple] = []
    for entry in entries:
        if isinstance(entry, ColorSite):
            out.append(("site", entry.kind, entry.op))
        elif entry and entry[0] == "loop":
            out.append(("loop", entry[1], _seq_key(entry[2])))
        else:
            out.append(tuple(entry))
    return tuple(out)


def _describe_seq(entries: Sequence[SeqEntry]) -> Tuple[str, ...]:
    out = []
    for entry in entries:
        if isinstance(entry, ColorSite):
            out.append(entry.describe())
        elif entry and entry[0] == "loop":
            inner = ", ".join(_describe_seq(entry[2]))
            out.append(f"loop({inner})")
        else:
            out.append(str(entry[0]))
    return tuple(out)


@dataclass
class CollectiveDivergenceCandidate:
    """A statically possible collective-matching violation."""

    kind: str                 # barrier-divergence | collective-order | mpi-collective
    func: str
    branch_nid: int           # AST nid of the divergent construct
    branch_loc: str
    region: Optional[int]     # nid of the lexically enclosing parallel, if any
    reason: str
    then_colors: Tuple[str, ...]
    else_colors: Tuple[str, ...]
    sites: Tuple[ColorSite, ...]

    def locs(self) -> List[str]:
        seen: List[str] = []
        for loc in (self.branch_loc, *(s.loc for s in self.sites)):
            if loc and loc not in seen:
                seen.append(loc)
        return seen

    @property
    def monitored_locs(self) -> FrozenSet[str]:
        """Collective-site locs the dynamic confirm pass must track."""
        return frozenset(s.loc for s in self.sites if s.loc)

    def __str__(self) -> str:
        arms = ""
        if self.then_colors or self.else_colors:
            arms = (
                f" [then: {', '.join(self.then_colors) or '-'}"
                f" | else: {', '.join(self.else_colors) or '-'}]"
            )
        return (
            f"[{self.kind}] {self.func}:{self.branch_loc}: {self.reason}{arms}"
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "func": self.func,
            "branch_loc": self.branch_loc,
            "region": self.region,
            "reason": self.reason,
            "then_colors": list(self.then_colors),
            "else_colors": list(self.else_colors),
            "sites": [
                {
                    "kind": s.kind,
                    "color": s.color,
                    "loc": s.loc,
                    "func": s.func,
                    "op": s.op,
                }
                for s in self.sites
            ],
            "locs": self.locs(),
        }


@dataclass
class CollectiveDivergenceReport:
    """Everything the collective-matching pass learned."""

    candidates: List[CollectiveDivergenceCandidate] = field(default_factory=list)
    #: every collective site colored inside a parallel context
    sites: List[ColorSite] = field(default_factory=list)
    pruned: Dict[str, int] = field(
        default_factory=lambda: make_prune_dict(DIV_PRUNE_KINDS)
    )

    @property
    def monitored_locs(self) -> FrozenSet[str]:
        """Union of candidate site locs (divergence-directed narrowing)."""
        out: Set[str] = set()
        for cand in self.candidates:
            out |= cand.monitored_locs
        return frozenset(out)

    @property
    def total_pruned(self) -> int:
        return total_pruned(self.pruned)

    def count_prune(self, kind: str) -> None:
        count_prune(self.pruned, kind)

    def as_dict(self) -> Dict[str, object]:
        return {
            "candidates": [c.as_dict() for c in self.candidates],
            "candidate_count": len(self.candidates),
            "sites": [
                {
                    "kind": s.kind,
                    "color": s.color,
                    "loc": s.loc,
                    "func": s.func,
                    "op": s.op,
                }
                for s in self.sites
            ],
            "monitored_locs": sorted(self.monitored_locs),
            "pruned": dict(self.pruned),
            "total_pruned": self.total_pruned,
        }


def _loc(node: A.Node) -> str:
    return f"{node.loc.line}:{node.loc.col}"


class _DivergenceWalker:
    """Computes per-arm collective color sequences for one function and
    emits divergence candidates as a side effect.

    Structured control flow keeps this syntax-directed: the sequence of
    a block is the concatenation of its statements' sequences; a branch
    whose arms agree contributes that agreed sequence; a branch whose
    arms differ is either a candidate (thread-dependent condition) or an
    opaque-but-uniform token (team-uniform condition).
    """

    def __init__(
        self,
        func: A.FuncDef,
        taints: Dict[int, TaintSet],
        report: CollectiveDivergenceReport,
        mpi_nids: Optional[FrozenSet[int]],
        reachable_from_parallel: bool,
        callee_seqs: Optional[Dict[str, ColorSeq]] = None,
        recursive_collective: FrozenSet[str] = frozenset(),
        *,
        table: NodeTable,
    ) -> None:
        self.func = func
        #: node table of the function's program
        self.table = table
        self.taints = taints
        self.report = report
        self.mpi_nids = mpi_nids
        self.reachable_from_parallel = reachable_from_parallel
        #: bottom-up summarized top-level color sequences of callees
        #: (``None`` disables interprocedural splicing)
        self.callee_seqs = callee_seqs
        #: recursive functions whose cycle reaches a collective: spliced
        #: as an opaque-but-uniform ``("call", name)`` token
        self.recursive_collective = recursive_collective

    # -- context (the node table's, at the node being colored) -----------

    def _in_parallel(self, node: A.Node) -> bool:
        return bool(self.table.ctx[node.nid].region) or self.reachable_from_parallel

    def _serialized(self, node: A.Node) -> bool:
        """Under omp master or single: a strict subset of the team."""
        return self.table.ctx[node.nid].master != 0

    # -- candidate / entry helpers ---------------------------------------

    def _emit(
        self,
        kind: str,
        node: A.Node,
        reason: str,
        sites: Sequence[ColorSite],
        then_colors: Tuple[str, ...] = (),
        else_colors: Tuple[str, ...] = (),
    ) -> None:
        self.report.candidates.append(
            CollectiveDivergenceCandidate(
                kind=kind,
                func=self.func.name,
                branch_nid=node.nid,
                branch_loc=_loc(node),
                region=self.table.ctx[node.nid].region or None,
                reason=reason,
                then_colors=then_colors,
                else_colors=else_colors,
                sites=tuple(sites),
            )
        )

    def _collective_entry(self, site: ColorSite, node: A.Node) -> ColorSeq:
        """Color *site*; under master/single the construct itself is the
        divergence (only a subset of the team executes it)."""
        self.report.sites.append(site)
        if self._serialized(node):
            if site.kind == "mpi":
                # funneled MPI collective: the sanctioned hybrid pattern
                self.report.count_prune(PRUNE_DIV_SERIAL)
            elif self._in_parallel(node):
                self._emit(
                    KIND_BARRIER_DIVERGENCE,
                    node,
                    f"OMP collective `{site.kind}` under master/single "
                    "executes on a strict subset of the team",
                    [site],
                )
            else:
                self.report.count_prune(PRUNE_DIV_MHP)
            return ()
        return (site,)

    def _flag_divergent_body(
        self, node: A.Node, inner: ColorSeq, context: str
    ) -> None:
        """Collectives inside a context where threads take different
        paths by construction (section bodies, worksharing loop bodies)."""
        sites = _entry_sites(inner)
        if not inner:
            return
        if not self._in_parallel(node):
            self.report.count_prune(PRUNE_DIV_MHP)
            return
        kind = (
            KIND_MPI_COLLECTIVE
            if any(s.kind == "mpi" for s in sites)
            else KIND_BARRIER_DIVERGENCE
        )
        self._emit(
            kind,
            node,
            f"collective(s) inside {context} — threads encounter them "
            "a thread-dependent number of times",
            sites,
            then_colors=_describe_seq(inner),
        )

    # -- statement dispatch ----------------------------------------------

    def seq_stmt(self, stmt: Optional[A.Stmt]) -> ColorSeq:
        if stmt is None:
            return ()
        if isinstance(stmt, A.Block):
            out: List[SeqEntry] = []
            for sub in stmt.stmts:
                out.extend(self.seq_stmt(sub))
            return tuple(out)
        if isinstance(stmt, A.OmpBarrier):
            return self._collective_entry(
                ColorSite("barrier", stmt.nid, _loc(stmt), self.func.name), stmt
            )
        if isinstance(stmt, A.OmpFor):
            inner = self.seq_stmt(stmt.loop.body)
            self._flag_divergent_body(stmt, inner, "a worksharing loop body")
            return self._collective_entry(
                ColorSite("for", stmt.nid, _loc(stmt), self.func.name), stmt
            )
        if isinstance(stmt, A.OmpSections):
            for section in stmt.sections:
                inner = self.seq_stmt(section)
                self._flag_divergent_body(stmt, inner, "an `omp section` body")
            return self._collective_entry(
                ColorSite("sections", stmt.nid, _loc(stmt), self.func.name), stmt
            )
        if isinstance(stmt, A.OmpSingle):
            self.seq_stmt(stmt.body)
            return self._collective_entry(
                ColorSite("single", stmt.nid, _loc(stmt), self.func.name), stmt
            )
        if isinstance(stmt, A.OmpMaster):
            self.seq_stmt(stmt.body)
            return ()
        if isinstance(stmt, A.OmpParallel):
            self.seq_stmt(stmt.body)
            # implicit barrier at region exit: recorded for the color
            # table, uniform by construction (every member joins)
            self.report.sites.append(
                ColorSite("region-end", stmt.nid, _loc(stmt), self.func.name)
            )
            return ()
        if isinstance(stmt, A.OmpCritical):
            return self.seq_stmt(stmt.body)
        if isinstance(stmt, A.If):
            return self._seq_if(stmt)
        if isinstance(stmt, (A.While, A.For)):
            return self._seq_loop(stmt)
        if isinstance(stmt, A.Return):
            entries = self._mpi_entries(stmt)
            if self.table.ctx[stmt.nid].region:
                # early return from inside a parallel region body: the
                # returning thread skips every later collective
                site = ColorSite("return", stmt.nid, _loc(stmt), self.func.name)
                self.report.sites.append(site)
                entries = entries + (site,)
            return entries
        # plain statements: scan for MPI collective calls
        return self._mpi_entries(stmt)

    # -- compound handlers -----------------------------------------------

    def _seq_if(self, stmt: A.If) -> ColorSeq:
        then_seq = self.seq_stmt(stmt.then)
        else_seq = self.seq_stmt(stmt.els)
        if _seq_key(then_seq) == _seq_key(else_seq):
            if then_seq and self._branch_divergent(stmt.nid, stmt.cond):
                self.report.count_prune(PRUNE_DIV_BALANCED)
            return then_seq
        # arms differ (at least one contains collectives)
        if not self._branch_divergent(stmt.nid, stmt.cond):
            self.report.count_prune(PRUNE_DIV_UNIFORM)
            return (("branch", stmt.nid),)
        if not self._in_parallel(stmt):
            self.report.count_prune(PRUNE_DIV_MHP)
            return (("branch", stmt.nid),)
        sites = _entry_sites(then_seq) + [
            s for s in _entry_sites(else_seq) if s not in _entry_sites(then_seq)
        ]
        if any(s.kind == "mpi" for s in sites):
            kind = KIND_MPI_COLLECTIVE
        elif len(then_seq) == len(else_seq):
            kind = KIND_COLLECTIVE_ORDER
        else:
            kind = KIND_BARRIER_DIVERGENCE
        self._emit(
            kind,
            stmt,
            "thread-dependent branch reaches differently-colored "
            "collective sequences",
            sites,
            then_colors=_describe_seq(then_seq),
            else_colors=_describe_seq(else_seq),
        )
        return (("divergent", stmt.nid),)

    def _seq_loop(self, stmt: Union[A.While, A.For]) -> ColorSeq:
        if isinstance(stmt, A.For):
            cond = stmt.cond
            self.seq_stmt(stmt.init)
        else:
            cond = stmt.cond
        body_seq = self.seq_stmt(stmt.body)
        if not body_seq:
            return ()
        if cond is not None and self._branch_divergent(stmt.nid, cond):
            if not self._in_parallel(stmt):
                self.report.count_prune(PRUNE_DIV_MHP)
            else:
                self._emit(
                    KIND_BARRIER_DIVERGENCE,
                    stmt,
                    "collective(s) inside a loop with a thread-dependent "
                    "trip count",
                    _entry_sites(body_seq),
                    then_colors=_describe_seq(body_seq),
                )
                return (("divergent", stmt.nid),)
        return (("loop", stmt.nid, body_seq),)

    def _branch_divergent(self, nid: int, cond: A.Expr) -> bool:
        tainted = self.taints.get(nid, frozenset())
        return expr_thread_dependent(cond, tainted, table=self.table)

    # -- MPI collective scan ---------------------------------------------

    def _mpi_entries(self, stmt: A.Stmt) -> ColorSeq:
        out: List[SeqEntry] = []
        scan = stmt.stmt if isinstance(stmt, A.OmpAtomic) else stmt
        for sub in self.table.subtree(scan):
            if not isinstance(sub, A.CallExpr):
                continue
            if sub.name not in COLLECTIVE_OPS:
                out.extend(self._user_call_entries(sub))
                continue
            if not self._in_parallel(sub):
                continue  # serial SPMD collective — matched per rank
            if self.mpi_nids is not None and sub.nid not in self.mpi_nids:
                self.report.count_prune(PRUNE_DIV_MHP)
                continue
            site = ColorSite(
                "mpi", sub.nid, _loc(sub), self.func.name, op=sub.name
            )
            out.extend(self._collective_entry(site, sub))
        return tuple(out)

    def _user_call_entries(self, call: A.CallExpr) -> ColorSeq:
        """Splice the summarized color sequence of a user callee.

        The callee was walked first (bottom-up call-graph order), its
        sites already colored and recorded; splicing its *top-level*
        sequence here makes a collective hidden two calls down
        participate in the caller's arm comparison.  A recursive callee
        whose cycle reaches a collective contributes an opaque token —
        identical calls still match across arms, differing ones never
        do.  Sequential callers skip splicing: their branches are pruned
        as non-parallel anyway, and the callee's own walk owns any
        intra-callee divergence.
        """
        if self.callee_seqs is None or not self._in_parallel(call):
            return ()
        if call.name in self.recursive_collective:
            return (("call", call.name),)
        seq = self.callee_seqs.get(call.name)
        if not seq:
            return ()
        if self._serialized(call):
            # master/single around the call: mirror _collective_entry
            # for every site the callee chain reaches
            for site in _entry_sites(seq):
                if site.kind == "mpi":
                    self.report.count_prune(PRUNE_DIV_SERIAL)
                else:
                    self._emit(
                        KIND_BARRIER_DIVERGENCE,
                        call,
                        f"OMP collective `{site.kind}` reached via "
                        f"`{call.name}` under master/single executes on "
                        "a strict subset of the team",
                        [site],
                    )
            return ()
        return seq


def _collective_reaching(summaries: "SummaryTable", program: A.Program) -> FrozenSet[str]:
    """Functions whose transitive callee closure contains a collective
    construct (explicit barrier, worksharing, or an MPI collective)."""
    direct: Set[str] = set()
    for fn in program.functions:
        for node in program.table.subtree(fn.body):
            if isinstance(node, (A.OmpBarrier, A.OmpFor, A.OmpSections, A.OmpSingle)):
                direct.add(fn.name)
                break
            if isinstance(node, A.CallExpr) and node.name in COLLECTIVE_OPS:
                direct.add(fn.name)
                break
    return frozenset(reachable(summaries.callgraph.callers, direct))


def find_collective_divergence(
    program: A.Program,
    cfgs: Optional[Dict[str, CFG]] = None,
    sites: Optional[Sequence[MPISite]] = None,
    unsafe_funcs: Optional[Set[str]] = None,
    summaries: Optional["SummaryTable"] = None,
) -> CollectiveDivergenceReport:
    """Run the static collective-matching pass over *program*.

    *sites* (from :func:`~.mpi_sites.collect_sites`) cross-checks which
    MPI calls are real collective sites; *unsafe_funcs* (functions
    transitively reachable from a parallel region, the same set the MHP
    facts use) extends the parallel context beyond lexical regions.
    Both are recomputed when omitted.

    *summaries* (a :class:`.summaries.SummaryTable`) turns the pass
    interprocedural: functions are walked in bottom-up call-graph
    order, each function's top-level color sequence is recorded, and
    caller walks splice callee sequences at their call sites — so an
    MPI collective hidden in a helper called under a thread-dependent
    branch unbalances that branch's arms.  The summary taints
    (parameters fed thread-dependent arguments, functions returning
    thread-dependent values) also extend branch-divergence detection
    across calls.
    """
    if cfgs is None:
        cfgs = build_program_cfgs(program)
    if unsafe_funcs is None:
        unsafe_funcs = functions_called_from_parallel(program)
    mpi_nids: Optional[FrozenSet[int]] = None
    if sites is not None:
        mpi_nids = frozenset(
            s.nid for s in sites if s.op in COLLECTIVE_OPS
        )
    report = CollectiveDivergenceReport()

    fn_by_name = {fn.name: fn for fn in program.functions}
    order = list(program.functions)
    callee_seqs: Optional[Dict[str, ColorSeq]] = None
    recursive_collective: FrozenSet[str] = frozenset()
    tainted_params: Dict[str, FrozenSet[str]] = {}
    tainted_calls: FrozenSet[str] = frozenset()
    if summaries is not None:
        cg = summaries.callgraph
        order = [fn_by_name[n] for n in cg.bottom_up if n in fn_by_name]
        order += [fn for fn in program.functions if fn.name not in set(cg.bottom_up)]
        callee_seqs = {}
        recursive_collective = cg.recursive & _collective_reaching(
            summaries, program
        )
        tainted_params = summaries.tainted_params
        tainted_calls = summaries.ret_tainted

    for fn in order:
        cfg = cfgs.get(fn.name)
        taints = (
            branch_taints(
                fn,
                cfg,
                extra_tainted=tainted_params.get(fn.name, frozenset()),
                tainted_calls=tainted_calls,
            )
            if cfg is not None
            else {}
        )
        walker = _DivergenceWalker(
            fn,
            taints,
            report,
            mpi_nids,
            fn.name in unsafe_funcs,
            callee_seqs=callee_seqs,
            recursive_collective=recursive_collective,
            table=program.table,
        )
        top_seq = walker.seq_stmt(fn.body)
        if callee_seqs is not None and fn.name not in cg.recursive:
            callee_seqs[fn.name] = top_seq
    return report
