"""May-Happen-in-Parallel (MHP) analysis over OpenMP region structure.

Computes, for every call expression, its OpenMP execution context —
enclosing ``omp parallel`` regions, the *barrier phase* within the
innermost region, and the enclosing ``omp sections`` section — and
decides whether two MPI sites can execute concurrently **within one
process**.  Pairs that provably cannot are pruned from the candidate
set:

* sites in *different outermost parallel regions* — a team joins (with
  an implicit barrier) before the next region forks, so the regions are
  sequential on every process;
* sites in the *same region but different barrier phases* — a team
  barrier orders every thread's phase-``k`` code before any thread's
  phase-``k+1`` code;
* two sites in the *same ``omp section``* — one thread runs a section's
  body sequentially per encounter.

Everything doubtful disables pruning: barriers nested in conditionals
or loops make phases unreliable; nested parallelism (lexical, or a
function reachable from a parallel region / ``thread_spawn``) can
overlap region instances, so such functions are excluded wholesale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ....minilang import ast_nodes as A

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..callgraph import ParallelContext


@dataclass(frozen=True)
class MHPInfo:
    """OpenMP execution context of one call expression."""

    func: str
    #: enclosing lexical ``omp parallel`` nids, outermost first
    regions: Tuple[int, ...]
    #: barrier-phase index within the innermost region
    phase: int = 0
    #: False when the innermost region contains conditional barriers
    phase_reliable: bool = True
    #: (sections-construct nid, section index) of the innermost section
    section: Optional[Tuple[int, int]] = None
    #: True when same-section statements are provably sequential
    section_serial: bool = True


#: worksharing constructs that end in an implicit barrier (unless nowait)
_WORKSHARING = (A.OmpFor, A.OmpSections, A.OmpSingle)


class MHPSolution:
    """The MHP contexts of one program, solved in one pass over its node
    table for both phase conventions at once.

    *Historical* phases count explicit ``omp barrier`` statements only;
    the MPI-candidate pass keeps them so its counts stay comparable.
    *Worksharing* phases also count the implicit closing barrier of each
    non-``nowait`` worksharing construct (sound for races).  A barrier
    nested in a conditional or loop within its region makes that
    region's phases unreliable under the convention it belongs to.
    """

    def __init__(self, program: A.Program) -> None:
        table = program.table
        nodes, end, ctxs = table.nodes, table.end, table.ctx
        #: per expression nid: (func, regions, section, section_serial,
        #: historical phase, worksharing phase)
        self._rows: Dict[int, tuple] = {}
        #: per region nid: [historical phase, worksharing phase]
        phases: Dict[int, List[int]] = {}
        #: per region nid: [historical reliable, worksharing reliable]
        self._reliable: Dict[int, List[bool]] = {}
        chains: Dict[int, Tuple[int, ...]] = {0: ()}

        def barrier(nid: int, conventions: range) -> None:
            region = ctxs[nid].region
            if not region:
                return
            same_level = ctxs[nid].cond == ctxs[region].cond
            for k in conventions:
                if same_level:
                    phases[region][k] += 1
                else:
                    self._reliable[region][k] = False

        for fn in program.functions:
            open_ws: List[int] = []
            for nid in range(fn.nid + 1, end[fn.nid] + 1):
                while open_ws and end[open_ws[-1]] < nid:
                    barrier(open_ws.pop(), range(1, 2))
                node = nodes[nid]
                if isinstance(node, A.Expr):
                    ctx = ctxs[nid]
                    region = ctx.region
                    if region not in chains:
                        chains[region] = table.regions(nid)
                    section, serial = ctx.section, True
                    if section is not None:
                        construct = section[0]
                        serial = ctxs[construct].loops == 0 or not nodes[construct].nowait
                    phase = phases[region] if region else (0, 0)
                    self._rows[nid] = (
                        fn.name, chains[region], section, serial, phase[0], phase[1],
                    )
                elif isinstance(node, A.OmpParallel):
                    phases[nid] = [0, 0]
                    self._reliable[nid] = [True, True]
                elif isinstance(node, A.OmpBarrier):
                    barrier(nid, range(2))
                elif isinstance(node, _WORKSHARING) and not node.nowait:
                    open_ws.append(nid)
            while open_ws:
                barrier(open_ws.pop(), range(1, 2))
        self._calls = [nid for nid in self._rows if isinstance(nodes[nid], A.CallExpr)]

    def infos(
        self, record_all: bool = False, implicit_ws_barriers: bool = False
    ) -> Dict[int, MHPInfo]:
        """Contexts of every call expression (every expression node with
        ``record_all``), under the historical or, with
        ``implicit_ws_barriers``, the worksharing phase convention."""
        k = 1 if implicit_ws_barriers else 0
        rows = self._rows
        out: Dict[int, MHPInfo] = {}
        for nid in rows if record_all else self._calls:
            func, regions, section, serial, *phase = rows[nid]
            out[nid] = MHPInfo(
                func=func,
                regions=regions,
                phase=phase[k],
                phase_reliable=self._reliable[regions[-1]][k] if regions else True,
                section=section,
                section_serial=serial,
            )
        return out


def compute_mhp(
    program: A.Program,
    record_all: bool = False,
    implicit_ws_barriers: bool = False,
) -> Dict[int, MHPInfo]:
    """MHP context for every call expression of *program*.

    ``record_all`` extends the map to every expression node;
    ``implicit_ws_barriers`` counts the closing barriers of non-nowait
    worksharing constructs as phase boundaries (see :class:`MHPSolution`).
    """
    return MHPSolution(program).infos(record_all, implicit_ws_barriers)


def may_happen_in_parallel(
    a: Optional[MHPInfo],
    b: Optional[MHPInfo],
    unsafe_funcs: Set[str] = frozenset(),
    contexts: Optional[Dict[str, "ParallelContext"]] = None,
) -> bool:
    """Can the two sites execute concurrently within one process?

    ``True`` means "maybe" (no pruning); only provable orderings return
    ``False``.  ``unsafe_funcs`` are functions reachable from a parallel
    region or a spawned thread — their region instances can overlap, so
    nothing about them is pruned.

    *contexts* (``Dict[str, ParallelContext]`` from
    :func:`..callgraph.resolve_parallel_contexts`) upgrades the
    historical "context unknown" answers for regionless sites.  With it:

    * a regionless site in a context-resolved function is substituted by
      its unique call site's context and re-checked — the callee body is
      context-transparent, so it executes exactly as if inlined there;
    * two regionless sites reached through one *serialized*
      single-level-region call chain (``omp master`` / serial ``omp
      single`` around the root call) are executed by one thread per
      region encounter, and encounters of an outermost region are
      ordered by its join barrier — provably sequential;
    * once contexts are known, a (resolved) regionless site belongs to
      fork-join sequential code, which cannot overlap parallel-region
      code — provided neither side sits in an ``unsafe_funcs`` member
      (that set owns spawn-reachability, the only way sequential-looking
      code runs concurrently).

    Without *contexts* the legacy conservative behaviour is unchanged.
    """
    if a is None or b is None:
        return True
    if contexts is not None:
        ca = contexts.get(a.func) if not a.regions else None
        cb = contexts.get(b.func) if not b.regions else None
        if (
            ca is not None
            and cb is not None
            and ca.nid == cb.nid
            and ca.serialized
            and cb.serialized
            and len(ca.info.regions) == 1
        ):
            return False  # one thread per encounter; encounters ordered
        ra = ca.info if ca is not None else a
        rb = cb.info if cb is not None else b
        if ra.func not in unsafe_funcs and rb.func not in unsafe_funcs:
            if not ra.regions or not rb.regions:
                return False  # fork-join: sequential vs anything else
        if ca is not None or cb is not None:
            # contexts are fully resolved — one substitution suffices
            return may_happen_in_parallel(ra, rb, unsafe_funcs)
    if a.func in unsafe_funcs or b.func in unsafe_funcs:
        return True
    if not a.regions or not b.regions:
        return True  # only interprocedurally parallel: context unknown
    if a.regions[0] != b.regions[0]:
        return False  # distinct outermost regions run sequentially
    if a.regions != b.regions or len(a.regions) != 1:
        return True  # nested parallelism: instances may overlap
    if (
        a.section is not None
        and a.section == b.section
        and a.section_serial
        and b.section_serial
    ):
        return False  # one thread runs a section body sequentially
    if a.phase != b.phase and a.phase_reliable and b.phase_reliable:
        return False  # separated by a team barrier
    return True
