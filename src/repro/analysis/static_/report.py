"""Static-analysis report aggregation."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...minilang import ast_nodes as A
from ..cfg import CFG, build_program_cfgs
from .candidates import ViolationCandidate, candidate_summary, find_candidates
from .checklist import Checklist, build_checklist
from .collectives import CollectiveDivergenceReport, find_collective_divergence
from .dataflow import DataflowFacts, compute_dataflow
from .instrument import InstrumentationResult, InstrumentPolicy, instrument_program
from .mpi_sites import MPISite, collect_sites
from .prunes import prune_summary
from .races import StaticRaceReport, find_races
from .summaries import SummaryTable, compute_summaries
from .threadlevel import StaticWarning, ThreadLevelInfo, check_thread_level, infer_thread_level

#: version of the ``repro static --json`` payload.  Bumped whenever a
#: section is added or reshaped so downstream consumers can detect
#: reports newer than themselves (mirror of the campaign journal's
#: ``schema_version`` pattern).  Version 2 added the ``schema_version``
#: field itself and the ``collectives`` divergence section.  Version 3
#: added the ``interproc`` summary section and reshaped ``prunes`` from
#: a flat merge into uniform per-pass sub-dicts
#: (``{"dataflow": .., "races": .., "collectives": .., "total": N}``).
STATIC_REPORT_SCHEMA_VERSION = 3

#: top-level sections a version-3 report may contain
KNOWN_REPORT_SECTIONS = frozenset({
    "schema_version", "program", "thread_level", "sites", "instrumentation",
    "checklist_entries", "candidates", "candidate_counts", "dataflow",
    "races", "collectives", "prunes", "interproc",
})

#: per-pass sub-keys of the version-3 ``prunes`` section
PRUNE_SECTIONS = ("dataflow", "races", "collectives")


def check_report_schema(payload: Dict[str, object]) -> List[str]:
    """Validate a ``repro static --json`` payload, warn-don't-crash.

    Returns human-readable warnings for a payload produced by a newer
    (or older) writer: an unexpected ``schema_version`` or unknown
    top-level sections.  Never raises — consumers are expected to keep
    reading the sections they know about.
    """
    warnings: List[str] = []
    version = payload.get("schema_version")
    if version is None:
        warnings.append(
            "static report has no schema_version (pre-v2 writer); "
            "divergence sections will be absent"
        )
    elif version != STATIC_REPORT_SCHEMA_VERSION:
        warnings.append(
            f"static report schema_version {version} != supported "
            f"{STATIC_REPORT_SCHEMA_VERSION}; unknown sections are ignored"
        )
        if isinstance(version, int) and version < 3:
            warnings.append(
                "pre-v3 'prunes' is a flat merged dict; per-pass "
                "sub-sections and the 'interproc' section will be absent"
            )
    for section in payload:
        if section not in KNOWN_REPORT_SECTIONS:
            warnings.append(f"ignoring unknown report section {section!r}")
    prunes = payload.get("prunes")
    if version == STATIC_REPORT_SCHEMA_VERSION and isinstance(prunes, dict):
        missing = [k for k in (*PRUNE_SECTIONS, "total") if k not in prunes]
        if missing:
            warnings.append(
                f"v{version} 'prunes' section lacks {missing}; "
                "treating absent passes as zero-count"
            )
    return warnings


@dataclass
class StaticReport:
    """Everything the compile-time phase learned about a program."""

    program_name: str
    thread_level: ThreadLevelInfo
    sites: List[MPISite]
    warnings: List[StaticWarning]
    checklist: Checklist
    instrumentation: InstrumentationResult
    cfgs: Dict[str, CFG] = field(default_factory=dict)
    candidates: List[ViolationCandidate] = field(default_factory=list)
    #: facts of the worklist dataflow analyses (None when disabled)
    dataflow_facts: Optional[DataflowFacts] = None
    #: static data-race pass outcome (None when disabled)
    races: Optional[StaticRaceReport] = None
    #: collective-matching / barrier-divergence pass (None when disabled)
    collectives: Optional[CollectiveDivergenceReport] = None
    #: interprocedural function-summary layer (None when disabled)
    summaries: Optional[SummaryTable] = None

    @property
    def hybrid_sites(self) -> List[MPISite]:
        return [s for s in self.sites if s.in_parallel]

    def prune_counts(self) -> Dict[str, int]:
        """Per-category prune counters with the dataflow, race and
        divergence passes merged flat — kept for the CLI text rendering
        and in-process consumers (category names never collide across
        passes).  The JSON payload nests the same counters per pass
        under ``prunes``."""
        counts: Dict[str, int] = {}
        if self.dataflow_facts is not None:
            counts.update(self.dataflow_facts.pruned)
        if self.races is not None:
            counts.update(self.races.pruned)
        if self.collectives is not None:
            counts.update(self.collectives.pruned)
        return counts

    def prune_sections(self) -> Dict[str, object]:
        """Version-3 ``prunes`` payload: uniform per-pass counter dicts
        plus the grand total."""
        sections: Dict[str, object] = {
            "dataflow": {} if self.dataflow_facts is None
            else dict(self.dataflow_facts.pruned),
            "races": {} if self.races is None else dict(self.races.pruned),
            "collectives": {} if self.collectives is None
            else dict(self.collectives.pruned),
        }
        sections["total"] = sum(
            sum(counts.values()) for counts in sections.values()
        )
        return sections

    def summary(self) -> str:
        lines = [
            f"static analysis of {self.program_name!r}:",
            f"  declared thread level: {self.thread_level.level_name}",
            f"  MPI call sites: {len(self.sites)} "
            f"({len(self.hybrid_sites)} in hybrid context)",
            f"  instrumented: {self.instrumentation.n_instrumented}, "
            f"filtered out: {self.instrumentation.n_filtered} "
            f"({self.instrumentation.reduction_ratio:.0%} reduction)",
            f"  checklist entries: {len(self.checklist)}",
        ]
        if self.candidates:
            counts = candidate_summary(self.candidates)
            per_class = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
            lines.append(
                f"  static violation candidates: {len(self.candidates)} "
                f"({per_class})"
            )
        facts = self.dataflow_facts
        if facts is not None and facts.total_pruned:
            lines.append(
                "  " + prune_summary("dataflow-pruned candidate pairs", facts.pruned)
            )
        races = self.races
        if races is not None:
            if races.candidates:
                racing = ", ".join(sorted(races.monitored_vars))
                lines.append(
                    f"  static race candidates: {len(races.candidates)} "
                    f"(vars: {racing})"
                )
            if races.unresolved:
                lines.append(
                    f"  unresolved interprocedural array accesses: "
                    f"{len(races.unresolved)} (delegated to dynamic phase)"
                )
            if races.total_pruned:
                lines.append(
                    "  " + prune_summary("race-pruned access pairs", races.pruned)
                )
        collectives = self.collectives
        if collectives is not None:
            if collectives.candidates:
                kinds: Dict[str, int] = {}
                for cand in collectives.candidates:
                    kinds[cand.kind] = kinds.get(cand.kind, 0) + 1
                per_kind = ", ".join(f"{k}: {v}" for k, v in sorted(kinds.items()))
                lines.append(
                    f"  collective-divergence candidates: "
                    f"{len(collectives.candidates)} ({per_kind})"
                )
            if collectives.total_pruned:
                lines.append(
                    "  " + prune_summary(
                        "divergence-pruned branches", collectives.pruned
                    )
                )
        for w in self.warnings:
            lines.append(f"  {w}")
        return "\n".join(lines)

    @property
    def instrumented_program(self) -> A.Program:
        return self.instrumentation.program

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable view of the report (for ``repro static --json``)."""
        facts = self.dataflow_facts
        return {
            "schema_version": STATIC_REPORT_SCHEMA_VERSION,
            "program": self.program_name,
            "thread_level": {
                "name": self.thread_level.level_name,
                "warnings": [str(w) for w in self.warnings],
            },
            "sites": [
                {
                    "op": s.op,
                    "func": s.func,
                    "loc": s.loc,
                    "hybrid": s.in_parallel,
                    "lexical_parallel": s.lexical_parallel,
                    "criticals": list(s.criticals),
                    "in_master": s.in_master,
                    "static_args": {str(i): v for i, v in sorted(s.static_args.items())},
                }
                for s in self.sites
            ],
            "instrumentation": {
                "instrumented": self.instrumentation.n_instrumented,
                "filtered": self.instrumentation.n_filtered,
                "reduction_ratio": self.instrumentation.reduction_ratio,
            },
            "checklist_entries": len(self.checklist),
            "candidates": [
                {
                    "class": c.vclass,
                    "a": {"op": c.site_a.op, "func": c.site_a.func, "loc": c.site_a.loc},
                    "b": {"op": c.site_b.op, "func": c.site_b.func, "loc": c.site_b.loc},
                    "reason": c.reason,
                }
                for c in self.candidates
            ],
            "candidate_counts": candidate_summary(self.candidates),
            "dataflow": None
            if facts is None
            else {
                "pruned": dict(facts.pruned),
                "total_pruned": facts.total_pruned,
                "iterations": facts.iterations,
                "unsafe_functions": sorted(facts.unsafe_funcs),
                "envelopes": {
                    str(nid): str(env) for nid, env in sorted(facts.envelopes.items())
                },
                "locks_held": {
                    str(nid): sorted(held)
                    for nid, held in sorted(facts.locks_held.items())
                },
            },
            "races": None if self.races is None else self.races.as_dict(),
            "collectives": None
            if self.collectives is None
            else self.collectives.as_dict(),
            "interproc": None
            if self.summaries is None
            else {
                "functions": len(self.summaries.functions),
                "opaque": sorted(
                    name
                    for name, s in self.summaries.functions.items()
                    if s.opaque
                ),
                "recursive": sorted(self.summaries.callgraph.recursive),
                "lock_transparent": sorted(self.summaries.lock_transparent),
                "escaped_accesses": len(self.summaries.escaped),
                "tainted_returns": sorted(self.summaries.ret_tainted),
            },
            #: per-pass prune counters (dataflow / races / collectives)
            #: plus the grand total, always present so JSON consumers
            #: need no per-section probing
            "prunes": self.prune_sections(),
        }


#: memoization of :func:`run_static_analysis`, keyed on the program's
#: root node id (``program.nid``) plus the analysis options.  Retry
#: loops, campaign matrices and benchmarks call ``Home.prepare``
#: repeatedly on the very same AST object; the analysis is pure and the
#: AST is treated as immutable everywhere (the interpreter never
#: mutates it), so the report can be shared.  ``nid`` comes from the
#: process-global node counter and is never reused, unlike ``id()``,
#: whose values recycle as soon as a program is garbage-collected —
#: building and dropping programs in a loop must never alias cache
#: entries.  (A weakref key is impossible: ``Node.__slots__`` carries
#: no ``__weakref__``.)  Entries still hold a strong reference to the
#: program so the report's AST back-references stay alive, and the
#: identity check below is belt-and-braces.
_STATIC_CACHE: "OrderedDict[tuple, Tuple[A.Program, StaticReport]]" = OrderedDict()
_STATIC_CACHE_CAPACITY = 8


def clear_static_analysis_cache() -> None:
    """Drop all memoized static reports (tests / long-lived sessions)."""
    _STATIC_CACHE.clear()


def run_static_analysis(
    program: A.Program,
    policy: InstrumentPolicy = "hybrid-only",
    interprocedural: bool = True,
    with_cfgs: bool = True,
    dataflow: bool = True,
    races: bool = True,
    collectives: bool = True,
    summaries: bool = True,
    cache: bool = True,
) -> StaticReport:
    """The full compile-time phase of HOME (paper Fig. 3, left column).

    With ``races`` enabled the static data-race pass runs before
    instrumentation, so its candidate variables become the monitored-
    variable set of the instrumented program (race-directed narrowing).
    ``collectives`` adds the PARCOACH-family collective-matching pass;
    its candidate sites narrow the dynamic collective confirm pass the
    same way.  ``summaries`` computes the context-sensitive
    interprocedural function-summary layer once and shares it with
    every consumer pass (races, MHP facts, lock state, collectives).

    Results are memoized on the program's root node id (pass
    ``cache=False`` to force a fresh analysis, e.g. when benchmarking
    the phase itself).
    """
    key = (
        program.nid, policy, interprocedural, with_cfgs, dataflow, races,
        collectives, summaries,
    )
    if cache:
        hit = _STATIC_CACHE.get(key)
        if hit is not None and hit[0] is program:
            _STATIC_CACHE.move_to_end(key)
            return hit[1]
    report = _run_static_analysis(
        program, policy, interprocedural, with_cfgs, dataflow, races,
        collectives, summaries,
    )
    if cache:
        _STATIC_CACHE[key] = (program, report)
        while len(_STATIC_CACHE) > _STATIC_CACHE_CAPACITY:
            _STATIC_CACHE.popitem(last=False)
    return report


def _run_static_analysis(
    program: A.Program,
    policy: InstrumentPolicy,
    interprocedural: bool,
    with_cfgs: bool,
    dataflow: bool,
    races: bool,
    collectives: bool,
    summaries: bool = True,
) -> StaticReport:
    callgraph = None
    if summaries and (dataflow or races or collectives):
        from .callgraph import build_callgraph

        callgraph = build_callgraph(program)
    sites = collect_sites(
        program, interprocedural=interprocedural, callgraph=callgraph
    )
    warnings = check_thread_level(program, sites)
    need_cfgs = with_cfgs or dataflow or races or collectives
    cfgs = build_program_cfgs(program) if need_cfgs else {}
    table = (
        compute_summaries(program, callgraph=callgraph, cfgs=cfgs)
        if callgraph is not None
        else None
    )
    facts = (
        compute_dataflow(program, cfgs, sites, summaries=table)
        if dataflow
        else None
    )
    race_report = (
        find_races(
            program,
            cfgs,
            unsafe_funcs=facts.unsafe_funcs if facts is not None else None,
            summaries=table,
            interprocedural=table is not None,
        )
        if races
        else None
    )
    collective_report = (
        find_collective_divergence(
            program,
            cfgs,
            sites=sites,
            unsafe_funcs=facts.unsafe_funcs if facts is not None else None,
            summaries=table,
        )
        if collectives
        else None
    )
    instrumentation = instrument_program(
        program,
        policy=policy,
        interprocedural=interprocedural,
        monitor_vars=race_report.monitored_vars if race_report is not None else (),
    )
    hybrid = [s for s in sites if s.in_parallel and s.instrumentable]
    checklist = build_checklist(hybrid)
    candidates = find_candidates(sites, facts)
    return StaticReport(
        program_name=program.name,
        thread_level=infer_thread_level(program),
        sites=sites,
        warnings=warnings,
        checklist=checklist,
        instrumentation=instrumentation,
        cfgs=cfgs if with_cfgs else {},
        candidates=candidates,
        dataflow_facts=facts,
        races=race_report,
        collectives=collective_report,
        summaries=table,
    )
