"""Layer spans for the traced run, recorded from outside the program.

A :class:`Tracer` wraps the public functions each layer of
``src/repro`` is entered through.  Every wrapper is installed where the
caller looks the name up (``run_static_analysis`` resolves
``find_races`` as a global of ``repro.analysis.static_.report``, so the
static passes are wrapped there), and every wrapper records one span:
name, start, end, parent span and op id.  Spans stay in memory until
:meth:`Tracer.dump` writes them out.

A layer's self time is its span minus its child spans.  Bookkeeping
done by the tracer itself (counting nodes, events, trace bytes) runs
in a ``trace.hook`` span after the layer's span closes, and is left
out of every enclosing layer's self and inclusive time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# span fields
_NAME, _START, _END, _PARENT, _OP, _HOOK = range(6)

#: per-layer metrics in report order: (name, unit, kind, source).
#: kind ``self``/``incl`` = mean self/inclusive ms per op of the spans
#: named *source*; ``count`` = mean per op of a counter; ``rate`` =
#: counter ratio; ``derived`` is computed in :meth:`Tracer.metrics`.
LAYER_METRICS: Tuple[Tuple[str, str, str, object], ...] = (
    ("minilang.parse_ms", "ms", "self", "minilang.parse"),
    ("minilang.nodes", "count", "count", "minilang.nodes"),
    ("static.total_ms", "ms", "incl", "static.total"),
    ("static.cfg_ms", "ms", "self", "static.cfg"),
    ("static.callgraph_ms", "ms", "self", "static.callgraph"),
    ("static.summaries_ms", "ms", "self", "static.summaries"),
    ("static.dataflow_ms", "ms", "self", "static.dataflow"),
    ("static.candidates_ms", "ms", "self", "static.candidates"),
    ("static.races_ms", "ms", "self", "static.races"),
    ("static.collectives_ms", "ms", "self", "static.collectives"),
    ("static.instrument_ms", "ms", "self", "static.instrument"),
    ("static.candidates", "count", "count", "static.candidates"),
    ("static.pruned", "count", "count", "static.pruned"),
    ("bytecode.compile_ms", "ms", "self", "bytecode.compile"),
    ("runtime.run_ms", "ms", "self", "runtime.run"),
    ("runtime.steps", "count", "count", "runtime.steps"),
    ("runtime.steps_per_s", "1/s", "rate", ("runtime.steps", "runtime.seconds")),
    ("events.count", "count", "count", "events.count"),
    ("events.mem_access", "count", "count", "events.mem_access"),
    ("events.dump_ms", "ms", "self", "events.dump"),
    ("events.trace_bytes", "bytes", "count", "events.trace_bytes"),
    ("dynamic.analyze_ms", "ms", "self", "dynamic.analyze"),
    ("dynamic.memraces_ms", "ms", "self", "dynamic.memraces"),
    ("violations.match_ms", "ms", "self", "violations.match"),
    ("violations.count", "count", "count", "violations.count"),
    ("home.triage_ms", "ms", "self", "home.triage"),
    ("home.race_confirmed_ratio", "ratio", "rate",
     ("home.races_confirmed", "home.race_candidates")),
    ("faults.fired", "count", "count", "faults.fired"),
    ("campaign.cell_ms", "ms", "incl", "campaign.cell"),
    ("campaign.bank_ms", "ms", "derived", None),
    ("campaign.journal_ms", "ms", "self", "campaign.journal"),
    ("campaign.journal_appends", "count", "count", "campaign.journal_appends"),
    ("campaign.journal_bytes", "bytes", "count", "campaign.journal_bytes"),
    ("campaign.merge_ms", "ms", "self", "campaign.merge"),
)
#: metrics the run itself adds: the tracing overhead
OVERHEAD_METRICS = (
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_pct", "%"),
)
#: on these workloads, layers with these prefixes run once per session
#: (the campaign's static phase and compile), so they are reported per
#: traced set-up instead of per op
SETUP_LAYERS = {"campaign": ("static.", "bytecode.")}


def _after_parse(tracer: "Tracer", index, args, result) -> None:
    tracer.count("minilang.nodes", sum(1 for _ in result.walk()))


def _after_static(tracer: "Tracer", index, args, result) -> None:
    # a memo hit runs no pass: count only analyses that ran
    if not any(span[_PARENT] == index for span in tracer.spans[index + 1:]):
        return
    n = len(result.candidates)
    if result.races is not None:
        n += len(result.races.candidates)
    if result.collectives is not None:
        n += len(result.collectives.candidates)
    tracer.count("static.candidates", n)
    tracer.count("static.pruned", sum(result.prune_counts().values()))


def _after_run(tracer: "Tracer", index, args, result) -> None:
    from repro.events import MemAccess

    span = tracer.spans[index]
    tracer.count("runtime.steps", int(result.stats.get("scheduler_steps", 0)))
    tracer.count("runtime.seconds", span[_END] - span[_START])
    tracer.count("events.count", len(result.log))
    tracer.count(
        "events.mem_access", sum(1 for e in result.log if type(e) is MemAccess)
    )


def _after_dump(tracer: "Tracer", index, args, result) -> None:
    target = args[1]
    if hasattr(target, "tell"):
        tracer.count("events.trace_bytes", target.tell())


def _after_home_analyze(tracer: "Tracer", index, args, result) -> None:
    from workloads import race_var_by_locs

    _, execution, static = args[:3]
    tracer.count("violations.count", len(result))
    races = getattr(static, "races", None)
    if races is None or not races.candidates or not execution.config.monitor_memory:
        return
    var_by_locs = race_var_by_locs(static)
    raced = {var_by_locs.get(tuple(v.locs)) for v in result if v.vclass == "DataRace"}
    tracer.count(
        "home.races_confirmed", sum(1 for c in races.candidates if c.var in raced)
    )
    tracer.count("home.race_candidates", len(races.candidates))


def _after_append(tracer: "Tracer", index, args, result) -> None:
    tracer.count("campaign.journal_appends", 1)


#: (module, attribute path, span name, after-hook)
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.minilang", "parse", "minilang.parse", _after_parse),
    ("repro.home.pipeline", "run_static_analysis", "static.total", _after_static),
    ("repro.analysis.static_.callgraph", "build_callgraph", "static.callgraph", None),
    ("repro.analysis.static_.report", "build_program_cfgs", "static.cfg", None),
    ("repro.analysis.static_.report", "compute_summaries", "static.summaries", None),
    ("repro.analysis.static_.report", "compute_dataflow", "static.dataflow", None),
    ("repro.analysis.static_.report", "collect_sites", "static.candidates", None),
    ("repro.analysis.static_.report", "find_candidates", "static.candidates", None),
    ("repro.analysis.static_.report", "find_races", "static.races", None),
    ("repro.analysis.static_.report", "find_collective_divergence", "static.collectives", None),
    ("repro.analysis.static_.report", "instrument_program", "static.instrument", None),
    ("repro.runtime.bytecode.vm", "compile_program", "bytecode.compile", None),
    ("repro.runtime.interpreter", "Interpreter.run", "runtime.run", _after_run),
    ("repro.events.serialize", "dump_log", "events.dump", _after_dump),
    ("repro.home.pipeline", "analyze", "dynamic.analyze", None),
    ("repro.home.pipeline", "find_memory_races", "dynamic.memraces", None),
    ("repro.analysis.dynamic_.memraces", "find_memory_races", "dynamic.memraces", None),
    ("repro.home.pipeline", "match_violations", "violations.match", None),
    ("repro.home.pipeline", "triage_race_candidates", "home.triage", None),
    ("repro.home.pipeline", "triage_divergence_candidates", "home.triage", None),
    ("repro.home.pipeline", "Home.analyze", "home.analyze", _after_home_analyze),
    ("repro.campaign.runner", "CellExecutor.run_cell", "campaign.cell", None),
    ("repro.campaign.journal", "Journal.append", "campaign.journal", _after_append),
    ("repro.campaign.runner", "merge_outcomes", "campaign.merge", None),
)

class Tracer:
    """In-memory span and counter recorder with installable wrappers."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, op id, hook seconds inside]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []
        #: op id stamped on new spans: ``"setup"``, an op index, or None
        self.op: object = "setup"
        self.counters: Dict[Tuple[str, str], float] = defaultdict(float)

    # -- recording -----------------------------------------------------------

    def set_op(self, op) -> None:
        self.op = op

    def count(self, name: str, value: float) -> None:
        scope = "setup" if self.op == "setup" else "ops"
        self.counters[(scope, name)] += value

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, 0.0])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][_END] = time.perf_counter()

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None):
        """*fn* recording a *name* span per call; *after* then runs with
        ``(tracer, span index, args, result)`` in a ``trace.hook`` span
        whose time is charged to no layer."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                hook = tracer._open("trace.hook")
                try:
                    after(tracer, index, args, result)
                finally:
                    tracer._close(hook)
                    spent = tracer.spans[hook][_END] - tracer.spans[hook][_START]
                    for open_index in tracer._stack:
                        tracer.spans[open_index][_HOOK] += spent
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module_name, path, name, after in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, after))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------------

    def metrics(
        self, workload: str, n_ops: int, op_seconds: float
    ) -> Dict[str, float]:
        """Every :data:`LAYER_METRICS` value for one traced run; a layer
        that never ran on *workload* reports 0."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] is not None:
                child[span[_PARENT]] += span[_END] - span[_START]
        totals: Dict[Tuple[str, str, str], float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            scope = "setup" if span[_OP] == "setup" else "ops"
            duration = span[_END] - span[_START]
            totals[(scope, "self", span[_NAME])] += duration - child[index]
            totals[(scope, "incl", span[_NAME])] += duration - span[_HOOK]
        setup_prefixes = SETUP_LAYERS.get(workload, ())
        out: Dict[str, float] = {}
        for metric, _unit, kind, source in LAYER_METRICS:
            scope = "setup" if metric.startswith(setup_prefixes) else "ops"
            units = 1 if scope == "setup" else max(n_ops, 1)
            if kind in ("self", "incl"):
                value = totals[(scope, kind, source)] * 1000.0 / units
            elif kind == "count":
                value = self.counters[(scope, source)] / units
            elif kind == "rate":
                num, den = (self.counters[(scope, s)] for s in source)
                value = num / den if den else 0.0
            else:  # campaign.bank_ms: op interval not spent in a cell
                cells = totals[("ops", "incl", "campaign.cell")]
                value = (
                    (op_seconds - cells) * 1000.0 / units
                    if workload == "campaign" else 0.0
                )
            out[metric] = value
        return out

    def dump(self, path: str) -> None:
        """Write every span as JSON, times relative to the first span."""
        origin = self.spans[0][_START] if self.spans else 0.0
        rows = [
            {
                "name": s[_NAME],
                "start": s[_START] - origin,
                "end": s[_END] - origin,
                "parent": s[_PARENT],
                "op": s[_OP],
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)
