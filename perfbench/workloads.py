"""The benchmark's two workloads, each a closed loop with one client.

Every workload is built from ``--seed`` alone: the seed fixes the op
order and the simulation seeds, and the program under test only ever
sees the generated inputs.  Construction is the session's set-up
(imports, inputs, static phase, compile, one warm-up op); ``run``
then issues ops until the :class:`Budget` says stop and returns one
:class:`Op` per completed operation, each carrying its latency, a
comparable verdict and whether that verdict equals the known answer.

Why each workload exists is in ``README.md``.
"""

from __future__ import annotations

import bisect
import io
import itertools
import os
import random
import re
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: the builtin fault plans a campaign cell runs under
CAMPAIGN_PLANS = ("none", "downgrade", "crash", "delay", "reorder", "jitter")
#: simulation seeds per campaign round; a round is one journaled
#: campaign of ROUND_SEEDS x len(CAMPAIGN_PLANS) cells, so a time
#: budget that ends mid-round still leaves the plan mix balanced
ROUND_SEEDS = 2
#: the racy NPB program's races, as (class, variable): a round's merged
#: report must be exactly these; a single cell must be ``ok`` and find
#: no others (a cell whose rank crashes early may find fewer)
CAMPAIGN_EXPECTED = (
    ("DataRace", "field"),
    ("DataRace", "local_norm"),
    ("DataRace", "tmp"),
)

#: fresh-check program classes -> how the known answer is judged
FRESH_KINDS = {
    "lu": "registry",
    "bt": "registry",
    "sp": "registry",
    "ft": "classes",
    "div": "divergence",
    "ip": "interproc",
    "lu-fixed": "clean",
    "bt-fixed": "clean",
    "sp-fixed": "clean",
    "ft-fixed": "clean",
    "div-fixed": "clean",
    "ip-fixed": "clean",
}
#: known answers.  LU/BT/SP and the interprocedural variant are scored
#: against their injection registries (every injection found, no
#: finding outside one).  FT-MZ's error-path findings are not in the
#: registry, so FT is judged by its class set; the divergence variant
#: must confirm all four static candidates; fixed twins must be clean.
FRESH_EXPECTED: Dict[str, tuple] = {
    "registry": ("missed", (), "false_positives", 0),
    "interproc": ("missed", (), "false_positives", 0),
    "classes": (
        "classes",
        (
            "ConcurrentRecvViolation",
            "InitializationViolation",
            "RecoveryRaceViolation",
        ),
    ),
    "divergence": ("divergence", "confirmed", 4, "refuted", 0),
    "clean": ("classes", ()),
}
#: op mix: copies of each class per shuffled round.  The slowest class
#: carries extra weight so the p90 falls inside one class's latency
#: band instead of on the step between two classes.
FRESH_WEIGHTS = {name: 4 if name == "ip" else 1 for name in FRESH_KINDS}

_PROGRAM_LINE = re.compile(r"^program (\w+);", re.MULTILINE)
#: per-process source nonces: a traced replay in the same process must
#: not see a source the untraced pass already checked
_NONCES = itertools.count(1)


@dataclass
class Op:
    """One completed operation."""

    key: tuple
    seconds: float
    verdict: object
    ok: bool
    #: ``time.perf_counter()`` when the op completed
    end: float


#: nominal seconds of one reference-kernel call: times are reported at
#: the machine speed at which the kernel takes exactly this long
REFERENCE_KERNEL_SECONDS = 0.002


class SpeedProbe:
    """The machine's current speed, from a fixed reference kernel.

    The machine this benchmark runs on changes speed by up to 2x within
    seconds, for every process alike (CPU time tracks wall time, so it
    is not preemption).  Sampling a fixed kernel between ops measures
    that speed in the same run, so times can be reported at a fixed
    reference speed.  An op is scaled by the samples taken just before
    and just after it: the speed changes too fast for one run-wide
    figure to describe every op.
    """

    def __init__(self) -> None:
        #: ``perf_counter()`` at the end of each kernel call, and its seconds
        self.ends: List[float] = []
        self.samples: List[float] = []

    def sample(self) -> None:
        started = time.perf_counter()
        _reference_kernel()
        ended = time.perf_counter()
        self.ends.append(ended)
        self.samples.append(ended - started)

    def slowdown(self) -> float:
        """Median kernel time over its nominal time (> 1: slower)."""
        return statistics.median(self.samples) / REFERENCE_KERNEL_SECONDS

    def local_slowdown(self, start: float, end: float) -> float:
        """Slowdown from the last sample that ended by *start* and the
        first that ended after *end* (whichever exist)."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_right(self.ends, end)
        near = [self.samples[i] for i in (before, after) if 0 <= i < len(self.samples)]
        return statistics.fmean(near) / REFERENCE_KERNEL_SECONDS

    def scaled_seconds(self, ops: List["Op"]) -> List[float]:
        """Each op's seconds at the reference speed."""
        return [
            op.seconds / self.local_slowdown(op.end - op.seconds, op.end)
            for op in ops
        ]


def _reference_kernel() -> int:
    """Fixed pure-Python work like the interpreter's own: integer
    arithmetic, small-dict reads and writes, and calls.  It allocates one
    small dict per call, so it barely moves the garbage collector."""
    table = dict.fromkeys(range(64), 0)
    acc = 0
    for i in range(10_000):
        key = i & 63
        table[key] = table[key] + (i * 7) % 13
        acc += _kernel_step(i, key)
    return acc + table[7]


def _kernel_step(i: int, key: int) -> int:
    return (i ^ key) & 15


class Budget:
    """When a closed loop stops issuing ops.

    Either a fixed op *count*, or *seconds* of measuring that is
    extended until *min_ops* ops completed (so a percentile always has
    enough samples beyond it), but never past *max_seconds*.  With a
    *speed* probe, every check between ops also samples the machine's
    speed; callers check the budget outside their op timing.
    """

    def __init__(
        self,
        seconds: float = 0.0,
        min_ops: int = 0,
        max_seconds: float = 0.0,
        *,
        count: Optional[int] = None,
        speed: Optional[SpeedProbe] = None,
    ) -> None:
        self.seconds = seconds
        self.min_ops = min_ops
        self.max_seconds = max(max_seconds, seconds)
        self.count = count
        self.speed = speed
        self.start = time.perf_counter()

    def more(self, done: int) -> bool:
        if self.speed is not None:
            self.speed.sample()
        if self.count is not None:
            return done < self.count
        elapsed = time.perf_counter() - self.start
        if elapsed >= self.max_seconds:
            return False
        return elapsed < self.seconds or done < self.min_ops


class _NoTracer:
    """Stand-in for :class:`tracing.Tracer` on untraced runs."""

    def set_op(self, op) -> None:
        pass

    def count(self, name: str, value: float) -> None:
        pass


NO_TRACER = _NoTracer()


def race_var_by_locs(static) -> Dict[tuple, str]:
    """Race variable per ``DataRace`` location tuple: HOME reports a
    confirmed race with the sorted locations of every static candidate
    on its variable."""
    locs_by_var: Dict[str, set] = {}
    for cand in static.races.candidates:
        locs_by_var.setdefault(cand.var, set()).update(cand.locs())
    return {tuple(sorted(locs)): var for var, locs in locs_by_var.items()}


def _fresh_sources() -> Dict[str, str]:
    from repro.workloads import npb

    builders: Dict[str, Callable[[bool], str]] = {
        "lu": npb.lu_mz_source,
        "bt": npb.bt_mz_source,
        "sp": npb.sp_mz_source,
        "ft": npb.ft_mz_source,
    }
    sources = {}
    for name, build in builders.items():
        sources[name] = build(True)
        sources[f"{name}-fixed"] = build(False)
    sources["div"] = npb.divergent_npb_source(fixed=False)
    sources["div-fixed"] = npb.divergent_npb_source(fixed=True)
    sources["ip"] = npb.interproc_npb_source(fixed=False)
    sources["ip-fixed"] = npb.interproc_npb_source(fixed=True)
    return sources


class FreshCheck:
    """Each op checks a program source never seen before.

    The source is one of the NPB-MZ family, renamed with a per-op
    nonce so neither the static memo nor the compile memo can hit.
    An op parses, validates, runs ``Home().check`` and serializes the
    trace with ``dump_log`` (the ``repro check --save-trace`` path).
    """

    name = "fresh-check"

    def __init__(
        self, seed: int, workdir: str, expected: Optional[Dict[str, tuple]] = None
    ) -> None:
        del workdir  # traces are serialized in memory
        self.expected = dict(FRESH_EXPECTED if expected is None else expected)
        self.sources = _fresh_sources()
        self._rng = random.Random(seed)
        self._plan: List[Tuple[str, int]] = []
        self.run_op("lu", self._rng.randrange(1 << 30))  # warm-up

    def _op_spec(self, index: int) -> Tuple[str, int]:
        while len(self._plan) <= index:
            round_ = [
                name for name, weight in FRESH_WEIGHTS.items() for _ in range(weight)
            ]
            self._rng.shuffle(round_)
            self._plan.extend(
                (name, self._rng.randrange(1 << 30)) for name in round_
            )
        return self._plan[index]

    def run_op(self, name: str, sim_seed: int) -> Op:
        import repro.events.serialize as serialize
        import repro.home as home
        import repro.minilang as minilang

        source = _PROGRAM_LINE.sub(
            rf"program \1_op{next(_NONCES)};", self.sources[name], count=1
        )
        started = time.perf_counter()
        try:
            program = minilang.parse(source)
            minilang.validate(program)
            report = home.Home().check(program, seed=sim_seed)
            trace = io.StringIO()
            serialize.dump_log(
                report.execution.log,
                trace,
                metadata={"program": program.name, "tool": "HOME", "seed": sim_seed},
            )
        except Exception as err:  # noqa: BLE001 - a crash is a failed op
            verdict: tuple = ("crash", f"{type(err).__name__}: {err}")
        else:
            verdict = self._verdict(name, program, report)
        ended = time.perf_counter()
        ok = verdict == self.expected[FRESH_KINDS[name]]
        return Op((name, sim_seed), ended - started, verdict, ok, ended)

    @staticmethod
    def _verdict(name: str, program, report) -> tuple:
        from repro.workloads.npb import (
            injection_registry,
            interproc_registry,
            score_report,
        )

        if report.execution.failure is not None:
            return ("failure", report.execution.failure)
        kind = FRESH_KINDS[name]
        if kind in ("registry", "interproc"):
            registry = (
                interproc_registry(program)
                if kind == "interproc"
                else injection_registry(program)
            )
            score = score_report(report.violations, registry)
            return (
                "missed", tuple(score["missed"]),
                "false_positives", score["false_positives"],
            )
        if kind == "divergence":
            triage = report.extras.get("divergence_triage") or {}
            return (
                "divergence",
                "confirmed", len(triage.get("confirmed", ())),
                "refuted", len(triage.get("refuted", ())),
            )
        return ("classes", tuple(report.violations.classes()))

    def run(self, budget: Budget, tracer=NO_TRACER) -> List[Op]:
        ops: List[Op] = []
        while budget.more(len(ops)):
            tracer.set_op(len(ops))
            ops.append(self.run_op(*self._op_spec(len(ops))))
        tracer.set_op(None)
        return ops


class Campaign:
    """Each op is one cell of a durable campaign over the racy NPB program.

    Cells run on the journaled path (``journal=``, serial lease loop,
    ``jobs=1``) across seeds x the builtin fault plans, in rounds of
    :data:`ROUND_SEEDS` seeds.  An op is timed between successive
    ``on_cell`` completions, so queue, journal and round start-up and
    merge time count.  The static phase and compile run once, here in
    set-up.
    """

    name = "campaign"

    def __init__(
        self,
        seed: int,
        workdir: str,
        expected: Optional[Tuple[Tuple[str, str], ...]] = None,
    ) -> None:
        from repro.campaign import CampaignRunner
        from repro.faults import builtin_plans
        from repro.workloads.npb import build_racy_npb

        self.expected = tuple(CAMPAIGN_EXPECTED if expected is None else expected)
        available = builtin_plans(2)
        self.plans = {name: available[name] for name in CAMPAIGN_PLANS}
        self.journal = os.path.join(workdir, "campaign.journal")
        self.seed_base = seed * 100_000
        self.program = build_racy_npb()
        runner = CampaignRunner(self.program, self._config(()))
        self._var_by_locs = race_var_by_locs(runner.static)
        # warm-up cell; its run compiles the instrumented program once
        runner.run_cell(self.seed_base + 99_999, "none", self.plans["none"])

    def _config(self, seeds):
        from repro.campaign import CampaignConfig

        return CampaignConfig(seeds=seeds, plans=self.plans, jobs=1, journal=self.journal)

    def findings(self, violations) -> Tuple[Tuple[str, str], ...]:
        """(class, variable) pairs of violation dicts; a DataRace names
        the variable its locations belong to."""
        return tuple(sorted({
            (v["class"], self._var_by_locs.get(tuple(v["locs"]), "?"))
            for v in violations
        }))

    def run(self, budget: Budget, tracer=NO_TRACER) -> List[Op]:
        from repro.campaign import CampaignRunner
        from repro.campaign.outcome import report_violation_dicts

        ops: List[Op] = []
        last = time.perf_counter()
        round_ = 0
        while True:
            # the budget check samples the speed probe: keep it out of the
            # next op's interval, but keep the previous round's merge in it
            paused = time.perf_counter()
            if not budget.more(len(ops)):
                break
            last += time.perf_counter() - paused
            stop = threading.Event()
            seen = set()
            round_ops: List[Op] = []

            def on_cell(outcomes) -> None:
                nonlocal last
                now = time.perf_counter()
                for outcome in outcomes:
                    if outcome.key in seen:
                        continue
                    seen.add(outcome.key)
                    findings = self.findings(outcome.violations)
                    op = Op(
                        (outcome.seed, outcome.plan), now - last,
                        (outcome.status, findings),
                        outcome.status == "ok"
                        and set(findings) <= set(self.expected),
                        now,
                    )
                    tracer.count("faults.fired", outcome.faults_fired)
                    round_ops.append(op)
                    ops.append(op)
                tracer.set_op(len(ops))
                if not budget.more(len(ops)):
                    stop.set()
                last = time.perf_counter()

            first = self.seed_base + round_ * ROUND_SEEDS
            tracer.set_op(len(ops))
            runner = CampaignRunner(
                self.program, self._config(range(first, first + ROUND_SEEDS))
            )
            result = runner.run(stop=stop, on_cell=on_cell)
            tracer.count("campaign.journal_bytes", os.path.getsize(self.journal))
            if self.findings(report_violation_dicts(result.report)) != self.expected:
                for op in round_ops:
                    op.ok = False
            round_ += 1
        tracer.set_op(None)
        return ops


WORKLOADS = {cls.name: cls for cls in (FreshCheck, Campaign)}
