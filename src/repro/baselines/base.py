"""Shared tool-driver machinery.

A checking tool is something that (a) possibly transforms the program,
(b) runs it under a cost/monitoring configuration, and (c) turns the
event log into a :class:`~repro.violations.ViolationReport`.  The three
tools compared in the paper — HOME, Marmot, the Intel Thread Checker —
differ in all three steps, but share this interface so the experiment
harness can sweep them uniformly.
"""

from __future__ import annotations

import abc
import time as _time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..analysis.dynamic_.hybrid import ConcurrencyReport, MPICallRecord
from ..events import EventLog
from ..events.event import COLLECTIVE_OPS, MonitoredKind
from ..minilang import ast_nodes as A
from ..runtime import ExecutionResult, RunConfig, make_interpreter
from ..runtime.costmodel import NO_INSTRUMENTATION, InstrumentationCharge
from ..violations import ViolationReport


@dataclass
class ToolReport:
    """Outcome of running one checking tool on one program."""

    tool: str
    program: str
    violations: ViolationReport
    execution: ExecutionResult
    #: static-analysis artifacts, HOME only
    static: Optional[object] = None
    #: analysis wall-clock seconds (host time, diagnostics only)
    analysis_seconds: float = 0.0
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        return self.execution.makespan

    @property
    def deadlocked(self) -> bool:
        return self.execution.deadlocked

    @property
    def aborted(self) -> bool:
        return bool(self.execution.aborts)

    def summary(self) -> str:
        lines = [
            f"=== {self.tool} on {self.program} "
            f"(procs={self.execution.config.nprocs}, "
            f"threads={self.execution.config.num_threads}) ===",
            f"virtual execution time: {self.makespan:.0f}",
        ]
        if self.deadlocked:
            lines.append(self.execution.deadlock.summary())
        lines.extend(self.execution.aborts)
        lines.append(self.violations.summary())
        return "\n".join(lines)


class CheckingTool(abc.ABC):
    """Base class for the tool drivers."""

    name: str = "tool"
    charge: InstrumentationCharge = NO_INSTRUMENTATION
    monitor_memory: bool = False

    def prepare(self, program: A.Program):
        """Return (program_to_run, static_artifacts)."""
        return program, None

    def run_config(
        self,
        nprocs: int,
        num_threads: int,
        seed: int,
        static: Optional[object] = None,
        **overrides,
    ) -> RunConfig:
        """Build the execution configuration for one check run.

        *static* carries the tool's own :meth:`prepare` artifacts so a
        tool can condition its runtime monitoring on what the static
        phase found (HOME narrows memory monitoring this way); the base
        implementation ignores it.
        """
        cfg = dict(
            nprocs=nprocs,
            num_threads=num_threads,
            seed=seed,
            charge=self.charge,
            monitor_memory=self.monitor_memory,
            thread_level_mode="permissive",
        )
        cfg.update(overrides)
        return RunConfig(**cfg)

    @abc.abstractmethod
    def analyze(self, result: ExecutionResult, static: Optional[object]) -> ViolationReport:
        """Turn an execution into violation findings."""

    def check(
        self,
        program: A.Program,
        nprocs: int = 2,
        num_threads: int = 2,
        seed: int = 0,
        **overrides,
    ) -> ToolReport:
        to_run, static = self.prepare(program)
        config = self.run_config(nprocs, num_threads, seed, static=static, **overrides)
        result = make_interpreter(to_run, config).run()
        t0 = _time.perf_counter()
        violations = self.analyze(result, static)
        elapsed = _time.perf_counter() - t0
        return ToolReport(
            tool=self.name,
            program=program.name,
            violations=violations,
            execution=result,
            static=static,
            analysis_seconds=elapsed,
        )


class BaseRunner(CheckingTool):
    """No checking at all — the 'Base' series of the paper's figures."""

    name = "Base"

    def analyze(self, result: ExecutionResult, static) -> ViolationReport:
        return ViolationReport()


def call_records_from_events(
    log: EventLog, proc: int, exclude_ops: frozenset = frozenset()
) -> Dict[int, MPICallRecord]:
    """Build call records straight from MPICall begin events.

    Used by tools that intercept MPI calls without HOME's wrappers
    (PMPI-style interception): argument values are mapped onto the
    monitored-variable kinds so the shared violation rules apply.
    """
    records: Dict[int, MPICallRecord] = {}
    for event in log.mpi_calls(proc):
        if event.op in exclude_ops:
            continue
        if event.op in ("mpi_init", "mpi_init_thread"):
            continue
        rec = MPICallRecord(
            call_id=event.call_id,
            proc=proc,
            thread=event.thread,
            op=event.op,
            callsite=event.callsite,
            loc=event.loc,
            time=event.time,
            is_main_thread=event.is_main_thread,
        )
        args = event.args
        if "peer" in args:
            rec.writes[MonitoredKind.SRC] = event.seq
            rec.values[MonitoredKind.SRC] = args["peer"]
        if "tag" in args:
            rec.writes[MonitoredKind.TAG] = event.seq
            rec.values[MonitoredKind.TAG] = args["tag"]
        if "comm" in args:
            rec.writes[MonitoredKind.COMM] = event.seq
            rec.values[MonitoredKind.COMM] = args["comm"]
        if "request" in args:
            rec.writes[MonitoredKind.REQUEST] = event.seq
            rec.values[MonitoredKind.REQUEST] = args["request"]
        if event.op in COLLECTIVE_OPS:
            rec.writes[MonitoredKind.COLLECTIVE] = event.seq
            rec.values[MonitoredKind.COLLECTIVE] = event.op
        if event.op == "mpi_finalize":
            rec.writes[MonitoredKind.FINALIZE] = event.seq
            rec.values[MonitoredKind.FINALIZE] = 1
        records[event.call_id] = rec
    return records
