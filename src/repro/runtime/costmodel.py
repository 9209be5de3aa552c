"""Virtual-time cost model.

The paper's evaluation (Figs. 4-7) reports wall-clock execution time on
EC2 for the base application and for each checking tool.  We replace
wall-clock with deterministic *virtual time*: every simulated action
charges its executing thread's clock, message completion respects
sender-side timestamps plus network latency, and a run's execution time
is the maximum clock over all threads of all processes (makespan).

Tool overheads are charged through :class:`InstrumentationCharge`:

* HOME pays ``wrapper_cost`` per *instrumented* MPI call plus a small
  per-monitored-event logging cost — its static filtering means only
  MPI calls inside ``omp parallel`` regions are instrumented.
* Marmot pays a manager round-trip per MPI call (every call, no static
  filtering) — the "additional MPI process performs a global analysis"
  of the paper — and the manager serializes calls across the whole job,
  which is why its overhead grows faster with process count.
* ITC pays ``mem_event_cost`` on every shared memory access in parallel
  regions (binary instrumentation of all thread-level instructions).

All constants are in abstract microsecond-like units; only ratios
matter for reproducing the paper's overhead bands.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CostModel:
    """Base costs of simulated actions (no tool overhead)."""

    #: Cost of dispatching one statement.
    stmt: float = 1.0
    #: Cost of one unit of ``compute(n)`` synthetic work.
    compute_unit: float = 10.0
    #: Fixed software overhead of any MPI call.
    mpi_call: float = 20.0
    #: Network latency added between matching send and recv completion.
    msg_latency: float = 60.0
    #: Per-element payload transfer cost.
    msg_per_elem: float = 0.5
    #: Cost of passing a team barrier / collective synchronization.
    barrier: float = 30.0
    #: Cost of acquiring or releasing a lock / entering a critical.
    lock: float = 4.0
    #: Cost of forking or joining an OpenMP team, per member.
    fork_per_thread: float = 25.0
    #: Base wait before the first retry of a timed-out MPI operation
    #: (doubled per attempt by the fault-tolerance layer's backoff).
    retry_backoff: float = 120.0

    def scaled(self, factor: float) -> "CostModel":
        """Uniformly scale all base costs (used in calibration tests)."""
        return replace(
            self,
            stmt=self.stmt * factor,
            compute_unit=self.compute_unit * factor,
            mpi_call=self.mpi_call * factor,
            msg_latency=self.msg_latency * factor,
            msg_per_elem=self.msg_per_elem * factor,
            barrier=self.barrier * factor,
            lock=self.lock * factor,
            fork_per_thread=self.fork_per_thread * factor,
            retry_backoff=self.retry_backoff * factor,
        )


@dataclass(frozen=True)
class InstrumentationCharge:
    """Extra virtual-time costs a checking tool imposes on the run."""

    #: Charged at each instrumented MPI call (HMPI wrapper body).
    wrapper_cost: float = 0.0
    #: Charged per monitored-variable write event recorded.
    monitored_event_cost: float = 0.0
    #: Charged per shared memory access when full memory monitoring is on.
    mem_event_cost: float = 0.0
    #: Charged per MPI call as a round trip to a central manager process.
    manager_rtt: float = 0.0
    #: Manager service time per reported call.  When
    #: ``manager_serializes``, the manager is a single shared server fed
    #: by every process, so the expected queueing delay a caller sees is
    #: ``manager_service * nprocs`` — the linear-in-job-size growth that
    #: makes Marmot-style central checking scale poorly.
    manager_service: float = 0.0
    #: When true, manager round-trips serialize globally (Marmot's extra
    #: analysis process is a shared resource): each RTT also waits for
    #: the manager to become free.
    manager_serializes: bool = False
    #: Charged once per thread at team fork (per-thread analysis state).
    per_thread_setup: float = 0.0

    @property
    def monitors_memory(self) -> bool:
        return self.mem_event_cost > 0.0


#: Tool presets calibrated so the reproduced overhead bands match the
#: paper: HOME 16-45%, Marmot 15-56%, ITC up to ~200%.
NO_INSTRUMENTATION = InstrumentationCharge()

HOME_CHARGE = InstrumentationCharge(
    wrapper_cost=13.0,
    monitored_event_cost=3.2,
    per_thread_setup=205.0,
)

MARMOT_CHARGE = InstrumentationCharge(
    wrapper_cost=4.0,
    manager_rtt=164.0,
    manager_service=0.8,
    manager_serializes=True,
)

ITC_CHARGE = InstrumentationCharge(
    wrapper_cost=10.0,
    mem_event_cost=6.5,
    per_thread_setup=880.0,
)

DEFAULT_COST_MODEL = CostModel()
