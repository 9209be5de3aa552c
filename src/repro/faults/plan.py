"""Fault taxonomy and plans.

A :class:`FaultSpec` names one misbehaviour of the simulated MPI
library or runtime; a :class:`FaultPlan` is the ordered set of specs
one execution runs under.  Plans are plain data — JSON-serializable for
campaign journal headers, hashable enough to dedup, and buildable either
from the named presets (:func:`builtin_plans`) or deterministically
from a seed (:func:`random_plan`).

The taxonomy (each item maps to a real MPI+threads failure mode):

* ``thread-downgrade`` — the library grants a lower thread level than
  requested (e.g. ``FUNNELED`` for ``MULTIPLE``), the paper's Fig. 1
  trigger and the everyday reality "Frustrated with MPI+Threads?"
  documents;
* ``rank-crash`` — a rank dies (``MPI_Abort`` / segfault model) at its
  Nth MPI call; the rest of the job keeps running and usually hangs;
* ``message-delay`` — delivery to a destination rank is slowed,
  stressing wildcard-receive match order;
* ``queue-reorder`` — the destination's unexpected-message queue is
  permuted on delivery, the adversarial schedule for wildcard-tag
  violations;
* ``eager-rendezvous`` — after N sends a rank's buffers are "exhausted"
  and further standard sends complete in rendezvous mode (the classic
  eager→rendezvous protocol flip that exposes send-side deadlocks);
* ``lock-jitter`` — lock acquisitions cost extra, seeded, variable
  time, perturbing the interleavings the dynamic phase observes.

One extra *drill* kind exists for the campaign service's self-tests
(:data:`DRILL_KINDS`, not part of :data:`FAULT_KINDS` so fuzzed
:func:`random_plan`\\ s never draw it):

* ``worker-kill`` — SIGKILLs the **host worker process** at the Nth
  MPI call, modelling a cell that segfaults the runner itself.  The
  supervised campaign layer must reclaim the lease and eventually
  quarantine the cell as poison; outside a disposable worker it
  degrades to a :class:`~repro.errors.WorkerKillFault` error outcome.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..mpi.constants import MPI_THREAD_FUNNELED

THREAD_DOWNGRADE = "thread-downgrade"
RANK_CRASH = "rank-crash"
MESSAGE_DELAY = "message-delay"
QUEUE_REORDER = "queue-reorder"
EAGER_RENDEZVOUS = "eager-rendezvous"
LOCK_JITTER = "lock-jitter"
WORKER_KILL = "worker-kill"

FAULT_KINDS: Tuple[str, ...] = (
    THREAD_DOWNGRADE,
    RANK_CRASH,
    MESSAGE_DELAY,
    QUEUE_REORDER,
    EAGER_RENDEZVOUS,
    LOCK_JITTER,
)

#: service self-test drills: valid in hand-built / builtin plans but
#: excluded from the random fuzzing pool — a fuzzed plan must perturb
#: the simulated job, never kill the process running it
DRILL_KINDS: Tuple[str, ...] = (WORKER_KILL,)


@dataclass(frozen=True)
class FaultSpec:
    """One injected misbehaviour.

    ``rank=None`` applies the fault to every rank.  The remaining
    fields are kind-specific knobs; unused ones keep their defaults.
    """

    kind: str
    #: target rank (crash victim, delayed destination, jittery process);
    #: None = all ranks
    rank: Optional[int] = None
    #: rank-crash: crash at this (1-based) MPI call of the victim rank
    at_call: int = 1
    #: thread-downgrade: highest level the library will grant
    max_level: int = MPI_THREAD_FUNNELED
    #: message-delay: extra virtual-time delivery latency;
    #: lock-jitter: maximum extra acquire cost
    delay: float = 0.0
    #: message-delay / queue-reorder: fire on every Nth message;
    #: eager-rendezvous: flip after this many sends from the rank
    every: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS and self.kind not in DRILL_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.every < 1:
            raise ValueError("every must be >= 1")
        if self.at_call < 1:
            raise ValueError("at_call must be >= 1")

    def describe(self) -> str:
        where = "all ranks" if self.rank is None else f"rank {self.rank}"
        if self.kind == THREAD_DOWNGRADE:
            return f"{self.kind}: cap thread level at {self.max_level} on {where}"
        if self.kind == RANK_CRASH:
            return f"{self.kind}: {where} aborts at MPI call #{self.at_call}"
        if self.kind == MESSAGE_DELAY:
            return (f"{self.kind}: +{self.delay:g} delivery latency to {where}"
                    f" (every {self.every})")
        if self.kind == QUEUE_REORDER:
            return f"{self.kind}: permute {where}'s queue (every {self.every})"
        if self.kind == EAGER_RENDEZVOUS:
            return f"{self.kind}: {where} turns rendezvous after {self.every} send(s)"
        if self.kind == WORKER_KILL:
            return (f"{self.kind}: SIGKILL the worker process at {where}'s "
                    f"MPI call #{self.at_call} (poison-cell drill)")
        return f"{self.kind}: up to +{self.delay:g} per lock acquire on {where}"

    def as_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultSpec":
        known = set(cls.__dataclass_fields__)
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass(frozen=True)
class FaultPlan:
    """The full set of faults one execution runs under."""

    specs: Tuple[FaultSpec, ...] = ()
    name: str = "none"

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def by_kind(self, kind: str) -> List[FaultSpec]:
        return [s for s in self.specs if s.kind == kind]

    def kinds(self) -> List[str]:
        return sorted({s.kind for s in self.specs})

    def describe(self) -> str:
        if not self.specs:
            return f"{self.name}: no faults"
        return f"{self.name}: " + "; ".join(s.describe() for s in self.specs)

    def as_dict(self) -> Dict:
        return {"name": self.name, "specs": [s.as_dict() for s in self.specs]}

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultPlan":
        return cls(
            specs=tuple(FaultSpec.from_dict(s) for s in data.get("specs", ())),
            name=data.get("name", "none"),
        )


def builtin_plans(nprocs: int = 2) -> Dict[str, FaultPlan]:
    """The named single-fault plans the campaign CLI exposes.

    The crash victim is the last rank so rank 0 (which usually drives
    I/O and collectives roots in the workloads) survives to produce a
    trace worth analyzing.
    """
    victim = max(0, nprocs - 1)
    plans = {
        "none": FaultPlan(name="none"),
        "downgrade": FaultPlan(
            (FaultSpec(THREAD_DOWNGRADE, max_level=MPI_THREAD_FUNNELED),),
            name="downgrade",
        ),
        "crash": FaultPlan(
            (FaultSpec(RANK_CRASH, rank=victim, at_call=5),),
            name="crash",
        ),
        "delay": FaultPlan(
            (FaultSpec(MESSAGE_DELAY, delay=250.0, every=2),),
            name="delay",
        ),
        "reorder": FaultPlan(
            (FaultSpec(QUEUE_REORDER, every=2),),
            name="reorder",
        ),
        "rendezvous": FaultPlan(
            (FaultSpec(EAGER_RENDEZVOUS, every=2),),
            name="rendezvous",
        ),
        "jitter": FaultPlan(
            (FaultSpec(LOCK_JITTER, delay=8.0),),
            name="jitter",
        ),
        # poison-cell drill: every attempt at this cell SIGKILLs the
        # supervised worker running it — the service must quarantine it
        "killworker": FaultPlan(
            (FaultSpec(WORKER_KILL, rank=0, at_call=3),),
            name="killworker",
        ),
    }
    return plans


def random_plan(
    seed: int,
    nprocs: int = 2,
    kinds: Optional[Sequence[str]] = None,
    max_faults: int = 2,
) -> FaultPlan:
    """A deterministic plan derived from *seed* (campaign matrix rows).

    The same (seed, nprocs, kinds) always yields the same plan, so a
    campaign can be resumed or replayed exactly.
    """
    rng = random.Random(seed * 2654435761 % (1 << 32))
    pool = list(kinds if kinds is not None else FAULT_KINDS)
    count = rng.randint(1, max(1, min(max_faults, len(pool))))
    chosen = rng.sample(pool, count)
    specs: List[FaultSpec] = []
    for kind in chosen:
        rank = rng.choice([None] + list(range(nprocs)))
        if kind == RANK_CRASH:
            # crashes always target a concrete rank
            crash_rank = rank if rank is not None else rng.randrange(nprocs)
            specs.append(FaultSpec(kind, rank=crash_rank, at_call=rng.randint(1, 12)))
        elif kind == THREAD_DOWNGRADE:
            specs.append(FaultSpec(kind, rank=rank, max_level=rng.randint(0, 2)))
        elif kind == MESSAGE_DELAY:
            specs.append(FaultSpec(kind, rank=rank, delay=float(rng.randint(50, 500)),
                                   every=rng.randint(1, 3)))
        elif kind == QUEUE_REORDER:
            specs.append(FaultSpec(kind, rank=rank, every=rng.randint(1, 3)))
        elif kind == EAGER_RENDEZVOUS:
            specs.append(FaultSpec(kind, rank=rank, every=rng.randint(1, 4)))
        else:  # LOCK_JITTER
            specs.append(FaultSpec(kind, rank=rank, delay=float(rng.randint(1, 16))))
    return FaultPlan(tuple(specs), name=f"random-{seed}")
