"""Static violation-candidate detection.

The paper's second contribution bullet: the static analysis "can report
and statistically provide all possible code locations that are involved
in errors in Hybrid OpenMP/MPI programs".  This pass pairs up hybrid
MPI sites whose *statically known* arguments could satisfy a violation
predicate — before any execution:

* two hybrid receive sites (or one site in a loop) with overlapping
  constant envelopes → Concurrent-Recv candidate;
* probe sites against probe/receive sites, same envelope → Probe
  candidate;
* two hybrid collective sites on the same constant communicator →
  Collective candidate;
* hybrid wait/test sites → Concurrent-Request candidate (request
  values are rarely static; site-level pairing is the best a static
  pass can do);
* a hybrid ``mpi_finalize`` site → Finalization candidate.

A site with *unknown* (non-constant) tag/source is conservatively
assumed to overlap anything — statically safe sites are exactly those
proven disjoint.  The dynamic phase then confirms or refutes each
candidate; sites sharing an enclosing critical section are excluded
here because the lockset analysis will prove them serialized anyway.

When :func:`find_candidates` is given the :class:`DataflowFacts` of the
worklist analyses (see :mod:`.dataflow`), three further prunes apply to
every pair — symbolic-envelope disjointness (``tag = rank + 4`` versus
``rank + 9``), a shared must-held lock, and May-Happen-in-Parallel
ordering (barrier phases, distinct parallel regions, same section).
Each prune is counted on the facts object for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ...mpi.constants import MPI_ANY_SOURCE, MPI_ANY_TAG
from ...violations.spec import (
    COLLECTIVE,
    CONCURRENT_RECV,
    CONCURRENT_REQUEST,
    FINALIZATION,
    PROBE,
)
from .mpi_sites import MPISite

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .dataflow.facts import DataflowFacts

#: argument positions in the mini language's MPI signatures
_ENVELOPE_POSITIONS = {
    # op: (source/dest position, tag position, comm position)
    "mpi_recv": (2, 3, 4),
    "mpi_irecv": (2, 3, 4),
    "mpi_sendrecv": (5, 6, 7),
    "mpi_probe": (0, 1, 2),
    "mpi_iprobe": (0, 1, 2),
}

_RECV_LIKE = ("mpi_recv", "mpi_irecv", "mpi_sendrecv")
_PROBE_LIKE = ("mpi_probe", "mpi_iprobe")
_WAIT_LIKE = ("mpi_wait", "mpi_test", "mpi_waitall")
_COLLECTIVE_COMM_POSITION = {
    "mpi_barrier": 0,
    "mpi_bcast": 2,
    "mpi_reduce": 3,
    "mpi_allreduce": 2,
    "mpi_gather": 3,
    "mpi_allgather": 2,
    "mpi_scatter": 2,
    "mpi_alltoall": 2,
}


@dataclass(frozen=True)
class StaticEnvelope:
    """Best-effort constant (source, tag, comm); None = unknown."""

    src: Optional[int]
    tag: Optional[int]
    comm: Optional[int]

    def may_overlap(self, other: "StaticEnvelope") -> bool:
        def comp(a, b, wildcard) -> bool:
            if a is None or b is None:
                return True  # unknown: assume overlap (conservative)
            return a == b or a == wildcard or b == wildcard

        if self.comm is not None and other.comm is not None and self.comm != other.comm:
            return False
        return comp(self.src, other.src, MPI_ANY_SOURCE) and comp(
            self.tag, other.tag, MPI_ANY_TAG
        )


@dataclass
class ViolationCandidate:
    """A statically possible violation between two hybrid sites."""

    vclass: str
    site_a: MPISite
    site_b: MPISite
    reason: str

    def locs(self) -> Tuple[str, str]:
        return tuple(sorted((self.site_a.loc, self.site_b.loc)))

    def __str__(self) -> str:
        return (
            f"[static-candidate:{self.vclass}] {self.site_a.op}@{self.site_a.loc} "
            f"vs {self.site_b.op}@{self.site_b.loc}: {self.reason}"
        )


def envelope_of(site: MPISite) -> StaticEnvelope:
    positions = _ENVELOPE_POSITIONS.get(site.op)
    if positions is None:
        return StaticEnvelope(None, None, None)
    src_i, tag_i, comm_i = positions

    def get(i):
        value = site.static_args.get(i)
        return value if isinstance(value, int) else None

    return StaticEnvelope(get(src_i), get(tag_i), get(comm_i))


def _serialized_together(a: MPISite, b: MPISite) -> bool:
    """Sharing a named critical (or both master-guarded) proves order."""
    if set(a.criticals) & set(b.criticals):
        return True
    return a.in_master and b.in_master


def _pairable(a: MPISite, b: MPISite) -> bool:
    return not _serialized_together(a, b)


def _facts_allow(
    a: MPISite,
    b: MPISite,
    facts: Optional["DataflowFacts"],
    check_envelope: bool = False,
) -> bool:
    """Dataflow-based prune checks, applied only to pairs that survived
    every lexical check — so each counted prune removes exactly one
    pair the candidate set would otherwise contain."""
    if facts is None:
        return True
    from .dataflow.facts import PRUNE_ENVELOPE, PRUNE_LOCKSTATE, PRUNE_MHP

    if facts.serialized_by_locks(a, b):
        facts.count_prune(PRUNE_LOCKSTATE)
        return False
    if not facts.may_happen_in_parallel(a, b):
        facts.count_prune(PRUNE_MHP)
        return False
    if check_envelope and facts.envelopes_disjoint(a, b):
        facts.count_prune(PRUNE_ENVELOPE)
        return False
    return True


def find_candidates(
    sites: Sequence[MPISite], facts: Optional["DataflowFacts"] = None
) -> List[ViolationCandidate]:
    """All statically possible violation pairs among hybrid sites.

    A site may pair with itself: inside a parallel region the same
    lexical call executes on every team thread.  With dataflow *facts*
    supplied, pairs proven safe by the worklist analyses are pruned
    (and counted on the facts object).
    """
    hybrid = [s for s in sites if s.in_parallel and s.instrumentable]
    out: List[ViolationCandidate] = []

    def each_pair(group_a, group_b):
        seen = set()
        for a in group_a:
            for b in group_b:
                key = tuple(sorted((a.nid, b.nid)))
                if key in seen:
                    continue
                seen.add(key)
                yield a, b

    recvs = [s for s in hybrid if s.op in _RECV_LIKE]
    probes = [s for s in hybrid if s.op in _PROBE_LIKE]
    waits = [s for s in hybrid if s.op in _WAIT_LIKE]
    collectives = [s for s in hybrid if s.op in _COLLECTIVE_COMM_POSITION]
    finalizes = [s for s in hybrid if s.op == "mpi_finalize"]

    for a, b in each_pair(recvs, recvs):
        if (
            _pairable(a, b)
            and envelope_of(a).may_overlap(envelope_of(b))
            and _facts_allow(a, b, facts, check_envelope=True)
        ):
            out.append(ViolationCandidate(
                CONCURRENT_RECV, a, b,
                "hybrid receives with potentially overlapping envelopes",
            ))
    for a, b in each_pair(probes, probes + recvs):
        if a.nid == b.nid and b.op in _RECV_LIKE:
            continue
        if (
            _pairable(a, b)
            and envelope_of(a).may_overlap(envelope_of(b))
            and _facts_allow(a, b, facts, check_envelope=True)
        ):
            out.append(ViolationCandidate(
                PROBE, a, b,
                "hybrid probe may race another probe/receive on one envelope",
            ))
    for a, b in each_pair(waits, waits):
        if _pairable(a, b) and _facts_allow(a, b, facts):
            out.append(ViolationCandidate(
                CONCURRENT_REQUEST, a, b,
                "hybrid request-completion calls may share a request",
            ))
    for a, b in each_pair(collectives, collectives):
        comm_a = a.static_args.get(_COLLECTIVE_COMM_POSITION[a.op])
        comm_b = b.static_args.get(_COLLECTIVE_COMM_POSITION[b.op])
        if comm_a is not None and comm_b is not None and comm_a != comm_b:
            continue
        if _pairable(a, b) and _facts_allow(a, b, facts):
            out.append(ViolationCandidate(
                COLLECTIVE, a, b,
                "hybrid collectives on the same communicator",
            ))
    for site in finalizes:
        out.append(ViolationCandidate(
            FINALIZATION, site, site,
            "mpi_finalize inside an omp parallel region",
        ))
    return out


def candidate_summary(candidates: Sequence[ViolationCandidate]) -> Dict[str, int]:
    """Counts per violation class (the 'statistics' of the paper's claim)."""
    out: Dict[str, int] = {}
    for c in candidates:
        out[c.vclass] = out.get(c.vclass, 0) + 1
    return out
