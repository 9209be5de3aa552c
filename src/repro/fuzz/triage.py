"""Crash and divergence triage: dedup everything into signatures.

A fuzzing campaign produces three kinds of bad news — unhandled
exceptions, budget blowouts surfacing as exceptions, and oracle
divergences.  Raw occurrences are useless at corpus scale (one bug
fires on hundreds of seeds), so everything is folded into a
:class:`Signature`:

* crashes dedup on *exception type + top in-repo stack frames*, the
  classic fuzzer bucketing — two seeds dying on the same line are one
  bug;
* oracle findings dedup on *(oracle kind, coarse divergence class)* —
  the detail string the oracle chose as its dedup axis.

Each :class:`TriageBank` entry keeps the first-seen reproducer
``(grammar_version, seed, config)``; re-generating the program from it
is bit-exact, so a signature is always actionable without storing the
program text.  The reducer (:mod:`repro.fuzz.reduce`) later attaches a
minimal program to each entry.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .oracles import OracleFinding

#: stack frames kept in a crash signature (innermost last)
_SIGNATURE_FRAMES = 3
#: seeds remembered per signature (the rest only counts)
_SEEDS_KEPT = 10


@dataclass(frozen=True)
class Signature:
    """Deduplication key for one distinct failure."""

    kind: str  #: "crash", "budget" or "oracle"
    key: str  #: the dedup string, e.g. "KeyError@repro.omp.team:static_chunks"

    def __str__(self) -> str:
        return f"{self.kind}:{self.key}"


def _frame_id(frame: traceback.FrameSummary) -> str:
    """``module:function`` for one frame, path-independent."""
    name = frame.filename.replace("\\", "/")
    # strip everything up to the package root so signatures are stable
    # across checkouts and workers
    for marker in ("/repro/", "/tests/"):
        if marker in name:
            name = marker.strip("/").split("/")[0] + "/" + name.split(marker, 1)[1]
            break
    else:
        name = name.rsplit("/", 1)[-1]
    return f"{name.removesuffix('.py').replace('/', '.')}:{frame.name}"


def crash_signature(exc: BaseException) -> Signature:
    """Bucket an exception by type + innermost in-repo frames."""
    frames = traceback.extract_tb(exc.__traceback__)
    tail = frames[-_SIGNATURE_FRAMES:] if frames else []
    where = ">".join(_frame_id(f) for f in tail) or "<no traceback>"
    return Signature(kind="crash", key=f"{type(exc).__name__}@{where}")


def oracle_signature(finding: OracleFinding) -> Signature:
    """Bucket a divergence by (oracle, coarse detail class)."""
    return Signature(kind="oracle", key=f"{finding.oracle}:{finding.detail}")


@dataclass
class TriageEntry:
    """Everything known about one deduplicated failure."""

    signature: Signature
    count: int = 0
    first_seed: int = -1
    seeds: List[int] = field(default_factory=list)
    #: traceback text (crash) or oracle evidence (divergence)
    example: str = ""
    #: ``(grammar_version, seed, config)`` — regenerates the program
    reproducer: Dict[str, Any] = field(default_factory=dict)
    #: minimal program source attached by the reducer, if run
    reduced_source: Optional[str] = None
    reduced_stmts: Optional[int] = None
    original_stmts: Optional[int] = None

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": self.signature.kind,
            "signature": self.signature.key,
            "count": self.count,
            "first_seed": self.first_seed,
            "seeds": list(self.seeds),
            "example": self.example,
            "reproducer": dict(self.reproducer),
        }
        if self.reduced_source is not None:
            out["reduced"] = {
                "source": self.reduced_source,
                "stmts": self.reduced_stmts,
                "original_stmts": self.original_stmts,
            }
        return out


class TriageBank:
    """Deduplicating store of crash/oracle signatures for one session."""

    def __init__(self) -> None:
        self.entries: Dict[str, TriageEntry] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def record(
        self,
        signature: Signature,
        seed: int,
        example: str,
        reproducer: Dict[str, Any],
    ) -> TriageEntry:
        """Fold one occurrence of *signature* into the bank."""
        entry = self.entries.get(str(signature))
        if entry is None:
            entry = TriageEntry(
                signature=signature,
                first_seed=seed,
                example=example,
                reproducer=dict(reproducer),
            )
            self.entries[str(signature)] = entry
        entry.count += 1
        if len(entry.seeds) < _SEEDS_KEPT and seed not in entry.seeds:
            entry.seeds.append(seed)
        return entry

    def record_crash(
        self, seed: int, exc: BaseException, reproducer: Dict[str, Any]
    ) -> TriageEntry:
        """Fold one unhandled exception into the bank."""
        text = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        return self.record(crash_signature(exc), seed, text, reproducer)

    def record_finding(
        self, finding: OracleFinding, reproducer: Dict[str, Any]
    ) -> TriageEntry:
        """Fold one oracle divergence into the bank."""
        example = finding.evidence or finding.detail
        return self.record(
            oracle_signature(finding), finding.seed, example, reproducer
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "distinct": len(self.entries),
            "total": sum(e.count for e in self.entries.values()),
            "entries": [e.as_dict() for e in self.entries.values()],
        }
