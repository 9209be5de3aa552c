"""Runtime (dynamic) analysis phase: vector clocks, happens-before,
lockset, and the hybrid concurrency detector."""

from .happensbefore import (  # noqa: F401
    HBResult,
    compute_cross_process_happens_before,
    compute_happens_before,
)
from .hybrid import (  # noqa: F401
    ConcurrencyReport,
    DetectorConfig,
    MPICallRecord,
    RacingPair,
    analyze,
    analyze_process,
    collect_call_records,
)
from .lockset import (  # noqa: F401
    AccessRecord,
    EraserState,
    LocationState,
    LocksetAnalysis,
)
from .memraces import MemRace, find_memory_races  # noqa: F401
from .msgrace import (  # noqa: F401
    MessageRace,
    find_message_races,
    wildcard_races,
)
from .vectorclock import VectorClock  # noqa: F401

__all__ = [
    "VectorClock",
    "HBResult",
    "compute_happens_before",
    "compute_cross_process_happens_before",
    "LocksetAnalysis",
    "LocationState",
    "AccessRecord",
    "EraserState",
    "DetectorConfig",
    "ConcurrencyReport",
    "MPICallRecord",
    "RacingPair",
    "analyze",
    "analyze_process",
    "collect_call_records",
    "MemRace",
    "find_memory_races",
    "MessageRace",
    "find_message_races",
    "wildcard_races",
]
