"""Runtime (dynamic) analysis phase: vector clocks, the happens-before
replay (which also keeps each event's lockset), and the one concurrency
pair builder behind HOME's hybrid detector and the baselines."""

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
    concurrency_report,
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
    "DetectorConfig",
    "ConcurrencyReport",
    "MPICallRecord",
    "RacingPair",
    "analyze",
    "analyze_process",
    "collect_call_records",
    "concurrency_report",
    "MemRace",
    "find_memory_races",
    "MessageRace",
    "find_message_races",
    "wildcard_races",
]
