"""Event-record interning: per-site constant strings built once.

Hot emit paths stamp the same per-callsite constants — the ``"line:col"``
source location above all — onto thousands of event records per run.
Formatting that string on every emission allocates a fresh object each
time; worse, equal-but-distinct strings defeat the identity fast path in
``dict`` probes and comparisons downstream (trace serialization, site
narrowing against ``collective_sites``, report grouping).

:func:`intern_loc` maps a :class:`SourceLoc` to a single
``sys.intern``-ed string per distinct location, so every event emitted
from one callsite shares one object.  The table is process-global and
bounded: location sets are tiny (one entry per distinct source
coordinate in the loaded programs), but a runaway is clipped anyway.
"""

from __future__ import annotations

import sys
from typing import Dict

#: safety valve — far above any realistic distinct-location count
_MAX_ENTRIES = 1 << 16

_LOC_STRINGS: Dict[object, str] = {}


def intern_loc(loc) -> str:
    """Shared ``"line:col"`` string for a source location.

    Byte-for-byte identical to ``f"{loc.line}:{loc.col}"`` — interning
    changes object identity only, never serialized bytes.
    """
    cached = _LOC_STRINGS.get(loc)
    if cached is None:
        if len(_LOC_STRINGS) >= _MAX_ENTRIES:
            _LOC_STRINGS.clear()
        cached = sys.intern(f"{loc.line}:{loc.col}")
        _LOC_STRINGS[loc] = cached
    return cached
