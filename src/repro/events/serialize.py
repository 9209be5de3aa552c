"""Event-log serialization (JSON lines).

HOME's dynamic phase is offline — it replays a recorded event stream —
so traces are first-class artifacts: a run on one machine can be
analyzed on another, archived next to a bug report, or re-analyzed
with different detector settings without re-running the program.

Format: one JSON object per line; first line is a header with the
format version and run metadata, each following line one event with a
``t`` (type) discriminator.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Dict, Optional, TextIO, Tuple, Union

from ..errors import AnalysisError
from ..jsonlines import read_json_lines
from .event import (
    BarrierEvent,
    CollectiveArrive,
    ErrorHandlerEvent,
    Event,
    FaultEvent,
    LockAcquire,
    LockRelease,
    MemAccess,
    MonitoredKind,
    MonitoredWrite,
    MPICall,
    MPIErrorEvent,
    ThreadBegin,
    ThreadEnd,
    ThreadFork,
    ThreadJoin,
)
from .log import EventLog

FORMAT_VERSION = 1

_TYPES = {
    cls.__name__: cls
    for cls in (
        MemAccess, MonitoredWrite, LockAcquire, LockRelease, BarrierEvent,
        CollectiveArrive, ThreadFork, ThreadJoin, ThreadBegin, ThreadEnd,
        MPICall, FaultEvent, MPIErrorEvent, ErrorHandlerEvent,
    )
}


#: ``json.dumps``'s encoder, bound once: ``JSONEncoder.encode`` builds
#: a fresh C encoder on every call.  Same settings as ``json.dumps``
#: (ASCII output, ``", "``/``": "`` separators, NaN allowed), minus the
#: circular-reference check: no event holds a reference cycle.
_c_encode = c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring_ascii, None,
    ": ", ", ", False, False, True,
)


def _encode(obj: Any) -> str:
    return "".join(_c_encode(obj, 0))


def _kind_name(value: Any) -> Any:
    return value.name if isinstance(value, MonitoredKind) else value


@functools.cache
def _line_dict(cls: type) -> Callable[[Event], Dict[str, Any]]:
    """A function building *cls*'s trace-line dict, compiled once per
    class: ``t`` first, then the fields in declaration order.  Only the
    fields that may hold a :class:`MonitoredKind` convert it to its
    name.  Tuple fields need no conversion: the encoder writes a tuple
    exactly as the list it once was converted to."""
    items = [f'"t": {cls.__name__!r}']
    for f in dataclasses.fields(cls):
        value = f"e.{f.name}"
        if f.type in ("MonitoredKind", "Any"):
            value = f"_kind_name({value})"
        items.append(f"{f.name!r}: {value}")
    return eval(  # noqa: S307 - built from dataclass field names only
        f"lambda e: {{{', '.join(items)}}}", {"_kind_name": _kind_name}
    )


def _event_line(event: Event) -> str:
    return _encode(_line_dict(type(event))(event))


def _event_from_dict(data: Dict[str, Any]) -> Event:
    data = dict(data)
    tname = data.pop("t", None)
    cls = _TYPES.get(tname)
    if cls is None:
        raise AnalysisError(f"unknown event type {tname!r} in trace")
    if cls is MonitoredWrite and "kind" in data:
        data["kind"] = MonitoredKind[data["kind"]]
    for key in ("children",):
        if key in data and isinstance(data[key], list):
            data[key] = tuple(data[key])
    try:
        return cls(**data)
    except TypeError as err:
        raise AnalysisError(f"malformed {tname} record: {err}") from err


def dump_log(
    log: EventLog,
    target: Union[str, Path, TextIO],
    metadata: Optional[Dict[str, Any]] = None,
) -> None:
    """Write *log* as JSON lines to a path or open text file."""
    own = isinstance(target, (str, Path))
    fh: TextIO = open(target, "w") if own else target  # type: ignore[arg-type]
    try:
        header = {"format": "repro-trace", "version": FORMAT_VERSION,
                  "events": len(log)}
        if metadata:
            header["meta"] = metadata
        lines = [json.dumps(header)]
        lines.extend(map(_event_line, log))
        lines.append("")
        fh.write("\n".join(lines))
    finally:
        if own:
            fh.close()


def load_log(source: Union[str, Path, TextIO], strict: bool = True):
    """Read a trace written by :func:`dump_log`.

    Returns ``(EventLog, metadata dict)``.

    A run that crashes or is killed mid-write leaves a truncated or
    corrupt trailing line.  With ``strict=True`` (the default) that
    raises a clear :class:`~repro.errors.AnalysisError` naming the bad
    line.  With ``strict=False`` the valid prefix is salvaged instead:
    reading stops at the first undecodable line and the metadata gains
    ``salvaged: True`` plus a ``dropped_lines`` count, so offline
    analyzers can still consume what the dying run managed to record.
    Truncation handling is shared with the campaign journal
    (:func:`repro.jsonlines.read_json_lines`), so both artifacts agree
    on what a damaged tail means.
    """
    own = isinstance(source, (str, Path))
    fh: TextIO = open(source) if own else source  # type: ignore[arg-type]
    try:
        header_line = fh.readline()
        if not header_line.strip():
            raise AnalysisError("empty trace file")
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as err:
            raise AnalysisError(
                f"corrupt trace header (not valid JSON): {err}"
            ) from err
        if header.get("format") != "repro-trace":
            raise AnalysisError("not a repro trace file")
        if header.get("version") != FORMAT_VERSION:
            raise AnalysisError(
                f"unsupported trace version {header.get('version')}"
            )
        meta = dict(header.get("meta", {}))
        events, truncation = read_json_lines(
            fh, lambda line: _event_from_dict(json.loads(line)), start_lineno=2,
            start_offset=len(header_line.encode("utf-8")),
        )
        if truncation is not None and strict:
            raise AnalysisError(
                f"corrupt trace line {truncation.lineno} "
                f"at byte offset {truncation.byte_offset} "
                f"(truncated write or damaged file): {truncation.error}"
            )
        log = EventLog()
        max_seq = -1
        for event in events:
            log.append(event)
            max_seq = max(max_seq, event.seq)
        if truncation is not None:
            # Tolerant mode: everything from the first bad line on is
            # suspect — salvage the valid prefix only, and record where
            # the damage starts so operators can inspect/truncate it.
            meta["salvaged"] = True
            meta["dropped_lines"] = truncation.dropped
            meta["corrupt_byte_offset"] = truncation.byte_offset
        # keep the seq allocator consistent for appended events
        log.reserve_seqs(max_seq)
        return log, meta
    finally:
        if own:
            fh.close()
