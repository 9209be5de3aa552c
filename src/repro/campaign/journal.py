"""The campaign journal: append-only, fsync'd, CRC-checked.

This journal is the only persistent state of a campaign, a ``serve``
submission or a fuzz session.  Every state transition — a cell leased
to a worker, a finished outcome, a reclaimed lease after a worker
death, a poison-cell quarantine — is one record appended, flushed and
``fsync``'d before the coordinator acts on it, so a ``kill -9`` at
*any* instant loses at most the record being written, and replay
resumes exactly where the campaign stopped.

Format: JSON lines.  Each line is an envelope ``{"crc": C, "rec": R}``
where ``C`` is the CRC-32 of the canonical (sorted-key, no-whitespace)
JSON encoding of ``R`` — a torn write or a flipped bit makes the line
undecodable rather than silently wrong.  The first record is a header
carrying the format name, schema version and the campaign's matrix
metadata.  A damaged tail is handled by the same salvage policy as
event traces (:func:`repro.jsonlines.read_json_lines`): the valid
prefix is trusted, the bad line and everything after it are dropped.
A journal whose header is unreadable or belongs to another run is moved
aside to ``<path>.corrupt`` by :func:`~.queue.run_work_queue`, never
overwritten.

Record types written by the queue (see :mod:`.queue`):

``lease``
    ``{cell, worker, attempt}`` — the cell was handed to a worker.
``done``
    ``{cell, outcome}`` — the cell completed; *outcome* is the
    round-trippable :meth:`RunOutcome.as_dict` form.
``release``
    ``{cell}`` — a lease was given back cleanly (graceful shutdown);
    does **not** count toward the poison tally.
``reclaim``
    ``{cell, crashes}`` — the leased worker died or its lease expired.
``quarantine``
    ``{cell, crashes, outcome}`` — the cell exceeded the poison retry
    cap and is excluded from further scheduling.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import AnalysisError
from ..jsonlines import read_json_lines

JOURNAL_FORMAT = "repro-campaign-journal"
JOURNAL_SCHEMA_VERSION = 1

#: record type of the mandatory first line
HEADER_TYPE = "header"

#: suffix an unusable journal is moved aside under before a cold start
CORRUPT_SUFFIX = ".corrupt"


def _canonical(rec: Dict) -> str:
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def encode_journal_line(rec: Dict) -> str:
    """One CRC-enveloped journal line (without the trailing newline).

    The CRC is computed over the *canonical* (sorted-key) encoding, but
    the stored record keeps its insertion order: nested payloads such
    as outcome dicts must round-trip byte-identically into resumed
    reports.
    """
    body = _canonical(rec)
    return json.dumps(
        {"crc": zlib.crc32(body.encode("utf-8")), "rec": rec},
        separators=(",", ":"),
    )


def decode_journal_line(line: str) -> Dict:
    """Inverse of :func:`encode_journal_line`.

    Raises :class:`ValueError` on bad JSON, a malformed envelope, or a
    CRC mismatch — exactly the failures the shared tail-salvage policy
    treats as a truncation point.
    """
    data = json.loads(line)
    if not isinstance(data, dict) or "rec" not in data or "crc" not in data:
        raise ValueError("malformed journal line (missing crc/rec envelope)")
    rec = data["rec"]
    if not isinstance(rec, dict):
        raise ValueError("malformed journal record (not an object)")
    if zlib.crc32(_canonical(rec).encode("utf-8")) != data["crc"]:
        raise ValueError("journal record CRC mismatch (damaged file)")
    return rec


class Journal:
    """Append-only writer.  Every append is flushed and fsync'd before
    returning, so the caller may treat a returned append as durable."""

    def __init__(
        self,
        path: str,
        meta: Optional[Dict] = None,
        *,
        fresh: bool = False,
    ) -> None:
        self.path = path
        exists = os.path.exists(path) and os.path.getsize(path) > 0
        self._fh = open(path, "w" if (fresh or not exists) else "a")
        if fresh or not exists:
            self.append(
                HEADER_TYPE,
                format=JOURNAL_FORMAT,
                schema_version=JOURNAL_SCHEMA_VERSION,
                meta=dict(meta or {}),
            )

    def append(self, rtype: str, **fields) -> None:
        rec = {"type": rtype}
        rec.update(fields)
        self._fh.write(encode_journal_line(rec) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class JournalReplay:
    """Everything a replay salvaged from a journal file."""

    meta: Dict
    #: post-header records, in append order
    records: List[Dict] = field(default_factory=list)
    #: lines dropped from a damaged tail (0 for a clean journal)
    dropped: int = 0
    #: byte offset where the damaged tail starts (-1 for a clean journal)
    corrupt_byte_offset: int = -1

    @property
    def truncated(self) -> bool:
        return self.dropped > 0


def replay_journal(path: str) -> JournalReplay:
    """Read a journal back, salvaging a damaged tail.

    Tail truncation (a record cut mid-write by ``kill -9``, a flipped
    bit failing its CRC) is expected and tolerated: replay keeps the
    valid prefix and reports how many lines were dropped.  A missing or
    damaged *header* is not salvageable and raises
    :class:`~repro.errors.AnalysisError` — there is no campaign to
    resume.
    """
    try:
        with open(path, "r") as fh:
            records, truncation = read_json_lines(fh, decode_journal_line)
    except OSError as err:
        raise AnalysisError(f"cannot read campaign journal {path!r}: {err}")
    if not records:
        raise AnalysisError(
            f"campaign journal {path!r} has no readable header"
            + (f" ({truncation.error})" if truncation else "")
        )
    header = records[0]
    if header.get("type") != HEADER_TYPE or header.get("format") != JOURNAL_FORMAT:
        raise AnalysisError(f"{path!r} is not a campaign journal")
    found = header.get("schema_version")
    if found != JOURNAL_SCHEMA_VERSION:
        raise AnalysisError(
            f"unsupported campaign journal schema_version {found!r} "
            f"(expected {JOURNAL_SCHEMA_VERSION})"
        )
    return JournalReplay(
        meta=dict(header.get("meta", {})),
        records=records[1:],
        dropped=truncation.dropped if truncation else 0,
        corrupt_byte_offset=truncation.byte_offset if truncation else -1,
    )
