"""Interned event records: identity sharing without serialization drift.

Event interning (:mod:`repro.events.intern`) replaces per-emission
``f"{line}:{col}"`` formatting with one shared string per callsite.
That is an identity-level optimization only — these tests pin the
observable contract: serialized traces are byte-for-byte what the
uninterned formatting would produce, and round-trip losslessly.

Also here: the corrupt-tail *byte offset* reported by the trace loader
and the campaign journal, which shares the same salvage policy.
"""

import io
import json

import pytest

from helpers import run_src

from repro.errors import AnalysisError
from repro.events import dump_log, load_log
from repro.events import intern
from repro.events.intern import intern_loc
from repro.minilang.ast_nodes import SourceLoc


RACY = """
program pingpong;
var a[2];
func main() {
    var provided = mpi_init_thread(MPI_THREAD_MULTIPLE);
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    omp parallel num_threads(2) {
        if (rank == 0) { mpi_send(a, 1, 1, 0, MPI_COMM_WORLD); }
        if (rank == 1) { mpi_recv(a, 1, 0, 0, MPI_COMM_WORLD); }
    }
    mpi_barrier(MPI_COMM_WORLD);
    mpi_finalize();
}
"""


class TestInternLoc:
    def test_value_matches_plain_formatting(self):
        loc = SourceLoc(line=12, col=7)
        assert intern_loc(loc) == f"{loc.line}:{loc.col}" == "12:7"

    def test_same_site_shares_one_object(self):
        loc = SourceLoc(line=3, col=4)
        assert intern_loc(loc) is intern_loc(SourceLoc(line=3, col=4))

    def test_distinct_sites_distinct_strings(self):
        assert intern_loc(SourceLoc(1, 2)) != intern_loc(SourceLoc(2, 1))

    def test_table_is_bounded_bookkeeping(self, monkeypatch):
        monkeypatch.setattr(intern, "_MAX_ENTRIES", 2)
        monkeypatch.setattr(intern, "_LOC_STRINGS", {})
        for col in range(1, 6):
            assert intern_loc(SourceLoc(line=888, col=col)) == f"888:{col}"
            assert len(intern._LOC_STRINGS) <= 2


class TestInternedTraceRoundTrip:
    def _trace(self):
        result = run_src(RACY, nprocs=2, threads=2, monitor_memory=True)
        buf = io.StringIO()
        dump_log(result.log, buf, metadata={"seed": 0})
        return result, buf.getvalue()

    def test_locs_in_trace_are_plain_line_col(self):
        _, text = self._trace()
        locs = [
            json.loads(line).get("loc")
            for line in text.splitlines()[1:]
        ]
        present = [loc for loc in locs if loc is not None]
        assert present, "trace should carry interned loc strings"
        for loc in present:
            line, col = loc.split(":")
            assert line.isdigit() and col.isdigit()

    def test_round_trip_is_lossless(self):
        result, text = self._trace()
        log, meta = load_log(io.StringIO(text))
        assert meta["seed"] == 0
        assert len(log) == len(result.log)
        buf = io.StringIO()
        dump_log(log, buf, metadata={"seed": 0})
        assert buf.getvalue() == text

    def test_interning_shares_emitted_loc_objects(self):
        result, _ = self._trace()
        by_value = {}
        for event in result.log:
            loc = getattr(event, "loc", None)
            if loc is None:
                continue
            by_value.setdefault(loc, loc)
            # equal loc strings must be the same interned object
            assert by_value[loc] is loc


class TestCorruptTailByteOffset:
    def _damaged(self, tmp_path):
        result = run_src(RACY, nprocs=2, threads=2)
        path = tmp_path / "run.trace"
        dump_log(result.log, path)
        raw = path.read_bytes()
        lines = raw.splitlines(keepends=True)
        # the offset where the final record starts, then damage it
        offset = len(raw) - len(lines[-1])
        damaged = b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2]
        path.write_bytes(damaged)
        return path, offset

    def test_strict_error_names_byte_offset(self, tmp_path):
        path, offset = self._damaged(tmp_path)
        with pytest.raises(AnalysisError, match=f"byte offset {offset}"):
            load_log(path)

    def test_tolerant_meta_records_byte_offset(self, tmp_path):
        path, offset = self._damaged(tmp_path)
        log, meta = load_log(path, strict=False)
        assert meta["salvaged"] is True
        assert meta["dropped_lines"] == 1
        assert meta["corrupt_byte_offset"] == offset
        # the offset is actionable: truncating there yields a clean file
        with open(path, "r+b") as fh:
            fh.truncate(offset)
        clean_log, clean_meta = load_log(path, strict=False)
        assert "salvaged" not in clean_meta
        assert len(clean_log) == len(log)

    def test_journal_replay_reports_byte_offset(self, tmp_path):
        from repro.campaign.journal import Journal, replay_journal

        path = tmp_path / "campaign.journal"
        with Journal(str(path), meta={"matrix": "m"}) as journal:
            journal.append("lease", cell="c0", worker=1, attempt=1)
            journal.append("done", cell="c0", outcome={"status": "ok"})
        raw = path.read_bytes()
        offset = len(raw) - len(raw.splitlines(keepends=True)[-1])
        path.write_bytes(raw[: offset + 10])
        replay = replay_journal(str(path))
        assert replay.truncated
        assert replay.dropped == 1
        assert replay.corrupt_byte_offset == offset
        assert [r["type"] for r in replay.records] == ["lease"]

    def test_clean_journal_has_no_offset(self, tmp_path):
        from repro.campaign.journal import Journal, replay_journal

        path = tmp_path / "campaign.journal"
        with Journal(str(path), meta={}) as journal:
            journal.append("lease", cell="c0", worker=1, attempt=1)
        replay = replay_journal(str(path))
        assert not replay.truncated
        assert replay.corrupt_byte_offset == -1
