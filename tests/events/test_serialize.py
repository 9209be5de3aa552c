"""Trace serialization round-trip tests."""

import dataclasses
import io
import json

import pytest

from helpers import run_main

from repro.analysis.dynamic_.hybrid import analyze
from repro.errors import AnalysisError
from repro.events import (
    BarrierEvent,
    CollectiveArrive,
    ErrorHandlerEvent,
    EventLog,
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
    dump_log,
    load_log,
)
from repro.events.serialize import _TYPES
from repro.home import Home
from repro.violations import CONCURRENT_RECV, match_violations
from repro.workloads.case_studies import case_study_2


def roundtrip(log, metadata=None):
    buf = io.StringIO()
    dump_log(log, buf, metadata=metadata)
    buf.seek(0)
    return load_log(buf)


class TestRoundTrip:
    def test_empty_log(self):
        log, meta = roundtrip(EventLog())
        assert len(log) == 0 and meta == {}

    def test_metadata_preserved(self):
        _, meta = roundtrip(EventLog(), metadata={"program": "x", "seed": 3})
        assert meta == {"program": "x", "seed": 3}

    def test_all_event_types_roundtrip(self):
        body = """
var x = 0;
omp parallel num_threads(2) {
    omp critical { x = x + 1; }
    omp barrier;
}
"""
        result = run_main(body, monitor_memory=True)
        loaded, _ = roundtrip(result.log)
        assert len(loaded) == len(result.log)
        assert loaded.counts() == result.log.counts()
        for original, reloaded in zip(result.log, loaded):
            assert original == reloaded

    def test_mpi_events_roundtrip_with_args(self):
        report = Home().check(case_study_2(), nprocs=2)
        loaded, _ = roundtrip(report.execution.log)
        originals = report.execution.log.mpi_calls(0)
        reloadeds = loaded.mpi_calls(0)
        assert len(originals) == len(reloadeds)
        for a, b in zip(originals, reloadeds):
            assert (a.op, a.call_id, a.args.get("tag")) == (
                b.op, b.call_id, b.args.get("tag")
            )

    def test_reanalysis_of_loaded_trace_reproduces_verdict(self):
        """The offline pipeline works from a file exactly as from memory."""
        report = Home().check(case_study_2(), nprocs=2)
        loaded, _ = roundtrip(report.execution.log)
        violations = match_violations(loaded, analyze(loaded))
        assert CONCURRENT_RECV in violations.classes()
        assert len(violations) == len(report.violations)

    def test_file_based_roundtrip(self, tmp_path):
        report = Home().check(case_study_2(), nprocs=2)
        path = tmp_path / "run.trace"
        dump_log(report.execution.log, path, metadata={"k": 1})
        loaded, meta = load_log(path)
        assert meta == {"k": 1}
        assert len(loaded) == len(report.execution.log)


#: one event of every serialized type, with non-default field values
ONE_OF_EACH = [
    MemAccess(0, 1, 0, 1.5, True, 7, "x", 12, 3),
    MonitoredWrite(1, 0, 1, 2.0, MonitoredKind.TAG, 4, "mpi_recv", 9, "3:5", 2),
    LockAcquire(0, 1, 2, 2.5, "critical:<anonymous>"),
    LockRelease(0, 1, 3, 3.0, "omp_lock:l"),
    BarrierEvent(0, 2, 4, 3.5, 1, 2),
    CollectiveArrive(0, 2, 5, 4.0, 1, "mpi", "mpi_bcast", 14, "8:1", 3),
    ThreadFork(0, 0, 6, 4.5, 1, (1, 2)),
    ThreadJoin(0, 0, 7, 5.0, 1, (1, 2)),
    ThreadBegin(0, 1, 8, 5.5, 1, 0),
    ThreadEnd(0, 1, 9, 6.0, 1),
    MPICall(1, 0, 10, 6.5, "mpi_send", "end", 5, 11, "4:2", False, True,
            {"dest": 1, "tag": 2}),
    FaultEvent(1, 0, 11, 7.0, "delay", "held 2 ticks", "mpi_recv"),
    MPIErrorEvent(1, 0, 12, 7.5, "mpi_recv", 3, "MPI_ERR_PROC_FAILED", 75,
                  "return", "peer 0 died"),
    ErrorHandlerEvent(1, 0, 13, 8.0, "exit", 3, 75, "on_error"),
]


def reference_line(event):
    """One trace line built from ``dataclasses.fields`` on the event."""
    out = {"t": type(event).__name__}
    for f in dataclasses.fields(event):
        value = getattr(event, f.name)
        if isinstance(value, MonitoredKind):
            value = value.name
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return json.dumps(out) + "\n"


class TestEventLines:
    def test_every_type_is_covered(self):
        assert {type(e) for e in ONE_OF_EACH} == set(_TYPES.values())

    def test_lines_match_a_dataclasses_fields_reference(self):
        log = EventLog()
        log.extend(ONE_OF_EACH)
        buf = io.StringIO()
        dump_log(log, buf)
        lines = buf.getvalue().splitlines(keepends=True)[1:]
        assert lines == [reference_line(e) for e in ONE_OF_EACH]

    def test_lines_load_back_equal(self):
        log = EventLog()
        log.extend(ONE_OF_EACH)
        loaded, _ = roundtrip(log)
        assert list(loaded) == ONE_OF_EACH


class TestErrors:
    def test_empty_file_rejected(self):
        with pytest.raises(AnalysisError, match="empty trace"):
            load_log(io.StringIO(""))

    def test_wrong_format_rejected(self):
        with pytest.raises(AnalysisError, match="not a repro trace"):
            load_log(io.StringIO('{"format": "other"}\n'))

    def test_wrong_version_rejected(self):
        with pytest.raises(AnalysisError, match="unsupported trace version"):
            load_log(io.StringIO('{"format": "repro-trace", "version": 99}\n'))

    def test_unknown_event_type_rejected(self):
        data = (
            '{"format": "repro-trace", "version": 1}\n'
            '{"t": "Mystery", "proc": 0}\n'
        )
        with pytest.raises(AnalysisError, match="unknown event type"):
            load_log(io.StringIO(data))

    def test_malformed_record_rejected(self):
        data = (
            '{"format": "repro-trace", "version": 1}\n'
            '{"t": "LockAcquire", "bogus_field": 1}\n'
        )
        with pytest.raises(AnalysisError, match="malformed"):
            load_log(io.StringIO(data))


class TestTruncatedTraceSalvage:
    """A run killed mid-write leaves a damaged trailing line."""

    def truncated_trace(self, tmp_path):
        report = Home().check(case_study_2(), nprocs=2)
        path = tmp_path / "run.trace"
        dump_log(report.execution.log, path, metadata={"seed": 0})
        lines = path.read_text().splitlines()
        assert len(lines) > 10
        # chop the last record in half, as an interrupted write would
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        path.write_text("\n".join(lines) + "\n")
        return path, len(lines)

    def test_strict_load_names_the_bad_line(self, tmp_path):
        path, total = self.truncated_trace(tmp_path)
        with pytest.raises(AnalysisError, match="corrupt trace line"):
            load_log(path)

    def test_tolerant_load_salvages_valid_prefix(self, tmp_path):
        path, total = self.truncated_trace(tmp_path)
        log, meta = load_log(path, strict=False)
        assert meta["salvaged"] is True
        assert meta["dropped_lines"] == 1
        assert meta["seed"] == 0
        # header + salvaged events + dropped line account for the file
        assert len(log) == total - 1 - meta["dropped_lines"]

    def test_tolerant_load_drops_suffix_after_first_bad_line(self, tmp_path):
        path, total = self.truncated_trace(tmp_path)
        with open(path, "a") as fh:
            fh.write('{"also": "suspect"}\n')
        log, meta = load_log(path, strict=False)
        assert meta["dropped_lines"] == 2
        assert len(log) == total - 1 - 1

    def test_tolerant_load_of_clean_trace_is_unmarked(self, tmp_path):
        report = Home().check(case_study_2(), nprocs=2)
        path = tmp_path / "run.trace"
        dump_log(report.execution.log, path)
        _, meta = load_log(path, strict=False)
        assert "salvaged" not in meta


class TestSeqOrder:
    """The replay takes seqs as clock epochs: a trace whose seqs fail to
    increase is damaged like a corrupt line."""

    def disordered_trace(self, tmp_path, swap_at=5):
        report = Home().check(case_study_2(), nprocs=2)
        path = tmp_path / "run.trace"
        dump_log(report.execution.log, path)
        lines = path.read_text().splitlines()
        # event lines start at line 2; swapping two makes the seq drop
        lines[swap_at], lines[swap_at + 1] = lines[swap_at + 1], lines[swap_at]
        path.write_text("\n".join(lines) + "\n")
        return path, len(lines), swap_at

    def test_strict_load_names_the_line(self, tmp_path):
        path, _total, swap_at = self.disordered_trace(tmp_path)
        with pytest.raises(AnalysisError) as err:
            load_log(path)
        message = str(err.value)
        assert "\n" not in message
        assert message.startswith(f"corrupt trace line {swap_at + 2} ")
        assert "does not increase" in message

    def test_repeated_seq_rejected(self, tmp_path):
        log = EventLog()
        for _ in range(2):
            log.append(LockAcquire(0, 0, 3, 0.0, lock="L"))
        path = tmp_path / "repeat.trace"
        dump_log(log, path)
        with pytest.raises(AnalysisError, match="corrupt trace line 3 .*seq 3"):
            load_log(path)

    def test_tolerant_load_salvages_the_prefix(self, tmp_path):
        path, total, swap_at = self.disordered_trace(tmp_path)
        log, meta = load_log(path, strict=False)
        assert meta["salvaged"] is True
        # lines[1 .. swap_at] were events in order; the swapped-in later
        # event at swap_at stays, the one after it is where seqs drop
        assert len(log) == swap_at
        assert meta["dropped_lines"] == total - 1 - swap_at
        seqs = [event.seq for event in log]
        assert seqs == sorted(set(seqs))
        assert log.next_seq() == seqs[-1] + 1
