"""Campaign journal tests: CRC envelopes, replay, shared tail salvage.

The journal and the event-trace loader deliberately share one
tail-truncation policy (:mod:`repro.jsonlines`): trust the valid
prefix, drop the first undecodable line and everything after it.  The
regression tests here cut files mid-record — the exact damage a
``kill -9`` during an append leaves behind.
"""

import json

import pytest

from repro.campaign import (
    JOURNAL_FORMAT,
    Journal,
    RunOutcome,
    replay_journal,
)
from repro.campaign.journal import decode_journal_line, encode_journal_line
from repro.errors import AnalysisError
from repro.jsonlines import read_json_lines


class TestJournalLine:
    def test_round_trip(self):
        rec = {"type": "done", "cell": "0/none", "outcome": {"seed": 0}}
        assert decode_journal_line(encode_journal_line(rec)) == rec

    def test_round_trip_preserves_key_order(self):
        # resumed outcomes must re-serialize byte-identically, so the
        # stored record keeps insertion order (only the CRC is canonical)
        rec = {"type": "done", "zeta": 1, "alpha": 2}
        assert list(decode_journal_line(encode_journal_line(rec))) == [
            "type", "zeta", "alpha",
        ]

    def test_bit_flip_fails_crc(self):
        line = encode_journal_line({"type": "lease", "cell": "0/none"})
        damaged = line.replace("0/none", "1/none")
        with pytest.raises(ValueError, match="CRC mismatch"):
            decode_journal_line(damaged)

    def test_missing_envelope_rejected(self):
        with pytest.raises(ValueError, match="envelope"):
            decode_journal_line(json.dumps({"type": "lease"}))

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            decode_journal_line('{"crc": 1, "rec"')


class TestJournalFile:
    def write_sample(self, path):
        with Journal(str(path), {"program": "p"}, fresh=True) as journal:
            journal.append("lease", cell="0/none", worker="w0", attempt=1)
            journal.append(
                "done", cell="0/none",
                outcome=RunOutcome(seed=0, plan="none").as_dict(),
            )
            journal.append("lease", cell="1/none", worker="w0", attempt=1)

    def test_replay_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self.write_sample(path)
        replay = replay_journal(str(path))
        assert replay.meta == {"program": "p"}
        assert [r["type"] for r in replay.records] == ["lease", "done", "lease"]
        assert not replay.truncated

    def test_append_reopens_existing_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self.write_sample(path)
        with Journal(str(path), {"program": "p"}) as journal:
            journal.append("release", cell="1/none")
        replay = replay_journal(str(path))
        assert [r["type"] for r in replay.records][-1] == "release"
        # no second header was written
        assert sum(
            1 for line in path.read_text().splitlines()
            if '"header"' in line
        ) == 1

    def test_cut_mid_record_salvages_prefix(self, tmp_path):
        # regression: a journal cut mid-record (kill -9 during append)
        # must replay its valid prefix and report the dropped tail
        path = tmp_path / "j.jsonl"
        self.write_sample(path)
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        path.write_text("\n".join(lines) + "\n")
        replay = replay_journal(str(path))
        assert [r["type"] for r in replay.records] == ["lease", "done"]
        assert replay.truncated
        assert replay.dropped == 1

    def test_damage_drops_suffix_too(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self.write_sample(path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-5]  # damage the first post-header record
        path.write_text("\n".join(lines) + "\n")
        replay = replay_journal(str(path))
        assert replay.records == []
        assert replay.dropped == 3

    def test_unreadable_header_is_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"torn')
        with pytest.raises(AnalysisError, match="no readable header"):
            replay_journal(str(path))

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            encode_journal_line({"type": "header", "format": "other"}) + "\n"
        )
        with pytest.raises(AnalysisError, match="not a campaign journal"):
            replay_journal(str(path))

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            encode_journal_line(
                {"type": "header", "format": JOURNAL_FORMAT,
                 "schema_version": 99}
            ) + "\n"
        )
        with pytest.raises(AnalysisError, match="schema_version 99"):
            replay_journal(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(AnalysisError, match="cannot read"):
            replay_journal(str(tmp_path / "absent.jsonl"))


class TestSharedTailPolicy:
    """The journal and load_log really use one salvage helper."""

    def test_same_helper_same_arithmetic(self, tmp_path):
        # five decodable lines, one damaged, two after it: both callers
        # must keep 5 and drop 3
        lines = [json.dumps({"i": i}) for i in range(5)]
        lines += ['{"cut', json.dumps({"i": 9}), "trailing garbage"]
        path = tmp_path / "f.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with open(path) as fh:
            records, truncation = read_json_lines(fh, json.loads)
        assert [r["i"] for r in records] == [0, 1, 2, 3, 4]
        assert truncation.dropped == 3
        assert truncation.lineno == 6

    def test_blank_lines_skipped_not_counted(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"i": 0}\n\n{"i": 1}\n')
        with open(path) as fh:
            records, truncation = read_json_lines(fh, json.loads)
        assert len(records) == 2
        assert truncation is None
