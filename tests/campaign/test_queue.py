"""Durable work-queue tests: lease semantics, dedup, poison quarantine.

Property-style coverage of the campaign service's core invariants:

* an expired lease is reclaimed **exactly once** per death;
* a reclaimed-then-completed cell deduplicates deterministically
  (first recorded result wins);
* a cell that crashes more than ``poison_retries`` times is
  quarantined instead of stalling the queue;
* journal replay reconstructs the exact same state the live queue had.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.campaign import (
    CellTask,
    DurableWorkQueue,
    Journal,
    RunOutcome,
    STATUS_QUARANTINED,
    cell_key,
    replay_journal,
)


def make_cells(n=4, plan="none"):
    return [CellTask(i, i, plan, None) for i in range(n)]


def outcome_for(task, tag="ok"):
    return RunOutcome(seed=task.seed, plan=task.plan_name, status="ok",
                      events=task.index * 10, failure=tag)


class TestLeasing:
    def test_acquire_lowest_index_first(self):
        q = DurableWorkQueue(make_cells(3))
        assert q.acquire("w0", 0.0).task.index == 0
        assert q.acquire("w1", 0.0).task.index == 1
        assert q.acquire("w2", 0.0).task.index == 2
        assert q.acquire("w3", 0.0) is None

    def test_leased_cell_not_reacquired(self):
        q = DurableWorkQueue(make_cells(1))
        assert q.acquire("w0", 0.0) is not None
        assert q.acquire("w1", 0.0) is None

    def test_heartbeat_extends_lease(self):
        q = DurableWorkQueue(make_cells(1), lease_seconds=10.0)
        lease = q.acquire("w0", 0.0)
        q.heartbeat(0, 8.0)
        # the supervisor reclaims a slot's lease once expires_at <= now
        assert not lease.expires_at <= 15.0  # 8 + 10 > 15
        assert lease.expires_at <= 19.0
        assert q.record_crash(0) is False
        assert q.crashes[0] == 1

    def test_expired_lease_reclaimed_exactly_once(self):
        q = DurableWorkQueue(make_cells(1), lease_seconds=1.0)
        lease = q.acquire("w0", 0.0)
        assert lease.expires_at <= 5.0
        assert q.record_crash(0) is False
        # the same death must not be double-counted
        assert q.record_crash(0) is False
        assert q.crashes[0] == 1

    def test_release_is_not_a_crash(self):
        q = DurableWorkQueue(make_cells(1))
        q.acquire("w0", 0.0)
        q.release(0)
        assert q.crashes.get(0) is None
        # the cell is schedulable again
        assert q.acquire("w1", 0.0).task.index == 0

    def test_reclaimed_cell_reacquirable_with_bumped_attempt(self):
        q = DurableWorkQueue(make_cells(1))
        first = q.acquire("w0", 0.0)
        assert first.attempt == 1
        q.record_crash(0)
        second = q.acquire("w1", 0.0)
        assert second.attempt == 2


class TestDedup:
    def test_duplicate_completion_first_wins(self):
        q = DurableWorkQueue(make_cells(1))
        task = q.cells[0]
        q.acquire("w0", 0.0)
        q.record_crash(0)  # w0 presumed dead, cell handed to w1
        q.acquire("w1", 0.0)
        assert q.complete(0, outcome_for(task, tag="first")) is True
        # w0 was merely slow, not dead: its late result is dropped
        assert q.complete(0, outcome_for(task, tag="second")) is False
        assert q.outcomes[0].failure == "first"

    def test_complete_after_quarantine_is_duplicate(self):
        q = DurableWorkQueue(make_cells(1), poison_retries=0)
        task = q.cells[0]
        q.acquire("w0", 0.0)
        assert q.record_crash(0) is True  # quarantined at cap 0
        assert q.complete(0, outcome_for(task)) is False
        assert q.quarantined[0].status == STATUS_QUARANTINED


class TestQuarantine:
    def test_quarantined_after_cap_plus_one_crashes(self):
        q = DurableWorkQueue(make_cells(1), poison_retries=2)
        for expect in (False, False, True):
            q.acquire("w", 0.0)
            assert q.record_crash(0) is expect
        assert q.quarantined[0].status == STATUS_QUARANTINED
        assert q.all_resolved()
        # quarantined cells are never rescheduled
        assert q.acquire("w", 0.0) is None

    def test_quarantine_outcome_is_deterministic(self):
        def poisoned():
            q = DurableWorkQueue(make_cells(1), poison_retries=1)
            for _ in range(2):
                q.acquire("w", 0.0)
                q.record_crash(0)
            return q.quarantined[0]

        assert poisoned().as_dict() == poisoned().as_dict()

    def test_queue_never_stalls_on_poison_cell(self):
        q = DurableWorkQueue(make_cells(3), poison_retries=0)
        while not q.all_resolved():
            lease = q.acquire("w", 0.0)
            assert lease is not None, "queue stalled"
            if lease.task.index == 1:
                q.record_crash(1)
            else:
                q.complete(lease.task.index, outcome_for(lease.task))
        statuses = [o.status for o in q.outcome_list()]
        assert statuses == ["ok", STATUS_QUARANTINED, "ok"]


class TestJournalRestore:
    def run_with_journal(self, path, script):
        q = DurableWorkQueue(
            make_cells(3), Journal(str(path), {"m": 1}, fresh=True),
            poison_retries=1,
        )
        script(q)
        q.journal.close()
        return q

    def restore(self, path, poison_retries=1):
        q = DurableWorkQueue(make_cells(3), poison_retries=poison_retries)
        q.restore(replay_journal(str(path)))
        return q

    def test_replay_rebuilds_outcomes_and_crashes(self, tmp_path):
        path = tmp_path / "j.jsonl"

        def script(q):
            lease = q.acquire("w0", 0.0)
            q.complete(0, outcome_for(lease.task))
            q.acquire("w0", 0.0)  # cell 1 leased, holder dies
            q.record_crash(1)
            q.acquire("w0", 0.0)  # cell 1 again, left open (kill -9)

        live = self.run_with_journal(path, script)
        restored = self.restore(path, poison_retries=2)
        assert restored.outcomes.keys() == live.outcomes.keys()
        assert restored.outcomes[0] == live.outcomes[0]
        # the reclaim plus the open lease both count as crashes
        assert restored.crashes == {1: 2}
        assert not restored.resolved(1)

    def test_open_lease_counts_as_crash(self, tmp_path):
        # a lease with no done/release/reclaim means its holder — the
        # coordinator included — died mid-cell
        path = tmp_path / "j.jsonl"
        self.run_with_journal(path, lambda q: q.acquire("serial", 0.0))
        restored = self.restore(path)
        assert restored.crashes == {0: 1}

    def test_released_lease_not_a_crash_on_replay(self, tmp_path):
        path = tmp_path / "j.jsonl"

        def script(q):
            q.acquire("w0", 0.0)
            q.release(0)

        self.run_with_journal(path, script)
        restored = self.restore(path)
        assert restored.crashes == {}

    def test_poison_cell_quarantined_across_restarts(self, tmp_path):
        # serial mode: a cell that hard-kills the coordinator leaves an
        # open lease per restart; by the cap-th restart the replay
        # itself quarantines it, so restarts converge instead of looping
        path = tmp_path / "j.jsonl"
        self.run_with_journal(path, lambda q: q.acquire("serial", 0.0))
        q2 = DurableWorkQueue(
            make_cells(3), Journal(str(path), {"m": 1}), poison_retries=1,
        )
        q2.restore(replay_journal(str(path)))
        q2.acquire("serial", 0.0)  # crashes again
        q2.journal.close()
        q3 = self.restore(path)
        assert q3.quarantined[0].status == STATUS_QUARANTINED
        assert q3.resolved(0)

    def test_quarantine_on_restore_is_journaled(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self.run_with_journal(path, lambda q: q.acquire("serial", 0.0))
        q2 = DurableWorkQueue(
            make_cells(3), Journal(str(path), {"m": 1}), poison_retries=0,
        )
        q2.restore(replay_journal(str(path)))
        assert q2.quarantined[0].status == STATUS_QUARANTINED
        q2.journal.close()
        types = [r["type"] for r in replay_journal(str(path)).records]
        assert "quarantine" in types

    def test_unknown_cells_skipped_with_warning(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self.run_with_journal(path, lambda q: q.acquire("w", 0.0))
        q = DurableWorkQueue([CellTask(0, 9, "other", None)])
        warnings = []
        q.restore(replay_journal(str(path)), warn=warnings.append)
        assert q.crashes == {}
        assert warnings and "outside the current matrix" in warnings[0]


class TestPropertyStyle:
    """Randomized schedules, invariant outcomes."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=0,
                    max_size=24))
    def test_any_crash_schedule_resolves_every_cell(self, crash_budget):
        # crash_budget[i] caps how often we crash the i-th granted lease
        # round-robin; whatever the schedule, the queue must resolve all
        # cells, and quarantine exactly those crashed past the cap
        cap = 1
        q = DurableWorkQueue(make_cells(4), poison_retries=cap)
        crashes = {}
        step = 0
        while not q.all_resolved():
            lease = q.acquire("w", 0.0)
            assert lease is not None, "queue stalled with work left"
            index = lease.task.index
            budget = crash_budget[step % len(crash_budget)] if crash_budget else 0
            step += 1
            if crashes.get(index, 0) < budget:
                crashes[index] = crashes.get(index, 0) + 1
                q.record_crash(index)
            else:
                q.complete(index, outcome_for(lease.task))
        for task in q.cells:
            crashed = crashes.get(task.index, 0)
            if crashed > cap:
                assert task.index in q.quarantined
            else:
                assert task.index in q.outcomes
        assert len(q.outcome_list()) == 4

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_journal_replay_matches_live_state(self, tmp_path_factory, data):
        # drive a journaled queue through a random op sequence, then
        # replay: outcomes, quarantines and crash tallies must match
        tmp = tmp_path_factory.mktemp("queue")
        path = tmp / "j.jsonl"
        q = DurableWorkQueue(
            make_cells(3), Journal(str(path), {}, fresh=True),
            poison_retries=1,
        )
        for _ in range(data.draw(st.integers(min_value=0, max_value=12))):
            if q.all_resolved():
                break
            lease = q.acquire("w", 0.0)
            if lease is None:
                break
            op = data.draw(st.sampled_from(["complete", "crash", "release"]))
            if op == "complete":
                q.complete(lease.task.index, outcome_for(lease.task))
            elif op == "crash":
                q.record_crash(lease.task.index)
            else:
                q.release(lease.task.index)
        q.journal.close()
        restored = DurableWorkQueue(make_cells(3), poison_retries=1)
        restored.restore(replay_journal(str(path)))
        assert restored.outcomes == q.outcomes
        assert restored.quarantined == q.quarantined
        assert {i: c for i, c in restored.crashes.items()} == {
            i: c for i, c in q.crashes.items() if c > 0
        }


class TestOutcomeOrder:
    def test_outcome_list_is_canonical_regardless_of_completion_order(self):
        q = DurableWorkQueue(make_cells(3))
        # complete out of order
        for index in (2, 0, 1):
            while True:
                lease = q.acquire("w", 0.0)
                if lease.task.index == index:
                    q.complete(index, outcome_for(lease.task))
                    # release the others we grabbed while hunting
                    for other in list(q._leases):
                        q.release(other)
                    break
        assert [o.seed for o in q.outcome_list()] == [0, 1, 2]

    def test_cell_key_matches_outcome_key(self):
        task = CellTask(0, 7, "crash", None)
        assert cell_key(task) == RunOutcome(seed=7, plan="crash").key
