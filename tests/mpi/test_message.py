"""Mailbox / envelope-matching unit tests."""

import numpy as np
import pytest

from repro.mpi.constants import MPI_ANY_SOURCE, MPI_ANY_TAG
from repro.mpi.message import Mailbox, Message, envelope_matches
from repro.mpi.world import MPIWorld


def msg(src=0, tag=1, comm=0, payload=(1.0,), sent=0.0, msg_id=1):
    return Message(
        src=src, dst=1, tag=tag, comm=comm,
        payload=np.asarray(payload), sent_time=sent, avail_time=sent + 1.0,
        msg_id=msg_id,
    )


class TestEnvelopeMatching:
    def test_exact_match(self):
        assert envelope_matches(msg(src=2, tag=7), 2, 7)

    def test_source_mismatch(self):
        assert not envelope_matches(msg(src=2, tag=7), 3, 7)

    def test_tag_mismatch(self):
        assert not envelope_matches(msg(src=2, tag=7), 2, 8)

    def test_any_source_wildcard(self):
        assert envelope_matches(msg(src=5, tag=7), MPI_ANY_SOURCE, 7)

    def test_any_tag_wildcard(self):
        assert envelope_matches(msg(src=5, tag=7), 5, MPI_ANY_TAG)

    def test_double_wildcard(self):
        assert envelope_matches(msg(src=5, tag=7), MPI_ANY_SOURCE, MPI_ANY_TAG)


class TestMailbox:
    def test_deliver_and_take(self):
        box = Mailbox(1, 0)
        m = msg()
        box.deliver(m)
        taken = box.take(0, 1)
        assert taken is m
        assert taken.consumed
        assert len(box) == 0

    def test_take_no_match_returns_none(self):
        box = Mailbox(1, 0)
        box.deliver(msg(tag=1))
        assert box.take(0, 2) is None
        assert len(box) == 1

    def test_find_does_not_consume(self):
        box = Mailbox(1, 0)
        box.deliver(msg())
        assert box.find(0, 1) is not None
        assert len(box) == 1

    def test_non_overtaking_same_envelope(self):
        """Messages from one sender with one tag match in send order."""
        box = Mailbox(1, 0)
        first = msg(payload=(1.0,))
        second = msg(payload=(2.0,))
        box.deliver(first)
        box.deliver(second)
        assert box.take(0, 1) is first
        assert box.take(0, 1) is second

    def test_matching_skips_non_matching_earlier_message(self):
        box = Mailbox(1, 0)
        other = msg(tag=9)
        wanted = msg(tag=1)
        box.deliver(other)
        box.deliver(wanted)
        assert box.take(0, 1) is wanted
        assert box.take(0, 9) is other

    def test_wildcard_takes_earliest(self):
        box = Mailbox(1, 0)
        a = msg(src=0, tag=1)
        b = msg(src=2, tag=3)
        box.deliver(a)
        box.deliver(b)
        assert box.take(MPI_ANY_SOURCE, MPI_ANY_TAG) is a

    def test_delivered_counter(self):
        box = Mailbox(1, 0)
        box.deliver(msg())
        box.deliver(msg())
        box.take(0, 1)
        assert box.delivered == 2

    def test_message_ids_unique(self):
        """Ids are distinct within one world and restart at 1 in a new
        one (0 means "no message" to the trace analyses)."""
        def send_ids(world, n):
            return [
                world.post_send(0, 1, 0, 0, np.zeros(1), 0.0, 1.0, 0.0).msg_id
                for _ in range(n)
            ]

        assert send_ids(MPIWorld(2), 3) == [1, 2, 3]
        assert send_ids(MPIWorld(2), 1) == [1]

    def test_message_count_property(self):
        assert msg(payload=(1.0, 2.0, 3.0)).count == 3
