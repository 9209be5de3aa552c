"""Property-based tests (hypothesis) on core data structures and invariants."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis.dynamic_.lockset import LocksetAnalysis
from repro.analysis.dynamic_.vectorclock import VectorClock, join_all
from repro.minilang import ast_equal, parse, print_program
from repro.mpi.constants import MPI_ANY_SOURCE, MPI_ANY_TAG
from repro.mpi.message import Mailbox, Message
from repro.omp.team import BarrierState, ForState, static_chunks
from repro.runtime.scheduler import Scheduler, Step

import numpy as np

# ---------------------------------------------------------------------------
# Vector clocks
# ---------------------------------------------------------------------------

clocks = st.dictionaries(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=20),
    max_size=6,
).map(VectorClock)


class TestVectorClockLaws:
    @given(clocks)
    def test_leq_reflexive(self, a):
        assert a.leq(a)

    @given(clocks, clocks)
    def test_antisymmetry(self, a, b):
        if a.leq(b) and b.leq(a):
            assert a == b

    @given(clocks, clocks, clocks)
    def test_transitivity(self, a, b, c):
        if a.leq(b) and b.leq(c):
            assert a.leq(c)

    @given(clocks, clocks)
    def test_join_is_upper_bound(self, a, b):
        j = a.join(b)
        assert a.leq(j) and b.leq(j)

    @given(clocks, clocks)
    def test_join_commutative(self, a, b):
        assert a.join(b) == b.join(a)

    @given(clocks, clocks, clocks)
    def test_join_associative(self, a, b, c):
        assert a.join(b).join(c) == a.join(b.join(c))

    @given(clocks)
    def test_join_idempotent(self, a):
        assert a.join(a) == a

    @given(clocks, st.integers(min_value=0, max_value=6))
    def test_tick_strictly_increases(self, a, tid):
        b = a.tick(tid)
        assert a.happens_before(b)

    @given(clocks, clocks)
    def test_trichotomy(self, a, b):
        """Exactly one of: a<b, b<a, a==b, concurrent."""
        relations = [
            a.happens_before(b),
            b.happens_before(a),
            a == b,
            a.concurrent(b),
        ]
        assert sum(bool(r) for r in relations) == 1


# ---------------------------------------------------------------------------
# Lockset analysis
# ---------------------------------------------------------------------------

lock_names = st.sets(st.sampled_from(["A", "B", "C", "D"]), max_size=3).map(frozenset)
accesses = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=4),  # thread
        lock_names,
        st.booleans(),                          # is_write
    ),
    min_size=1,
    max_size=25,
)


class TestLocksetLaws:
    @given(accesses)
    def test_candidate_is_intersection_of_all_locksets(self, seq):
        ls = LocksetAnalysis()
        for i, (thread, locks, is_write) in enumerate(seq):
            ls.access("v", i, thread, locks, is_write)
        loc = ls.locations["v"]
        expected = seq[0][1]
        for _, locks, _ in seq[1:]:
            expected &= locks
        assert loc.candidate == expected

    @given(accesses)
    def test_candidate_monotonically_shrinks(self, seq):
        ls = LocksetAnalysis()
        previous = None
        for i, (thread, locks, is_write) in enumerate(seq):
            loc = ls.access("v", i, thread, locks, is_write)
            if previous is not None:
                assert loc.candidate <= previous
            previous = loc.candidate

    @given(accesses)
    def test_racy_pairs_symmetric_in_threads(self, seq):
        ls = LocksetAnalysis()
        for i, (thread, locks, is_write) in enumerate(seq):
            ls.access("v", i, thread, locks, is_write)
        for a, b in ls.racy_pairs("v"):
            assert a.thread != b.thread
            assert a.is_write or b.is_write
            assert not (a.locks & b.locks)

    @given(accesses)
    def test_race_candidate_implies_multiple_threads_and_writer(self, seq):
        ls = LocksetAnalysis()
        for i, (thread, locks, is_write) in enumerate(seq):
            ls.access("v", i, thread, locks, is_write)
        loc = ls.locations["v"]
        if loc.is_race_candidate:
            assert len(loc.threads) >= 2
            assert loc.writers


# ---------------------------------------------------------------------------
# Message matching
# ---------------------------------------------------------------------------

envelopes = st.tuples(
    st.integers(min_value=0, max_value=3),   # src
    st.integers(min_value=0, max_value=3),   # tag
)


class TestMatchingLaws:
    @given(st.lists(envelopes, min_size=1, max_size=20))
    def test_non_overtaking_per_envelope(self, sends):
        """Taking repeatedly with one envelope yields that envelope's
        messages in send order."""
        box = Mailbox(0, 0)
        for i, (src, tag) in enumerate(sends):
            box.deliver(Message(
                src=src, dst=0, tag=tag, comm=0,
                payload=np.asarray([float(i)]), sent_time=0.0, avail_time=0.0,
                msg_id=i + 1,
            ))
        for src, tag in set(sends):
            taken = []
            while (m := box.take(src, tag)) is not None:
                taken.append(float(m.payload[0]))
            assert taken == sorted(taken)

    @given(st.lists(envelopes, min_size=1, max_size=20))
    def test_wildcard_take_drains_everything_in_order(self, sends):
        box = Mailbox(0, 0)
        for i, (src, tag) in enumerate(sends):
            box.deliver(Message(
                src=src, dst=0, tag=tag, comm=0,
                payload=np.asarray([float(i)]), sent_time=0.0, avail_time=0.0,
                msg_id=i + 1,
            ))
        order = []
        while (m := box.take(MPI_ANY_SOURCE, MPI_ANY_TAG)) is not None:
            order.append(float(m.payload[0]))
        assert order == list(range(len(sends)))

    @given(st.lists(envelopes, max_size=12), envelopes)
    def test_find_take_consistency(self, sends, probe_env):
        box = Mailbox(0, 0)
        for i, (src, tag) in enumerate(sends):
            box.deliver(Message(
                src=src, dst=0, tag=tag, comm=0,
                payload=np.asarray([float(i)]), sent_time=0.0, avail_time=0.0,
                msg_id=i + 1,
            ))
        src, tag = probe_env
        found = box.find(src, tag)
        taken = box.take(src, tag)
        assert found is taken


# ---------------------------------------------------------------------------
# Worksharing
# ---------------------------------------------------------------------------


class TestWorksharingLaws:
    @given(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=6),
        st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
    )
    def test_static_chunks_partition_iterations(self, n, nthreads, chunk):
        iterations = list(range(n))
        pieces = [
            static_chunks(iterations, nthreads, t, chunk) for t in range(nthreads)
        ]
        flat = [i for piece in pieces for i in piece]
        assert sorted(flat) == iterations

    @given(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=4),
    )
    def test_dynamic_grab_partitions_iterations(self, n, nthreads, chunk):
        state = ForState(tuple(range(n)))
        grabbed = []
        while True:
            batch = state.grab(chunk)
            if not batch:
                break
            grabbed.extend(batch)
        assert grabbed == list(range(n))

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=4))
    def test_barrier_epochs_advance(self, size, rounds):
        barrier = BarrierState(size)
        for r in range(rounds):
            epochs = [barrier.arrive(float(i)) for i in range(size)]
            assert epochs == [r] * size
            assert all(barrier.passed(e) for e in epochs)


# ---------------------------------------------------------------------------
# Parser / printer round trip on generated programs
# ---------------------------------------------------------------------------

_names = st.sampled_from(["x", "y", "z", "acc"])
_ints = st.integers(min_value=0, max_value=99)


def _expr_text(draw_depth=0):
    return st.recursive(
        _ints.map(str) | _names,
        lambda inner: st.tuples(
            inner, st.sampled_from(["+", "-", "*", "<", "=="]), inner
        ).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        max_leaves=6,
    )


_stmts = st.recursive(
    st.one_of(
        st.tuples(_names, _expr_text()).map(lambda t: f"{t[0]} = {t[1]};"),
        _expr_text().map(lambda e: f"print({e});"),
        st.just("compute(1);"),
        st.just("omp barrier;"),
    ),
    lambda inner: st.one_of(
        st.tuples(_expr_text(), st.lists(inner, max_size=3)).map(
            lambda t: "if (%s) {\n%s\n}" % (t[0], "\n".join(t[1]))
        ),
        st.lists(inner, max_size=3).map(
            lambda body: "omp critical {\n%s\n}" % "\n".join(body)
        ),
    ),
    max_leaves=8,
)


class TestRoundTripProperty:
    @given(st.lists(_stmts, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_generated_programs_roundtrip(self, stmts):
        decls = "var x = 0;\nvar y = 0;\nvar z = 0;\nvar acc = 0;\n"
        src = f"program gen;\nfunc main() {{\n{decls}{chr(10).join(stmts)}\n}}"
        prog = parse(src)
        printed = print_program(prog)
        assert ast_equal(prog, parse(printed))
        assert print_program(parse(printed)) == printed


# ---------------------------------------------------------------------------
# Scheduler determinism
# ---------------------------------------------------------------------------


class TestSchedulerDeterminismProperty:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_same_seed_same_trace(self, seed, ntasks):
        def trace():
            log = []
            sched = Scheduler(seed=seed)
            for t in range(ntasks):
                def gen(name=t):
                    for i in range(4):
                        log.append((name, i))
                        yield Step(1.0)
                sched.spawn(f"t{t}", 0, t, gen())
            sched.run()
            return log

        assert trace() == trace()
