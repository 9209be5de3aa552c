"""Vector-clock algebra tests."""

from functools import reduce

import pytest

from repro.analysis.dynamic_.vectorclock import VectorClock


def strictly_before(a, b):
    return a.leq(b) and not b.leq(a)


def incomparable(a, b):
    return not a.leq(b) and not b.leq(a)


class TestBasics:
    def test_empty_clock_is_zero(self):
        assert VectorClock().get(3) == 0

    def test_tick_returns_new_clock(self):
        a = VectorClock()
        b = a.tick(1)
        assert a.get(1) == 0 and b.get(1) == 1

    def test_join_pointwise_max(self):
        a = VectorClock({1: 3, 2: 1})
        b = VectorClock({1: 2, 3: 5})
        j = a.join(b)
        assert (j.get(1), j.get(2), j.get(3)) == (3, 1, 5)

    def test_join_does_not_mutate(self):
        a = VectorClock({1: 1})
        b = VectorClock({1: 5})
        a.join(b)
        assert a.get(1) == 1


class TestOrdering:
    def test_leq_reflexive(self):
        a = VectorClock({1: 2})
        assert a.leq(a)

    def test_happens_before_strict(self):
        a = VectorClock({1: 1})
        b = VectorClock({1: 2})
        assert strictly_before(a, b)
        assert not strictly_before(b, a)
        assert not strictly_before(a, a)

    def test_concurrent_when_incomparable(self):
        a = VectorClock({1: 2, 2: 0})
        b = VectorClock({1: 0, 2: 2})
        assert incomparable(a, b) and incomparable(b, a)

    def test_ordered_not_concurrent(self):
        a = VectorClock({1: 1})
        b = a.tick(2)
        assert not incomparable(a, b)

    def test_missing_components_treated_as_zero(self):
        a = VectorClock({})
        b = VectorClock({5: 1})
        assert a.leq(b)
        assert not b.leq(a)


class TestEqualityHash:
    def test_equality_ignores_explicit_zeros(self):
        assert VectorClock({1: 0, 2: 3}) == VectorClock({2: 3})

    def test_hash_consistent_with_eq(self):
        a = VectorClock({1: 0, 2: 3})
        b = VectorClock({2: 3})
        assert hash(a) == hash(b)

    def test_not_equal_other_type(self):
        assert VectorClock({}) != 42


class TestJoinAll:
    def test_join_all_empty(self):
        assert reduce(VectorClock.join, [], VectorClock()) == VectorClock()

    def test_join_all_many(self):
        clocks = [VectorClock({i: i}) for i in range(1, 5)]
        j = reduce(VectorClock.join, clocks, VectorClock())
        assert all(j.get(i) == i for i in range(1, 5))

    def test_join_is_least_upper_bound(self):
        a = VectorClock({1: 2})
        b = VectorClock({2: 3})
        j = a.join(b)
        assert a.leq(j) and b.leq(j)
