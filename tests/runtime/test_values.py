"""Cells, arrays, scopes, operator semantics."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimAbort
from repro.runtime.values import MAX_ARRAY_SIZE, ArrayValue, BinOps, Cell, Scope, as_int, truthy


class TestCell:
    def test_unique_ids(self):
        """Cell ids are distinct across one run's scopes and restart at 1
        for a new run: a trace never depends on earlier runs."""
        run = Scope()
        child = Scope(parent=run)
        cids = [run.declare("a").cid, child.declare("a").cid, run.declare("b").cid]
        assert cids == [1, 2, 3]
        assert Scope().declare("a").cid == 1

    def test_root_scope_takes_the_run_counter(self):
        ids = itertools.count(1)
        ranks = [Scope(cell_ids=ids), Scope(cell_ids=ids)]
        cids = [Scope(parent=r).declare("x").cid for r in ranks]
        assert cids == [1, 2]

    def test_default_not_shared(self):
        assert not Cell(1, "a").shared


class TestArrayValue:
    def test_size_above_limit_aborts(self):
        with pytest.raises(SimAbort, match="exceeds the limit"):
            ArrayValue(MAX_ARRAY_SIZE + 1)

    def test_zero_initialized(self):
        arr = ArrayValue(4)
        assert arr.get(0) == 0.0 and len(arr) == 4

    def test_set_get(self):
        arr = ArrayValue(3)
        arr.set(1, 2.5)
        assert arr.get(1) == 2.5

    def test_out_of_bounds_read(self):
        with pytest.raises(SimAbort, match="out of bounds"):
            ArrayValue(2).get(2)

    def test_negative_index_rejected(self):
        with pytest.raises(SimAbort):
            ArrayValue(2).get(-1)

    def test_non_integer_index_rejected(self):
        with pytest.raises(SimAbort):
            ArrayValue(2).get(1.5)

    def test_negative_size_rejected(self):
        with pytest.raises(SimAbort):
            ArrayValue(-1)

    def test_snapshot_is_a_copy(self):
        arr = ArrayValue(2)
        snap = arr.snapshot()
        arr.set(0, 9)
        assert snap[0] == 0.0

    def test_load_truncates_to_capacity(self):
        arr = ArrayValue(2)
        arr.load(np.asarray([1.0, 2.0, 3.0]))
        assert list(arr.data) == [1.0, 2.0]

    def test_load_respects_count(self):
        arr = ArrayValue(4)
        arr.load(np.asarray([1.0, 2.0, 3.0]), count=2)
        assert list(arr.data) == [1.0, 2.0, 0.0, 0.0]


class _Float64Reference:
    """The float64-ndarray element semantics the list-backed
    :class:`ArrayValue` must keep (its earlier implementation)."""

    def __init__(self, size):
        self.data = np.zeros(size, dtype=np.float64)

    def get(self, index):
        self._check(index)
        return float(self.data[index])

    def set(self, index, value):
        self._check(index)
        self.data[index] = value

    def snapshot(self):
        return self.data.copy()

    def load(self, payload, count=None):
        n = len(payload) if count is None else min(count, len(payload))
        n = min(n, len(self.data))
        self.data[:n] = payload[:n]

    def _check(self, index):
        if not isinstance(index, (int, np.integer)):
            raise SimAbort(f"array index must be an integer, got {index!r}")
        if not 0 <= index < len(self.data):
            raise SimAbort(
                f"array index {index} out of bounds for array of size {len(self.data)}"
            )


_VALUES = st.one_of(
    st.integers(min_value=-(2**1100), max_value=2**1100),
    st.booleans(),
    st.floats(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.floats(allow_nan=False).map(repr),
    st.integers().map(str),
    st.text(max_size=6),
    st.just(ArrayValue(2)),
    # a bare ``return;`` yields None; an MPI broadcast can yield an ndarray
    st.none(),
    st.lists(st.floats(), max_size=2).map(np.asarray),
)
_INDICES = st.one_of(
    st.integers(min_value=-3, max_value=8),
    st.floats(min_value=-3, max_value=8),
    st.integers(min_value=-3, max_value=8).map(np.int64),
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), _INDICES, _VALUES),
        st.tuples(st.just("get"), _INDICES),
        st.tuples(
            st.just("load"),
            st.lists(st.floats(), max_size=7),
            st.one_of(st.none(), st.integers(min_value=1, max_value=7)),
        ),
    ),
    max_size=12,
)


def _outcome(fn, *args):
    """A call's result as comparable bits, or its error's type and text."""
    try:
        value = fn(*args)
    except Exception as err:  # noqa: BLE001 - the error is the outcome
        return ("raised", type(err), str(err))
    if isinstance(value, np.ndarray):
        return ("array", value.dtype, value.tobytes())
    return ("value", type(value), np.float64(value).tobytes())


class TestArrayValueAgainstFloat64Reference:
    @settings(max_examples=300, deadline=None)
    @given(size=st.integers(min_value=0, max_value=5), ops=_OPS)
    def test_same_values_and_errors(self, size, ops):
        arr, ref = ArrayValue(size), _Float64Reference(size)
        for op, *args in ops:
            if op == "load":
                payload, count = np.asarray(args[0], dtype=np.float64), args[1]
                args = [payload, count]
            got = _outcome(getattr(arr, op), *args)
            want = _outcome(getattr(ref, op), *args)
            assert got == want, (op, args)
            assert _outcome(arr.snapshot) == _outcome(ref.snapshot)
        assert all(type(x) is float for x in arr.data)


class TestScope:
    def test_declare_and_lookup(self):
        scope = Scope()
        cell = scope.declare("x", 7)
        assert scope.lookup("x") is cell

    def test_parent_chain_lookup(self):
        outer = Scope()
        outer.declare("x", 1)
        inner = Scope(parent=outer)
        assert inner.lookup("x").value == 1

    def test_shadowing(self):
        outer = Scope()
        outer.declare("x", 1)
        inner = Scope(parent=outer)
        inner.declare("x", 2)
        assert inner.lookup("x").value == 2
        assert outer.lookup("x").value == 1

    def test_undefined_raises(self):
        with pytest.raises(SimAbort, match="undefined variable"):
            Scope().lookup("ghost")

    def test_try_lookup_returns_none(self):
        assert Scope().try_lookup("ghost") is None

    def test_visible_cells_shadowing(self):
        outer = Scope()
        outer.declare("x", 1)
        outer.declare("y", 2)
        inner = Scope(parent=outer)
        shadow = inner.declare("x", 3)
        cells = {c.name: c for c in inner.visible_cells()}
        assert cells["x"] is shadow
        assert cells["y"].value == 2


class TestTruthyAndCoercion:
    def test_truthy_numbers(self):
        assert truthy(1) and truthy(-2) and truthy(0.5)
        assert not truthy(0) and not truthy(0.0)

    def test_truthy_bool(self):
        assert truthy(True) and not truthy(False)

    def test_truthy_rejects_nonsense(self):
        with pytest.raises(SimAbort):
            truthy(object())

    def test_as_int_accepts_integral_float(self):
        assert as_int(3.0) == 3

    def test_as_int_rejects_fractional(self):
        with pytest.raises(SimAbort):
            as_int(3.5)

    def test_as_int_bool(self):
        assert as_int(True) == 1


class TestBinOps:
    def test_arithmetic(self):
        assert BinOps.apply("+", 2, 3) == 5
        assert BinOps.apply("*", 2, 3) == 6
        assert BinOps.apply("-", 2, 3) == -1

    def test_c_style_integer_division_truncates_toward_zero(self):
        assert BinOps.apply("/", 7, 2) == 3
        assert BinOps.apply("/", -7, 2) == -3
        assert BinOps.apply("/", 7, -2) == -3

    def test_float_division(self):
        assert BinOps.apply("/", 7.0, 2) == 3.5

    def test_division_by_zero(self):
        with pytest.raises(SimAbort, match="division by zero"):
            BinOps.apply("/", 1, 0)

    def test_c_style_modulo_sign(self):
        assert BinOps.apply("%", 7, 3) == 1
        assert BinOps.apply("%", -7, 3) == -1

    def test_modulo_by_zero(self):
        with pytest.raises(SimAbort):
            BinOps.apply("%", 1, 0)

    def test_modulo_requires_ints(self):
        with pytest.raises(SimAbort):
            BinOps.apply("%", 1.5, 2)

    def test_comparisons(self):
        assert BinOps.apply("<", 1, 2)
        assert BinOps.apply(">=", 2, 2)
        assert BinOps.apply("!=", 1, 2)

    def test_logical(self):
        assert BinOps.apply("&&", 1, 1)
        assert not BinOps.apply("&&", 1, 0)
        assert BinOps.apply("||", 0, 1)

    def test_unary(self):
        assert BinOps.apply_unary("-", 5) == -5
        assert BinOps.apply_unary("!", 0) is True

    def test_unknown_operator(self):
        with pytest.raises(SimAbort):
            BinOps.apply("**", 2, 3)
