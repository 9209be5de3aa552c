"""Collective engine unit tests (no interpreter)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MPIUsageError, PayloadShapeError
from repro.mpi.collectives import CollectiveEngine, apply_reduce
from repro.mpi.communicator import CommRegistry
from repro.mpi.constants import MPI_MAX, MPI_MIN, MPI_PROD, MPI_SUM


@pytest.fixture
def comm2():
    return CommRegistry(2).world


class TestApplyReduce:
    def test_scalar_sum(self):
        assert apply_reduce(MPI_SUM, [1, 2, 3]) == 6

    def test_scalar_max_min(self):
        assert apply_reduce(MPI_MAX, [1, 5, 3]) == 5
        assert apply_reduce(MPI_MIN, [1, 5, 3]) == 1

    def test_scalar_prod(self):
        assert apply_reduce(MPI_PROD, [2, 3, 4]) == 24

    def test_array_sum_elementwise(self):
        out = apply_reduce(MPI_SUM, [(1.0, 2.0), (3.0, 4.0)])
        assert out == (4.0, 6.0)

    def test_empty_contributions_rejected(self):
        with pytest.raises(MPIUsageError):
            apply_reduce(MPI_SUM, [])

    def test_unknown_op_rejected(self):
        with pytest.raises(MPIUsageError):
            apply_reduce(42, [1, 2])
        with pytest.raises(MPIUsageError):
            apply_reduce(42, [(1.0,), (2.0,)])


_ELEMENTS = st.one_of(
    st.sampled_from([-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf]),
    st.floats(),
)
_NP_REDUCTIONS = {MPI_SUM: "sum", MPI_PROD: "prod", MPI_MAX: "max", MPI_MIN: "min"}


class TestApplyReduceAgainstNumpy:
    """Tuple payloads reduce to exactly what ``np.stack(...)`` reduced
    along axis 0 gave when payloads were float64 ndarrays."""

    @settings(max_examples=400, deadline=None)
    @given(
        op=st.sampled_from(sorted(_NP_REDUCTIONS)),
        rows=st.integers(0, 5).flatmap(
            lambda n: st.lists(
                st.lists(_ELEMENTS, min_size=n, max_size=n).map(tuple),
                min_size=1, max_size=4,
            )
        ),
    )
    def test_bit_for_bit(self, op, rows):
        got = apply_reduce(op, rows)
        with np.errstate(all="ignore"):
            want = getattr(np.stack([np.asarray(r, dtype=np.float64) for r in rows]),
                           _NP_REDUCTIONS[op])(axis=0)
        assert type(got) is tuple and all(type(x) is float for x in got)
        assert np.asarray(got, dtype=np.float64).tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        op=st.sampled_from(sorted(_NP_REDUCTIONS)),
        shapes=st.lists(st.one_of(st.none(), st.integers(0, 3)), min_size=2, max_size=4)
        .filter(lambda shapes: len(set(shapes)) > 1),
    )
    def test_mismatched_shapes_raise(self, op, shapes):
        rows = [1.0 if n is None else (1.0,) * n for n in shapes]
        with pytest.raises(PayloadShapeError, match="differ in shape"):
            apply_reduce(op, rows)


class TestCollectiveSlots:
    def test_per_process_index_counter(self, comm2):
        engine = CollectiveEngine()
        assert engine.next_index(0, 0) == 0
        assert engine.next_index(0, 0) == 1
        assert engine.next_index(0, 1) == 0  # other rank independent

    def test_slot_completes_when_all_members_arrive(self, comm2):
        engine = CollectiveEngine()
        engine.arrive(comm2, 0, 0, "mpi_barrier", time=1.0)
        assert not engine.complete(comm2, 0)
        engine.arrive(comm2, 0, 1, "mpi_barrier", time=3.0)
        assert engine.complete(comm2, 0)
        assert engine.completion_time(comm2, 0) == 3.0

    def test_op_mismatch_recorded(self, comm2):
        engine = CollectiveEngine()
        engine.arrive(comm2, 0, 0, "mpi_barrier", time=0.0)
        slot = engine.arrive(comm2, 0, 1, "mpi_bcast", time=0.0, root=0)
        assert slot.mismatch is not None
        assert engine.mismatches

    def test_double_arrival_rejected(self, comm2):
        engine = CollectiveEngine()
        engine.arrive(comm2, 0, 0, "mpi_barrier", time=0.0)
        with pytest.raises(MPIUsageError, match="arrived twice"):
            engine.arrive(comm2, 0, 0, "mpi_barrier", time=1.0)

    def test_contributions_stored_by_world_rank(self, comm2):
        engine = CollectiveEngine()
        engine.arrive(comm2, 0, 0, "mpi_allreduce", time=0.0, value=10, reduce_op=MPI_SUM)
        engine.arrive(comm2, 0, 1, "mpi_allreduce", time=0.0, value=20, reduce_op=MPI_SUM)
        slot = engine.slot(0, 0)
        assert slot.contributions == {0: 10, 1: 20}

    def test_counters_scoped_by_comm(self, comm2):
        engine = CollectiveEngine()
        assert engine.next_index(0, 0) == 0
        assert engine.next_index(5, 0) == 0
