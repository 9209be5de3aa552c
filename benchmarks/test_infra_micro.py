"""Micro-benchmarks of the simulation infrastructure itself.

These justify the implementation choices the guides call for (profile
before optimizing): they track parser throughput, interpreter stepping
rate and the offline analyses' cost on a fixed workload, so regressions
in the substrate show up as benchmark deltas.
"""

import time
import tracemalloc

import pytest

from repro.analysis.dynamic_.happensbefore import compute_happens_before
from repro.analysis.dynamic_.hybrid import analyze
from repro.analysis.dynamic_.memraces import find_memory_races
from repro.analysis.dynamic_.vectorclock import VectorClock
from repro.analysis.static_ import run_static_analysis
from repro.events import EventLog
from repro.faults import builtin_plans
from repro.home import Home
from repro.minilang import parse
from repro.runtime import Interpreter, RunConfig
from repro.workloads.npb import build_lu_mz, build_racy_npb, lu_mz_source
from tests.analysis.reference_dynamic import reference_happens_before


@pytest.fixture(scope="module")
def lu_source():
    return lu_mz_source(inject=True)


@pytest.fixture(scope="module")
def lu_home_run():
    home = Home()
    program, static = home.prepare(build_lu_mz(inject=True))
    config = home.run_config(nprocs=2, num_threads=2, seed=0)
    return Interpreter(program, config).run()


def test_parse_lu_benchmark(benchmark, lu_source):
    program = benchmark(parse, lu_source)
    assert program.name == "lu_mz"


def test_static_analysis_lu(benchmark):
    # cache=False: measure the analysis itself, not the memo lookup
    program = build_lu_mz(inject=True)
    report = benchmark(run_static_analysis, program, cache=False)
    assert report.instrumentation.n_instrumented > 0


def test_static_analysis_lu_cached(benchmark):
    """The memoized path campaigns hit after the first cell."""
    program = build_lu_mz(inject=True)
    run_static_analysis(program)  # warm the cache
    report = benchmark(run_static_analysis, program)
    assert report.instrumentation.n_instrumented > 0


def test_interpret_lu_base(benchmark):
    def run():
        return Interpreter(
            build_lu_mz(inject=False), RunConfig(nprocs=2, num_threads=2)
        ).run()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert not result.deadlocked


def test_hybrid_analysis_lu(benchmark, lu_home_run):
    reports = benchmark(analyze, lu_home_run.log)
    assert reports[0].pairs


# -- dynamic race phase ------------------------------------------------------
#
# HOME replays happens-before once per process and hands the replay to
# the memory-race scan.  The replay visits only sync events, so on a
# racy-NPB cell that monitors every access site (a dense MemAccess
# stream; HOME's own cell watches only the sites its static race pass
# could not clear) it costs well under a quarter of the whole-log replay that stores every event's epoch and
# view (kept as ``reference_happens_before``, the cost model of the
# replay before it); the scan costs under one such replay, as it did
# when that replay was the product's.  Same-machine ratios, so the gate
# does not depend on the runner's speed.  Each timed call gets a log
# whose index is split by process but not yet by type, so whichever
# runs pays for the split it reads.


def _fastest(fn, reps=15, setup=lambda: None):
    best = float("inf")
    for _ in range(reps):
        arg = setup()
        start = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - start)
    return best


def _split_copy(log):
    """A copy of *log* with a fresh index built up to the per-process split."""
    copy = EventLog()
    copy.extend(log)
    copy.processes()
    return copy


def test_memory_race_scan_costs_at_most_one_replay():
    home = Home()
    program, static = home.prepare(build_racy_npb())
    config = home.run_config(
        nprocs=2, num_threads=2, seed=1, static=static,
        fault_plan=builtin_plans(2)["jitter"], memory_sites=None,
    )
    log = Interpreter(program, config).run().log
    reference = replay = scan = 0.0
    for proc in log.processes():
        hb = compute_happens_before(log, proc)
        assert find_memory_races(log, proc, hb=hb)
        reference += _fastest(
            lambda fresh: reference_happens_before(fresh, proc),
            setup=lambda: _split_copy(log),
        )
        replay += _fastest(
            lambda fresh: compute_happens_before(fresh, proc),
            setup=lambda: _split_copy(log),
        )
        scan += _fastest(
            lambda fresh: find_memory_races(fresh, proc, hb=hb),
            setup=lambda: _split_copy(log),
        )
    print(
        f"race phase per cell: whole-log replay {reference * 1e3:.2f} ms, "
        f"replay {replay * 1e3:.2f} ms ({replay / reference:.2f}x), "
        f"scan {scan * 1e3:.2f} ms ({scan / reference:.2f}x)"
    )
    assert scan <= 1.0 * reference
    assert replay <= 0.25 * reference


# -- vector-clock hot path ---------------------------------------------------
#
# The full-clock reference replays of the tests execute one tick (and
# usually one or more joins) per event.  The immutable-with-cached-hash
# rework eliminated the copy-then-mutate double allocation in tick/join
# and made no-op joins and repeat hashes allocation-free; these
# benchmarks pin that down.


@pytest.fixture(scope="module")
def clocks():
    wide = VectorClock({tid: tid + 1 for tid in range(8)})
    behind = VectorClock({tid: 1 for tid in range(8)})
    return wide, behind


def test_vectorclock_tick(benchmark, clocks):
    wide, _ = clocks
    out = benchmark(wide.tick, 3)
    assert out.get(3) == wide.get(3) + 1


def test_vectorclock_join_noop(benchmark, clocks):
    wide, behind = clocks
    out = benchmark(wide.join, behind)
    assert out is wide  # no-op joins return self without allocating


def test_vectorclock_join_merge(benchmark, clocks):
    wide, behind = clocks
    out = benchmark(behind.join, wide)
    assert out.get(7) == 8


def test_vectorclock_hash_cached(benchmark, clocks):
    wide, _ = clocks
    hash(wide)  # first call computes and caches
    assert benchmark(hash, wide) == hash(wide)


def test_vectorclock_noop_join_and_hash_are_allocation_free(clocks):
    """Regression guard for the allocation profile (not a timing test):
    after warm-up, no-op joins and repeat hashes allocate nothing."""
    wide, behind = clocks
    wide.join(behind)
    hash(wide)
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(1000):
            wide.join(behind)
            hash(wide)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    grown = sum(
        stat.size_diff
        for stat in after.compare_to(before, "lineno")
        if stat.size_diff > 0
    )
    # tracemalloc's own bookkeeping contributes a few hundred bytes;
    # 1000 dict copies would be ~100 KiB
    assert grown < 4096, f"hot path allocated {grown} bytes per 1000 ops"
