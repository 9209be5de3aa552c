"""The linear memory-race scan, the epoch ordering and the sync-only
timeline replay agree with the quadratic, full-clock reference they
replaced.

The reference keeps the original algorithms as a test-only oracle: a
replay that stores every event's full vector clock, a pairwise scan
over every access pair of a location (deduplicated to the first race
per location) using ``VectorClock.leq`` in both directions, and
per-event lockset snapshots rebuilt from scratch.  Logs cover the
racy and fixed NPB variants under narrowed and monitor-everything
monitoring, the racy LU variant under every builtin fault plan and
several seeds, and the checked-in fuzz corpus.
"""

import io
from functools import lru_cache
from pathlib import Path

import pytest

from .reference_dynamic import covered, reference_covered, thread_seqs
from repro.analysis.dynamic_.happensbefore import compute_happens_before
from repro.analysis.dynamic_.memraces import MemRace, find_memory_races
from repro.baselines import IntelThreadChecker
from repro.baselines.itc import itc_ignores_lock
from repro.analysis.dynamic_.vectorclock import VectorClock
from repro.events import (
    BarrierEvent,
    LockAcquire,
    LockRelease,
    MemAccess,
    MonitoredWrite,
    ThreadBegin,
    ThreadFork,
    ThreadJoin,
)
from repro.events.serialize import dump_log, load_log
from repro.faults import builtin_plans
from repro.fuzz.oracles import _race_set
from repro.home import Home
from repro.home.pipeline import triage_race_candidates
from repro.minilang import parse
from repro.runtime import run_program
from repro.workloads.npb import SPECS, build_racy_npb

CORPUS = Path(__file__).resolve().parents[2] / "examples" / "fuzz_corpus"

#: detector configurations the scan runs under across the code base
CONFIGS = {
    "default": {},
    "itc": {"ignored_locks": itc_ignores_lock},
    "no-lock-edges": {"lock_edges": False},
    "no-lockset": {"use_lockset": False},
}


# -- reference oracle ---------------------------------------------------------


def reference_clocks(log, proc, lock_edges=True, ignored_locks=None):
    """seq -> full vector clock of every event of *proc*: the replay that
    copies the thread's whole clock at each event, with the same fork,
    join, barrier and lock edges as ``compute_happens_before``."""
    ignored = ignored_locks or (lambda _name: False)
    vc, clocks = {}, {}
    lock_vc, fork_vc, barrier_vc, members = {}, {}, {}, {}
    for event in log:
        if event.proc != proc:
            continue
        tid, kind = event.thread, type(event)
        current = vc.setdefault(tid, VectorClock({tid: 1}))
        if kind is ThreadFork:
            fork_vc[event.team] = current
            members.setdefault(event.team, set()).update({tid, *event.children})
        elif kind is ThreadBegin:
            if event.team in fork_vc:
                current = current.join(fork_vc[event.team])
            members.setdefault(event.team, set()).add(tid)
        elif kind is ThreadJoin:
            for child in event.children:
                if child in vc:
                    current = current.join(vc[child])
        elif kind is BarrierEvent:
            key = (event.team, event.epoch)
            if key not in barrier_vc:
                joined = current
                for member in members.get(event.team, {tid}):
                    if member in vc:
                        joined = joined.join(vc[member])
                barrier_vc[key] = joined
            current = current.join(barrier_vc[key])
        elif kind is LockAcquire and lock_edges and not ignored(event.lock):
            if event.lock in lock_vc:
                current = current.join(lock_vc[event.lock])
        current = vc[tid] = current.tick(tid)
        clocks[event.seq] = current
        # the release edge carries the release's own tick
        if kind is LockRelease and lock_edges and not ignored(event.lock):
            lock_vc[event.lock] = current
    return clocks


def reference_ordered(clocks, seq_a, seq_b):
    clock_a, clock_b = clocks[seq_a], clocks[seq_b]
    return clock_a.leq(clock_b) or clock_b.leq(clock_a)


def reference_locks_held(log, proc, ignored_locks=None):
    ignored = ignored_locks or (lambda _name: False)
    held, snapshots = {}, {}
    for event in log:
        if event.proc != proc:
            continue
        mine = held.setdefault(event.thread, set())
        if type(event) is LockAcquire and not ignored(event.lock):
            mine.add(event.lock)
        elif type(event) is LockRelease and not ignored(event.lock):
            mine.discard(event.lock)
        snapshots[event.seq] = frozenset(mine)
    return snapshots


def reference_memory_races(
    log, proc, lock_edges=True, ignored_locks=None, use_lockset=True
):
    """The quadratic scan: every pair of a location, first race kept."""
    accesses = {}
    for event in log:
        if type(event) is MemAccess and event.proc == proc:
            accesses.setdefault((event.cell, event.index), []).append(event)
    if not accesses:
        return []
    clocks = reference_clocks(log, proc, lock_edges, ignored_locks)
    locks = reference_locks_held(log, proc, ignored_locks)
    races, seen = [], set()
    for (cell, index), evs in accesses.items():
        for i, a in enumerate(evs):
            for b in evs[i + 1:]:
                if a.thread == b.thread or not (a.is_write or b.is_write):
                    continue
                if reference_ordered(clocks, a.seq, b.seq):
                    continue
                if use_lockset and locks[a.seq] & locks[b.seq]:
                    continue
                if (cell, index) not in seen:
                    seen.add((cell, index))
                    races.append(MemRace(
                        proc=proc, cell=cell, index=index, var=a.var,
                        seq_a=a.seq, seq_b=b.seq,
                        thread_a=a.thread, thread_b=b.thread,
                        callsite_a=a.callsite, callsite_b=b.callsite,
                    ))
    return races


# -- logs ---------------------------------------------------------------------


def _npb_ids():
    for name in sorted(SPECS):
        for variant in ("racy", "fixed"):
            for monitoring in ("narrowed", "all"):
                yield f"npb-{name}-{variant}-{monitoring}"


def _plan_ids():
    for plan in sorted(builtin_plans(2)):
        if plan == "killworker":  # kills its worker process by design
            continue
        for seed in (0, 1, 2):
            yield f"plan-{plan}-{seed}"


def _corpus_ids():
    return [f"corpus-{path.stem}" for path in sorted(CORPUS.glob("seed-*.mini"))]


LOG_IDS = [*_npb_ids(), *_plan_ids(), *_corpus_ids()]


@lru_cache(maxsize=None)
def home_run(log_id):
    """``(Home report or None, execution result)`` for one log id."""
    kind, rest = log_id.split("-", 1)
    if kind == "npb":
        name, variant, monitoring = rest.split("-")
        program = build_racy_npb(SPECS[name], fixed=variant == "fixed")
        if monitoring == "all":
            report = IntelThreadChecker().check(program, seed=0)
            return None, report.execution
        report = Home().check(program, seed=0)
        return report, report.execution
    if kind == "plan":
        plan, seed = rest.rsplit("-", 1)
        report = Home().check(
            build_racy_npb(), seed=int(seed), fault_plan=builtin_plans(2)[plan]
        )
        return report, report.execution
    tool = Home()
    to_run, static = tool.prepare(parse((CORPUS / f"{rest}.mini").read_text()))
    config = tool.run_config(
        2, 2, 0, static=static, max_steps=200_000, capture_partial=True,
        monitor_memory=True, memory_sites=None,
    )
    return None, run_program(to_run, config)


def log_of(log_id):
    return home_run(log_id)[1].log


@lru_cache(maxsize=None)
def reference_races(log_id, config):
    """process -> :func:`reference_memory_races` under ``CONFIGS[config]``."""
    log = log_of(log_id)
    return {
        proc: reference_memory_races(log, proc, **CONFIGS[config])
        for proc in log.processes()
    }


@lru_cache(maxsize=None)
def round_tripped(log_id):
    """The log of *log_id* after a ``dump_log``/``load_log`` round trip."""
    buffer = io.StringIO()
    dump_log(log_of(log_id), buffer)
    buffer.seek(0)
    loaded, _meta = load_log(buffer)
    return loaded


def test_logs_exercise_the_scan():
    """The fixture set is not vacuous: it holds many racy locations and
    many race-free ones written by one thread and accessed by another."""
    racy = clean = 0
    for log_id in LOG_IDS:
        log = log_of(log_id)
        for proc in log.processes():
            races = {(r.cell, r.index) for r in find_memory_races(log, proc)}
            racy += len(races)
            threads, written = {}, set()
            for e in log:
                if type(e) is MemAccess and e.proc == proc:
                    threads.setdefault((e.cell, e.index), set()).add(e.thread)
                    if e.is_write:
                        written.add((e.cell, e.index))
            clean += sum(
                1 for loc, ts in threads.items()
                if len(ts) > 1 and loc in written and loc not in races
            )
    assert racy > 50
    assert clean > 1000


# -- find_memory_races --------------------------------------------------------


@pytest.mark.parametrize("log_id", LOG_IDS)
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_find_memory_races_matches_reference(log_id, config):
    log = log_of(log_id)
    expected = reference_races(log_id, config)
    for proc in log.processes():
        assert find_memory_races(log, proc, **CONFIGS[config]) == expected[proc]


#: logs also checked after a dump_log/load_log round trip
ROUND_TRIP_IDS = [i for i in LOG_IDS if not i.startswith("plan-") or i.endswith("-0")]


@pytest.mark.parametrize("log_id", ROUND_TRIP_IDS)
def test_round_tripped_log_gives_the_same_races(log_id):
    loaded = round_tripped(log_id)
    expected = reference_races(log_id, "default")
    for proc in loaded.processes():
        assert find_memory_races(loaded, proc) == expected[proc]


@pytest.mark.parametrize("log_id", LOG_IDS)
@pytest.mark.parametrize("config", ["default", "itc"])
def test_lockset_snapshots_match_reference(log_id, config):
    log = log_of(log_id)
    ignored = CONFIGS[config].get("ignored_locks")
    for proc in log.processes():
        hb = compute_happens_before(log, proc, ignored_locks=ignored)
        locks = {e.seq: hb.locks(e) for e in log if e.proc == proc}
        assert locks == reference_locks_held(log, proc, ignored)


# -- ordered ------------------------------------------------------------------


def _pairs(seqs):
    """Every pair of a process's events, up to 300 events; on longer
    streams every pair at most 4 events apart plus every pair of a
    stride-64 grid.  Same-location access pairs, the ones the race scan
    asks about, are covered by :func:`test_same_location_pairs_all_checked`."""
    n = len(seqs)
    if n <= 300:
        for i in range(n):
            for j in range(i, n):
                yield seqs[i], seqs[j]
        return
    for i in range(n):
        for j in range(i, min(n, i + 5)):
            yield seqs[i], seqs[j]
    grid = seqs[::64]
    for i in range(len(grid)):
        for j in range(i + 1, len(grid)):
            yield grid[i], grid[j]


@pytest.mark.parametrize("log_id", LOG_IDS)
def test_epoch_ordered_matches_full_clock_compare(log_id):
    sources = [(log_of(log_id), True), (log_of(log_id), False)]
    if log_id in ROUND_TRIP_IDS:
        sources.append((round_tripped(log_id), True))
    for source, lock_edges in sources:
        for proc in source.processes():
            hb = compute_happens_before(source, proc, lock_edges=lock_edges)
            clocks = reference_clocks(source, proc, lock_edges)
            events = [e for e in source if e.proc == proc]
            for a, b in _pairs(events):
                expected = reference_ordered(clocks, a.seq, b.seq)
                assert hb.ordered(a, b) == expected, (a, b)
                assert hb.ordered(b, a) == expected, (b, a)


def test_same_location_pairs_all_checked():
    """Every same-location access pair of the densest log, the pairs the
    race scan actually asks about."""
    log = log_of("npb-lu-racy-all")
    for proc in log.processes():
        hb = compute_happens_before(log, proc)
        clocks = reference_clocks(log, proc)
        by_loc = {}
        for e in log:
            if type(e) is MemAccess and e.proc == proc:
                by_loc.setdefault((e.cell, e.index), []).append(e)
        for seqs in by_loc.values():
            for i, a in enumerate(seqs):
                for b in seqs[i + 1:]:
                    assert hb.ordered(a, b) == reference_ordered(clocks, a.seq, b.seq)


@pytest.mark.parametrize("log_id", LOG_IDS)
@pytest.mark.parametrize("config", ["default", "itc", "no-lock-edges"])
def test_replay_clocks_match_reference(log_id, config):
    """Every event's clock, rebuilt from its seq and its thread's
    timeline, covers as many of each thread's events as its full
    reference clock."""
    log = log_of(log_id)
    options = {k: v for k, v in CONFIGS[config].items() if k != "use_lockset"}
    for proc in log.processes():
        hb = compute_happens_before(log, proc, **options)
        expected = reference_clocks(log, proc, **options)
        seqs = thread_seqs(log, proc)
        events = [e for e in log if e.proc == proc]
        assert [e.seq for e in events] == list(expected)
        for event in events:
            assert covered(seqs, hb.clock(event)) == (
                reference_covered(expected[event.seq])
            ), event.seq


#: logs small enough to compare every pair of their monitored events
SMALL_IDS = [i for i in LOG_IDS if i.startswith(("npb-ft-", "corpus-"))]


@pytest.mark.parametrize("log_id", SMALL_IDS)
def test_ordered_matches_full_leq_on_every_access_pair(log_id):
    log = log_of(log_id)
    for lock_edges in (True, False):
        for proc in log.processes():
            hb = compute_happens_before(log, proc, lock_edges=lock_edges)
            clocks = reference_clocks(log, proc, lock_edges)
            seqs = [
                e for e in log
                if e.proc == proc and type(e) in (MemAccess, MonitoredWrite)
            ]
            for i, a in enumerate(seqs):
                for b in seqs[i:]:
                    expected = reference_ordered(clocks, a.seq, b.seq)
                    assert hb.ordered(a, b) == expected, (a, b)
                    assert hb.ordered(b, a) == expected, (b, a)


# -- findings built on the races ----------------------------------------------


def _race_keys(races):
    return {
        (r.var, tuple(sorted((r.callsite_a, r.callsite_b))),
         tuple(sorted((r.thread_a, r.thread_b))))
        for r in races
    }


def _data_race_keys(violations):
    return {
        (v.message.split("'")[1], v.callsites, v.threads)
        for v in violations if v.vclass == "DataRace"
    }


HOME_IDS = [i for i in LOG_IDS if i.startswith("plan-") or i.endswith("-narrowed")]


@pytest.mark.parametrize("log_id", HOME_IDS)
def test_home_data_races_and_triage_match_reference(log_id):
    report, result = home_run(log_id)
    reference = {}
    if result.config.monitor_memory:
        reference = reference_races(log_id, "default")
    expected = _race_keys(r for races in reference.values() for r in races)
    assert _data_race_keys(report.violations) == expected
    assert report.extras["race_triage"] == triage_race_candidates(
        result, report.static.races, reference
    )


@pytest.mark.parametrize(
    "log_id", [i for i in LOG_IDS if i.endswith("-all")]
)
def test_itc_data_races_match_reference(log_id):
    violations = IntelThreadChecker().analyze(home_run(log_id)[1], None)
    expected = _race_keys(
        r for races in reference_races(log_id, "itc").values() for r in races
    )
    assert _data_race_keys(violations) == expected


@pytest.mark.parametrize("log_id", _corpus_ids())
def test_fuzz_race_set_matches_reference(log_id):
    result = home_run(log_id)[1]
    monitored = {e.var for e in result.log if type(e) is MemAccess}
    expected = {
        (r.var, r.proc, tuple(sorted((r.thread_a, r.thread_b))),
         tuple(sorted((r.callsite_a, r.callsite_b))))
        for races in reference_races(log_id, "default").values() for r in races
    }
    assert _race_set(result, monitored) == expected
