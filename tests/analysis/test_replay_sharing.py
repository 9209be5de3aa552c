"""One happens-before replay per process: HOME's detector, memory-race
scan and race triage share it, as do the ITC model's two analyses."""

import pickle

import pytest

import repro.analysis.dynamic_.happensbefore as happensbefore
from repro.analysis.dynamic_.hybrid import DetectorConfig, analyze
from repro.analysis.dynamic_.memraces import find_memory_races
from repro.baselines import IntelThreadChecker
from repro.home import Home, HomeOptions
from repro.minilang import parse
from repro.violations import match_violations
from repro.violations.spec import Violation
from repro.workloads.npb import SPECS, build_racy_npb

#: modules that call compute_happens_before by its imported name
CALLERS = (
    "repro.analysis.dynamic_.hybrid",
    "repro.analysis.dynamic_.memraces",
    "repro.home.pipeline",
)

#: monitored MPI calls inside a parallel region (the detector needs a
#: replay) plus a shared-variable race (so does the memory-race scan)
RECV_AND_RACE = """
program mix;
var buf[2];
var counter = 0;
func main() {
    var p = mpi_init_thread(MPI_THREAD_MULTIPLE);
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    var partner = 1 - rank;
    mpi_send(buf, 1, partner, 7, MPI_COMM_WORLD);
    mpi_send(buf, 1, partner, 7, MPI_COMM_WORLD);
    omp parallel num_threads(2) {
        omp critical { mpi_recv(buf, 1, partner, 7, MPI_COMM_WORLD); }
        counter = counter + 1;
    }
    mpi_finalize();
}
"""

PROGRAMS = {
    "npb-lu": lambda: build_racy_npb(SPECS["lu"]),
    "npb-ft": lambda: build_racy_npb(SPECS["ft"]),
    "recv-and-race": lambda: parse(RECV_AND_RACE),
}


@pytest.fixture
def replays(monkeypatch):
    """List of ``(proc, lock_edges)`` per happens-before replay."""
    calls = []
    original = happensbefore.compute_happens_before

    def counting(log, proc, lock_edges=True, ignored_locks=None):
        calls.append((proc, lock_edges))
        return original(log, proc, lock_edges=lock_edges, ignored_locks=ignored_locks)

    for module in CALLERS:
        monkeypatch.setattr(f"{module}.compute_happens_before", counting)
    return calls


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_home_check_replays_once_per_process(replays, name):
    report = Home().check(PROGRAMS[name](), seed=0)
    procs = report.execution.log.processes()
    assert report.violations.count("DataRace") > 0
    assert report.extras["race_triage"]["confirmed"]
    assert sorted(replays) == sorted((proc, True) for proc in procs)


def test_itc_check_replays_once_per_process(replays):
    report = IntelThreadChecker().check(build_racy_npb(), seed=0)
    procs = report.execution.log.processes()
    assert report.violations.count("DataRace") > 0
    assert sorted(replays) == sorted((proc, True) for proc in procs)


def test_non_default_detector_gets_its_own_replay(replays):
    detector = DetectorConfig(use_lockset=False, lock_edges=False)
    report = Home(HomeOptions(detector=detector)).check(
        parse(RECV_AND_RACE), seed=0
    )
    log = report.execution.log
    procs = log.processes()
    assert sorted(replays) == sorted(
        [(proc, False) for proc in procs] + [(proc, True) for proc in procs]
    )

    # the findings of separate replays: the detector's own config for
    # the MPI checks, the default one for the memory races
    expected = match_violations(log, analyze(log, detector))
    locs_by_var = {}
    for cand in report.static.races.candidates:
        locs_by_var.setdefault(cand.var, set()).update(cand.locs())
    for proc in procs:
        for race in find_memory_races(log, proc):
            expected.add(Violation(
                vclass="DataRace",
                proc=proc,
                message=(
                    f"static race candidate confirmed: conflicting "
                    f"unsynchronized accesses to shared variable "
                    f"{race.var!r} from threads {race.thread_a} "
                    f"and {race.thread_b}"
                ),
                callsites=tuple(sorted((race.callsite_a, race.callsite_b))),
                locs=tuple(sorted(locs_by_var.get(race.var, ()))),
                threads=tuple(sorted((race.thread_a, race.thread_b))),
            ))
    assert report.violations.classes() == ["ConcurrentRecvViolation", "DataRace"]
    assert report.violations.violations == expected.violations
    assert report.violations.procs_by_finding == expected.procs_by_finding


def test_home_pickles_after_a_check():
    """Campaign workers receive the tool pickled, possibly after the
    parent already checked with it."""
    home = Home()
    home.check(PROGRAMS["npb-ft"](), seed=0)
    clone = pickle.loads(pickle.dumps(home))
    assert clone.options == home.options
    assert clone.check(PROGRAMS["npb-ft"](), seed=0).extras["race_triage"] == (
        home.check(PROGRAMS["npb-ft"](), seed=0).extras["race_triage"]
    )
