"""Ablation: lockset + happens-before combination vs. each alone.

The paper: "the reason why dynamic analysis procedure combines the
algorithm of lockset analysis algorithm and happen-before algorithm is
to reduce false positive[s]".  This ablation runs HOME's detector in
three modes over a workload with a lock-serialized (safe) receive pair
and a genuinely racy receive pair:

* **hybrid** (paper) — flags only the racy pair;
* **no-lock-edges HB + no lockset** — flags both (false positive on the
  serialized pair);
* **lockset + HB** with critical locks invisible — also both.
"""

from repro.analysis.dynamic_.hybrid import DetectorConfig, analyze
from repro.analysis.static_ import collect_sites, instrument_program
from repro.minilang import parse
from repro.runtime import Interpreter, RunConfig
from repro.violations import CONCURRENT_RECV, match_violations

WORKLOAD = """
program ablate;
var buf[2];
func main() {
    var p = mpi_init_thread(MPI_THREAD_MULTIPLE);
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    var partner = 1 - rank;
    // safe pair: serialized by a critical section
    mpi_send(buf, 1, partner, 1, MPI_COMM_WORLD);
    mpi_send(buf, 1, partner, 1, MPI_COMM_WORLD);
    omp parallel num_threads(2) {
        omp critical {
            mpi_recv(buf, 1, partner, 1, MPI_COMM_WORLD);
        }
    }
    // racy pair: no synchronization at all
    mpi_send(buf, 1, partner, 2, MPI_COMM_WORLD);
    mpi_send(buf, 1, partner, 2, MPI_COMM_WORLD);
    omp parallel num_threads(2) {
        mpi_recv(buf, 1, partner, 2, MPI_COMM_WORLD);
    }
    mpi_finalize();
}
"""


def _recv_findings(detector: DetectorConfig, seed=0):
    program = parse(WORKLOAD)
    instrumented = instrument_program(program, collect_sites(program))
    config = RunConfig(nprocs=2, num_threads=2, seed=seed,
                       thread_level_mode="permissive")
    result = Interpreter(instrumented.program, config).run()
    reports = analyze(result.log, detector)
    violations = match_violations(result.log, reports)
    return [v for v in violations if v.vclass == CONCURRENT_RECV]


def _sweep():
    hybrid = _recv_findings(DetectorConfig())
    naive_hb = _recv_findings(
        DetectorConfig(use_lockset=False, use_hb=True, lock_edges=False)
    )
    blind_locks = _recv_findings(
        DetectorConfig(ignored_locks=lambda name: name.startswith("critical:"))
    )
    return hybrid, naive_hb, blind_locks


def test_detector_combination_controls_false_positives(benchmark):
    hybrid, naive_hb, blind_locks = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print()
    print("ablation: dynamic-detector configuration (racy + serialized recv pairs)")
    print(f"  hybrid lockset+HB (paper): {len(hybrid)} finding(s)")
    print(f"  HB without lock knowledge: {len(naive_hb)} finding(s)")
    print(f"  criticals invisible:       {len(blind_locks)} finding(s)")

    # The paper's combination reports exactly the one real race (both
    # ranks execute the same racy callsite, so the finding deduplicates
    # to a single report covering both).
    assert len(hybrid) == 1
    # Degraded detectors also flag the critical-serialized pair.
    assert len(naive_hb) == 2
    assert len(blind_locks) == 2
    benchmark.extra_info["findings"] = {
        "hybrid": len(hybrid),
        "naive_hb": len(naive_hb),
        "blind_locks": len(blind_locks),
    }
