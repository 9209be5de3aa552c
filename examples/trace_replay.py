#!/usr/bin/env python
"""Offline trace replay: record once, analyze many ways.

HOME's dynamic phase is offline — it consumes a recorded event stream —
so a single instrumented run can be archived and re-analyzed with
different detector configurations.  This example:

1. runs the instrumented Figure-2 case study and saves its trace;
2. reloads the trace and reproduces HOME's verdict from the file alone;
3. re-analyzes the same trace with deliberately degraded detectors
   (the ablation knobs), showing how the lockset+happens-before
   combination controls false positives on a lock-serialized workload.

Run:  python examples/trace_replay.py
"""

import tempfile
from pathlib import Path

from repro.analysis.dynamic_.hybrid import DetectorConfig, analyze
from repro.analysis.static_ import collect_sites, instrument_program
from repro.events import dump_log, load_log
from repro.minilang import parse
from repro.runtime import Interpreter, RunConfig
from repro.violations import CONCURRENT_RECV, match_violations

#: One racy receive pair and one critical-serialized (safe) pair.
WORKLOAD = """
program mixed;
var buf[2];
func main() {
    var provided = mpi_init_thread(MPI_THREAD_MULTIPLE);
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    var partner = 1 - rank;
    mpi_send(buf, 1, partner, 1, MPI_COMM_WORLD);
    mpi_send(buf, 1, partner, 1, MPI_COMM_WORLD);
    omp parallel num_threads(2) {
        omp critical { mpi_recv(buf, 1, partner, 1, MPI_COMM_WORLD); }
    }
    mpi_send(buf, 1, partner, 2, MPI_COMM_WORLD);
    mpi_send(buf, 1, partner, 2, MPI_COMM_WORLD);
    omp parallel num_threads(2) {
        mpi_recv(buf, 1, partner, 2, MPI_COMM_WORLD);
    }
    mpi_finalize();
}
"""


def main() -> None:
    # 1. record
    program = parse(WORKLOAD)
    instrumented = instrument_program(program, collect_sites(program))
    config = RunConfig(nprocs=2, num_threads=2, thread_level_mode="permissive")
    result = Interpreter(instrumented.program, config).run()
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "mixed.trace"
        dump_log(result.log, trace_path, metadata={"program": "mixed"})
        size = trace_path.stat().st_size
        print(f"recorded {len(result.log)} events to {trace_path.name} "
              f"({size} bytes)")

        # 2. replay with the paper's detector
        log, meta = load_log(trace_path)
        verdict = match_violations(log, analyze(log))
        print()
        print("### replayed trace, hybrid lockset+HB detector (paper) ###")
        print(verdict.summary())
        recv_findings = [v for v in verdict if v.vclass == CONCURRENT_RECV]
        assert len(recv_findings) == 1, "exactly the real race"

        # 3. degraded detectors on the same file
        blind = DetectorConfig(
            ignored_locks=lambda name: name.startswith("critical:")
        )
        degraded = match_violations(log, analyze(log, blind))
        print()
        print("### same trace, criticals invisible (ITC-style blind spot) ###")
        print(degraded.summary())
        degraded_recv = [v for v in degraded if v.vclass == CONCURRENT_RECV]
        assert len(degraded_recv) == 2, "false positive on the guarded pair"

    print()
    print("trace replay OK: one archived run, two analyses, and the "
          "lock-aware detector is the one without the false positive.")


if __name__ == "__main__":
    main()
