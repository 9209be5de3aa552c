"""Thread-count overhead study.

The paper pins its experiments at 2 OpenMP threads per process because
"the overhead of Intel Thread Checker would be very high with number
increasing of threads in processes".  This study sweeps the team size
at a fixed process count and measures each tool's overhead, confirming
the claim: ITC's per-access monitoring grows with every extra thread's
instruction stream, while HOME's monitored-variable filtering keeps its
cost nearly flat.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..baselines import BaseRunner, CheckingTool, IntelThreadChecker, Marmot
from ..home import Home
from ..minilang import Program, parse
from .series import FigureData, Series

DEFAULT_THREAD_SWEEP: Sequence[int] = (1, 2, 4, 8)

#: A thread-safe hybrid workload whose team size comes from the run
#: configuration (no ``num_threads`` clause): each thread exchanges with
#: the partner rank under its own per-thread tag, so any team size is
#: legal and violation-free.
THREAD_SWEEP_SOURCE = """
program thread_sweep;

var field[256];

func main() {
    var provided = mpi_init_thread(MPI_THREAD_MULTIPLE);
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    var size = mpi_comm_size(MPI_COMM_WORLD);
    var partner = rank + 1 - 2 * (rank % 2);
    for (var step = 0; step < 3; step = step + 1) {
        compute(40);
        omp parallel {
            omp for for (var i = 0; i < 128; i = i + 1) {
                field[i] = field[i] + 1.0;
                compute(2);
            }
            var t = omp_get_thread_num();
            var sbuf[2];
            var rbuf[2];
            if (size >= 2) {
                mpi_sendrecv(sbuf, 1, partner, 500 + step * 32 + t,
                             rbuf, partner, 500 + step * 32 + t,
                             MPI_COMM_WORLD);
            }
        }
        var res = mpi_allreduce(field[0], MPI_SUM, MPI_COMM_WORLD);
    }
    mpi_finalize();
}
"""


def build_thread_sweep_program() -> Program:
    return parse(THREAD_SWEEP_SOURCE)


def thread_overhead_figure(
    program_builder: Callable[[], Program],
    threads: Sequence[int] = DEFAULT_THREAD_SWEEP,
    nprocs: int = 4,
    seed: int = 0,
    tools: Optional[List[CheckingTool]] = None,
) -> FigureData:
    """Overhead (%) of each tool as the OpenMP team size grows."""
    tools = tools if tools is not None else [Home(), Marmot(), IntelThreadChecker()]
    base_runner = BaseRunner()
    fig = FigureData(
        title=f"checking overhead vs OpenMP threads ({nprocs} processes)",
        xlabel="threads",
        ylabel="overhead (%)",
    )
    series = {tool.name: Series(tool.name) for tool in tools}
    for nthreads in threads:
        program = program_builder()
        base = base_runner.check(
            program, nprocs=nprocs, num_threads=nthreads, seed=seed
        ).makespan
        for tool in tools:
            t = tool.check(
                program, nprocs=nprocs, num_threads=nthreads, seed=seed
            ).makespan
            series[tool.name].points[nthreads] = 100.0 * (t / base - 1.0)
    fig.series.extend(series.values())
    return fig
