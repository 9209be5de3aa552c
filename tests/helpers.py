"""Shared test helpers: compact program sources and run wrappers."""

from __future__ import annotations

from repro.minilang import parse, validate
from repro.runtime import RunConfig, run_program
from repro.workloads.npb.bt_mz import BT_SPEC, bt_mz_source
from repro.workloads.npb.divergence import divergent_npb_source
from repro.workloads.npb.ft_mz import ft_mz_source
from repro.workloads.npb.interproc import interproc_npb_source
from repro.workloads.npb.lu_mz import LU_SPEC, lu_mz_source
from repro.workloads.npb.races import racy_npb_source
from repro.workloads.npb.sp_mz import SP_SPEC, sp_mz_source


def run_src(source: str, nprocs: int = 1, threads: int = 2, seed: int = 0, **kw):
    """Parse, validate and execute mini-language source; return the result."""
    program = parse(source)
    validate(program)
    config = RunConfig(nprocs=nprocs, num_threads=threads, seed=seed, **kw)
    return run_program(program, config)


def outputs_of(result):
    return result.printed_lines()


def wrap_main(body: str, globals_: str = "") -> str:
    """Wrap statements into a single-function program."""
    return f"""
program t;
{globals_}
func main() {{
{body}
}}
"""


def run_main(body: str, globals_: str = "", **kw):
    return run_src(wrap_main(body, globals_), **kw)


MPI_PAIR_HEADER = """
    var provided = mpi_init_thread(MPI_THREAD_MULTIPLE);
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    var size = mpi_comm_size(MPI_COMM_WORLD);
"""


def npb_sources():
    """Every NPB-MZ source by name: LU/BT/SP/FT, the racy, divergent and
    interprocedural variants, and each one's fixed twin."""
    out = {}
    for name, build in (("lu", lu_mz_source), ("bt", bt_mz_source),
                        ("sp", sp_mz_source), ("ft", ft_mz_source)):
        out[name] = build(True)
        out[name + "-fixed"] = build(False)
    for name, spec in (("lu", LU_SPEC), ("bt", BT_SPEC), ("sp", SP_SPEC)):
        out["racy-" + name] = racy_npb_source(spec)
        out["racy-" + name + "-fixed"] = racy_npb_source(spec, fixed=True)
    out["div"] = divergent_npb_source()
    out["div-fixed"] = divergent_npb_source(fixed=True)
    out["ip"] = interproc_npb_source()
    out["ip-fixed"] = interproc_npb_source(fixed=True)
    return out
