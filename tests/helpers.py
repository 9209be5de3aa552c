"""Shared test helpers: compact program sources and run wrappers."""

from __future__ import annotations

from types import GeneratorType

from repro.minilang import ast_nodes as A
from repro.minilang import parse, validate
from repro.runtime import RunConfig, run_program
from repro.workloads.injection import INJECTABLE_CLASSES, inject_violations
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


def access_locs(program, names):
    """The "line:col" memory sites of the variables *names* in
    *program*: each of their variable and element accesses, and each
    construct whose ``reduction`` clause names one (its folds' site)."""
    locs = set()
    for node in program.table.nodes:
        if isinstance(node, A.Index) and isinstance(node.base, A.Name):
            hit = node.base.ident in names
        elif isinstance(node, A.Name):
            hit = node.ident in names
        elif isinstance(node, (A.OmpParallel, A.OmpFor)):
            hit = any(name in names for _op, name in node.reductions)
        else:
            continue
        if hit:
            locs.add(f"{node.loc.line}:{node.loc.col}")
    return frozenset(locs)


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


def inject_all(program, skew: int = 0):
    """Graft one violation of every injectable class (the paper's
    6-per-benchmark methodology) into *program*."""
    return inject_violations(program, INJECTABLE_CLASSES, skew=skew)


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


def drive(gen):
    """Run the task generator *gen* to its end by the scheduler's call
    protocol, without a scheduler: a yielded generator is a call whose
    return value is sent back to its caller and whose exception is
    thrown into it; Steps and Blocks are passed over.  Returns what
    *gen* returns and raises what it lets out."""
    resume, arg = gen.send, None
    while True:
        try:
            yielded = resume(arg)
        except StopIteration as stop:
            return stop.value
        resume, arg = gen.send, None
        if type(yielded) is GeneratorType:
            try:
                arg = drive(yielded)
            except Exception as err:  # noqa: BLE001 - delivered to the caller
                resume, arg = gen.throw, err
