"""Mini NPB-MZ benchmark generator.

Generates hybrid MPI/OpenMP multi-zone benchmarks in the mini language,
structurally modelled on the NAS NPB3.3-MZ suite the paper evaluates:
a fixed global set of zones is partitioned across MPI ranks; each rank
sweeps its zones with OpenMP worksharing (one or more solver stages per
time step), exchanges boundary data with its ring neighbours, and
reduces a residual.

Following the paper's methodology ("these well-tested benchmarks do not
have thread-safety issues... so we artificially implemented several
tricky errors inside of these benchmarks"), each benchmark can be
generated with six injected violations — one per violation class — as
dedicated ``inject_*`` functions appended to the program.  Knobs on
:class:`NPBSpec` control the *manifestation* characteristics of each
injection (compute skew, late messages, probe style), which is what
differentiates the tools' detection counts in Table 1:

* a **skewed** pair is still a potential race (HOME's lockset+HB finds
  it on any schedule) but its two calls never actually overlap in time,
  so the observed-occurrence-only Marmot model misses it;
* a **probe/probe** pair is invisible to the ITC model (probes are not
  intercepted), while an **iprobe+recv** pair is visible through its
  receive side;
* a **named-critical counter** in the base code (BT only) is perfectly
  serialized at runtime but unrecognized by the ITC model — its one
  false positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Literal

from ...minilang import Program, ast_nodes as A, parse
from ...violations.spec import (
    COLLECTIVE,
    CONCURRENT_RECV,
    CONCURRENT_REQUEST,
    FINALIZATION,
    INITIALIZATION,
    PROBE,
)

ProbeStyle = Literal["probe-probe", "iprobe-recv"]


@dataclass(frozen=True)
class NPBSpec:
    """Shape parameters of one mini NPB-MZ benchmark."""

    name: str
    #: total zones, partitioned across ranks (strong scaling)
    zones: int = 64
    #: time steps of the outer solver loop
    steps: int = 3
    #: solver stages (omp-for sweeps) per step — BT has x/y/z solves
    stages: int = 1
    #: inner compute iterations per zone per stage
    zone_weight: int = 8
    #: per-iteration synthetic compute units
    compute_units: int = 1
    #: residual allreduce at each step
    use_allreduce: bool = True
    #: halo exchange with ring neighbours each step
    use_exchange: bool = True
    #: BT quirk: a benign named-critical counter in the base code
    named_critical_counter: bool = False
    #: compute skew (units) applied to thread 1 of the recv injection;
    #: >0 means the two receives never overlap (Marmot misses it)
    recv_skew: int = 0
    #: >0: the request injection's message is sent late (both waits
    #: block and overlap); 0 with request_skew>0: SP's Marmot miss
    request_late_delay: int = 400
    #: compute skew for thread 1 of the request injection
    request_skew: int = 0
    #: probe injection style (see module docstring)
    probe_style: ProbeStyle = "iprobe-recv"
    #: serial (main-thread) work per step — boundary conditions etc.;
    #: the Amdahl fraction that keeps strong scaling from being ideal
    serial_units: int = 120


@dataclass
class InjectionInfo:
    """Registry entry mapping an injected violation to source lines."""

    vclass: str
    func_name: str
    first_line: int
    last_line: int

    def contains_loc(self, loc: str) -> bool:
        try:
            line = int(loc.split(":")[0])
        except (ValueError, IndexError):
            return False
        return self.first_line <= line <= self.last_line


# ---------------------------------------------------------------------------
# Source generation
# ---------------------------------------------------------------------------


def _base_functions(spec: NPBSpec) -> str:
    """Zone solver, halo exchange and residual functions."""
    total_elems = spec.zones * 4
    parts: List[str] = []
    parts.append(f"""
func zone_work(z, stage) {{
    var base = z * 4;
    for (var k = 0; k < {spec.zone_weight}; k = k + 1) {{
        var e = base + (k % 4);
        field[e] = field[e] + 1.0 + stage;
        compute({spec.compute_units});
    }}
    omp critical {{
        residual[0] = residual[0] + 1.0;
    }}
    return 0;
}}""")
    if spec.use_exchange:
        parts.append("""
func exchange(rank, size, step) {
    if (size > 1) {
        var right = (rank + 1) % size;
        var left = (rank + size - 1) % size;
        mpi_send(halo_out, 4, right, 100 + step, MPI_COMM_WORLD);
        mpi_recv(halo_in, 4, left, 100 + step, MPI_COMM_WORLD);
    }
    return 0;
}""")
    header = f"""
var field[{total_elems}];
var residual[2];
var halo_out[4];
var halo_in[4];
var tcount = 0;
"""
    return header + "\n".join(parts)


def _main_loop(spec: NPBSpec) -> str:
    """The solver loop body (inside main)."""
    stage_loops = []
    for stage in range(spec.stages):
        stage_loops.append(f"""
        omp for schedule(static) for (var z = zfirst; z < zlast; z = z + 1) {{
            zone_work(z, {stage});
        }}""")
    critical_counter = ""
    if spec.named_critical_counter:
        critical_counter = """
        omp critical (perf_counter) {
            tcount = tcount + 1;
        }"""
    body = f"""
    var chunk = {spec.zones} / size;
    var rem = {spec.zones} % size;
    var zfirst = rank * chunk + min(rank, rem);
    var zcount = chunk;
    if (rank < rem) {{ zcount = zcount + 1; }}
    var zlast = zfirst + zcount;
    for (var step = 0; step < {spec.steps}; step = step + 1) {{
        compute({spec.serial_units});
        omp parallel num_threads(2) {{{"".join(stage_loops)}{critical_counter}
        }}"""
    if spec.use_exchange:
        body += """
        exchange(rank, size, step);"""
    if spec.use_allreduce:
        body += """
        var global_res = mpi_allreduce(residual[0], MPI_SUM, MPI_COMM_WORLD);
        residual[1] = global_res;"""
    body += """
    }"""
    return body


def _injection_functions(spec: NPBSpec) -> str:
    """The six artificial violations, one function each."""
    parts: List[str] = []

    # V3: Concurrent MPI_Recv — two threads receive with the same
    # (source, tag, communicator) envelope.
    skew = ""
    if spec.recv_skew > 0:
        skew = f"""
        if (omp_get_thread_num() == 1) {{
            compute({spec.recv_skew});
        }}"""
    parts.append(f"""
func inject_concurrent_recv(rank, size) {{
    var partner = rank + 1 - 2 * (rank % 2);
    var vbuf[2];
    mpi_send(vbuf, 1, partner, 77, MPI_COMM_WORLD);
    mpi_send(vbuf, 1, partner, 77, MPI_COMM_WORLD);
    omp parallel num_threads(2) {{{skew}
        mpi_recv(vbuf, 1, partner, 77, MPI_COMM_WORLD);
    }}
    return 0;
}}""")

    # V4: Concurrent request — two threads wait on the same request.
    delay = ""
    if spec.request_late_delay > 0:
        delay = f"""
    compute({spec.request_late_delay});"""
    rskew = ""
    if spec.request_skew > 0:
        rskew = f"""
        if (omp_get_thread_num() == 1) {{
            compute({spec.request_skew});
        }}"""
    parts.append(f"""
func inject_concurrent_request(rank, size) {{
    var partner = rank + 1 - 2 * (rank % 2);
    var sbuf[2];
    var rbuf[2];{delay}
    mpi_send(sbuf, 1, partner, 66, MPI_COMM_WORLD);
    var req = mpi_irecv(rbuf, 1, partner, 66, MPI_COMM_WORLD);
    omp parallel num_threads(2) {{{rskew}
        mpi_wait(req);
    }}
    return 0;
}}""")

    # V5: Probe violation.
    if spec.probe_style == "probe-probe":
        parts.append("""
func inject_probe(rank, size) {
    var partner = rank + 1 - 2 * (rank % 2);
    var pbuf[2];
    mpi_send(pbuf, 1, partner, 88, MPI_COMM_WORLD);
    omp parallel num_threads(2) {
        mpi_probe(partner, 88, MPI_COMM_WORLD);
    }
    mpi_recv(pbuf, 1, partner, 88, MPI_COMM_WORLD);
    return 0;
}""")
    else:  # iprobe-recv
        parts.append("""
func inject_probe(rank, size) {
    var partner = rank + 1 - 2 * (rank % 2);
    var pbuf[2];
    mpi_send(pbuf, 1, partner, 88, MPI_COMM_WORLD);
    mpi_send(pbuf, 1, partner, 88, MPI_COMM_WORLD);
    omp parallel num_threads(2) {
        var got = 0;
        while (got == 0) {
            got = mpi_iprobe(partner, 88, MPI_COMM_WORLD);
            compute(1);
        }
        mpi_recv(pbuf, 1, partner, 88, MPI_COMM_WORLD);
    }
    return 0;
}""")

    # V6: Collective-call violation — two threads of each process issue
    # collectives on the same communicator concurrently.  (Totals stay
    # balanced: every rank contributes two arrivals, so the run
    # terminates — the violation is the undefined pairing.)
    parts.append("""
func inject_collective(rank, size) {
    omp parallel num_threads(2) {
        mpi_barrier(MPI_COMM_WORLD);
    }
    return 0;
}""")

    # V2: Finalization violation — mpi_finalize from a non-main thread.
    parts.append("""
func inject_finalize(rank) {
    omp parallel num_threads(2) {
        if (omp_get_thread_num() == 1) {
            mpi_finalize();
        }
    }
    return 0;
}""")
    return "\n".join(parts)


def build_source(spec: NPBSpec, inject: bool = True) -> str:
    """Generate the benchmark's mini-language source text."""
    parts = [f"program {spec.name};", _base_functions(spec)]
    if inject:
        parts.append(_injection_functions(spec))
    # V1: Initialization violation — the injected program initializes at
    # MPI_THREAD_SERIALIZED although its (injected) regions perform
    # concurrent MPI calls.  The clean program asks for MULTIPLE.
    level = "MPI_THREAD_SERIALIZED" if inject else "MPI_THREAD_MULTIPLE"
    main = [f"""
func main() {{
    var provided = mpi_init_thread({level});
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    var size = mpi_comm_size(MPI_COMM_WORLD);
{_main_loop(spec)}"""]
    if inject:
        main.append("""
    if (size >= 2) {
        inject_concurrent_recv(rank, size);
        inject_concurrent_request(rank, size);
        inject_probe(rank, size);
        inject_collective(rank, size);
    }
    inject_finalize(rank);
}""")
    else:
        main.append("""
    mpi_finalize();
}""")
    parts.append("".join(main))
    return "\n".join(parts) + "\n"


def build_program(spec: NPBSpec, inject: bool = True) -> Program:
    return parse(build_source(spec, inject=inject))


# ---------------------------------------------------------------------------
# Injection registry
# ---------------------------------------------------------------------------

_INJECT_CLASS_BY_FUNC = {
    "inject_concurrent_recv": CONCURRENT_RECV,
    "inject_concurrent_request": CONCURRENT_REQUEST,
    "inject_probe": PROBE,
    "inject_collective": COLLECTIVE,
    "inject_finalize": FINALIZATION,
}


def injection_registry(program: Program) -> List[InjectionInfo]:
    """Locate every injected violation in a generated benchmark.

    The initialization violation has no code block of its own (it is the
    init-level choice); it is registered with the ``mpi_init_thread``
    call's line and matched by class rather than location.
    """
    registry: List[InjectionInfo] = []
    for fn in program.functions:
        vclass = _INJECT_CLASS_BY_FUNC.get(fn.name)
        if vclass is None:
            continue
        lines = [n.loc.line for n in fn.walk() if n.loc.line > 0]
        if not lines:
            continue
        registry.append(InjectionInfo(vclass, fn.name, min(lines), max(lines)))
    for node in program.walk():
        if isinstance(node, A.CallExpr) and node.name.removeprefix("h") == "mpi_init_thread":
            registry.append(
                InjectionInfo(INITIALIZATION, "main", node.loc.line, node.loc.line)
            )
            break
    return registry


def score_report(
    violations, registry: List[InjectionInfo]
) -> Dict[str, object]:
    """Score a tool's ViolationReport against the injection registry.

    Returns the Table-1 style count: detected injections plus false
    positives (findings attributable to no injection).  An injection is
    detected when any finding's location falls in its line range — any
    class, since different tools surface the same bug as different
    report kinds — except the initialization injection, which is matched
    by class (it has no dedicated code block).
    """
    detected: Dict[str, bool] = {info.func_name: False for info in registry}
    fp: List = []
    init_info = next(
        (i for i in registry if i.vclass == INITIALIZATION), None
    )
    for v in violations:
        matched = False
        if init_info is not None and v.vclass == INITIALIZATION:
            detected[init_info.func_name] = True
            matched = True
        for info in registry:
            if info.vclass == INITIALIZATION:
                continue
            if any(info.contains_loc(loc) for loc in v.locs):
                detected[info.func_name] = True
                matched = True
        if not matched:
            fp.append(v)
    n_detected = sum(detected.values())
    return {
        "detected": n_detected,
        "false_positives": len(fp),
        "score": n_detected + len(fp),
        "missed": [name for name, hit in detected.items() if not hit],
        "fp_findings": fp,
    }
