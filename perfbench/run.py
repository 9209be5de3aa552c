"""HOME benchmark: one workload, a closed loop with one client.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fresh-check --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures
the per-layer metrics and the tracing overhead (see ``README.md``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # session start: set-up is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Budget, SpeedProbe  # noqa: E402

#: end-to-end metrics, in report order
E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: set-up is repeated this many times per run (this process plus fresh
#: subprocesses) and reported as the median: one process's import time
#: alone swings by a third on a shared machine
SETUP_SAMPLES = 5
#: a measured run goes on past --seconds until this many ops completed,
#: so the p90 always has at least ten samples beyond it ...
MIN_OPS = 110
#: ... but stops measuring after this long regardless
MAX_MEASURE_SECONDS = 120.0


def session_setup(workload: str, seed: int, workdir: Path):
    """Everything a user pays before the first op: imports, inputs,
    static phase and compile, one warm-up op."""
    import repro.cli  # noqa: F401 - users enter through the CLI

    return WORKLOADS[workload](seed, str(workdir))


def setup_probe(workload: str, seed: int) -> float:
    """Set-up seconds of one fresh session in a subprocess, at the
    reference speed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def percentile_ms(latencies, cut: int):
    """The cut/10 percentile in ms and how many samples lie beyond it."""
    value = statistics.quantiles(latencies, n=10)[cut - 1]
    return value * 1000.0, sum(1 for x in latencies if x > value)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_seconds(seconds: float) -> float:
    """*seconds* just spent, at the reference speed measured now."""
    speed = SpeedProbe()
    for _ in range(3):
        speed.sample()
    return seconds / speed.slowdown()


def end_to_end(args, workload, setup_s: float):
    """Times are at the reference speed: each op's measured next to it,
    each set-up's right after it."""
    samples = [setup_s] + [
        setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
    ]
    speed = SpeedProbe()
    ops = workload.run(Budget(args.seconds, MIN_OPS, MAX_MEASURE_SECONDS, speed=speed))
    slowdown = speed.slowdown()
    wall = [op.seconds for op in ops]
    latencies = speed.scaled_seconds(ops)
    p50, _ = percentile_ms(latencies, 5)
    p90, beyond = percentile_ms(latencies, 9)
    metrics = {
        "ops_per_s": len(ops) / sum(latencies),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "setup_s": statistics.median(samples),
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"{args.workload}: {len(ops)} ops in {sum(wall):.2f} s; "
          f"set-up samples {', '.join(f'{s:.3f}' for s in samples)} s at reference speed; "
          f"machine slowdown {slowdown:.4f} over {len(speed.samples)} kernel calls")
    print(f"wall clock: {len(ops) / sum(wall):.4f} ops/s, "
          f"p50 {percentile_ms(wall, 5)[0]:.2f} ms, p90 {percentile_ms(wall, 9)[0]:.2f} ms")
    print(f"op_p90_ms from {len(ops)} samples, {beyond} beyond it")
    if beyond < 10:
        print(f"warning: only {beyond} samples beyond the p90", file=sys.stderr)
    return ops, True, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}


def traced(args, workload, workdir: Path):
    """The same ops untraced, traced, and untraced again (A-B-A, so a
    machine whose speed drifts during the run shifts both sides alike);
    each pass takes about a third of the time.  Layer times and rates
    are scaled by the run's median speed, op rates op by op as in
    :func:`end_to_end`."""
    from tracing import LAYER_METRICS, OVERHEAD_METRICS, Tracer

    speed = SpeedProbe()
    third = args.seconds / 3.0
    first = workload.run(Budget(third, 1, MAX_MEASURE_SECONDS / 3.0, speed=speed))
    tracer = Tracer()
    tracer.install()
    try:
        replay = WORKLOADS[args.workload](args.seed, str(workdir))
        ops = replay.run(Budget(count=len(first), speed=speed), tracer)
    finally:
        tracer.uninstall()
    last = workload.run(Budget(count=len(first), speed=speed))
    verdicts = [[(o.key, o.verdict) for o in run] for run in (first, ops, last)]
    same = verdicts[0] == verdicts[1] == verdicts[2]
    if not same:
        print("error: traced verdicts differ from untraced verdicts", file=sys.stderr)
    op_seconds = sum(op.seconds for op in ops)
    layers = tracer.metrics(args.workload, len(ops), op_seconds)
    units = {name: unit for name, unit, *_ in LAYER_METRICS}
    units.update(OVERHEAD_METRICS)
    slowdown = speed.slowdown()
    scale = {"ms": 1.0 / slowdown, "1/s": slowdown}
    layers = {k: v * scale.get(units[k], 1.0) for k, v in layers.items()}
    untraced_rate = 2 * len(first) / sum(speed.scaled_seconds(first + last))
    traced_rate = len(ops) / sum(speed.scaled_seconds(ops))
    layers["trace.ops_per_s_untraced"] = untraced_rate
    layers["trace.ops_per_s_traced"] = traced_rate
    layers["trace.overhead_pct"] = (untraced_rate / traced_rate - 1.0) * 100.0
    spans = WORK / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(str(spans))
    print(f"{args.workload}: {len(ops)} traced ops, {len(tracer.spans)} spans "
          f"written to {spans.relative_to(ROOT)}; traced verdicts "
          f"{'equal' if same else 'DIFFER from'} the untraced run's; "
          f"machine slowdown {slowdown:.4f}")
    return first + ops + last, same, {k: (v, units[k]) for k, v in layers.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}; run from the root of "
              "a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = session_setup(args.workload, args.seed, workdir)
        setup_s = reference_seconds(time.perf_counter() - T0)
        if args.setup_probe:
            print(setup_s)
            return 0
        if args.trace:
            ops, same, metrics = traced(args, workload, workdir)
        else:
            ops, same, metrics = end_to_end(args, workload, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for op in ops if not op.ok)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and same,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
