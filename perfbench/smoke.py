"""Fast self-test of the benchmark harness (about ten seconds).

Run from the root of a checkout::

    python3 perfbench/smoke.py

Checks that a short untraced run and a short traced run print every
metric ``BENCHMARK.json`` declares, each with its declared unit, and
that a deliberately wrong expected answer is counted as a failed op on
every workload.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import (  # noqa: E402
    FRESH_EXPECTED,
    WORKLOADS,
    Budget,
)


def _check(condition: bool, message: str) -> None:
    if not condition:
        print(f"smoke: FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def _run(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    lines = out.getvalue().strip().splitlines()
    _check(code == 0, f"run.py {' '.join(argv)} exited {code}")
    return json.loads(lines[-1]), lines[:-1]


def check_metrics_print(declared: dict) -> None:
    run.MIN_OPS = 12
    run.SETUP_SAMPLES = 2
    cases = (
        (["--workload", "campaign", "--seed", "0", "--seconds", "0.3", "--trace", "0"],
         "end_to_end"),
        (["--workload", "fresh-check", "--seed", "0", "--seconds", "1", "--trace", "1"],
         "per_layer"),
    )
    for argv, section in cases:
        result, lines = _run(argv)
        _check(result["correct"] and result["failed"] == 0,
               f"{section} run was not correct: {result}")
        want = {m["name"]: m["unit"] for m in declared[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        _check(got == want, f"{section} metrics {got} != declared {want}")
        for name, unit in want.items():
            _check(any(line.startswith(f"{name}: ") and line.endswith(f" {unit}")
                       for line in lines), f"{name} not printed with unit {unit}")


def check_wrong_answers() -> None:
    wrong = {
        "fresh-check": {kind: ("wrong",) for kind in FRESH_EXPECTED},
        "campaign": (("DataRace", "no_such_variable"),),
    }
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
        for name, expected in wrong.items():
            for answer, want_failed in ((None, 0), (expected, 2)):
                workload = WORKLOADS[name](0, workdir, answer)
                ops = workload.run(Budget(count=2))
                failed = sum(1 for op in ops if not op.ok)
                _check(len(ops) == 2 and failed == want_failed,
                       f"{name}: {failed}/{len(ops)} ops failed with expected "
                       f"answer {answer!r}, wanted {want_failed}")


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_metrics_print(declared)
    check_wrong_answers()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
