"""General violation-injector tests: graft each class into a clean
program and confirm HOME detects exactly it."""

import pytest

from helpers import inject_all

from repro.errors import ToolError
from repro.home import check_program
from repro.minilang import ast_equal, parse, print_program, validate
from repro.violations import (
    COLLECTIVE,
    CONCURRENT_RECV,
    CONCURRENT_REQUEST,
    FINALIZATION,
    INITIALIZATION,
    PROBE,
)
from repro.workloads.injection import INJECTABLE_CLASSES, inject_violations

CLEAN = """
program victim;
var data[16];
func main() {
    var provided = mpi_init_thread(MPI_THREAD_MULTIPLE);
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    var size = mpi_comm_size(MPI_COMM_WORLD);
    omp parallel num_threads(2) {
        omp for for (var i = 0; i < 16; i = i + 1) {
            data[i] = data[i] + 1.0;
            compute(1);
        }
    }
    var total = mpi_allreduce(data[0], MPI_SUM, MPI_COMM_WORLD);
    mpi_finalize();
}
"""


def clean_program():
    return parse(CLEAN)


class TestInjectorMechanics:
    def test_original_program_untouched(self):
        prog = clean_program()
        snapshot = print_program(prog)
        inject_all(prog)
        assert print_program(prog) == snapshot

    def test_injected_program_validates_and_prints(self):
        injected = inject_all(clean_program())
        validate(injected.program)
        reparsed = parse(print_program(injected.program))
        assert ast_equal(injected.program, reparsed)

    def test_all_six_classes_injected(self):
        injected = inject_all(clean_program())
        assert sorted(injected.injected) == sorted([
            CONCURRENT_RECV, CONCURRENT_REQUEST, PROBE, COLLECTIVE,
            FINALIZATION, INITIALIZATION,
        ])

    def test_unknown_class_rejected(self):
        with pytest.raises(ToolError, match="cannot inject"):
            inject_violations(clean_program(), ["BogusViolation"])

    def test_requires_rank_and_size(self):
        src = """
program norank;
func main() {
    var provided = mpi_init_thread(MPI_THREAD_MULTIPLE);
    mpi_finalize();
}
"""
        with pytest.raises(ToolError, match="rank"):
            inject_violations(parse(src), [CONCURRENT_RECV])

    def test_initialization_requires_init_thread(self):
        src = """
program plaininit;
func main() {
    mpi_init();
    mpi_finalize();
}
"""
        with pytest.raises(ToolError, match="mpi_init_thread"):
            inject_violations(parse(src), [INITIALIZATION])

    def test_initialization_downgrades_level(self):
        injected = inject_violations(clean_program(), [INITIALIZATION])
        assert "MPI_THREAD_SERIALIZED" in print_program(injected.program)

    def test_clean_program_checks_clean(self):
        report = check_program(clean_program(), nprocs=2)
        assert len(report.violations) == 0


@pytest.mark.parametrize("vclass,expected", [
    (CONCURRENT_RECV, CONCURRENT_RECV),
    (CONCURRENT_REQUEST, CONCURRENT_REQUEST),
    (PROBE, PROBE),
    (COLLECTIVE, COLLECTIVE),
    (FINALIZATION, FINALIZATION),
])
class TestSingleInjectionDetection:
    def test_home_detects_exactly_the_injected_class(self, vclass, expected):
        injected = inject_violations(clean_program(), [vclass])
        report = check_program(injected.program, nprocs=2)
        classes = set(report.violations.classes())
        assert expected in classes
        # no cross-contamination: the other five classes stay silent
        others = set(INJECTABLE_CLASSES) - {expected, INITIALIZATION}
        assert not (classes & others - {expected})

    def test_injected_program_terminates(self, vclass, expected):
        from repro.runtime import RunConfig, run_program

        injected = inject_violations(clean_program(), [vclass])
        result = run_program(
            injected.program,
            RunConfig(nprocs=2, num_threads=2, thread_level_mode="permissive"),
        )
        assert not result.deadlocked


class TestCombinedInjection:
    def test_all_six_detected_together(self):
        injected = inject_all(clean_program())
        report = check_program(injected.program, nprocs=2)
        assert set(report.violations.classes()) >= {
            CONCURRENT_RECV, CONCURRENT_REQUEST, PROBE, COLLECTIVE,
            FINALIZATION, INITIALIZATION,
        }

    def test_skewed_injection_hides_from_marmot_not_home(self):
        from repro.baselines import Marmot

        injected = inject_violations(
            clean_program(), [CONCURRENT_RECV], skew=300
        )
        home = check_program(injected.program, nprocs=2)
        marmot = Marmot().check(injected.program, nprocs=2)
        assert CONCURRENT_RECV in home.violations.classes()
        assert CONCURRENT_RECV not in marmot.violations.classes()

    def test_four_process_run(self):
        injected = inject_all(clean_program())
        report = check_program(injected.program, nprocs=4)
        assert CONCURRENT_RECV in report.violations.classes()
