"""Fix suggestions and the verified automatic repair."""

import pytest

from repro.errors import ToolError
from repro.home import check_program
from repro.minilang import parse, print_program
from repro.violations import (
    COLLECTIVE,
    CONCURRENT_RECV,
    CONCURRENT_REQUEST,
    INITIALIZATION,
    PROBE,
    Violation,
)
from repro.violations.fixes import (
    REPAIR_LOCK,
    apply_serializing_fix,
    repair_and_verify,
    suggest_fix,
    suggest_fixes,
)
from repro.workloads.case_studies import case_study_2
from repro.workloads.injection import inject_violations


class TestSuggestions:
    @pytest.mark.parametrize("vclass", [
        INITIALIZATION, CONCURRENT_RECV, CONCURRENT_REQUEST, PROBE, COLLECTIVE,
    ])
    def test_every_class_has_a_recipe(self, vclass):
        suggestion = suggest_fix(Violation(vclass=vclass, proc=0, message="m"))
        assert suggestion.vclass == vclass
        assert suggestion.detail

    def test_unknown_class_rejected(self):
        with pytest.raises(ToolError):
            suggest_fix(Violation(vclass="Mystery", proc=0, message="m"))

    def test_recv_fix_mentions_thread_id_tag(self):
        suggestion = suggest_fix(
            Violation(vclass=CONCURRENT_RECV, proc=0, message="m")
        )
        assert "omp_get_thread_num" in suggestion.detail

    def test_suggestions_deduplicated_per_report(self):
        report = check_program(case_study_2(), nprocs=2)
        suggestions = suggest_fixes(report.violations)
        assert [s.vclass for s in suggestions] == [CONCURRENT_RECV]

    def test_auto_fixable_flags(self):
        assert suggest_fix(
            Violation(vclass=CONCURRENT_RECV, proc=0, message="m")
        ).auto_fixable
        assert not suggest_fix(
            Violation(vclass=INITIALIZATION, proc=0, message="m")
        ).auto_fixable


CLEAN = """
program patient;
var data[8];
func main() {
    var provided = mpi_init_thread(MPI_THREAD_MULTIPLE);
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    var size = mpi_comm_size(MPI_COMM_WORLD);
    omp parallel num_threads(2) {
        omp for for (var i = 0; i < 8; i = i + 1) {
            data[i] = data[i] + 1.0;
        }
    }
    mpi_finalize();
}
"""


class TestAutomaticRepair:
    def _buggy(self, classes, **kw):
        return inject_violations(parse(CLEAN), classes, **kw).program

    def test_repair_inserts_named_critical(self):
        buggy = self._buggy([CONCURRENT_RECV])
        before = check_program(buggy, nprocs=2)
        repair = apply_serializing_fix(buggy, before.violations)
        assert repair.wrapped_statements >= 1
        assert f"omp critical ({REPAIR_LOCK})" in print_program(repair.program)

    def test_repair_does_not_mutate_original(self):
        buggy = self._buggy([CONCURRENT_RECV])
        snapshot = print_program(buggy)
        before = check_program(buggy, nprocs=2)
        apply_serializing_fix(buggy, before.violations)
        assert print_program(buggy) == snapshot

    @pytest.mark.parametrize("vclass", [
        CONCURRENT_RECV, CONCURRENT_REQUEST, PROBE, COLLECTIVE,
    ])
    def test_repair_then_verify_clean(self, vclass):
        buggy = self._buggy([vclass])
        before, repair, after = repair_and_verify(buggy, nprocs=2)
        assert vclass in before.violations.classes()
        assert vclass not in after.violations.classes()
        assert not after.deadlocked

    def test_repaired_program_still_terminates_across_seeds(self):
        buggy = self._buggy([CONCURRENT_RECV, COLLECTIVE])
        before = check_program(buggy, nprocs=2)
        repair = apply_serializing_fix(buggy, before.violations)
        for seed in range(3):
            report = check_program(repair.program, nprocs=2, seed=seed)
            assert not report.deadlocked

    def test_non_repairable_classes_untouched(self):
        buggy = self._buggy([INITIALIZATION, CONCURRENT_RECV])
        before, repair, after = repair_and_verify(buggy, nprocs=2)
        assert CONCURRENT_RECV not in after.violations.classes()
        # the init-level problem is structural: still reported
        assert INITIALIZATION in before.violations.classes()
        assert INITIALIZATION not in repair.targeted_classes

    def test_repair_with_no_findings_is_identity_like(self):
        clean = parse(CLEAN)
        report = check_program(clean, nprocs=2)
        repair = apply_serializing_fix(clean, report.violations)
        assert repair.wrapped_statements == 0
