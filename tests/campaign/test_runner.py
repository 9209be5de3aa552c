"""Campaign runner tests: isolation, merging, resume, degradation."""

import os

import pytest

from repro.campaign import (
    STATUS_BUDGET,
    STATUS_ERROR,
    STATUS_FORCED,
    STATUS_OK,
    CORRUPT_SUFFIX,
    CampaignConfig,
    CampaignRunner,
    default_plan_matrix,
    replay_journal,
    run_campaign,
)
from repro.faults import RANK_CRASH, FaultPlan, FaultSpec, builtin_plans
from repro.home import Home
from repro.minilang import parse, validate
from repro.violations.matcher import ViolationReport
from repro.violations.spec import Violation
from repro.workloads.case_studies import case_study_2, safe_funneled
from repro.workloads.npb.lu_mz import build_lu_mz

SPIN = """
program spin;
func main() {
    mpi_init();
    var i = 0;
    while (i < 100000) { i = i + 1; }
    mpi_finalize();
}
"""


def spin_program():
    program = parse(SPIN)
    validate(program)
    return program


class TestReportMerge:
    def make(self, vclass, proc):
        report = ViolationReport()
        report.add(Violation(vclass=vclass, proc=proc, message="m", callsites=(1,)))
        return report

    def test_merge_dedups_and_unions_ranks(self):
        a = self.make("X", 0)
        b = self.make("X", 1)
        a.merge(b)
        assert len(a) == 1
        key = a.violations[0].dedup_key()
        assert sorted(a.procs_by_finding[key]) == [0, 1]

    def test_merge_keeps_distinct_findings(self):
        a = self.make("X", 0)
        a.merge(self.make("Y", 0))
        assert sorted(a.classes()) == ["X", "Y"]


class TestHealthyCampaign:
    def test_matrix_runs_and_merges(self):
        config = CampaignConfig(
            seeds=range(2),
            plans=default_plan_matrix(2, ["none", "crash"]),
        )
        result = run_campaign(case_study_2(), config)
        assert len(result.outcomes) == 4
        assert result.status_counts() == {STATUS_OK: 4}
        assert not result.degraded
        # the fault-free single run's findings are all present
        single = Home().check(case_study_2(), nprocs=2, num_threads=2, seed=0)
        assert set(single.violations.classes()) <= set(result.report.classes())

    def test_crash_runs_are_isolated_and_analyzable(self):
        config = CampaignConfig(
            seeds=[0], plans={"crash": builtin_plans(2)["crash"]},
        )
        result = run_campaign(case_study_2(), config)
        (outcome,) = result.outcomes
        assert outcome.status == STATUS_OK
        assert outcome.deadlocked
        assert outcome.analyzable
        assert outcome.crashed_ranks == [1]

    def test_summary_mentions_runs_and_findings(self):
        result = run_campaign(
            case_study_2(), CampaignConfig(seeds=[0], plans=None)
        )
        text = result.summary()
        assert "1 run(s)" in text
        assert "ConcurrentRecvViolation" in text


class TestBudgets:
    def test_budget_exhaustion_salvages_partial_trace(self):
        config = CampaignConfig(seeds=[0], budget_steps=2000, retries=1)
        result = run_campaign(spin_program(), config)
        (outcome,) = result.outcomes
        assert outcome.status == STATUS_BUDGET
        assert "infinite loop" in outcome.failure
        assert outcome.events > 0
        assert outcome.analyzable
        # retry ran at the reduced budget and the longest trace was kept
        assert outcome.attempt in (0, 1)

    def test_campaign_survives_budget_cells_alongside_good_ones(self):
        config = CampaignConfig(seeds=[0], budget_steps=2000)
        good = run_campaign(case_study_2(), config)
        assert good.outcomes[0].status in (STATUS_OK, STATUS_BUDGET)


class TestErrorIsolation:
    class ExplodingTool(Home):
        def analyze(self, result, static):
            raise RuntimeError("analyzer exploded")

    class BrokenConfigTool(Home):
        def run_config(self, *args, **kwargs):
            raise RuntimeError("bad config")

    def test_analysis_crash_is_recorded_not_raised(self):
        result = run_campaign(
            case_study_2(), CampaignConfig(seeds=[0]),
            tool=self.ExplodingTool(),
        )
        (outcome,) = result.outcomes
        assert outcome.status == STATUS_OK
        assert not outcome.analyzable
        assert "analyzer exploded" in outcome.analysis_error
        assert result.degraded

    def test_run_config_crash_is_recorded_not_raised(self):
        result = run_campaign(
            case_study_2(), CampaignConfig(seeds=[0], retries=0),
            tool=self.BrokenConfigTool(),
        )
        (outcome,) = result.outcomes
        assert outcome.status == STATUS_ERROR
        assert "bad config" in outcome.error


class TestDegradation:
    def test_force_fail_yields_flagged_static_only_report(self):
        config = CampaignConfig(seeds=range(2), force_fail=True)
        result = run_campaign(case_study_2(), config)
        assert result.degraded
        assert all(o.status == STATUS_FORCED for o in result.outcomes)
        assert len(result.report) > 0
        assert all("STATIC-ONLY" in v.message for v in result.report)
        assert "DEGRADED REPORT" in result.summary()

    def test_static_only_findings_carry_no_rank(self):
        result = run_campaign(
            case_study_2(), CampaignConfig(seeds=[0], force_fail=True)
        )
        assert all(v.proc == -1 for v in result.report)


class TestJournalResume:
    def config(self, path, resume=False):
        return CampaignConfig(
            seeds=range(2),
            plans=default_plan_matrix(2, ["none", "downgrade"]),
            journal=path,
            resume=resume,
        )

    def test_journal_records_every_cell(self, tmp_path):
        path = str(tmp_path / "c.journal")
        run_campaign(case_study_2(), self.config(path))
        replay = replay_journal(path)
        assert sum(r["type"] == "done" for r in replay.records) == 4
        assert replay.meta["program"] == case_study_2().name
        assert "downgrade" in replay.meta["plans"]

    def test_resume_reuses_banked_outcomes(self, tmp_path):
        path = str(tmp_path / "c.journal")
        first = run_campaign(case_study_2(), self.config(path))
        lines = []
        second = run_campaign(
            case_study_2(), self.config(path, resume=True),
            progress=lines.append,
        )
        assert all("(resumed)" in line for line in lines)
        assert [o.as_dict() for o in second.outcomes] == [
            o.as_dict() for o in first.outcomes
        ]
        assert second.report.classes() == first.report.classes()

    def test_resume_with_unusable_journal_starts_cold(self, tmp_path):
        path = tmp_path / "c.journal"
        path.write_text("not json at all")
        result = run_campaign(case_study_2(), self.config(str(path), resume=True))
        assert len(result.outcomes) == 4

    def test_resume_rejects_other_programs_journal(self, tmp_path):
        path = str(tmp_path / "c.journal")
        run_campaign(case_study_2(), self.config(path))
        lines = []
        result = run_campaign(
            spin_program(),
            CampaignConfig(seeds=[0], journal=path, resume=True,
                           budget_steps=2000),
            progress=lines.append,
        )
        assert not any("(resumed)" in line for line in lines)
        assert len(result.outcomes) == 1

    def test_grown_matrix_still_resumes(self, tmp_path):
        # seeds and plans are the matrix axes, not part of the identity
        path = str(tmp_path / "c.journal")
        run_campaign(safe_funneled(),
                     CampaignConfig(seeds=[0], journal=path))
        lines = []
        result = run_campaign(
            safe_funneled(),
            CampaignConfig(seeds=[0, 1], journal=path, resume=True),
            progress=lines.append,
        )
        assert sum("(resumed)" in line for line in lines) == 1
        assert len(result.outcomes) == 2
        assert not os.path.exists(path + CORRUPT_SUFFIX)

    def test_foreign_program_findings_do_not_leak(self, tmp_path):
        # same seeds and plans, so every cell key matches: only the
        # journal header can tell the two campaigns apart
        path = str(tmp_path / "c.journal")
        config = CampaignConfig(seeds=[0, 1], plans={"none": None},
                                journal=path, resume=True)
        racy = run_campaign(build_lu_mz(inject=True), config)
        assert racy.report.classes()
        lines = []
        clean = run_campaign(safe_funneled(), config, progress=lines.append)
        assert not any("(resumed)" in line for line in lines)
        assert clean.report.classes() == []
        assert any("header differs in program" in line for line in lines)
        assert os.path.exists(path + CORRUPT_SUFFIX)

    def test_edited_source_with_same_name_starts_cold(self, tmp_path):
        path = str(tmp_path / "c.journal")
        config = CampaignConfig(seeds=[0], journal=path, resume=True,
                                budget_steps=2000)
        run_campaign(spin_program(), config)
        edited = parse(SPIN.replace("100000", "10"))
        validate(edited)
        assert edited.name == spin_program().name
        lines = []
        result = run_campaign(edited, config, progress=lines.append)
        assert not any("(resumed)" in line for line in lines)
        assert any("program_sha256" in line for line in lines)
        assert result.outcomes[0].status == STATUS_OK

    def test_changed_run_settings_start_cold(self, tmp_path):
        path = str(tmp_path / "c.journal")
        run_campaign(safe_funneled(), CampaignConfig(seeds=[0], journal=path))
        lines = []
        result = run_campaign(
            safe_funneled(),
            CampaignConfig(seeds=[0], journal=path, resume=True,
                           force_fail=True),
            progress=lines.append,
        )
        assert any("header differs in force_fail" in line for line in lines)
        assert result.outcomes[0].status == STATUS_FORCED

    def test_quarantine_moves_corrupt_file_aside(self, tmp_path):
        path = tmp_path / "c.journal"
        path.write_text('{"torn write')
        lines = []
        result = run_campaign(
            safe_funneled(),
            CampaignConfig(seeds=[0], journal=str(path), resume=True),
            progress=lines.append,
        )
        moved = tmp_path / ("c.journal" + CORRUPT_SUFFIX)
        assert moved.read_text() == '{"torn write'
        assert any(str(moved) in line for line in lines)
        # the path now holds this run's fresh journal
        replay = replay_journal(str(path))
        assert replay.meta["program"] == result.program
        assert sum(r["type"] == "done" for r in replay.records) == 1

    def test_runner_resumes_cold_after_quarantine(self, tmp_path):
        path = tmp_path / "c.journal"
        config = self.config(str(path), resume=True)
        first = run_campaign(case_study_2(), config)
        path.write_bytes(path.read_bytes()[:40])  # cut inside the header
        lines = []
        second = run_campaign(case_study_2(), config, progress=lines.append)
        assert not any("(resumed)" in line for line in lines)
        assert (tmp_path / ("c.journal" + CORRUPT_SUFFIX)).exists()
        assert [o.events for o in second.outcomes] == [
            o.events for o in first.outcomes
        ]
        assert second.report.classes() == first.report.classes()


class TestPlanMatrix:
    def test_default_is_builtin_set(self):
        assert set(default_plan_matrix(2)) == set(builtin_plans(2))

    def test_unknown_plan_rejected(self):
        with pytest.raises(KeyError, match="unknown fault plan"):
            default_plan_matrix(2, ["downgrade", "gremlins"])

    def test_prepare_happens_once(self):
        calls = []

        class CountingTool(Home):
            def prepare(self, program):
                calls.append(1)
                return super().prepare(program)

        runner = CampaignRunner(
            case_study_2(),
            CampaignConfig(seeds=range(3)),
            tool=CountingTool(),
        )
        runner.run()
        assert len(calls) == 1

    def test_rank_crash_spec_reaches_runs(self):
        plan = FaultPlan((FaultSpec(RANK_CRASH, rank=1, at_call=1),), name="c")
        result = run_campaign(
            case_study_2(),
            CampaignConfig(seeds=[0], plans={"c": plan}),
        )
        assert result.outcomes[0].faults_fired == 1
