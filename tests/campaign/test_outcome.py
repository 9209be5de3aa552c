"""Campaign outcome records: violation and outcome round trips."""

from repro.campaign import RunOutcome, violation_from_dict, violation_to_dict
from repro.violations.spec import Violation


class TestViolationSerialization:
    def test_round_trip(self):
        violation = Violation(
            vclass="ProbeViolation", proc=1, message="m",
            callsites=(3, 7), locs=("4:2",), threads=(1, 2), ops=("mpi_probe",),
        )
        again, procs = violation_from_dict(violation_to_dict(violation, [0, 1]))
        assert again == violation
        assert procs == [0, 1]

    def test_missing_procs_defaults_to_owner(self):
        violation = Violation(vclass="X", proc=4, message="m")
        data = violation_to_dict(violation, [])
        data.pop("procs")
        _, procs = violation_from_dict(data)
        assert procs == [4]


class TestRunOutcome:
    def test_round_trip(self):
        outcome = RunOutcome(
            seed=3, plan="crash", attempt=1, sim_seed=100006,
            status="budget", deadlocked=True, failure="budget blown",
            events=42, faults_fired=2, crashed_ranks=[1],
            violations=[violation_to_dict(
                Violation(vclass="X", proc=0, message="m", callsites=(1,)), [0]
            )],
        )
        again = RunOutcome.from_dict(outcome.as_dict())
        assert again == outcome

    def test_report_rebuilds_and_dedups(self):
        data = violation_to_dict(
            Violation(vclass="X", proc=0, message="m", callsites=(1,)), [0, 1]
        )
        outcome = RunOutcome(seed=0, plan="none", violations=[data, data])
        report = outcome.report()
        assert len(report) == 1
        key = report.violations[0].dedup_key()
        assert sorted(report.procs_by_finding[key]) == [0, 1]

    def test_analyzable_statuses(self):
        assert RunOutcome(seed=0, plan="p", status="ok").analyzable
        assert RunOutcome(seed=0, plan="p", status="budget").analyzable
        assert not RunOutcome(seed=0, plan="p", status="error").analyzable
        assert not RunOutcome(seed=0, plan="p", status="forced-fail").analyzable
        assert not RunOutcome(
            seed=0, plan="p", status="ok", analysis_error="boom"
        ).analyzable
