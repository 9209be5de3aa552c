"""Parallel campaign execution: determinism, resume, crash isolation.

The contract under test: the worker count is *only* a wall-clock knob.
For any ``jobs`` value the merged report and the exit status must be
identical to a serial run (with ``record_timing`` off, bit-exact), and
a journal written by a parallel run must resume cleanly under any other
worker count.
"""

import json
import os

import pytest

from repro.campaign import (
    STATUS_QUARANTINED,
    CampaignConfig,
    CellTask,
    Journal,
    default_plan_matrix,
    replay_journal,
    resolve_jobs,
    run_campaign,
)
from repro.cli import main
from repro.home import Home
from repro.workloads.case_studies import case_study_2

RACY = """
program racy;
var a[1];
func main() {
    var provided = mpi_init_thread(MPI_THREAD_MULTIPLE);
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    omp parallel for for (var j = 0; j < 2; j = j + 1) {
        if (rank == 0) {
            mpi_send(a, 1, 1, 0, MPI_COMM_WORLD);
            mpi_recv(a, 1, 1, 0, MPI_COMM_WORLD);
        }
        if (rank == 1) {
            mpi_recv(a, 1, 0, 0, MPI_COMM_WORLD);
            mpi_send(a, 1, 0, 0, MPI_COMM_WORLD);
        }
    }
    mpi_finalize();
}
"""


def _config(jobs, journal=None, resume=False):
    return CampaignConfig(
        seeds=range(3),
        plans=default_plan_matrix(2, ["none", "downgrade"]),
        jobs=jobs,
        record_timing=False,
        journal=journal,
        resume=resume,
    )


def _report_bytes(result):
    return json.dumps(result.as_dict(), indent=2).encode("utf-8")


class TestResolveJobs:
    def test_auto_uses_cores_capped_by_cells(self):
        cores = os.cpu_count() or 1
        assert resolve_jobs("auto", 100) == cores
        assert resolve_jobs(None, 100) == cores
        assert resolve_jobs("auto", 1) == 1

    def test_explicit_count_capped_by_cells(self):
        assert resolve_jobs(4, 2) == 2
        assert resolve_jobs(2, 50) == 2
        assert resolve_jobs(1, 50) == 1

    def test_zero_cells_still_one_worker(self):
        assert resolve_jobs(8, 0) == 1

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1, 4)
        with pytest.raises(ValueError):
            resolve_jobs("three", 4)


class TestParallelDeterminism:
    def test_merged_report_bit_identical(self):
        """jobs=4 and jobs=1 produce byte-for-byte identical reports."""
        # one program object: AST node ids are assigned by a
        # process-global counter, so rebuilding would shift callsites
        program = case_study_2()
        results = {jobs: run_campaign(program, _config(jobs)) for jobs in (1, 4)}
        assert _report_bytes(results[1]) == _report_bytes(results[4])
        assert results[1].degraded == results[4].degraded is False
        assert results[4].report.classes() == results[1].report.classes()

    def test_outcomes_in_canonical_matrix_order(self):
        result = run_campaign(case_study_2(), _config(4))
        keys = [(o.plan, o.seed) for o in result.outcomes]
        expected = [
            (plan, seed)
            for plan in ("none", "downgrade")
            for seed in range(3)
        ]
        assert keys == expected

    def test_cell_task_is_picklable(self):
        import pickle

        plans = default_plan_matrix(2, ["crash"])
        task = CellTask(index=3, seed=7, plan_name="crash", plan=plans["crash"])
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task


class TestParallelResume:
    def test_resume_half_finished_parallel_journal(self, tmp_path):
        """A parallel journal cut to half its cells resumes to the full
        result under both serial and parallel execution."""
        program = case_study_2()
        full_path = str(tmp_path / "full.journal")
        full = run_campaign(program, _config(4, full_path))
        replay = replay_journal(full_path)
        done = [r for r in replay.records if r["type"] == "done"]
        assert len(done) == 6

        for jobs in (1, 4):
            half_path = str(tmp_path / f"half-{jobs}.journal")
            # keep an arbitrary (non-prefix) half, as an interrupted
            # out-of-order parallel run would have banked
            with Journal(half_path, replay.meta, fresh=True) as journal:
                for rec in done[::2]:
                    journal.append("done", cell=rec["cell"],
                                   outcome=rec["outcome"])
            lines = []
            result = run_campaign(
                program,
                _config(jobs, half_path, resume=True),
                progress=lines.append,
            )
            assert sum("(resumed)" in line for line in lines) == 3
            assert len(result.outcomes) == 6
            assert _report_bytes(result) == _report_bytes(full)


class WorkerKillingTool(Home):
    """Dies instantly in any worker process; healthy in the parent."""

    def __init__(self, parent_pid):
        super().__init__()
        self.parent_pid = parent_pid

    def run_config(self, *args, **kwargs):
        if os.getpid() != self.parent_pid:
            os._exit(13)
        return super().run_config(*args, **kwargs)


class TestCrashIsolation:
    def test_every_worker_killed_quarantines_every_cell(self):
        """Killing every worker process outright still completes the
        campaign: each cell is quarantined as poison and flagged, and
        the report degrades to the static-only candidates."""
        lines = []
        result = run_campaign(
            case_study_2(),
            _config(4),
            tool=WorkerKillingTool(os.getpid()),
            progress=lines.append,
        )
        assert not result.interrupted
        assert len(result.outcomes) == 6
        assert all(o.status == STATUS_QUARANTINED for o in result.outcomes)
        assert sum("QUARANTINED" in line for line in lines) == 6
        assert "QUARANTINED" in result.summary()
        assert result.degraded


class TestCliJobs:
    @pytest.fixture()
    def racy_file(self, tmp_path):
        path = tmp_path / "racy.mini"
        path.write_text(RACY)
        return str(path)

    def test_jobs_flag_byte_identical_across_worker_counts(self, racy_file, tmp_path):
        """Real CLI invocations (fresh processes, so AST node ids are
        reproducible) emit bit-identical reports for any --jobs."""
        import subprocess
        import sys

        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        blobs = {}
        for jobs in ("1", "4"):
            report = tmp_path / f"r-{jobs}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli",
                 "campaign", racy_file, "--seeds", "2", "--plans", "none,crash",
                 "--jobs", jobs, "--no-timing", "--json", str(report)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            blobs[jobs] = report.read_bytes()
        assert blobs["1"] == blobs["4"]

    @pytest.mark.parametrize("command", ["campaign", "serve", "fuzz"])
    def test_bad_jobs_value_rejected(self, command, racy_file, tmp_path, capsys):
        target = {
            "campaign": [racy_file],
            "serve": [str(tmp_path / "spool")],
            "fuzz": [],
        }[command]
        code = main([command, *target, "--jobs", "zero"])
        assert code == 2
        assert "--jobs" in capsys.readouterr().err
