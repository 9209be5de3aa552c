"""Durable service path tests: supervised workers, drills, resume.

The invariant under test, end to end: however a durable campaign is
disturbed — a worker SIGKILLed mid-cell, the coordinator hard-killed
and resumed, a poison cell that murders every worker it touches — the
merged report is byte-identical to an undisturbed run
(with ``record_timing`` off), and the campaign always terminates.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.campaign import (
    CampaignConfig,
    STATUS_QUARANTINED,
    default_plan_matrix,
    run_campaign,
)
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


def _config(tmp_path, tag, **overrides):
    settings = dict(
        seeds=range(3),
        plans=default_plan_matrix(2, ["none", "downgrade"]),
        record_timing=False,
        journal=str(tmp_path / f"{tag}.journal.jsonl"),
        lease_seconds=120.0,
    )
    settings.update(overrides)
    return CampaignConfig(**settings)


def _blob(result):
    return json.dumps(result.as_dict(), sort_keys=True)


class TestDurableEqualsLegacy:
    def test_serial_durable_matches_legacy(self, tmp_path):
        # one program object: AST node ids are process-global, so
        # byte-comparing reports requires the same prepared program
        program = case_study_2()
        legacy = run_campaign(
            program,
            CampaignConfig(seeds=range(3),
                           plans=default_plan_matrix(2, ["none", "downgrade"]),
                           record_timing=False, jobs=1),
        )
        durable = run_campaign(
            program, _config(tmp_path, "serial", jobs=1)
        )
        assert _blob(legacy) == _blob(durable)

    def test_supervised_matches_legacy(self, tmp_path):
        program = case_study_2()
        legacy = run_campaign(
            program,
            CampaignConfig(seeds=range(3),
                           plans=default_plan_matrix(2, ["none", "downgrade"]),
                           record_timing=False, jobs=1),
        )
        supervised = run_campaign(
            program, _config(tmp_path, "sup", jobs=2)
        )
        assert _blob(legacy) == _blob(supervised)


class TestWorkerKillDrill:
    def test_killed_worker_is_reclaimed_and_report_unchanged(self, tmp_path):
        program = case_study_2()
        baseline = run_campaign(
            program, _config(tmp_path, "base", jobs=2)
        )
        lines = []
        drilled = run_campaign(
            program,
            _config(tmp_path, "drill", jobs=2, drill_kill_worker_after=1),
            progress=lines.append,
        )
        assert any("lease reclaimed" in line for line in lines), lines
        assert not drilled.interrupted
        assert _blob(baseline) == _blob(drilled)
        # externally-killed workers never push a healthy cell into
        # quarantine: the crash count stays under the cap
        assert drilled.status_counts().get(STATUS_QUARANTINED) is None


class TestPoisonCell:
    def test_poison_cell_quarantined_without_stalling(self, tmp_path):
        from repro.minilang import parse

        lines = []
        result = run_campaign(
            parse(RACY),
            _config(
                tmp_path, "poison", jobs=2,
                plans=default_plan_matrix(2, ["none", "killworker"]),
                seeds=range(2), poison_retries=1,
            ),
            progress=lines.append,
        )
        assert not result.interrupted
        assert len(result.outcomes) == 4
        statuses = {
            (o.seed, o.plan): o.status for o in result.outcomes
        }
        assert statuses[(0, "none")] == "ok"
        assert statuses[(1, "none")] == "ok"
        assert statuses[(0, "killworker")] == STATUS_QUARANTINED
        assert statuses[(1, "killworker")] == STATUS_QUARANTINED
        assert any("QUARANTINED" in line for line in lines)
        # the quarantine is loud in the summary, and healthy cells
        # still contributed their findings
        assert "QUARANTINED" in result.summary()
        assert result.report.classes()

    def test_killworker_plan_is_harmless_outside_workers(self):
        # in a serial (non-disposable) process the drill degrades to an
        # exception that per-cell isolation converts to an error
        from repro.minilang import parse

        result = run_campaign(
            parse(RACY),
            CampaignConfig(seeds=[0],
                           plans=default_plan_matrix(2, ["killworker"]),
                           record_timing=False, jobs=1),
        )
        (outcome,) = result.outcomes
        assert outcome.status == "error"
        assert "worker-kill drill" in outcome.error


class PidTool(Home):
    """Fails every run with the pid of the process the run was in."""

    def run_config(self, *args, **kwargs):
        raise RuntimeError(f"pid={os.getpid()}")


class NestedCampaignTool(Home):
    """Every run is a ``jobs=2`` campaign of its own (as in the fuzz
    jobs oracle); the cell's error reports which processes ran what."""

    def run_config(self, *args, **kwargs):
        from repro.minilang import parse

        inner = run_campaign(
            parse(RACY),
            CampaignConfig(seeds=range(2),
                           plans=default_plan_matrix(2, ["none"]),
                           retries=0, record_timing=False, jobs=2),
            tool=PidTool(),
        )
        pids = sorted(int(o.error.rsplit("=", 1)[1]) for o in inner.outcomes)
        raise RuntimeError(json.dumps({"outer": os.getpid(), "inner": pids}))


class TestNestedSupervision:
    def test_supervised_cell_runs_a_supervised_campaign(self, tmp_path):
        from repro.minilang import parse

        result = run_campaign(
            parse(RACY),
            _config(tmp_path, "nested", jobs=2, seeds=range(2),
                    plans=default_plan_matrix(2, ["none"]), retries=0),
            tool=NestedCampaignTool(),
        )
        assert len(result.outcomes) == 2
        for outcome in result.outcomes:
            ran = json.loads(outcome.error.split(": ", 1)[1])
            assert ran["outer"] != os.getpid()
            # each inner cell ran on its own worker of the outer cell
            assert len(set(ran["inner"])) == 2
            assert ran["outer"] not in ran["inner"]
            assert os.getpid() not in ran["inner"]


class TestInterruption:
    def test_stop_event_yields_partial_flagged_result(self, tmp_path):
        import threading

        stop = threading.Event()
        seen = []

        def on_cell(outcomes):
            seen.append(len(outcomes))
            if len(outcomes) >= 2:
                stop.set()

        program = case_study_2()
        result = run_campaign(
            program, _config(tmp_path, "stop", jobs=1),
            stop=stop, on_cell=on_cell,
        )
        assert result.interrupted
        assert 2 <= len(result.outcomes) < 6
        assert "INTERRUPTED" in result.summary()
        assert result.as_dict()["interrupted"] is True
        # and the journal resumes it to exactly the uninterrupted state
        resumed = run_campaign(
            program, _config(tmp_path, "stop", jobs=1, resume=True)
        )
        clean = run_campaign(
            program, _config(tmp_path, "clean", jobs=1)
        )
        assert _blob(resumed) == _blob(clean)


class TestCoordinatorKillDrill:
    """The acceptance drill: kill -9 the coordinator, resume, compare."""

    @pytest.fixture()
    def racy_file(self, tmp_path):
        path = tmp_path / "racy.mini"
        path.write_text(RACY)
        return str(path)

    def _cli(self, args, timeout=300):
        import repro

        src_dir = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.cli"] + args,
            env=env, capture_output=True, text=True, timeout=timeout,
        )

    def test_hard_killed_coordinator_resumes_byte_identical(
        self, racy_file, tmp_path
    ):
        base = [
            "campaign", racy_file, "--seeds", "2", "--plans", "none,downgrade",
            "--jobs", "2", "--no-timing",
        ]
        clean = self._cli(base + [
            "--journal", str(tmp_path / "c.journal"),
            "--json", str(tmp_path / "c.json"),
        ])
        assert clean.returncode == 0, clean.stderr
        drilled = self._cli(base + [
            "--journal", str(tmp_path / "d.journal"),
            "--json", str(tmp_path / "d.json"),
            "--drill-abort-after", "1",
        ])
        assert drilled.returncode == 137, (drilled.stdout, drilled.stderr)
        assert not (tmp_path / "d.json").exists()
        resumed = self._cli(base + [
            "--journal", str(tmp_path / "d.journal"),
            "--json", str(tmp_path / "d.json"),
            "--resume",
        ])
        assert resumed.returncode == 0, resumed.stderr
        assert (tmp_path / "c.json").read_bytes() \
            == (tmp_path / "d.json").read_bytes()
