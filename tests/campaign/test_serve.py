"""Campaign service tests: spool protocol, partial reports, resume.

The service is driven the way a client would drive it — JSON files
renamed into ``incoming/`` — and always in ``once`` mode so the tests
never block on the watch loop.
"""

import json
import os
import threading

import pytest

from repro.campaign import CampaignService, ServeConfig, SPOOL_DIRS, serve

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


def submit(spool, name, spec):
    """Write-then-rename, the atomic submission protocol."""
    tmp = os.path.join(spool, f".{name}.tmp")
    with open(tmp, "w") as fh:
        json.dump(spec, fh)
    os.replace(tmp, os.path.join(spool, "incoming", f"{name}.json"))


def drain(spool, **overrides):
    config = ServeConfig(spool=str(spool), once=True, **overrides)
    service = CampaignService(config)
    interrupted = service.run()
    return service, interrupted


@pytest.fixture()
def spool(tmp_path):
    return tmp_path / "spool"


class TestSpoolLifecycle:
    def test_spool_directories_created(self, spool):
        CampaignService(ServeConfig(spool=str(spool)))
        for sub in SPOOL_DIRS:
            assert (spool / sub).is_dir()

    def test_good_submission_retired_to_done(self, spool):
        CampaignService(ServeConfig(spool=str(spool)))  # mkdir
        submit(spool, "racy", {"program": RACY, "seeds": [0, 1],
                               "plans": ["none"]})
        service, interrupted = drain(spool)
        assert not interrupted
        assert service.processed == 1 and service.failed == 0
        assert not os.listdir(spool / "incoming")
        assert not os.listdir(spool / "active")
        # submission and its journal retired together
        assert sorted(os.listdir(spool / "done")) == [
            "racy.journal.jsonl", "racy.json",
        ]
        report = json.load(open(spool / "reports" / "racy.report.json"))
        assert report["partial"] is False
        assert report["resolved_cells"] == report["planned_cells"] == 2
        assert report["classes"], "racy program produced no findings"

    def test_bad_submission_rejected_not_fatal(self, spool):
        CampaignService(ServeConfig(spool=str(spool)))
        submit(spool, "broken", {"program": "func main( {"})
        submit(spool, "notaspec", ["not", "an", "object"])
        submit(spool, "ok", {"program": RACY, "seeds": [0],
                             "plans": ["none"]})
        service, _ = drain(spool)
        # the two bad submissions were quarantined, the good one ran
        assert service.failed == 2 and service.processed == 1
        failed = sorted(os.listdir(spool / "failed"))
        assert "broken.error.txt" in failed and "broken.json" in failed
        assert "notaspec.error.txt" in failed
        why = (spool / "failed" / "notaspec.error.txt").read_text()
        assert "program" in why
        assert (spool / "reports" / "ok.report.json").exists()

    def test_non_json_files_ignored(self, spool):
        CampaignService(ServeConfig(spool=str(spool)))
        (spool / "incoming" / "README.txt").write_text("not a submission")
        service, _ = drain(spool)
        assert service.processed == 0 and service.failed == 0
        assert (spool / "incoming" / "README.txt").exists()


class TestPartialReportsAndResume:
    def test_interrupted_submission_stays_active_then_resumes(self, spool):
        CampaignService(ServeConfig(spool=str(spool)))
        submit(spool, "racy", {"program": RACY, "seeds": [0, 1, 2],
                               "plans": ["none", "downgrade"]})
        # first server: stopped after the second cell, mid-submission
        stop = threading.Event()
        count = [0]

        def watch(message):
            # cell completions announce as "[racy] [n/total] seed=..."
            if "/6]" in message:
                count[0] += 1
                if count[0] >= 2:
                    stop.set()

        first = CampaignService(
            ServeConfig(spool=str(spool), once=True), progress=watch,
            stop=stop,
        )
        assert first.run() is True  # interrupted
        assert first.processed == 0
        # partial report already streaming, submission still active
        report = json.load(open(spool / "reports" / "racy.report.json"))
        assert report["partial"] is True
        assert 2 <= report["resolved_cells"] < 6
        assert "racy.json" in os.listdir(spool / "active")
        assert "racy.journal.jsonl" in os.listdir(spool / "active")
        # second server on the same spool finishes the job
        service, interrupted = drain(spool)
        assert not interrupted and service.processed == 1
        report = json.load(open(spool / "reports" / "racy.report.json"))
        assert report["partial"] is False
        assert report["resolved_cells"] == 6

    def test_resumed_report_matches_uninterrupted_run(self, spool):
        CampaignService(ServeConfig(spool=str(spool)))
        spec = {"program": RACY, "seeds": [0, 1], "plans": ["none"]}
        submit(spool, "clean", spec)
        drain(spool)
        # same spec, interrupted after one cell then resumed
        submit(spool, "bumpy", spec)
        stop = threading.Event()

        def watch(message):
            if "/2]" in message:
                stop.set()

        CampaignService(ServeConfig(spool=str(spool), once=True),
                        progress=watch, stop=stop).run()
        drain(spool)
        clean = json.load(open(spool / "reports" / "clean.report.json"))
        bumpy = json.load(open(spool / "reports" / "bumpy.report.json"))
        for key in ("classes", "violations", "outcomes", "degraded"):
            assert clean[key] == bumpy[key], key

    def test_serve_helper_runs_once(self, spool):
        CampaignService(ServeConfig(spool=str(spool)))
        submit(spool, "racy", {"program": RACY, "seeds": [0],
                               "plans": ["none"]})
        assert serve(ServeConfig(spool=str(spool), once=True)) is False
        assert (spool / "done" / "racy.json").exists()
