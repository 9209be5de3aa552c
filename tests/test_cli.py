"""CLI tests (argument parsing and end-to-end subcommands)."""

import pytest

from repro.cli import main

TINY_RACY = """
program tiny;
var a[2];
func main() {
    var provided = mpi_init_thread(MPI_THREAD_MULTIPLE);
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    var partner = 1 - rank;
    mpi_send(a, 1, partner, 5, MPI_COMM_WORLD);
    mpi_send(a, 1, partner, 5, MPI_COMM_WORLD);
    omp parallel num_threads(2) {
        mpi_recv(a, 1, partner, 5, MPI_COMM_WORLD);
    }
    mpi_finalize();
}
"""

TINY_CLEAN = """
program clean;
func main() {
    var provided = mpi_init_thread(MPI_THREAD_MULTIPLE);
    omp parallel num_threads(2) { compute(2); }
    print("ok");
    mpi_finalize();
}
"""


@pytest.fixture
def racy_file(tmp_path):
    path = tmp_path / "racy.hmp"
    path.write_text(TINY_RACY)
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.hmp"
    path.write_text(TINY_CLEAN)
    return str(path)


class TestCheck:
    def test_check_racy_exits_nonzero(self, racy_file, capsys):
        code = main(["check", racy_file, "--procs", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "ConcurrentRecvViolation" in out

    def test_check_clean_exits_zero(self, clean_file, capsys):
        code = main(["check", clean_file, "--procs", "2"])
        assert code == 0
        assert "no thread-safety violations" in capsys.readouterr().out

    @pytest.mark.parametrize("tool", ["home", "marmot", "itc", "base"])
    def test_all_tools_selectable(self, clean_file, tool, capsys):
        assert main(["check", clean_file, "--tool", tool]) == 0

    def test_verbose_flag(self, racy_file, capsys):
        main(["check", racy_file, "-v"])
        # verbose output at minimum doesn't crash and prints the summary
        assert "HOME" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/prog.hmp"]) == 2

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.hmp"
        bad.write_text("program p;\nfunc main() { var = ; }")
        assert main(["check", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error_is_single_file_line_col_diagnostic(self, tmp_path,
                                                            capsys):
        bad = tmp_path / "bad.hmp"
        bad.write_text("program p;\nfunc main() { var = ; }")
        assert main(["check", str(bad)]) == 2
        err = capsys.readouterr().err.strip()
        # one grep-able compiler-style line: file:line:col: error: message
        assert len(err.splitlines()) == 1
        assert err.startswith(f"{bad}:2:")
        prefix, _, rest = err.partition(": error: ")
        path, line, col = prefix.rsplit(":", 2)
        assert (path, line) == (str(bad), "2")
        assert col.isdigit() and rest


class TestStatic:
    def test_static_reports_sites(self, racy_file, capsys):
        main(["static", racy_file])
        out = capsys.readouterr().out
        assert "MPI call sites" in out

    def test_static_dump_prints_instrumented_source(self, racy_file, capsys):
        main(["static", racy_file, "--dump"])
        out = capsys.readouterr().out
        assert "hmpi_recv" in out


OMP_RACY = """
program omprace;
func main() {
    var provided = mpi_init_thread(MPI_THREAD_MULTIPLE);
    var total = 0;
    omp parallel num_threads(2) {
        total = total + 1;
    }
    mpi_finalize();
}
"""


class TestStaticRaces:
    @pytest.fixture
    def omp_racy_file(self, tmp_path):
        path = tmp_path / "omprace.hmp"
        path.write_text(OMP_RACY)
        return str(path)

    def test_static_text_shows_candidates_and_prunes(self, omp_racy_file, capsys):
        main(["static", omp_racy_file])
        out = capsys.readouterr().out
        assert "static race candidates: 2" in out
        assert "[static-race] total" in out
        assert "> " in out  # source excerpt at the racing line
        assert "prune counters:" in out
        # dataflow and race prune counters land in the same block
        for kind in ("envelope", "lockstate", "mhp", "race-mhp", "race-lock"):
            assert f"{kind}:" in out

    def test_static_json_includes_races_and_prunes(self, omp_racy_file, capsys):
        import json

        main(["static", omp_racy_file, "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["races"]["monitored_vars"] == ["total"]
        (cand,) = [
            c for c in data["races"]["candidates"]
            if (c["a"]["kind"], c["b"]["kind"]) == ("write", "write")
        ]
        assert cand["var"] == "total"
        assert cand["a"]["loc"] and cand["b"]["loc"]
        # v3: one uniform `prunes` section with per-pass sub-dicts
        prunes = data["prunes"]
        assert set(prunes) == {"dataflow", "races", "collectives", "total"}
        assert set(prunes["dataflow"]) >= {"envelope", "lockstate", "mhp"}
        assert "race-mhp" in prunes["races"]
        assert set(prunes["collectives"]) >= {"div-uniform", "div-serial"}
        assert prunes["total"] == sum(
            n for sec in ("dataflow", "races", "collectives")
            for n in prunes[sec].values()
        )
        assert data["schema_version"] == 3
        assert data["interproc"] is not None

    def test_static_no_races_flag(self, omp_racy_file, capsys):
        main(["static", omp_racy_file, "--no-races"])
        out = capsys.readouterr().out
        assert "static race candidates" not in out

    def test_check_verbose_prints_triage(self, omp_racy_file, capsys):
        code = main(["check", omp_racy_file, "-v"])
        out = capsys.readouterr().out
        assert code == 1
        assert "race-directed monitoring: total" in out
        assert "static race triage:" in out
        assert "confirmed by dynamic phase: 1" in out

    def test_clean_program_keeps_monitoring_off(self, clean_file, capsys):
        main(["check", clean_file, "-v"])
        out = capsys.readouterr().out
        assert "race-directed monitoring" not in out


class TestRun:
    def test_run_prints_program_output(self, clean_file, capsys):
        code = main(["run", clean_file, "--procs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[rank 0.t0] ok" in out

    def test_run_deadlock_exit_code(self, tmp_path, capsys):
        src = """
program dl;
var a[1];
func main() {
    mpi_init();
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    if (rank == 0) { mpi_recv(a, 1, 1, 1, MPI_COMM_WORLD); }
}
"""
        path = tmp_path / "dl.hmp"
        path.write_text(src)
        assert main(["run", str(path), "--procs", "2"]) == 2
        assert "DEADLOCK" in capsys.readouterr().out


class TestFigureAndDemo:
    def test_figure_4_reduced_sweep(self, capsys):
        code = main(["figure", "4", "--proc-list", "2", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "LU-MZ" in out and "HOME" in out

    def test_figure_7_reduced_sweep(self, capsys):
        code = main(["figure", "7", "--proc-list", "2", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "overhead" in out

    def test_demo_runs_case_studies(self, capsys):
        code = main(["demo"])
        out = capsys.readouterr().out
        assert code == 0
        assert "case_study_1" in out and "case_study_2" in out


class TestRenderingFlags:
    def test_excerpts_flag(self, racy_file, capsys):
        main(["check", racy_file, "--excerpts"])
        out = capsys.readouterr().out
        assert "> " in out and "mpi_recv" in out

    def test_json_format(self, racy_file, capsys):
        import json

        code = main(["check", racy_file, "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1
        assert data["count"] >= 1
        assert data["classes"] == ["ConcurrentRecvViolation"]

    def test_fix_hints_flag(self, racy_file, capsys):
        main(["check", racy_file, "--fix-hints"])
        assert "suggested fixes" in capsys.readouterr().out

    def test_save_and_analyze_trace(self, racy_file, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        main(["check", racy_file, "--save-trace", str(trace)])
        capsys.readouterr()
        code = main(["analyze", str(trace)])
        out = capsys.readouterr().out
        assert code == 1
        assert "ConcurrentRecvViolation" in out

    def test_analyze_with_degraded_detector(self, racy_file, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        main(["check", racy_file, "--save-trace", str(trace)])
        capsys.readouterr()
        code = main(["analyze", str(trace), "--no-lockset", "--no-lock-edges"])
        out = capsys.readouterr().out
        assert "ConcurrentRecvViolation" in out


class TestFixSubcommand:
    def test_fix_writes_verified_program(self, racy_file, tmp_path, capsys):
        out = tmp_path / "fixed.hmp"
        code = main(["fix", racy_file, "-o", str(out)])
        text = capsys.readouterr().out
        assert code == 0
        assert "after:  0 finding(s)" in text
        assert "omp critical (home_repair)" in out.read_text()
        # the written program checks clean
        capsys.readouterr()
        assert main(["check", str(out)]) == 0

    def test_fix_on_clean_program(self, clean_file, capsys):
        code = main(["fix", clean_file])
        assert code == 0
        assert "nothing to fix" in capsys.readouterr().out


FUNNELED_RACY = """
program funneled;
var a[2];
func main() {
    var provided = mpi_init_thread(MPI_THREAD_FUNNELED);
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    var partner = 1 - rank;
    mpi_send(a, 1, partner, 5, MPI_COMM_WORLD);
    mpi_send(a, 1, partner, 5, MPI_COMM_WORLD);
    omp parallel num_threads(2) {
        mpi_recv(a, 1, partner, 5, MPI_COMM_WORLD);
    }
    mpi_finalize();
}
"""


class TestThreadLevelMode:
    """End-to-end ``--thread-level-mode`` coverage through ``check``."""

    @pytest.fixture
    def funneled_file(self, tmp_path):
        path = tmp_path / "funneled.hmp"
        path.write_text(FUNNELED_RACY)
        return str(path)

    def test_permissive_executes_breaching_calls(self, funneled_file, capsys):
        code = main(["check", funneled_file,
                     "--thread-level-mode", "permissive", "-v"])
        out = capsys.readouterr().out
        assert code == 1
        assert "InitializationViolation" in out
        assert "ConcurrentRecvViolation" in out
        assert "non-main thread" in out
        assert "aborted" not in out

    def test_strict_aborts_breaching_thread(self, funneled_file, capsys):
        code = main(["check", funneled_file,
                     "--thread-level-mode", "strict", "-v"])
        out = capsys.readouterr().out
        assert code == 1
        # the offending thread dies like under a strict MPI library...
        assert "aborted" in out
        # ...but the wrapper writes landed first, so HOME still reports
        assert "ConcurrentRecvViolation" in out

    def test_skip_mode_accepted(self, funneled_file, capsys):
        code = main(["check", funneled_file, "--thread-level-mode", "skip"])
        assert code == 1
        assert "ConcurrentRecvViolation" in capsys.readouterr().out

    def test_default_mode_unchanged(self, funneled_file, capsys):
        """No flag: the tool's own default (permissive) applies."""
        code = main(["check", funneled_file, "-v"])
        out = capsys.readouterr().out
        assert code == 1
        assert "aborted" not in out

    def test_invalid_mode_rejected(self, funneled_file):
        with pytest.raises(SystemExit):
            main(["check", funneled_file, "--thread-level-mode", "bogus"])


class TestCampaignCommand:
    def test_campaign_over_file(self, racy_file, capsys):
        code = main(["campaign", racy_file, "--seeds", "2",
                     "--plans", "none,crash"])
        out = capsys.readouterr().out
        assert code == 0
        assert "4 run(s)" in out
        assert "ConcurrentRecvViolation" in out

    def test_campaign_force_fail_degrades(self, racy_file, capsys):
        code = main(["campaign", racy_file, "--seeds", "2", "--force-fail"])
        out = capsys.readouterr().out
        assert code == 1
        assert "DEGRADED REPORT" in out
        assert "STATIC-ONLY" in out

    def test_campaign_json_and_journal(self, racy_file, tmp_path, capsys):
        import json

        from repro.campaign import replay_journal

        report = tmp_path / "r.json"
        journal = tmp_path / "c.journal"
        code = main(["campaign", racy_file, "--seeds", "2", "--plans", "none",
                     "--jobs", "1", "--json", str(report),
                     "--journal", str(journal)])
        assert code == 0
        data = json.loads(report.read_text())
        assert data["runs"] == 2 and not data["degraded"]
        done = [r for r in replay_journal(str(journal)).records
                if r["type"] == "done"]
        assert [r["outcome"] for r in done] == data["outcomes"]

    def test_campaign_resume_from_journal(self, racy_file, tmp_path, capsys):
        journal = str(tmp_path / "c.journal")
        main(["campaign", racy_file, "--seeds", "2", "--plans", "none",
              "--journal", journal])
        capsys.readouterr()
        code = main(["campaign", racy_file, "--seeds", "2", "--plans", "none",
                     "--journal", journal, "--resume", "-v"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("(resumed)") == 2

    @pytest.mark.parametrize("argv", [
        ["campaign", "--npb", "lu", "--resume"],
        ["campaign", "--npb", "lu", "--drill-abort-after", "1"],
        ["fuzz", "--seeds", "1", "--resume"],
    ])
    def test_journal_only_flags_need_journal(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "needs --journal" in err[0]

    def test_campaign_npb_smoke(self, capsys):
        code = main(["campaign", "--npb", "lu", "--seeds", "1",
                     "--plans", "downgrade", "--budget-steps", "200000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "InitializationViolation" in out

    def test_unknown_plan_is_config_error(self, racy_file, capsys):
        code = main(["campaign", racy_file, "--plans", "gremlins"])
        assert code == 2
        assert "unknown fault plan" in capsys.readouterr().err

    def test_file_and_npb_mutually_exclusive(self, racy_file, capsys):
        assert main(["campaign", racy_file, "--npb", "lu"]) == 2
        assert main(["campaign"]) == 2


class TestMessageRaceFlag:
    def test_msg_races_reported(self, tmp_path, capsys):
        src = tmp_path / "wild.hmp"
        src.write_text("""
program wild;
var buf[1];
func main() {
    var provided = mpi_init_thread(MPI_THREAD_MULTIPLE);
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    if (rank == 1) { mpi_send(buf, 1, 0, 5, MPI_COMM_WORLD); }
    if (rank == 2) { mpi_send(buf, 1, 0, 5, MPI_COMM_WORLD); }
    if (rank == 0) {
        mpi_recv(buf, 1, MPI_ANY_SOURCE, 5, MPI_COMM_WORLD);
        mpi_recv(buf, 1, MPI_ANY_SOURCE, 5, MPI_COMM_WORLD);
    }
    mpi_finalize();
}
""")
        main(["check", str(src), "--procs", "3", "--msg-races"])
        out = capsys.readouterr().out
        assert "MessageRace" in out

    def test_no_msg_races_on_clean(self, clean_file, capsys):
        main(["check", clean_file, "--msg-races"])
        assert "no nondeterministic message matches" in capsys.readouterr().out


OMP_DIVERGENT = """
program divcli;
func main() {
    var provided = mpi_init_thread(MPI_THREAD_MULTIPLE);
    omp parallel num_threads(2) {
        var tid = omp_get_thread_num();
        if (tid > 0) {
            omp single nowait { compute(1); }
        }
    }
    mpi_finalize();
}
"""


class TestStaticCollectives:
    @pytest.fixture
    def divergent_file(self, tmp_path):
        path = tmp_path / "divergent.hmp"
        path.write_text(OMP_DIVERGENT)
        return str(path)

    def test_static_text_shows_divergence_candidates(self, divergent_file,
                                                     capsys):
        main(["static", divergent_file])
        out = capsys.readouterr().out
        assert "collective-divergence candidate" in out
        assert "barrier-divergence" in out
        assert "omp single nowait" in out  # source excerpt at the site

    def test_static_no_collectives_flag(self, divergent_file, capsys):
        main(["static", divergent_file, "--no-collectives"])
        out = capsys.readouterr().out
        assert "collective-divergence" not in out

    def test_static_json_has_collectives_section(self, divergent_file, capsys):
        import json

        main(["static", divergent_file, "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["collectives"]["candidate_count"] == 1
        assert data["collectives"]["monitored_locs"]

    def test_check_verbose_prints_divergence_triage(self, divergent_file,
                                                    capsys):
        code = main(["check", divergent_file, "-v"])
        out = capsys.readouterr().out
        assert code == 1
        assert "collective-divergence triage:" in out
        assert "confirmed by dynamic phase: 1" in out
        assert "BarrierDivergenceViolation" in out

    def test_campaign_npb_div_confirms(self, capsys):
        code = main(["campaign", "--npb", "div", "--seeds", "1",
                     "--plans", "none"])
        out = capsys.readouterr().out
        assert code == 0
        assert "collective-divergence triage: 4 confirmed, 0 refuted" in out
        assert "BarrierDivergenceViolation" in out

    def test_campaign_npb_div_clean_stays_quiet(self, capsys):
        code = main(["campaign", "--npb", "div", "--clean", "--seeds", "1",
                     "--plans", "none"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no thread-safety violations detected" in out
