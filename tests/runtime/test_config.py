"""RunConfig validation and ExecutionResult surface tests."""

import pytest

from helpers import run_main

from repro.runtime import ExecutionResult, RunConfig
from repro.runtime.costmodel import (
    HOME_CHARGE,
    ITC_CHARGE,
    MARMOT_CHARGE,
    NO_INSTRUMENTATION,
)


class TestRunConfigValidation:
    def test_defaults_match_paper_setup(self):
        config = RunConfig()
        assert config.nprocs == 2
        assert config.num_threads == 2  # the paper's experiment setting

    def test_zero_procs_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(nprocs=0)

    def test_zero_threads_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(num_threads=0)

    def test_bad_thread_level_mode_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(thread_level_mode="lenient")

    @pytest.mark.parametrize("mode", ["skip", "permissive", "strict"])
    def test_valid_modes(self, mode):
        assert RunConfig(thread_level_mode=mode).thread_level_mode == mode


class TestChargePresets:
    def test_no_instrumentation_is_free(self):
        c = NO_INSTRUMENTATION
        assert c.wrapper_cost == c.mem_event_cost == c.manager_rtt == 0.0

    def test_itc_monitors_memory(self):
        # a memory event is charged only under the ITC model
        assert ITC_CHARGE.mem_event_cost > 0.0
        assert HOME_CHARGE.mem_event_cost == 0.0
        assert MARMOT_CHARGE.mem_event_cost == 0.0

    def test_marmot_serializes(self):
        assert MARMOT_CHARGE.manager_serializes
        assert MARMOT_CHARGE.manager_service > 0

    def test_relative_weights_tell_the_papers_story(self):
        # per-thread startup: ITC's binary instrumentation dwarfs HOME's
        assert ITC_CHARGE.per_thread_setup > 3 * HOME_CHARGE.per_thread_setup
        # HOME logs only monitored variables — no per-access cost at all
        assert HOME_CHARGE.mem_event_cost == 0.0


class TestExecutionResultSurface:
    def test_summary_fields(self):
        result = run_main("print(1);", nprocs=2, threads=2)
        text = result.summary()
        assert "procs=2" in text and "makespan=" in text

    def test_printed_lines_order_per_process(self):
        result = run_main("print(1);\nprint(2);", nprocs=1)
        assert result.printed_lines() == ["1", "2"]

    def test_stats_keys(self):
        result = run_main("compute(1);")
        assert set(result.stats) >= {
            "scheduler_steps", "messages_sent", "mpi_calls", "events",
        }
