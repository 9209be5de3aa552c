"""Site-directed race monitoring: HOME watches only the access sites its
static race pass could not clear (``StaticRaceReport.monitored_locs``).

The rule: both sides of every candidate (a summary-instantiated side at
its callee's loc), plus every site of a monitored variable the pass
cannot pair completely — one with an unresolved interprocedural access,
or one named in a ``reduction`` clause (whose folds are no access
site).  The narrowed run sees the same schedule as a monitor-everything
run, so on the monitored variables it must find the very same races,
and its trace is the other run's with the unselected accesses dropped.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from helpers import npb_sources

from repro.events import MemAccess
from repro.fuzz.generator import generate_source
from repro.fuzz.oracles import _race_set
from repro.home import Home
from repro.minilang import parse, validate
from repro.runtime import run_program
from repro.workloads.case_studies import (
    case_study_1,
    case_study_2,
    case_study_2_fixed,
    safe_funneled,
)
from repro.workloads.npb import build_interproc_npb

CORPUS = Path(__file__).resolve().parents[2] / "examples" / "fuzz_corpus"


def _program(name):
    if name.startswith("npb-"):
        return parse(npb_sources()[name[4:]])
    if name.startswith("corpus-"):
        return parse((CORPUS / f"{name[7:]}.mini").read_text())
    return {
        "case-1": case_study_1, "case-2": case_study_2,
        "case-2-fixed": case_study_2_fixed, "funneled": safe_funneled,
    }[name]()


PROGRAMS = (
    [f"npb-{name}" for name in sorted(npb_sources())]
    + ["case-1", "case-2", "case-2-fixed", "funneled"]
    + [f"corpus-{path.stem}" for path in sorted(CORPUS.glob("seed-*.mini"))]
)


def _runs(program, seed=0, engine="bytecode", reference=None):
    """HOME's narrowed run of *program* and a run of the same schedule
    that monitors the sites *reference* (default: every site)."""
    validate(program)
    tool = Home()
    to_run, static = tool.prepare(program)
    runs = []
    for overrides in ({}, {"monitor_memory": True, "memory_sites": reference}):
        config = tool.run_config(
            2, 2, seed, static=static, engine=engine,
            max_steps=200_000, capture_partial=True,
            thread_level_mode="permissive", **overrides,
        )
        runs.append(run_program(to_run, config))
    return to_run, static.races, runs


def _loc(program, nid):
    loc = program.table.nodes[nid].loc
    return f"{loc.line}:{loc.col}"


def _race_sites(program, result, var):
    """The site pairs of *result*'s races on *var* (a fold is "fold")."""
    return {
        tuple(sorted(_loc(program, nid) if nid else "fold" for nid in callsites))
        for _var, _proc, _threads, callsites in _race_set(result, {var})
    }


class TestSameRaces:
    """Race sets equal monitor-everything's on the monitored variables."""

    @pytest.mark.parametrize("engine", ["bytecode", "ast"])
    @pytest.mark.parametrize("name", PROGRAMS)
    def test_narrowed_races_equal_monitor_everything(self, name, engine):
        _, races, (narrowed, everything) = _runs(_program(name), engine=engine)
        monitored = races.monitored_vars
        assert _race_set(narrowed, monitored) == _race_set(everything, monitored)


class TestTraces:
    """A HOME trace is a run selecting every site of the monitored
    variables, less the unselected accesses (seq and time aside)."""

    @staticmethod
    def _lines(result, program, keep):
        out = []
        for event in result.log:
            if type(event) is MemAccess and event.callsite and not keep(
                _loc(program, event.callsite)
            ):
                continue
            out.append((type(event).__name__, *(
                getattr(event, f.name) for f in dataclasses.fields(event)
                if f.name not in ("seq", "time")
            )))
        return out

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_trace_is_the_selected_part_of_every_site(self, name):
        program = _program(name)
        validate(program)
        races = Home().prepare(program)[1].races
        reference = races.site_locs(races.monitored_vars)
        to_run, races, (home, full) = _runs(program, reference=reference)
        selected = races.monitored_locs
        assert selected <= reference
        lines = self._lines(home, to_run, lambda loc: True)
        assert lines == self._lines(full, to_run, selected.__contains__)
        if not races.monitored_vars:
            assert not any(type(e) is MemAccess for e in home.log)


class TestPinnedSites:
    """Each clause of the rule, on a program that loses a race without it."""

    def test_instantiated_sides_are_the_callee_accesses(self):
        """``ip``: every candidate side of ``rdata`` is instantiated from
        ``ip_race_leaf``; its sites are the leaf's accesses at 123:10 and
        123:21, not the parallel call sites."""
        program = build_interproc_npb()
        report = Home().check(program)
        races = report.static.races
        assert {s.via for c in races.candidates for s in (c.a, c.b)} == {
            "ip_race_leaf"
        }
        assert races.monitored_locs == {"123:10", "123:21"}
        assert [e["var"] for e in report.extras["race_triage"]["confirmed"]] == [
            "rdata"
        ]
        to_run, races, (narrowed, everything) = _runs(program)
        found = _race_set(narrowed, {"rdata"})
        assert found and found == _race_set(everything, {"rdata"})

    def test_unresolved_access_monitors_the_whole_variable(self):
        """Corpus ``seed-00000``: ``helper1``'s ``data[(x % 8)]`` (10:9)
        is an unresolved interprocedural access, and it races with the
        ``omp single`` write ``data[0]`` (56:17), which no candidate
        names."""
        to_run, races, (narrowed, everything) = _runs(
            _program("corpus-seed-00000"), seed=1
        )
        assert "data" in {site.var for site in races.unresolved}
        assert "56:17" not in {loc for c in races.candidates for loc in c.locs()}
        assert {"10:9", "56:17"} <= races.monitored_locs
        assert ("10:9", "56:17") in _race_sites(to_run, everything, "data")
        assert _race_set(narrowed, {"data"}) == _race_set(everything, {"data"})

    def test_reduction_variable_monitors_the_whole_variable(self):
        """Generated seed 87: ``acc`` at 18:20 races with a reduction fold
        of ``acc``, and a fold is no access site the pass can pair."""
        program = parse(generate_source(87))
        to_run, races, (narrowed, everything) = _runs(program, seed=0)
        assert "acc" in races.whole_vars
        assert "18:20" not in {loc for c in races.candidates for loc in c.locs()}
        assert "18:20" in races.monitored_locs
        assert ("18:20", "fold") in _race_sites(to_run, everything, "acc")
        assert _race_set(narrowed, {"acc"}) == _race_set(everything, {"acc"})
