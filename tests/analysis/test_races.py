"""Static data-race pass tests: per-region sharing classification,
conflict pairing, the four race-prune categories, the ZIV/SIV subscript
disjointness test, and interprocedural delegation."""

from repro.analysis.cfg import build_program_cfgs
from repro.analysis.static_ import (
    RACE_PRUNE_KINDS,
    StaticRaceReport,
    find_races,
    run_static_analysis,
)
from repro.analysis.static_.races import (
    FIRSTPRIVATE,
    LOOP_INDEX,
    PRIVATE,
    PRUNE_RACE_GUARD,
    PRUNE_RACE_LOCK,
    PRUNE_RACE_MHP,
    PRUNE_RACE_SUBSCRIPT,
    REDUCTION,
    SHARED,
)
from repro.minilang import parse


def races_for(src, with_cfgs=False, interprocedural=True):
    prog = parse(src)
    cfgs = build_program_cfgs(prog) if with_cfgs else None
    return find_races(prog, cfgs=cfgs, interprocedural=interprocedural)


def region_table(report, kind=None, index=0):
    regions = [r for r in report.regions if kind is None or r.kind == kind]
    return regions[index].sharing


PROG = "program t;\n"


class TestClassification:
    def test_default_sharing_outer_local_is_shared(self):
        report = races_for(PROG + """
func main() {
    var x = 0;
    omp parallel num_threads(2) {
        x = x + 1;
    }
}""")
        assert region_table(report, "parallel")["x"] == SHARED
        # x = x + 1 races both read/write and write/write
        assert len(report.candidates) == 2

    def test_global_is_shared(self):
        report = races_for(PROG + "var g;\n" + """
func main() {
    omp parallel num_threads(2) {
        g = g + 1;
    }
}""")
        assert region_table(report, "parallel")["g"] == SHARED
        assert report.candidates[0].scope == "<global>"

    def test_in_region_declaration_is_private(self):
        report = races_for(PROG + """
func main() {
    omp parallel num_threads(2) {
        var t = 0;
        t = t + 1;
    }
}""")
        assert region_table(report, "parallel")["t"] == PRIVATE
        assert not report.candidates

    def test_private_clause(self):
        report = races_for(PROG + """
func main() {
    var t = 0;
    omp parallel num_threads(2) private(t) {
        t = t + 1;
    }
}""")
        assert region_table(report, "parallel")["t"] == PRIVATE
        assert not report.candidates

    def test_firstprivate_clause(self):
        report = races_for(PROG + """
func main() {
    var t = 0;
    omp parallel num_threads(2) firstprivate(t) {
        t = t + 1;
    }
}""")
        assert region_table(report, "parallel")["t"] == FIRSTPRIVATE
        assert not report.candidates

    def test_reduction_clause_on_parallel(self):
        report = races_for(PROG + """
func main() {
    var s = 0;
    omp parallel num_threads(2) reduction(+: s) {
        s = s + 1;
    }
}""")
        assert region_table(report, "parallel")["s"] == REDUCTION
        assert not report.candidates

    def test_reduction_clause_on_omp_for(self):
        report = races_for(PROG + """
func main() {
    var s = 0;
    omp parallel num_threads(2) {
        omp for reduction(+: s) for (var i = 0; i < 8; i = i + 1) {
            s = s + i;
        }
    }
}""")
        assert region_table(report, "for")["s"] == REDUCTION
        assert not report.candidates

    def test_loop_index_is_private_even_when_reused(self):
        # the omp-for index is re-declared per iteration by the runtime,
        # so reusing an outer variable does not make it a shared race
        report = races_for(PROG + """
func main() {
    var z = 0;
    omp parallel num_threads(2) {
        omp for for (z = 0; z < 8; z = z + 1) {
        }
    }
}""")
        assert region_table(report, "for")["z"] == LOOP_INDEX
        assert not report.candidates

    def test_sequential_code_never_races(self):
        report = races_for(PROG + """
func main() {
    var x = 0;
    x = x + 1;
}""")
        assert not report.accesses and not report.candidates


class TestPairing:
    def test_read_only_sharing_is_race_free(self):
        report = races_for(PROG + """
func main() {
    var x = 7;
    var out[4];
    omp parallel num_threads(2) {
        omp for for (var i = 0; i < 4; i = i + 1) {
            out[i] = x;
        }
    }
}""")
        assert not any(c.var == "x" for c in report.candidates)

    def test_write_write_and_read_write_pairs(self):
        report = races_for(PROG + """
func main() {
    var x = 0;
    omp parallel num_threads(2) {
        x = x + 1;
    }
}""")
        kinds = sorted(
            tuple(sorted((c.a.kind, c.b.kind))) for c in report.candidates
        )
        assert kinds == [("read", "write"), ("write", "write")]
        assert report.monitored_vars == frozenset({"x"})

    def test_candidate_carries_both_sites(self):
        report = races_for(PROG + """
func main() {
    var x = 0;
    omp parallel num_threads(2) {
        x = 1;
    }
}""")
        (cand,) = report.candidates
        assert cand.var == "x"
        assert cand.a.loc and cand.b.loc
        assert "unsynchronized" in cand.reason
        assert cand.locs() == tuple(sorted({cand.a.loc, cand.b.loc}))


class TestPruning:
    def test_critical_guard_prunes(self):
        report = races_for(PROG + """
func main() {
    var x = 0;
    omp parallel num_threads(2) {
        omp critical(m) { x = x + 1; }
    }
}""")
        assert not report.candidates
        assert report.pruned[PRUNE_RACE_LOCK] > 0

    def test_differently_named_criticals_do_not_prune(self):
        report = races_for(PROG + """
func main() {
    var x = 0;
    omp parallel num_threads(2) {
        omp critical(m1) { x = x + 1; }
        omp critical(m2) { x = x + 1; }
    }
}""")
        assert report.candidates

    def test_atomic_guard_prunes(self):
        report = races_for(PROG + """
func main() {
    var x = 0;
    omp parallel num_threads(2) {
        omp atomic x = x + 1;
    }
}""")
        assert not report.candidates
        assert report.pruned[PRUNE_RACE_LOCK] > 0

    def test_must_held_user_lock_prunes_with_cfgs(self):
        src = PROG + """
func main() {
    var x = 0;
    omp parallel num_threads(2) {
        omp_set_lock("m");
        x = x + 1;
        omp_unset_lock("m");
    }
}"""
        assert not races_for(src, with_cfgs=True).candidates
        # without CFGs the lexical pass alone cannot see the lock
        assert races_for(src, with_cfgs=False).candidates

    def test_master_only_accesses_pruned(self):
        report = races_for(PROG + """
func main() {
    var x = 0;
    omp parallel num_threads(2) {
        omp master { x = x + 1; }
    }
}""")
        assert not report.candidates
        assert report.pruned[PRUNE_RACE_GUARD] > 0

    def test_single_accesses_pruned(self):
        report = races_for(PROG + """
func main() {
    var x = 0;
    omp parallel num_threads(2) {
        omp single { x = x + 1; }
    }
}""")
        assert not report.candidates
        assert report.pruned[PRUNE_RACE_GUARD] > 0

    def test_distinct_parallel_regions_mhp_pruned(self):
        report = races_for(PROG + """
func main() {
    var x = 0;
    omp parallel num_threads(2) {
        omp single { x = 1; }
    }
    omp parallel num_threads(2) {
        omp single { x = 2; }
    }
}""")
        assert not report.candidates
        assert report.pruned[PRUNE_RACE_MHP] > 0

    def test_barrier_separated_phases_mhp_pruned(self):
        report = races_for(PROG + """
func main() {
    var x = 0;
    omp parallel num_threads(2) {
        omp single nowait { x = 1; }
        omp barrier;
        omp single nowait { x = 2; }
    }
}""")
        assert not report.candidates
        assert report.pruned[PRUNE_RACE_MHP] > 0

    def test_report_counters_cover_all_kinds(self):
        report = StaticRaceReport()
        assert set(report.pruned) == set(RACE_PRUNE_KINDS)
        assert report.total_pruned == 0


class TestSubscripts:
    def test_siv_same_index_is_disjoint(self):
        report = races_for(PROG + "var a[8];\n" + """
func main() {
    omp parallel num_threads(2) {
        omp for for (var i = 0; i < 8; i = i + 1) {
            a[i] = a[i] + 1;
        }
    }
}""")
        assert not report.candidates
        assert report.pruned[PRUNE_RACE_SUBSCRIPT] > 0

    def test_loop_carried_shift_is_flagged(self):
        report = races_for(PROG + "var a[8];\n" + """
func main() {
    omp parallel num_threads(2) {
        omp for for (var i = 0; i < 7; i = i + 1) {
            a[i + 1] = a[i] + 1;
        }
    }
}""")
        assert any(c.var == "a" for c in report.candidates)
        assert any("disjoint" in c.reason for c in report.candidates)

    def test_scaled_index_is_disjoint(self):
        report = races_for(PROG + "var a[16];\n" + """
func main() {
    omp parallel num_threads(2) {
        omp for for (var i = 0; i < 8; i = i + 1) {
            a[i * 2] = 1;
        }
    }
}""")
        assert not report.candidates

    def test_ziv_distinct_constants_disjoint(self):
        report = races_for(PROG + "var a[8];\n" + """
func main() {
    omp parallel num_threads(2) {
        omp sections {
            omp section { a[0] = 1; }
            omp section { a[1] = 2; }
        }
    }
}""")
        assert not report.candidates

    def test_ziv_same_constant_is_flagged(self):
        report = races_for(PROG + "var a[8];\n" + """
func main() {
    omp parallel num_threads(2) {
        omp sections {
            omp section { a[0] = 1; }
            omp section { a[0] = 2; }
        }
    }
}""")
        assert any(c.var == "a" for c in report.candidates)

    def test_thread_id_distribution_is_disjoint(self):
        report = races_for(PROG + "var a[8];\n" + """
func main() {
    omp parallel num_threads(2) {
        a[omp_get_thread_num()] = 1;
    }
}""")
        assert not report.candidates

    def test_nonlinear_subscript_is_flagged(self):
        report = races_for(PROG + "var a[8]; var idx[8];\n" + """
func main() {
    omp parallel num_threads(2) {
        omp for for (var i = 0; i < 8; i = i + 1) {
            a[idx[i]] = 1;
        }
    }
}""")
        assert any(c.var == "a" for c in report.candidates)


class TestInterprocedural:
    SRC = PROG + "var g; var field[8];\n" + """
func work(e) {
    g = g + 1;
    field[e] = field[e] + 1;
}

func main() {
    omp parallel num_threads(2) {
        work(omp_get_thread_num());
    }
}"""

    def test_global_scalar_reached_from_parallel_is_paired(self):
        report = races_for(self.SRC)
        assert any(c.var == "g" for c in report.candidates)
        cand = next(c for c in report.candidates if c.var == "g")
        assert "reached from a parallel region" in cand.reason

    def test_param_subscript_array_is_resolved_by_summaries(self):
        # field[e] with e = omp_get_thread_num() at the call site: the
        # summary instantiation proves per-thread disjointness, so the
        # access is analyzed (and pruned) instead of delegated
        report = races_for(self.SRC)
        assert any(s.var == "field" for s in report.resolved_interproc)
        assert not any(s.var == "field" for s in report.unresolved)
        assert not any(c.var == "field" for c in report.candidates)
        assert report.pruned["race-interproc"] >= 1

    def test_param_subscript_delegated_without_summaries(self):
        report = races_for(self.SRC, interprocedural=False)
        assert any(s.var == "field" for s in report.unresolved)
        assert not any(c.var == "field" for c in report.candidates)

    def test_nonlinear_argument_stays_delegated(self):
        # idx[i] is not linear in any distribution symbol: the summary
        # escapes the access, which must stay delegated to dynamic
        report = races_for(PROG + "var field[8]; var idx[8];\n" + """
func work(e) {
    field[e] = field[e] + 1;
}

func main() {
    omp parallel num_threads(2) {
        omp for for (var i = 0; i < 8; i = i + 1) {
            work(idx[i]);
        }
    }
}""")
        assert any(s.var == "field" for s in report.unresolved)
        assert not any(s.var == "field" for s in report.resolved_interproc)

    def test_loop_distributed_argument_is_resolved(self):
        # work(z) under the omp for: instantiated SIV pruning applies
        report = races_for(PROG + "var field[64];\n" + """
func work(z) {
    field[z] = field[z] + 1;
}

func main() {
    omp parallel num_threads(2) {
        omp for for (var z = 0; z < 8; z = z + 1) {
            work(z);
        }
    }
}""")
        assert any(s.var == "field" for s in report.resolved_interproc)
        assert not any(c.var == "field" for c in report.candidates)

    def test_loop_shifted_argument_races_across_calls(self):
        # work reads field[e] and writes field[e + 1]: loop-carried
        # conflict, visible only through the summary instantiation
        report = races_for(PROG + "var field[64];\n" + """
func work(e) {
    field[e + 1] = field[e] + 1;
}

func main() {
    omp parallel num_threads(2) {
        omp for for (var z = 0; z < 8; z = z + 1) {
            work(z);
        }
    }
}""")
        assert any(c.var == "field" for c in report.candidates)
        cand = next(c for c in report.candidates if c.var == "field")
        assert "instantiated from work" in cand.reason

    def test_function_not_called_from_parallel_is_quiet(self):
        report = races_for(PROG + "var g;\n" + """
func sequential_work() {
    g = g + 1;
}

func main() {
    sequential_work();
}""")
        assert not report.candidates and not report.accesses


class TestReportPlumbing:
    def test_as_dict_shape(self):
        report = races_for(PROG + """
func main() {
    var x = 0;
    omp parallel num_threads(2) {
        x = 1;
    }
}""")
        data = report.as_dict()
        assert data["monitored_vars"] == ["x"]
        (cand,) = [c for c in data["candidates"] if c["var"] == "x"]
        assert cand["a"]["loc"] and cand["b"]["loc"]
        assert data["monitored_locs"] == sorted({cand["a"]["loc"], cand["b"]["loc"]})
        assert set(data["pruned"]) >= set(RACE_PRUNE_KINDS)

    def test_static_report_integration(self):
        prog = parse(PROG + """
func main() {
    var x = 0;
    omp parallel num_threads(2) {
        x = x + 1;
    }
}""")
        static = run_static_analysis(prog)
        assert static.races is not None
        assert static.races.monitored_vars == frozenset({"x"})
        assert "x" in static.instrumentation.monitored_vars
        assert "static race candidates" in static.summary()
        assert "races" in static.as_dict()
        prunes = static.prune_counts()
        assert set(prunes) >= set(RACE_PRUNE_KINDS)

    def test_races_flag_off(self):
        prog = parse(PROG + """
func main() {
    var x = 0;
    omp parallel num_threads(2) {
        x = x + 1;
    }
}""")
        static = run_static_analysis(prog, races=False)
        assert static.races is None
        assert not static.instrumentation.monitored_vars
