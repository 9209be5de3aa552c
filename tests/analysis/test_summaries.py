"""Function-summary construction: linear forms, rebasing through call
chains, escape bookkeeping (soundness), lock transparency, and the
thread-dependence taint fixpoint."""

from repro.analysis.cfg import build_cfg
from repro.analysis.static_ import races, run_static_analysis
from repro.analysis.static_.summaries import (
    MAX_COMPOSE_DEPTH,
    TID_BASE,
    LinForm,
    compute_summaries,
)
from repro.minilang import parse
from repro.workloads.npb import lu_mz_source

PROG = "program t;\nvar gdata[16];\n"


def summaries_for(src, with_cfgs=False):
    prog = parse(src)
    cfgs = (
        {fn.name: build_cfg(fn) for fn in prog.functions}
        if with_cfgs
        else None
    )
    return compute_summaries(prog, cfgs=cfgs)


class TestLinForm:
    def test_shift_adds_interval(self):
        form = LinForm("i", 2, 1, 3).shift(10, 20)
        assert (form.base, form.coeff, form.lo, form.hi) == ("i", 2, 11, 23)

    def test_scale_positive(self):
        form = LinForm("i", 1, -1, 2).scale(3)
        assert (form.coeff, form.lo, form.hi) == (3, -3, 6)

    def test_scale_negative_swaps_bounds(self):
        form = LinForm("i", 1, -1, 2).scale(-1)
        assert (form.coeff, form.lo, form.hi) == (-1, -2, 1)
        assert form.lo <= form.hi


class TestOwnAccesses:
    def test_parameterized_subscript(self):
        table = summaries_for(PROG + """
func leaf(i) {
    gdata[i + 1] = 0.0;
    return 0;
}
func main() {
    leaf(1);
}""")
        (acc,) = table.summary_for("leaf").accesses
        assert acc.var == "gdata" and acc.is_write
        assert (acc.form.base, acc.form.coeff) == ("i", 1)
        assert (acc.form.lo, acc.form.hi) == (1, 1)
        assert acc.depth == 0

    def test_nonlinear_subscript_escapes(self):
        table = summaries_for(PROG + """
func leaf(i) {
    gdata[i * i] = 0.0;
    return 0;
}
func main() {
    leaf(1);
}""")
        assert table.summary_for("leaf").accesses == []
        assert table.escaped  # delegated to the dynamic phase, not dropped

    def test_counted_loop_subscript_gets_interval(self):
        table = summaries_for(PROG + """
func leaf(i) {
    for (var k = 0; k < 4; k = k + 1) {
        gdata[i + k] = 0.0;
    }
    return 0;
}
func main() {
    leaf(1);
}""")
        (acc,) = table.summary_for("leaf").accesses
        assert (acc.form.base, acc.form.lo, acc.form.hi) == ("i", 0, 3)

    def test_omp_for_body_access_escapes(self):
        # the callee's own worksharing distributes the access; it is
        # never instantiated through calls, only delegated
        table = summaries_for(PROG + """
func leaf(i) {
    omp for
    for (var k = 0; k < 4; k = k + 1) {
        gdata[i] = k;
    }
    return 0;
}
func main() {
    omp parallel num_threads(2) {
        leaf(1);
    }
}""")
        assert table.summary_for("leaf").accesses == []
        assert table.escaped


class TestComposition:
    def test_rebase_through_sequential_chain(self):
        table = summaries_for(PROG + """
func leaf(i) {
    gdata[i + 1] = 0.0;
    return 0;
}
func mid(t) {
    leaf(2 * t + 1);
    return 0;
}
func main() {
    mid(0);
}""")
        accs = table.summary_for("mid").accesses
        (acc,) = [a for a in accs if a.depth == 1]
        # (2t + 1) substituted for i in i + [1,1]  ->  2t + [2,2]
        assert (acc.form.base, acc.form.coeff) == ("t", 2)
        assert (acc.form.lo, acc.form.hi) == (2, 2)
        assert acc.func == "leaf"  # reporting keeps the lexical home

    def test_tid_argument_becomes_tid_form(self):
        table = summaries_for(PROG + """
func leaf(i) {
    gdata[i] = 0.0;
    return 0;
}
func mid() {
    leaf(omp_get_thread_num());
    return 0;
}
func main() {
    mid();
}""")
        (acc,) = table.summary_for("mid").accesses
        assert acc.form.base == TID_BASE and acc.form.coeff == 1

    def test_unknown_argument_escapes_not_drops(self):
        table = summaries_for(PROG + """
func leaf(i) {
    gdata[i] = 0.0;
    return 0;
}
func mid(t) {
    leaf(t * t);
    return 0;
}
func main() {
    mid(1);
}""")
        assert table.summary_for("mid").accesses == []
        leaf_acc = table.summary_for("leaf").accesses[0]
        assert leaf_acc.nid in table.escaped

    def test_guards_accumulate_along_chain(self):
        table = summaries_for(PROG + """
func leaf(i) {
    gdata[i] = 0.0;
    return 0;
}
func mid(t) {
    omp critical(tally) {
        leaf(t);
    }
    return 0;
}
func main() {
    mid(0);
}""")
        (acc,) = table.summary_for("mid").accesses
        assert acc.guards  # call-site critical joined into the access

    def test_recursive_functions_are_opaque(self):
        table = summaries_for(PROG + """
func f(n) {
    gdata[n] = 0.0;
    if (n > 0) {
        f(n - 1);
    }
    return 0;
}
func main() {
    f(3);
}""")
        assert table.functions["f"].opaque
        assert table.summary_for("f") is None

    def test_compose_depth_is_bounded(self):
        assert MAX_COMPOSE_DEPTH >= 2  # chains in the workloads are 2-3 deep


class TestLockTransparency:
    SRC = PROG + """
func locker() {
    omp_set_lock("m");
    gdata[0] = 1.0;
    omp_unset_lock("m");
    return 0;
}
func wrapper() {
    locker();
    return 0;
}
func pure(i) {
    return i + 1;
}
func main() {
    omp parallel num_threads(2) {
        wrapper();
        pure(1);
    }
}"""

    def test_lock_touching_chain_not_transparent(self):
        table = summaries_for(self.SRC)
        assert "locker" not in table.lock_transparent
        assert "wrapper" not in table.lock_transparent

    def test_lock_free_function_transparent(self):
        table = summaries_for(self.SRC)
        assert "pure" in table.lock_transparent
        assert "main" not in table.lock_transparent


class TestTaintFixpoint:
    SRC = PROG + """
func sink(i) {
    gdata[i] = 0.0;
    return 0;
}
func relay(x) {
    sink(x);
    return 0;
}
func tid_source() {
    return omp_get_thread_num();
}
func launder(y) {
    return y;
}
func clean(z) {
    return z + 1;
}
func main() {
    omp parallel num_threads(2) {
        relay(omp_get_thread_num());
        launder(tid_source());
    }
    clean(5);
}"""

    def test_param_taint_flows_through_chain(self):
        table = summaries_for(self.SRC, with_cfgs=True)
        assert "x" in table.tainted_params["relay"]
        # transitively: relay passes its tainted param down to sink
        assert "i" in table.tainted_params["sink"]
        assert table.tainted_params["clean"] == frozenset()

    def test_return_taint_bottom_up(self):
        table = summaries_for(self.SRC, with_cfgs=True)
        assert "tid_source" in table.ret_tainted
        # launder returns a tainted parameter: tainted return
        assert "launder" in table.ret_tainted
        assert "clean" not in table.ret_tainted


class TestRaceWalkSharing:
    """The race pass takes the summary layer's walk of each
    parallel-reachable function instead of walking it again."""

    def test_no_function_is_walked_twice_with_the_same_arguments(
        self, monkeypatch
    ):
        walks = []
        original = races._FunctionWalker.run

        def counting_run(self):
            walks.append((self.func.name, self.unsafe))
            return original(self)

        monkeypatch.setattr(races._FunctionWalker, "run", counting_run)
        program = parse(lu_mz_source(inject=True))
        run_static_analysis(program, cache=False)
        assert len(walks) == len(set(walks)), walks
        assert {name for name, _ in walks} == {fn.name for fn in program.functions}

    LOCKED = PROG + """
var g = 0;
func bump() {
    omp_set_lock("m");
    g = g + 1;
    omp_unset_lock("m");
    return 0;
}
func main() {
    omp parallel num_threads(2) {
        bump();
    }
}"""

    def test_a_second_race_pass_walks_afresh(self):
        """The first pass widens its accesses' guards with the lock;
        a second pass over the same summaries, without CFGs, must not
        see them."""
        program = parse(self.LOCKED)
        cfgs = {fn.name: build_cfg(fn) for fn in program.functions}
        table = compute_summaries(program)
        locked = races.find_races(program, cfgs=cfgs, summaries=table)
        again = races.find_races(program, summaries=table)
        fresh = races.find_races(program, summaries=compute_summaries(program))
        assert not locked.candidates
        assert again.candidates
        assert again.as_dict() == fresh.as_dict()
