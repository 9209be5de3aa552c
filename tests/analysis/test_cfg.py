"""Control-flow graph construction tests."""

import pytest

from repro.analysis.cfg import (
    OMP_CRITICAL_BEGIN,
    OMP_PARALLEL_BEGIN,
    OMP_PARALLEL_END,
    build_cfg,
    build_program_cfgs,
)
from repro.analysis.graphs import reachable, strongly_connected_components
from repro.minilang import parse


def cfg_of(body: str, name="main"):
    prog = parse(f"program p;\nfunc main() {{\n{body}\n}}")
    return build_cfg(prog.function(name))


def mpi_nodes(cfg):
    return [n for n in cfg.linearize() if n.is_mpi_call]


class TestStructure:
    def test_entry_exit_exist(self):
        cfg = cfg_of("var x = 1;")
        nodes = cfg.linearize()
        assert nodes[0].kind == "entry"
        assert nodes[-1].kind == "exit"

    def test_straightline_chain(self):
        cfg = cfg_of("var x = 1;\nx = 2;\ncompute(1);")
        stmts = [n for n in cfg.linearize() if n.kind == "stmt"]
        assert len(stmts) == 3
        # each statement has exactly one successor in a straight line
        for node in stmts[:-1]:
            assert len(cfg.successors(node)) == 1

    def test_if_has_two_paths(self):
        cfg = cfg_of("if (x) { y = 1; } else { y = 2; }")
        branch = [n for n in cfg.linearize() if n.kind == "branch"][0]
        assert len(cfg.successors(branch)) == 2

    def test_if_without_else_falls_through(self):
        cfg = cfg_of("if (x) { y = 1; }\nz = 2;")
        branch = [n for n in cfg.linearize() if n.kind == "branch"][0]
        succ_kinds = sorted(n.kind for n in cfg.successors(branch))
        assert len(cfg.successors(branch)) == 2  # then-body and fall-through

    def test_while_back_edge(self):
        cfg = cfg_of("while (x) { x = x - 1; }")
        head = [n for n in cfg.linearize() if n.kind == "loop-head"][0]
        body_stmt = [n for n in cfg.linearize() if n.kind == "stmt"][0]
        assert head.cfg_id in cfg.succ[body_stmt.cfg_id]

    def test_for_init_and_step_nodes(self):
        cfg = cfg_of("for (var i = 0; i < 3; i = i + 1) { compute(1); }")
        labels = [n.label for n in cfg.linearize()]
        assert "ForInit" in labels and "ForStep" in labels

    def test_return_edges_to_exit(self):
        cfg = cfg_of("if (x) { return; }\ncompute(1);")
        ret = [n for n in cfg.linearize() if n.label == "Return"][0]
        assert cfg.exit.cfg_id in [n.cfg_id for n in cfg.successors(ret)]

    def test_all_nodes_reachable(self):
        cfg = cfg_of(
            "if (a) { b = 1; } else { b = 2; }\n"
            "while (b) { b = b - 1; }\n"
            "omp parallel { compute(1); }"
        )
        assert set(cfg.nodes) == reachable(cfg.succ, (cfg.entry.cfg_id,))

    def test_acyclic_without_loops(self):
        cfg = cfg_of("var x = 1;\nif (x) { x = 2; }")
        assert all(len(c) == 1 for c in strongly_connected_components(cfg.succ))
        assert not any(nid in succ for nid, succ in cfg.succ.items())


class TestOmpMarkers:
    def test_parallel_begin_end_bracket(self):
        cfg = cfg_of("omp parallel { mpi_barrier(MPI_COMM_WORLD); }")
        order = [n.kind for n in cfg.linearize()]
        begin = order.index(OMP_PARALLEL_BEGIN)
        end = order.index(OMP_PARALLEL_END)
        assert begin < end
        # the MPI call node sits between the markers (Algorithm 1's scan)
        stmt_idx = next(
            i for i, n in enumerate(cfg.linearize()) if n.is_mpi_call
        )
        assert begin < stmt_idx < end

    def test_mpi_nodes_found(self):
        cfg = cfg_of("mpi_init();\nomp parallel { mpi_barrier(MPI_COMM_WORLD); }")
        assert len(mpi_nodes(cfg)) == 2

    def test_hmpi_calls_count_as_mpi(self):
        cfg = cfg_of("hmpi_recv(a, 1, 0, 0, MPI_COMM_WORLD);")
        assert len(mpi_nodes(cfg)) == 1

    def test_critical_markers(self):
        cfg = cfg_of("omp critical (c) { x = 1; }")
        kinds = [n.kind for n in cfg.linearize()]
        assert OMP_CRITICAL_BEGIN in kinds

    def test_sections_branch_fanout(self):
        cfg = cfg_of(
            "omp parallel { omp sections {"
            " omp section { compute(1); } omp section { compute(2); } } }"
        )
        ws_begin = [n for n in cfg.linearize() if n.label == "omp sections"][0]
        assert len(cfg.successors(ws_begin)) == 2

    def test_program_cfgs_for_all_functions(self):
        prog = parse("program p;\nfunc helper() { }\nfunc main() { helper(); }")
        cfgs = build_program_cfgs(prog)
        assert set(cfgs) == {"helper", "main"}


class TestLinearizeNesting:
    """linearize() is construction order (the paper's srcCFG order):
    a construct's header precedes every node of its body, and begin/end
    markers bracket the body even under deep nesting."""

    def test_nested_loops_header_order(self):
        cfg = cfg_of(
            "while (a) {\n"
            "  while (b) {\n"
            "    for (var i = 0; i < 3; i = i + 1) { compute(1); }\n"
            "  }\n"
            "}"
        )
        nodes = cfg.linearize()
        heads = [i for i, n in enumerate(nodes) if n.kind == "loop-head"]
        assert len(heads) == 3
        assert heads == sorted(heads)
        body_stmt = next(i for i, n in enumerate(nodes) if n.label == "ExprStmt")
        assert all(h < body_stmt for h in heads)

    def test_nested_branches_then_before_else(self):
        cfg = cfg_of(
            "if (a) {\n"
            "  if (b) { x = 1; } else { x = 2; }\n"
            "} else {\n"
            "  if (c) { x = 3; } else { x = 4; }\n"
            "}"
        )
        nodes = cfg.linearize()
        branches = [i for i, n in enumerate(nodes) if n.kind == "branch"]
        assert len(branches) == 3
        stmts = [n for n in nodes if n.kind == "stmt"]
        # construction order visits then-branches before else-branches
        values = [n.ast.value.value for n in stmts]
        assert values == [1, 2, 3, 4]
        # every inner branch head comes after the outer one
        assert branches[0] < branches[1] < branches[2]

    def test_loop_inside_branch_inside_parallel(self):
        cfg = cfg_of(
            "omp parallel {\n"
            "  if (a) {\n"
            "    while (b) { compute(1); }\n"
            "  }\n"
            "}"
        )
        nodes = cfg.linearize()
        kinds = [n.kind for n in nodes]
        begin = kinds.index(OMP_PARALLEL_BEGIN)
        end = kinds.index(OMP_PARALLEL_END)
        branch = kinds.index("branch")
        head = kinds.index("loop-head")
        assert begin < branch < head < end

    def test_linearize_is_stable_and_complete(self):
        cfg = cfg_of(
            "for (var i = 0; i < 2; i = i + 1) {\n"
            "  if (i) { compute(1); } else { compute(2); }\n"
            "}"
        )
        first = [n.cfg_id for n in cfg.linearize()]
        second = [n.cfg_id for n in cfg.linearize()]
        assert first == second
        assert set(first) == set(cfg.nodes)
        assert len(first) == len(set(first))


class TestWorksharingLinearization:
    """Regression pins for worksharing + nested-parallel CFG shape: the
    divergence pass and the implicit-ws-barrier MHP both rely on the
    begin/end bracket structure and the single-skip edge staying put."""

    def test_omp_for_bracket_order(self):
        cfg = cfg_of(
            "omp parallel num_threads(2) {\n"
            "  omp for for (var i = 0; i < 4; i = i + 1) { compute(1); }\n"
            "  omp barrier;\n"
            "}"
        )
        labels = [n.label for n in cfg.linearize() if n.label]
        assert labels.index("omp parallel") < labels.index("omp for")
        assert labels.index("omp for") < labels.index("end omp for")
        assert labels.index("end omp for") < labels.index("omp barrier")
        assert labels.index("omp barrier") < labels.index("end omp parallel")

    def test_single_has_skip_edge(self):
        # threads that lose the single claim jump begin -> end directly
        cfg = cfg_of(
            "omp parallel num_threads(2) {\n"
            "  omp single { compute(1); }\n"
            "}"
        )
        nodes = cfg.linearize()
        begin = [n for n in nodes if n.label == "omp single"][0]
        end = [n for n in nodes if n.label == "end omp single"][0]
        assert end.cfg_id in cfg.succ[begin.cfg_id]
        assert len(cfg.successors(begin)) == 2  # body and skip

    def test_sections_fan_in_to_one_end(self):
        cfg = cfg_of(
            "omp parallel num_threads(2) {\n"
            "  omp sections {\n"
            "    omp section { compute(1); }\n"
            "    omp section { compute(2); }\n"
            "  }\n"
            "}"
        )
        nodes = cfg.linearize()
        end = [n for n in nodes if n.label == "end omp sections"][0]
        preds = [
            n for n in nodes
            if end.cfg_id in cfg.succ[n.cfg_id]
        ]
        assert len(preds) == 2  # one per section body

    def test_nested_parallel_brackets_nest(self):
        cfg = cfg_of(
            "omp parallel num_threads(2) {\n"
            "  omp parallel num_threads(2) {\n"
            "    omp for for (var i = 0; i < 2; i = i + 1) { compute(1); }\n"
            "  }\n"
            "}"
        )
        labels = [n.label for n in cfg.linearize() if n.label]
        outer_begin = labels.index("omp parallel")
        inner_begin = labels.index("omp parallel", outer_begin + 1)
        inner_end = labels.index("end omp parallel")
        outer_end = labels.index("end omp parallel", inner_end + 1)
        assert outer_begin < inner_begin < labels.index("omp for")
        assert labels.index("end omp for") < inner_end < outer_end

    def test_worksharing_loop_back_edge_stays_inside_bracket(self):
        cfg = cfg_of(
            "omp parallel num_threads(2) {\n"
            "  omp for for (var i = 0; i < 4; i = i + 1) { compute(1); }\n"
            "}"
        )
        nodes = cfg.linearize()
        head = [n for n in nodes if n.kind == "loop-head"][0]
        body = [n for n in nodes if n.label == "Call" or n.kind == "stmt"]
        # some body node loops back to the head; the ws-end is fed by
        # the loop head (loop exit), not by the body directly
        assert any(head.cfg_id in cfg.succ[n.cfg_id] for n in body)
        end = [n for n in nodes if n.label == "end omp for"][0]
        assert end.cfg_id in cfg.succ[head.cfg_id]
