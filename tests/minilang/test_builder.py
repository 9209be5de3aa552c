"""Builder-combinator and AST-utility tests."""

import pytest

from repro.minilang import ast_equal, clone, parse
from repro.minilang import ast_nodes as A
from repro.minilang import builder as B


class TestExprBuilders:
    def test_expr_coercion_int(self):
        assert isinstance(B.expr(3), A.IntLit)

    def test_expr_coercion_float(self):
        assert isinstance(B.expr(2.5), A.FloatLit)

    def test_expr_coercion_bool_before_int(self):
        node = B.expr(True)
        assert isinstance(node, A.BoolLit)

    def test_expr_string_is_name(self):
        assert isinstance(B.expr("x"), A.Name)

    def test_lit_string_is_literal(self):
        assert isinstance(B.lit("x"), A.StrLit)

    def test_expr_rejects_unknown(self):
        with pytest.raises(TypeError):
            B.expr(object())

    def test_binop_helpers(self):
        node = B.add(1, B.mul("x", 2))
        assert node.op == "+" and node.right.op == "*"

    def test_comparison_helpers(self):
        assert B.eq("a", 1).op == "=="
        assert B.lt("a", 1).op == "<"
        assert B.mod("a", 2).op == "%"

    def test_call_builder(self):
        node = B.call("f", 1, "x")
        assert node.name == "f" and len(node.args) == 2

    def test_idx_builder(self):
        node = B.idx("a", B.add("i", 1))
        assert isinstance(node, A.Index)


class TestStmtBuilders:
    def test_for_range_shape(self):
        loop = B.for_range("i", 0, 10, [B.callstmt("compute", 1)])
        assert isinstance(loop.init, A.VarDecl)
        assert loop.cond.op == "<"
        assert isinstance(loop.step, A.Assign)

    def test_parallel_builder(self):
        node = B.parallel([B.barrier()], num_threads=2, private=["i"])
        assert isinstance(node, A.OmpParallel)
        assert node.num_threads.value == 2
        assert node.private == ["i"]

    def test_omp_for_builder(self):
        node = B.omp_for("i", 0, 8, [B.callstmt("compute", 1)], schedule="dynamic")
        assert node.schedule == "dynamic"

    def test_sections_builder(self):
        node = B.sections([B.callstmt("compute", 1)], [B.callstmt("compute", 2)])
        assert len(node.sections) == 2

    def test_if_builder(self):
        node = B.if_(B.eq("x", 0), [B.assign("y", 1)], [B.assign("y", 2)])
        assert isinstance(node.els, A.Block)

    def test_program_builder_roundtrips_with_parser(self):
        prog = B.program(
            "built",
            [B.func("main", [], [B.decl("x", 1), B.assign("x", B.add("x", 1))])],
        )
        from repro.minilang import print_program

        reparsed = parse(print_program(prog))
        assert ast_equal(prog, reparsed)


class TestCloneAndEquality:
    def test_clone_is_structurally_equal(self):
        prog = parse("program p;\nfunc main() { var x = 1; compute(x); }")
        copy = clone(prog)
        assert ast_equal(prog, copy)

    def test_clone_keeps_node_ids(self):
        prog = parse("program p;\nfunc main() { var x = 1; }")
        copy = clone(prog)
        assert [n.nid for n in copy.walk()] == [n.nid for n in prog.walk()]
        assert all(a is not b for a, b in zip(copy.walk(), prog.walk()))

    def test_clone_mutation_does_not_affect_original(self):
        prog = parse("program p;\nfunc main() { mpi_finalize(); }")
        copy = clone(prog)
        for node in copy.walk():
            if getattr(node, "name", "") == "mpi_finalize":
                node.name = "hmpi_finalize"
        names = {getattr(n, "name", "") for n in prog.walk() if isinstance(n, A.CallExpr)}
        assert "hmpi_finalize" not in names

    def test_ast_equal_ignores_locations(self):
        a = parse("program p;\nfunc main() { var x = 1; }")
        b = parse("program p;\n\n\nfunc main() {\n var x = 1;\n}")
        assert ast_equal(a, b)

    def test_ast_equal_detects_value_difference(self):
        a = parse("program p;\nfunc main() { var x = 1; }")
        b = parse("program p;\nfunc main() { var x = 2; }")
        assert not ast_equal(a, b)

    def test_ast_equal_detects_structural_difference(self):
        a = parse("program p;\nfunc main() { var x = 1; }")
        b = parse("program p;\nfunc main() { var x = 1; var y = 2; }")
        assert not ast_equal(a, b)

    def test_ast_equal_detects_type_difference(self):
        a = parse("program p;\nfunc main() { omp barrier; }")
        b = parse("program p;\nfunc main() { compute(1); }")
        assert not ast_equal(a, b)


class TestWalk:
    def test_walk_preorder_includes_all(self):
        prog = parse("program p;\nfunc main() { if (a) { b = f(1); } }")
        types = [type(n).__name__ for n in prog.walk()]
        assert types[0] == "Program"
        for expected in ("FuncDef", "Block", "If", "Name", "Assign", "CallExpr", "IntLit"):
            assert expected in types
