"""Recursive-descent parser for the mini hybrid MPI/OpenMP language.

Grammar (informal EBNF)::

    program     := "program" IDENT ";" (global_decl | funcdef)*
    global_decl := var_decl
    funcdef     := "func" IDENT "(" [params] ")" block
    params      := IDENT ("," IDENT)*
    block       := "{" stmt* "}"
    stmt        := var_decl | simple ";" | if | while | for | return
                 | print | assert | omp_directive | block
    var_decl    := "var" IDENT ("[" expr "]")? ("=" expr)? ";"
    simple      := assign | call
    if          := "if" "(" expr ")" block ["else" (block | if)]
    while       := "while" "(" expr ")" block
    for         := "for" "(" [simple_nosemi] ";" [expr] ";" [simple_nosemi] ")" block
    omp_directive :=
          "omp" "parallel" clauses block
        | "omp" "for" for_clauses for
        | "omp" "sections" ["nowait"] "{" ("omp" "section" block)+ "}"
        | "omp" "critical" ["(" IDENT ")"] block
        | "omp" "barrier" ";"
        | "omp" "single" ["nowait"] block
        | "omp" "master" block
        | "omp" "atomic" assign ";"

Expression parsing uses precedence climbing with C-like precedence:
``||`` < ``&&`` < equality < relational < additive < multiplicative
< unary < postfix (call / index).
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import ParseError
from . import ast_nodes as A
from .lexer import Token, tokenize

_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
    "%": 6,
}


class Parser:
    """Parses a token stream into a :class:`repro.minilang.ast_nodes.Program`."""

    #: maximum block/expression nesting depth.  Recursive-descent
    #: parsing burns one Python stack frame per level, so a generated
    #: (or adversarial) deeply nested program would die with an opaque
    #: ``RecursionError`` traceback instead of a diagnostic; cap well
    #: below the interpreter stack limit and report a normal ParseError.
    MAX_NESTING = 200

    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def _descend(self, tok: Token) -> None:
        self.depth += 1
        if self.depth > self.MAX_NESTING:
            raise ParseError(
                f"nesting too deep (max {self.MAX_NESTING} levels)",
                tok.line,
                tok.col,
            )

    # -- token helpers ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        # ``pos`` never passes the final ``eof`` token (see _advance)
        if not offset:
            return self.tokens[self.pos]
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def _check(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == kind and (text is None or tok.text == text)

    def _match(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self._peek()
        if not self._check(kind, text):
            want = text if text is not None else kind
            raise ParseError(
                f"expected {want!r} but found {tok.text or tok.kind!r}",
                tok.line,
                tok.col,
            )
        return self._advance()

    def _loc(self, tok: Token) -> A.SourceLoc:
        return A.SourceLoc(tok.line, tok.col)

    # -- top level ------------------------------------------------------------

    def parse_program(self) -> A.Program:
        start = self._expect("keyword", "program")
        name = self._expect("ident").text
        self._expect("punct", ";")
        globals_: List[A.VarDecl] = []
        functions: List[A.FuncDef] = []
        while not self._check("eof"):
            if self._check("keyword", "var"):
                globals_.append(self._parse_var_decl())
            elif self._check("keyword", "func"):
                functions.append(self._parse_funcdef())
            else:
                tok = self._peek()
                raise ParseError(
                    f"expected 'var' or 'func' at top level, found {tok.text!r}",
                    tok.line,
                    tok.col,
                )
        return A.Program(name, globals_, functions, loc=self._loc(start))

    def _parse_funcdef(self) -> A.FuncDef:
        start = self._expect("keyword", "func")
        name = self._expect("ident").text
        self._expect("punct", "(")
        params: List[str] = []
        if not self._check("punct", ")"):
            params.append(self._expect("ident").text)
            while self._match("punct", ","):
                params.append(self._expect("ident").text)
        self._expect("punct", ")")
        body = self._parse_block()
        return A.FuncDef(name, params, body, loc=self._loc(start))

    # -- statements ------------------------------------------------------------

    def _parse_block(self) -> A.Block:
        start = self._expect("punct", "{")
        self._descend(start)
        try:
            stmts: List[A.Stmt] = []
            while not self._check("punct", "}"):
                if self._check("eof"):
                    raise ParseError(
                        "unterminated block", start.line, start.col
                    )
                stmts.append(self._parse_stmt())
            self._expect("punct", "}")
            return A.Block(stmts, loc=self._loc(start))
        finally:
            self.depth -= 1

    def _parse_stmt(self) -> A.Stmt:
        tok = self._peek()
        if tok.kind == "keyword":
            if tok.text == "var":
                return self._parse_var_decl()
            if tok.text == "if":
                return self._parse_if()
            if tok.text == "while":
                return self._parse_while()
            if tok.text == "for":
                return self._parse_for()
            if tok.text == "return":
                return self._parse_return()
            if tok.text == "print":
                return self._parse_print()
            if tok.text == "assert":
                return self._parse_assert()
            if tok.text == "omp":
                return self._parse_omp()
        if tok.kind == "punct" and tok.text == "{":
            return self._parse_block()
        stmt = self._parse_simple()
        self._expect("punct", ";")
        return stmt

    def _parse_var_decl(self) -> A.VarDecl:
        start = self._expect("keyword", "var")
        name = self._expect("ident").text
        size: Optional[A.Expr] = None
        init: Optional[A.Expr] = None
        if self._match("punct", "["):
            size = self._parse_expr()
            self._expect("punct", "]")
        if self._match("op", "="):
            init = self._parse_expr()
        self._expect("punct", ";")
        return A.VarDecl(name, init=init, size=size, loc=self._loc(start))

    def _parse_simple(self) -> A.Stmt:
        """Parse an assignment or a bare call (no trailing semicolon)."""
        start = self._peek()
        expr = self._parse_expr()
        if self._match("op", "="):
            value = self._parse_expr()
            return A.Assign(expr, value, loc=self._loc(start))
        if not isinstance(expr, A.CallExpr):
            raise ParseError(
                "expression statement must be a call or assignment",
                start.line,
                start.col,
            )
        return A.ExprStmt(expr, loc=self._loc(start))

    def _parse_if(self) -> A.If:
        start = self._expect("keyword", "if")
        self._expect("punct", "(")
        cond = self._parse_expr()
        self._expect("punct", ")")
        then = self._parse_block()
        els: Optional[A.Stmt] = None
        if self._match("keyword", "else"):
            if self._check("keyword", "if"):
                # Normalize 'else if' into an else-block containing the if,
                # so the else branch is always a Block (round-trip friendly).
                nested = self._parse_if()
                els = A.Block([nested], loc=nested.loc)
            else:
                els = self._parse_block()
        return A.If(cond, then, els, loc=self._loc(start))

    def _parse_while(self) -> A.While:
        start = self._expect("keyword", "while")
        self._expect("punct", "(")
        cond = self._parse_expr()
        self._expect("punct", ")")
        body = self._parse_block()
        return A.While(cond, body, loc=self._loc(start))

    def _parse_for_header(self) -> tuple:
        self._expect("punct", "(")
        init: Optional[A.Stmt] = None
        if not self._check("punct", ";"):
            if self._check("keyword", "var"):
                start = self._expect("keyword", "var")
                name = self._expect("ident").text
                iexpr = None
                if self._match("op", "="):
                    iexpr = self._parse_expr()
                init = A.VarDecl(name, init=iexpr, loc=self._loc(start))
            else:
                init = self._parse_simple()
        self._expect("punct", ";")
        cond: Optional[A.Expr] = None
        if not self._check("punct", ";"):
            cond = self._parse_expr()
        self._expect("punct", ";")
        step: Optional[A.Stmt] = None
        if not self._check("punct", ")"):
            step = self._parse_simple()
        self._expect("punct", ")")
        return init, cond, step

    def _parse_for(self) -> A.For:
        start = self._expect("keyword", "for")
        init, cond, step = self._parse_for_header()
        body = self._parse_block()
        return A.For(init, cond, step, body, loc=self._loc(start))

    def _parse_return(self) -> A.Return:
        start = self._expect("keyword", "return")
        value: Optional[A.Expr] = None
        if not self._check("punct", ";"):
            value = self._parse_expr()
        self._expect("punct", ";")
        return A.Return(value, loc=self._loc(start))

    def _parse_print(self) -> A.Print:
        start = self._expect("keyword", "print")
        self._expect("punct", "(")
        args: List[A.Expr] = []
        if not self._check("punct", ")"):
            args.append(self._parse_expr())
            while self._match("punct", ","):
                args.append(self._parse_expr())
        self._expect("punct", ")")
        self._expect("punct", ";")
        return A.Print(args, loc=self._loc(start))

    def _parse_assert(self) -> A.AssertStmt:
        start = self._expect("keyword", "assert")
        self._expect("punct", "(")
        cond = self._parse_expr()
        self._expect("punct", ")")
        self._expect("punct", ";")
        return A.AssertStmt(cond, loc=self._loc(start))

    # -- OpenMP directives -------------------------------------------------

    def _parse_name_list(self) -> List[str]:
        self._expect("punct", "(")
        names = [self._expect("ident").text]
        while self._match("punct", ","):
            names.append(self._expect("ident").text)
        self._expect("punct", ")")
        return names

    def _parse_reduction_clause(self) -> List[tuple]:
        """``reduction(op: a, b, ...)`` -> [(op, 'a'), (op, 'b'), ...]."""
        self._expect("punct", "(")
        tok = self._peek()
        if tok.kind == "op" and tok.text in ("+", "*"):
            op = self._advance().text
        elif tok.kind == "ident" and tok.text in ("min", "max"):
            op = self._advance().text
        else:
            raise ParseError(
                f"unknown reduction operator {tok.text!r} (expected +, *, min, max)",
                tok.line, tok.col,
            )
        self._expect("punct", ":")
        pairs = [(op, self._expect("ident").text)]
        while self._match("punct", ","):
            pairs.append((op, self._expect("ident").text))
        self._expect("punct", ")")
        return pairs

    def _parse_omp(self) -> A.Stmt:
        start = self._expect("keyword", "omp")
        tok = self._peek()
        if self._match("keyword", "parallel"):
            return self._parse_omp_parallel(start)
        if self._match("keyword", "for"):
            return self._parse_omp_for(start)
        if self._match("keyword", "sections"):
            return self._parse_omp_sections(start)
        if self._match("keyword", "critical"):
            name = ""
            if self._match("punct", "("):
                name = self._expect("ident").text
                self._expect("punct", ")")
            body = self._parse_block()
            return A.OmpCritical(body, name=name, loc=self._loc(start))
        if self._match("keyword", "barrier"):
            self._expect("punct", ";")
            return A.OmpBarrier(loc=self._loc(start))
        if self._match("keyword", "single"):
            nowait = bool(self._match("keyword", "nowait"))
            body = self._parse_block()
            return A.OmpSingle(body, nowait=nowait, loc=self._loc(start))
        if self._match("keyword", "master"):
            body = self._parse_block()
            return A.OmpMaster(body, loc=self._loc(start))
        if self._match("keyword", "atomic"):
            stmt = self._parse_simple()
            self._expect("punct", ";")
            if not isinstance(stmt, A.Assign):
                raise ParseError("omp atomic requires an assignment", start.line, start.col)
            return A.OmpAtomic(stmt, loc=self._loc(start))
        raise ParseError(f"unknown omp directive {tok.text!r}", tok.line, tok.col)

    def _parse_omp_parallel(self, start: Token) -> A.OmpParallel:
        num_threads: Optional[A.Expr] = None
        private: List[str] = []
        shared: List[str] = []
        firstprivate: List[str] = []
        reductions: List[tuple] = []
        # 'omp parallel for' combined construct sugar.
        if self._check("keyword", "for"):
            self._advance()
            inner = self._parse_omp_for(start)
            body = A.Block([inner], loc=self._loc(start))
            return A.OmpParallel(body, loc=self._loc(start))
        while True:
            if self._match("keyword", "num_threads"):
                self._expect("punct", "(")
                num_threads = self._parse_expr()
                self._expect("punct", ")")
            elif self._match("keyword", "private"):
                private.extend(self._parse_name_list())
            elif self._match("keyword", "shared"):
                shared.extend(self._parse_name_list())
            elif self._match("keyword", "firstprivate"):
                firstprivate.extend(self._parse_name_list())
            elif self._match("keyword", "reduction"):
                reductions.extend(self._parse_reduction_clause())
            elif self._check("keyword", "for"):
                # 'omp parallel num_threads(..) for ...' combined construct.
                self._advance()
                inner = self._parse_omp_for(start)
                body = A.Block([inner], loc=self._loc(start))
                return A.OmpParallel(
                    body,
                    num_threads=num_threads,
                    private=private,
                    shared=shared,
                    firstprivate=firstprivate,
                    reductions=reductions,
                    loc=self._loc(start),
                )
            else:
                break
        body = self._parse_block()
        return A.OmpParallel(
            body,
            num_threads=num_threads,
            private=private,
            shared=shared,
            firstprivate=firstprivate,
            reductions=reductions,
            loc=self._loc(start),
        )

    def _parse_omp_for(self, start: Token) -> A.OmpFor:
        schedule = "static"
        chunk: Optional[A.Expr] = None
        nowait = False
        private: List[str] = []
        reductions: List[tuple] = []
        while True:
            if self._match("keyword", "schedule"):
                self._expect("punct", "(")
                kind_tok = self._peek()
                kind = self._advance().text
                if kind not in A.SCHEDULE_KINDS:
                    raise ParseError(
                        f"unknown schedule kind {kind!r}", kind_tok.line, kind_tok.col
                    )
                schedule = kind
                if self._match("punct", ","):
                    chunk = self._parse_expr()
                self._expect("punct", ")")
            elif self._match("keyword", "nowait"):
                nowait = True
            elif self._match("keyword", "private"):
                private.extend(self._parse_name_list())
            elif self._match("keyword", "reduction"):
                reductions.extend(self._parse_reduction_clause())
            else:
                break
        for_tok = self._expect("keyword", "for")
        init, cond, step = self._parse_for_header()
        body = self._parse_block()
        loop = A.For(init, cond, step, body, loc=self._loc(for_tok))
        return A.OmpFor(
            loop,
            schedule=schedule,
            chunk=chunk,
            nowait=nowait,
            private=private,
            reductions=reductions,
            loc=self._loc(start),
        )

    def _parse_omp_sections(self, start: Token) -> A.OmpSections:
        nowait = bool(self._match("keyword", "nowait"))
        self._expect("punct", "{")
        sections: List[A.Block] = []
        while not self._check("punct", "}"):
            self._expect("keyword", "omp")
            self._expect("keyword", "section")
            sections.append(self._parse_block())
        self._expect("punct", "}")
        if not sections:
            raise ParseError("omp sections requires at least one section", start.line, start.col)
        return A.OmpSections(sections, nowait=nowait, loc=self._loc(start))

    # -- expressions ------------------------------------------------------------

    def _parse_expr(self, min_prec: int = 1) -> A.Expr:
        left = self._parse_unary()
        while True:
            tok = self.tokens[self.pos]
            if tok.kind != "op" or tok.text not in _PRECEDENCE:
                return left
            prec = _PRECEDENCE[tok.text]
            if prec < min_prec:
                return left
            self.pos += 1
            right = self._parse_expr(prec + 1)
            left = A.Binary(tok.text, left, right, loc=A.SourceLoc(tok.line, tok.col))

    def _parse_unary(self) -> A.Expr:
        tok = self.tokens[self.pos]
        if tok.kind == "op" and tok.text in ("-", "!"):
            self._advance()
            self._descend(tok)
            try:
                operand = self._parse_unary()
            finally:
                self.depth -= 1
            return A.Unary(tok.text, operand, loc=self._loc(tok))
        return self._parse_postfix()

    def _parse_postfix(self) -> A.Expr:
        expr = self._parse_primary()
        while True:
            tok = self.tokens[self.pos]
            if tok.kind == "punct" and tok.text == "[":
                self.pos += 1
                index = self._parse_expr()
                self._expect("punct", "]")
                expr = A.Index(expr, index, loc=self._loc(tok))
            else:
                return expr

    def _parse_primary(self) -> A.Expr:
        tok = self.tokens[self.pos]
        kind = tok.kind
        # literal and identifier tokens are never the final eof
        if kind == "ident":
            self.pos += 1
            if self._check("punct", "("):
                self._advance()
                args: List[A.Expr] = []
                if not self._check("punct", ")"):
                    args.append(self._parse_expr())
                    while self._match("punct", ","):
                        args.append(self._parse_expr())
                self._expect("punct", ")")
                return A.CallExpr(tok.text, args, loc=self._loc(tok))
            return A.Name(tok.text, loc=A.SourceLoc(tok.line, tok.col))
        if kind == "int":
            self.pos += 1
            return A.IntLit(int(tok.text), loc=A.SourceLoc(tok.line, tok.col))
        if kind == "float":
            self.pos += 1
            return A.FloatLit(float(tok.text), loc=self._loc(tok))
        if kind == "string":
            self.pos += 1
            return A.StrLit(tok.text, loc=self._loc(tok))
        if kind == "keyword" and tok.text in ("true", "false"):
            self.pos += 1
            return A.BoolLit(tok.text == "true", loc=self._loc(tok))
        if kind == "punct" and tok.text == "(":
            self._advance()
            self._descend(tok)
            try:
                expr = self._parse_expr()
            finally:
                self.depth -= 1
            self._expect("punct", ")")
            return expr
        raise ParseError(f"unexpected token {tok.text or tok.kind!r}", tok.line, tok.col)


def parse(source: str) -> A.Program:
    """Parse mini-language *source* text into a :class:`Program`."""
    parser = Parser(tokenize(source))
    program = parser.parse_program()
    eof = parser._peek()
    if eof.kind != "eof":  # pragma: no cover - parse_program consumes to eof
        raise ParseError("trailing input after program", eof.line, eof.col)
    return program
