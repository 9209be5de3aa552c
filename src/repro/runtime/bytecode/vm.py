"""Bytecode VM: executes closure-compiled programs.

:class:`BytecodeInterpreter` is a drop-in :class:`Interpreter` whose
user-function call path runs compiled code instead of the recursive
tree-walk.  Everything outside the statement/expression hot loop — MPI
builtins, fault injection, lock/barrier/collective bookkeeping, event
emission, the pthread model, run() orchestration — is inherited
unchanged, which is what keeps the two engines byte-identical: they
share one implementation of every scheduling-relevant primitive.

Compilation happens in :meth:`BytecodeInterpreter.run`, under the
memory-monitoring spec of the config at that moment, and is memoized
per (program object, spec) (see
:func:`~repro.runtime.bytecode.compiler.compile_program`), so a campaign
cell re-running one program across hundreds of seed/plan cells compiles
it exactly once per worker process.
"""

from __future__ import annotations

from typing import Any, List

from ...errors import SimAbort
from ...minilang import ast_nodes as A
from ..interpreter import Interpreter, ThreadCtx
from ..scheduler import Step
from ..values import Scope
from .compiler import compile_program, monitor_spec

_RETURN = "return"


class BytecodeInterpreter(Interpreter):
    """Interpreter variant executing compiled closure arrays."""

    def run(self):
        self.compiled = compile_program(self.program, monitor_spec(self.config))
        self._codes = self.compiled.codes
        #: interned Step for the per-statement charge (frozen dataclass,
        #: so one instance serves every statement yield)
        self._step_stmt = Step(self.cm.stmt)
        return super().run()

    def _call_user(self, fn: A.FuncDef, args: List[Any], ctx: ThreadCtx):
        entry = self._codes.get(fn.name)
        if entry is None or entry.fn is not fn:
            # Defensive: a FuncDef not from self.program (or shadowed by
            # a later duplicate) falls back to the tree-walk.
            return (yield from Interpreter._call_user(self, fn, args, ctx))
        params = fn.params
        if len(args) != len(params):
            raise SimAbort(
                f"{fn.name}() expects {len(params)} argument(s), got {len(args)}"
            )
        ctx.call_depth += 1
        if ctx.call_depth > self.config.max_call_depth:
            ctx.call_depth -= 1
            raise SimAbort(f"call depth exceeded in {fn.name}()")
        saved = ctx.scope
        if entry.needs_frame:
            scope = Scope(parent=ctx.proc.globals)
            declare = scope.declare
            for pname, pval in zip(params, args):
                declare(pname, pval)
            ctx.scope = scope
        else:
            # Frame elided (no params, no top-level declarations):
            # resolution starts at the per-process globals, exactly the
            # chain the tree-walk's empty call scope would delegate to.
            ctx.scope = ctx.proc.globals
        try:
            # Inlined _exec_code: function bodies never carry their own
            # push flag (_compile_body manages scope here), and keeping
            # the statement loop in this frame keeps the call's yield
            # chain one level shallower for every statement executed.
            step = self._step_stmt
            flow = None
            for is_gen, sfn in entry.code[0]:
                yield step
                flow = (
                    (yield from sfn(self, ctx)) if is_gen else sfn(self, ctx)
                )
                if flow is not None:
                    break
        finally:
            ctx.scope = saved
            ctx.call_depth -= 1
        if flow is not None and flow[0] == _RETURN:
            return flow[1]
        return 0
