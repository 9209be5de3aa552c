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
from ..values import Cell, Scope
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
        #: what a monitored site's ``compiler._mem_event`` body needs of
        #: the run: no ``MemAccess`` is emitted while
        #: ``_close_suspended_threads`` has the log swapped out, since
        #: closing a thread runs only ``finally`` blocks
        self.mem_run = (
            self.charge_cfg.mem_event_cost, self._log_append,
            self.log.seq_counter(),
        )
        return super().run()

    def _call_user(self, fn: A.FuncDef, args: List[Any], ctx: ThreadCtx,
                   stmt: bool = False):
        """Run a call of *fn*; its value, or None for a call statement
        (*stmt*), whose generator the compiled statement returns as its
        own."""
        entry = self._codes.get(fn.name)
        if entry is None or entry.fn is not fn:
            # Defensive: a FuncDef not from self.program (or shadowed by
            # a later duplicate) falls back to the tree-walk.
            value = yield from Interpreter._call_user(self, fn, args, ctx)
            return None if stmt else value
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
            # parameters bound in place, as compiled declarations bind
            scope = Scope(parent=ctx.proc.globals)
            cells, ids = scope.cells, scope.cell_ids
            for pname, pval in zip(params, args):
                cells[pname] = Cell(next(ids), pname, pval)
            ctx.scope = scope
        else:
            # Frame elided (no params, no top-level declarations):
            # resolution starts at the per-process globals, exactly the
            # chain the tree-walk's empty call scope would delegate to.
            ctx.scope = ctx.proc.globals
        try:
            # Inlined _exec_code: function bodies never carry their own
            # push flag (_compile_body manages scope here), and keeping
            # the statement loop in this frame saves a driver generator
            # per call.
            step = self._step_stmt
            flow = None
            for is_gen, sfn in entry.code[0]:
                yield step
                flow = (
                    (yield sfn(self, ctx)) if is_gen else sfn(self, ctx)
                )
                if flow is not None:
                    break
        finally:
            ctx.scope = saved
            ctx.call_depth -= 1
        if stmt:
            return None
        if flow is not None and flow[0] == _RETURN:
            return flow[1]
        return 0
