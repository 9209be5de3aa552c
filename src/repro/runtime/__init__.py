"""Simulation runtime: scheduler, interpreter, cost model, configuration."""

from .config import ExecutionResult, RunConfig  # noqa: F401
from .costmodel import (  # noqa: F401
    DEFAULT_COST_MODEL,
    HOME_CHARGE,
    ITC_CHARGE,
    MARMOT_CHARGE,
    NO_INSTRUMENTATION,
    CostModel,
    InstrumentationCharge,
)
from .interpreter import Interpreter, ProcessCtx, ThreadCtx  # noqa: F401
from .scheduler import Block, Scheduler, Step, Task  # noqa: F401
from .values import ArrayValue, BinOps, Cell, Scope, as_int, truthy  # noqa: F401


def make_interpreter(program, config: RunConfig) -> Interpreter:
    """Build the interpreter selected by ``config.engine``.

    Both engines produce byte-identical traces; "bytecode" runs the
    compile-once closure-array VM, "ast" the reference tree-walk.
    """
    if config.engine == "bytecode":
        from .bytecode import BytecodeInterpreter

        return BytecodeInterpreter(program, config)
    return Interpreter(program, config)


def run_program(program, config: RunConfig | None = None, **kwargs) -> ExecutionResult:
    """Convenience: run *program* under a fresh interpreter.

    Keyword arguments are forwarded to :class:`RunConfig` when no config
    object is given.
    """
    if config is None:
        config = RunConfig(**kwargs)
    elif kwargs:
        raise TypeError("pass either a RunConfig or keyword overrides, not both")
    return make_interpreter(program, config).run()


__all__ = [
    "RunConfig",
    "ExecutionResult",
    "Interpreter",
    "ProcessCtx",
    "ThreadCtx",
    "Scheduler",
    "Task",
    "Step",
    "Block",
    "CostModel",
    "InstrumentationCharge",
    "DEFAULT_COST_MODEL",
    "NO_INSTRUMENTATION",
    "HOME_CHARGE",
    "MARMOT_CHARGE",
    "ITC_CHARGE",
    "ArrayValue",
    "Cell",
    "Scope",
    "BinOps",
    "truthy",
    "as_int",
    "make_interpreter",
    "run_program",
]
