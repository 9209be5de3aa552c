"""Compile-once bytecode/closure-array execution engine.

Public surface:

* :func:`compile_program` — lower a program to closure arrays under a
  memory-monitoring spec (memoized per program object and spec; shared
  across campaign cells and serve workers);
* :class:`BytecodeInterpreter` — drop-in interpreter running compiled
  code with byte-identical traces to the tree-walk;
* :func:`clear_compile_cache` — drop memoized compilations (tests).
"""

from .compiler import CompiledProgram, clear_compile_cache, compile_program  # noqa: F401
from .vm import BytecodeInterpreter  # noqa: F401

__all__ = [
    "BytecodeInterpreter",
    "CompiledProgram",
    "clear_compile_cache",
    "compile_program",
]
