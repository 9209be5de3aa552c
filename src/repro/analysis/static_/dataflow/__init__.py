"""Worklist dataflow framework for the static phase.

A generic forward engine (:mod:`.engine`) over the mini-language CFG
plus three client analyses:

* :mod:`.intervals` — constant / symbolic-interval propagation of
  envelope arguments;
* :mod:`.lockstate` — must-held OpenMP lock tracking;
* :mod:`.mhp` — May-Happen-in-Parallel over OpenMP region structure.

:func:`compute_dataflow` bundles everything into
:class:`DataflowFacts`, which the candidate pass uses to prune pairs it
can prove safe.
"""

from .divergence import (  # noqa: F401
    ThreadDependenceAnalysis,
    branch_taints,
    expr_thread_dependent,
    solve_thread_dependence,
)
from .engine import DataflowResult, ForwardAnalysis, solve  # noqa: F401
from .facts import (  # noqa: F401
    PRUNE_ENVELOPE,
    PRUNE_LOCKSTATE,
    PRUNE_MHP,
    DataflowFacts,
    SymEnvelope,
    compute_dataflow,
)
from .intervals import EnvelopeAnalysis, eval_expr, program_globals_env  # noqa: F401
from .lockstate import LockStateAnalysis  # noqa: F401
from .mhp import MHPInfo, MHPSolution, compute_mhp, may_happen_in_parallel  # noqa: F401
from .values import (  # noqa: F401
    SymInterval,
    Symbol,
    TOP,
    const,
    interval,
    provably_disjoint,
    symbol,
)

__all__ = [
    "ForwardAnalysis",
    "DataflowResult",
    "solve",
    "ThreadDependenceAnalysis",
    "branch_taints",
    "expr_thread_dependent",
    "solve_thread_dependence",
    "DataflowFacts",
    "SymEnvelope",
    "compute_dataflow",
    "PRUNE_ENVELOPE",
    "PRUNE_LOCKSTATE",
    "PRUNE_MHP",
    "EnvelopeAnalysis",
    "eval_expr",
    "program_globals_env",
    "LockStateAnalysis",
    "MHPInfo",
    "compute_mhp",
    "MHPSolution",
    "may_happen_in_parallel",
    "SymInterval",
    "Symbol",
    "TOP",
    "const",
    "interval",
    "symbol",
    "provably_disjoint",
]
