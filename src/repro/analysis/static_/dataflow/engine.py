"""Generic forward worklist dataflow engine over the mini-language CFG.

A client analysis supplies the classic ingredients — a boundary fact
for the function entry, a join, a transfer function per CFG node, and
(optionally) a widening operator — and :func:`solve` iterates the CFG
to a fixpoint.  Facts are treated as immutable values; the engine only
ever compares and stores them.

The solver is *optimistic*: a node's input is the join over the outputs
of the predecessors **computed so far**, so unreachable code simply
never receives a fact (clients read ``None`` for it and must treat that
as "no information").  Loops are handled by re-enqueuing successors of
changed nodes; clients with infinite-height domains (intervals) get
widening applied at join points after ``widen_after`` visits.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Generic, Optional, TypeVar

from ...cfg import CFG, CFGNode

F = TypeVar("F")


class ForwardAnalysis(Generic[F]):
    """Base class for client analyses.  Subclass and override."""

    #: visits to one node before widening kicks in at its join
    widen_after: int = 3

    def boundary(self, cfg: CFG) -> F:
        """Fact holding at function entry."""
        raise NotImplementedError

    def join(self, a: F, b: F) -> F:
        """Least upper bound of two facts (combine at merge points)."""
        raise NotImplementedError

    def transfer(self, node: CFGNode, fact: F) -> F:
        """Fact after executing *node* given *fact* before it."""
        raise NotImplementedError

    def widen(self, old: F, new: F) -> F:
        """Accelerate convergence; default is plain join (for finite
        domains that terminate on their own)."""
        return self.join(old, new)

    def equal(self, a: F, b: F) -> bool:
        return a == b


class DataflowResult(Generic[F]):
    """Per-node IN/OUT facts of one solved analysis."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        self.in_facts: Dict[int, F] = {}
        self.out_facts: Dict[int, F] = {}
        #: worklist iterations, for the benchmarks / reports
        self.iterations: int = 0

    def fact_before(self, node: CFGNode) -> Optional[F]:
        return self.in_facts.get(node.cfg_id)

    def fact_after(self, node: CFGNode) -> Optional[F]:
        return self.out_facts.get(node.cfg_id)


def solve(cfg: CFG, analysis: ForwardAnalysis[F], max_iterations: int = 100_000) -> DataflowResult[F]:
    """Run *analysis* over *cfg* to a fixpoint (forward direction)."""
    result: DataflowResult[F] = DataflowResult(cfg)
    in_facts = result.in_facts
    out_facts = result.out_facts
    visits: Dict[int, int] = {}
    cfg_succ, cfg_pred = cfg.succ, cfg.pred

    entry = cfg.entry.cfg_id
    in_facts[entry] = analysis.boundary(cfg)
    worklist: deque = deque([entry])
    queued = {entry}

    while worklist:
        result.iterations += 1
        if result.iterations > max_iterations:  # pragma: no cover - safety net
            break
        nid = worklist.popleft()
        queued.discard(nid)
        node = cfg.nodes[nid]
        out = analysis.transfer(node, in_facts[nid])
        if nid in out_facts and analysis.equal(out_facts[nid], out):
            continue
        out_facts[nid] = out
        for succ in cfg_succ[nid]:
            incoming = [out_facts[p] for p in cfg_pred[succ] if p in out_facts]
            new_in = incoming[0]
            for fact in incoming[1:]:
                new_in = analysis.join(new_in, fact)
            old_in = in_facts.get(succ)
            if old_in is not None:
                visits[succ] = visits.get(succ, 0) + 1
                if analysis.equal(old_in, new_in):
                    continue
                if visits[succ] > analysis.widen_after:
                    new_in = analysis.widen(old_in, new_in)
                    if analysis.equal(old_in, new_in):
                        continue
            in_facts[succ] = new_in
            if succ not in queued:
                worklist.append(succ)
                queued.add(succ)
    return result
