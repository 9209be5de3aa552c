"""Directed-graph helpers over plain adjacency mappings.

The static phase's graphs are small — one function's CFG, one
program's call graph — so each is a mapping from a node to its ordered
list of successors (or, read the other way, predecessors).  These
helpers answer the three questions the passes ask of them:

* :func:`reachable` — every node reachable from a set of roots (over a
  successor mapping: descendants; over a predecessor mapping:
  ancestors);
* :func:`strongly_connected_components` — Tarjan's algorithm, iterative
  so deep call chains never touch the recursion limit;
* :func:`callees_first` — the components in a deterministic order in
  which each comes after every component it reaches.

A node missing from a mapping has no edges.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Sequence, Set, TypeVar

T = TypeVar("T", bound=Hashable)

Adjacency = Mapping[T, Sequence[T]]


def reachable(adj: Adjacency, roots: Iterable[T]) -> Set[T]:
    """The roots and every node reachable from them along *adj*."""
    seen = set(roots)
    stack = list(seen)
    while stack:
        for nxt in adj.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def strongly_connected_components(
    adj: Adjacency, nodes: Iterable[T] = ()
) -> List[List[T]]:
    """Strongly connected components of the graph over *nodes* and the
    keys of *adj*, each listed in discovery order.

    Components come out in Tarjan's emission order: a component follows
    every component it reaches, so the list is callees-first for a
    caller -> callee mapping.
    """
    index: Dict[T, int] = {}
    low: Dict[T, int] = {}
    on_stack: Set[T] = set()
    stack: List[T] = []
    out: List[List[T]] = []
    for root in [*nodes, *adj]:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        # (node, iterator over its successors) frames replace recursion
        work = [(root, iter(adj.get(root, ())))]
        while work:
            node, succs = work[-1]
            for nxt in succs:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(adj.get(nxt, ()))))
                    break
                if nxt in on_stack and index[nxt] < low[node]:
                    low[node] = index[nxt]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index[node]:
                    component: List[T] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    component.reverse()
                    out.append(component)
    return out


def callees_first(adj: Adjacency, nodes: Sequence[T]) -> List[List[T]]:
    """Strongly connected components of the graph over *nodes* (which
    must list every node), each after every component it reaches.

    The order is the reverse of a first-in first-out topological sort
    of the condensation: components with no incoming edge are queued in
    *nodes* order of their earliest member, and each placed component
    releases its successors in edge order (members in *nodes* order,
    each member's successors in *adj* order).  So a component's
    distance from the sources, not its position in *nodes*, decides
    how late it comes; ties never depend on set iteration order.
    Members are listed in *nodes* order.
    """
    position = {node: i for i, node in enumerate(nodes)}
    components = strongly_connected_components(adj, nodes)
    for members in components:
        members.sort(key=position.__getitem__)
    components.sort(key=lambda members: position[members[0]])
    comp_of = {member: c for c, members in enumerate(components) for member in members}
    succ: List[List[int]] = []
    indegree = [0] * len(components)
    for c, members in enumerate(components):
        out: Dict[int, None] = {}
        for member in members:
            for nxt in adj.get(member, ()):
                d = comp_of[nxt]
                if d != c and d not in out:
                    out[d] = None
                    indegree[d] += 1
        succ.append(list(out))
    queue = [c for c in range(len(components)) if not indegree[c]]
    for c in queue:  # the list grows as components are released
        for d in succ[c]:
            indegree[d] -= 1
            if not indegree[d]:
                queue.append(d)
    return [components[c] for c in reversed(queue)]
