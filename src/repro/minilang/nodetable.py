"""Per-program node table: every node of a :class:`Program` by its nid.

Node ids are pre-order positions (:func:`.ast_nodes.renumber_nids`),
so the one walk that assigns them can also record everything the
static passes would otherwise re-derive by walking the tree again:

* the node, its parent and the last nid of its subtree (a subtree is
  the contiguous slice ``nodes[nid:end + 1]``);
* its enclosing :class:`FuncDef`;
* its OpenMP context (:class:`OmpContext`): innermost ``omp parallel``,
  ``omp for``, ``omp sections`` section and master/single construct,
  the enclosing critical names and ``omp atomic``, and its loop and
  conditional nesting depth;
* for a :class:`Name`, the declaration it lexically binds to.

The table is derived state.  ``renumber_nids`` rebuilds it whenever it
renumbers a program, and it is not an AST field: structural equality,
the printer and pickling never see it.  A program holds its table, so
the table refers to the program itself only weakly: no reference cycle
keeps a dropped program alive until a cyclic collection.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

from . import ast_nodes as A


class OmpContext:
    """The OpenMP context a node executes in, as seen lexically within
    its function.  Nodes in one context share one instance.

    A construct's clauses (``num_threads``, ``schedule`` chunk) are
    evaluated outside it, so they carry the construct's own context;
    ``clause`` names the construct whose clause a node is in.
    """

    __slots__ = (
        "region", "omp_for", "section", "master", "criticals", "atomic",
        "loops", "cond", "clause",
    )

    def __init__(self) -> None:
        #: innermost ``omp parallel`` whose body encloses the node (0: none)
        self.region = 0
        #: innermost ``omp for`` whose loop encloses the node (0: none)
        self.omp_for = 0
        #: (``omp sections`` nid, section index) of the innermost section
        self.section: Optional[Tuple[int, int]] = None
        #: innermost ``omp master`` or ``omp single`` (0: none)
        self.master = 0
        #: enclosing ``omp critical`` names, outermost first ("" = unnamed)
        self.criticals: Tuple[str, ...] = ()
        #: inside an ``omp atomic`` statement
        self.atomic = False
        #: enclosing ``while``/``for`` loops
        self.loops = 0
        #: enclosing conditionally executed parts: ``if`` arms, loop
        #: bodies and ``for`` steps
        self.cond = 0
        #: the ``omp parallel``/``omp for`` whose clause holds the node
        self.clause = 0

    def derive(self, **changes: object) -> "OmpContext":
        new = OmpContext.__new__(OmpContext)
        for name in OmpContext.__slots__:
            setattr(new, name, changes.get(name, getattr(self, name)))
        return new


_TOP = OmpContext()


class NodeTable:
    """Every node of one tree, indexed by nid (index 0 is unused)."""

    __slots__ = (
        "nodes", "parent", "end", "func", "ctx", "binding", "_calls", "_program",
    )

    def __init__(self, root: A.Node, number: bool = True) -> None:
        # Without ``number`` the tree keeps its ids, which must already
        # be pre-order (a function of a numbered program): rows before
        # the root's id stay empty.
        first = 1 if number else root.nid
        if first < 1:
            raise ValueError("cannot index an unnumbered tree")
        self.nodes: List[Optional[A.Node]] = [None] * first
        #: parent nid (0 for the root)
        self.parent: List[int] = [0] * first
        #: last nid of the node's subtree
        self.end: List[int] = [0] * first
        #: enclosing function (a FuncDef is its own)
        self.func: List[Optional[A.FuncDef]] = [None] * first
        self.ctx: List[OmpContext] = [_TOP] * first
        #: Name nid -> nid of the declaration it binds to: a VarDecl, the
        #: FuncDef for a parameter, or the construct privatizing it
        #: (absent: undeclared)
        self.binding: Dict[int, int] = {}
        #: function nid -> its CallExpr nids in post-order
        self._calls: Dict[int, List[int]] = {}
        #: weak reference to a root :class:`Program`, whose own row in
        #: ``nodes`` stays empty (None: the root is not a program)
        self._program: Optional[weakref.ref] = None
        _build(self, root, number)

    # -- lookups -------------------------------------------------------------

    def node(self, nid: int) -> Optional[A.Node]:
        if not 0 < nid < len(self.nodes):
            return None
        node = self.nodes[nid]
        if node is None and self._program is not None:
            return self._program()  # the only empty row of a program's table
        return node

    def owns(self, node: A.Node) -> bool:
        """Is *node* the table's node at its nid?"""
        return self.node(node.nid) is node

    def subtree(self, node: A.Node) -> List[A.Node]:
        """*node* and its descendants in pre-order (walked only for a
        node the table does not hold, e.g. one added after numbering)."""
        if self.owns(node):
            nid = node.nid
            rows = self.nodes[nid:self.end[nid] + 1]
            rows[0] = node
            return rows
        return list(node.walk())

    def contains(self, outer: int, nid: int) -> bool:
        """Is *nid* in the subtree of node *outer*?"""
        return outer <= nid <= self.end[outer]

    def calls(self, func: A.FuncDef) -> List[A.CallExpr]:
        """*func*'s call expressions in post-order (arguments first)."""
        nodes = self.nodes
        return [nodes[nid] for nid in self._calls.get(func.nid, ())]

    def regions(self, nid: int) -> Tuple[int, ...]:
        """Enclosing ``omp parallel`` nids, outermost first."""
        out: List[int] = []
        region = self.ctx[nid].region
        while region:
            out.append(region)
            region = self.ctx[region].region
        return tuple(reversed(out))

    def innermost(self, nid: int, cls: type) -> int:
        """Innermost master/single construct of class *cls* (0: none)."""
        master = self.ctx[nid].master
        while master and not isinstance(self.nodes[master], cls):
            master = self.ctx[master].master
        return master

    def encounters_serial(self, construct: int) -> bool:
        """Are the encounters of a worksharing construct ordered?  Outside
        loops, or with its closing barrier (no ``nowait``), they are."""
        if not construct:
            return True
        return self.ctx[construct].loops == 0 or not self.nodes[construct].nowait

    def loop_index(self, omp_for: int) -> Optional[str]:
        """Index variable of the ``omp for`` at *omp_for*."""
        node = self.nodes[omp_for]
        assert isinstance(node, A.OmpFor)
        init = node.loop.init
        if isinstance(init, A.VarDecl):
            return init.name
        if isinstance(init, A.Assign) and isinstance(init.target, A.Name):
            return init.target.ident
        return None


def subtree(node: A.Node, table: Optional[NodeTable]) -> List[A.Node]:
    """*node* and its descendants in pre-order, from *table* if given."""
    return table.subtree(node) if table is not None else list(node.walk())


def function_table(func: A.FuncDef) -> Optional[NodeTable]:
    """A table over one function of a numbered program (None when its
    ids are not pre-order positions)."""
    try:
        return NodeTable(func, number=False)
    except ValueError:
        return None


_LEAVES = frozenset({A.IntLit, A.FloatLit, A.BoolLit, A.StrLit, A.OmpBarrier})


def _build(table: NodeTable, root: A.Node, number: bool) -> None:
    """The numbering walk: assigns nids (with *number*) and fills *table*."""
    nodes, end, binding, calls = table.nodes, table.end, table.binding, table._calls
    add_node, add_parent, add_end = nodes.append, table.parent.append, end.append
    add_func, add_ctx = table.func.append, table.ctx.append

    def visit(
        node: A.Node,
        parent: int,
        func: Optional[A.FuncDef],
        ctx: OmpContext,
        scopes: List[Dict[str, int]],
    ) -> None:
        cls = type(node)
        if cls is A.FuncDef:
            func = node
        nid = len(nodes)
        if number:
            node.nid = nid
        elif node.nid != nid:
            raise ValueError("tree ids are not pre-order positions")
        add_node(node)
        add_parent(parent)
        add_end(nid)
        add_func(func)
        add_ctx(ctx)

        if cls is A.Name:
            for scope in reversed(scopes):
                decl = scope.get(node.ident)
                if decl is not None:
                    binding[nid] = decl
                    break
        elif cls in _LEAVES:
            pass
        elif cls is A.Binary:
            visit(node.left, nid, func, ctx, scopes)
            visit(node.right, nid, func, ctx, scopes)
        elif cls is A.CallExpr:
            for arg in node.args:
                visit(arg, nid, func, ctx, scopes)
            if func is not None:
                calls.setdefault(func.nid, []).append(nid)
        elif cls is A.VarDecl:
            for child in node.children():
                visit(child, nid, func, ctx, scopes)
            scopes[-1][node.name] = nid
        elif cls is A.Block:
            inner = scopes + [{}]
            for stmt in node.stmts:
                visit(stmt, nid, func, ctx, inner)
        elif cls is A.FuncDef:
            params = {p: nid for p in node.params}
            visit(node.body, nid, func, ctx, scopes + [params])
        elif cls is A.If:
            visit(node.cond, nid, func, ctx, scopes)
            arm = ctx.derive(cond=ctx.cond + 1)
            visit(node.then, nid, func, arm, scopes)
            if node.els is not None:
                visit(node.els, nid, func, arm, scopes)
        elif cls is A.While:
            visit(node.cond, nid, func, ctx.derive(loops=ctx.loops + 1), scopes)
            body = ctx.derive(loops=ctx.loops + 1, cond=ctx.cond + 1)
            visit(node.body, nid, func, body, scopes)
        elif cls is A.For:
            head = ctx.derive(loops=ctx.loops + 1)
            body = ctx.derive(loops=ctx.loops + 1, cond=ctx.cond + 1)
            inner = scopes + [{}]
            if node.init is not None:
                visit(node.init, nid, func, head, inner)
            if node.cond is not None:
                visit(node.cond, nid, func, head, inner)
            if node.step is not None:
                visit(node.step, nid, func, body, inner)
            visit(node.body, nid, func, body, inner)
        elif cls is A.OmpParallel:
            if node.num_threads is not None:
                visit(node.num_threads, nid, func, ctx.derive(clause=nid), scopes)
            private = dict.fromkeys(node.private, nid)
            private.update(dict.fromkeys(node.firstprivate, nid))
            private.update((name, nid) for _, name in node.reductions)
            visit(node.body, nid, func, ctx.derive(region=nid), scopes + [private])
        elif cls is A.OmpFor:
            if node.chunk is not None:
                visit(node.chunk, nid, func, ctx.derive(clause=nid), scopes)
            private = dict.fromkeys(node.private, nid)
            private.update((name, nid) for _, name in node.reductions)
            visit(node.loop, nid, func, ctx.derive(omp_for=nid), scopes + [private])
        elif cls is A.OmpSections:
            for index, section in enumerate(node.sections):
                visit(section, nid, func, ctx.derive(section=(nid, index)), scopes)
        elif cls is A.OmpSingle or cls is A.OmpMaster:
            visit(node.body, nid, func, ctx.derive(master=nid), scopes)
        elif cls is A.OmpCritical:
            inner_ctx = ctx.derive(criticals=ctx.criticals + (node.name,))
            visit(node.body, nid, func, inner_ctx, scopes)
        elif cls is A.OmpAtomic:
            visit(node.stmt, nid, func, ctx.derive(atomic=True), scopes)
        else:
            for child in node.children():
                visit(child, nid, func, ctx, scopes)
        end[nid] = len(nodes) - 1

    visit(root, 0, None, _TOP, [{}])
    del visit  # the recursive closure's own cell: a reference cycle
    if type(root) is A.Program:
        nodes[root.nid] = None
        table._program = weakref.ref(root)
