"""In-house graph helpers against networkx as a reference, the CFG and
call graph built on them, order independence from the hash seed, and
a product that imports without networkx."""

import json
import os
import subprocess
import sys
from collections import Counter

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cfg import CFG, STMT
from repro.analysis.graphs import callees_first, reachable, strongly_connected_components
from repro.analysis.static_ import build_callgraph
from repro.minilang import parse


@st.composite
def digraphs(draw, max_nodes=12):
    """(node count, edge list) with self-loops and repeated edges."""
    n = draw(st.integers(1, max_nodes))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    return n, edges


def adjacency(n, edges):
    succ = {v: [] for v in range(n)}
    pred = {v: [] for v in range(n)}
    for a, b in edges:
        if b not in succ[a]:
            succ[a].append(b)
            pred[b].append(a)
    return succ, pred


def reference(n, edges):
    graph = nx.DiGraph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    return graph


class TestAgainstNetworkx:
    @settings(max_examples=300, deadline=None)
    @given(digraphs())
    def test_scc_members(self, g):
        n, edges = g
        succ, _ = adjacency(n, edges)
        ours = [frozenset(c) for c in strongly_connected_components(succ)]
        assert len(ours) == len(set(ours))
        assert set(ours) == {
            frozenset(c) for c in nx.strongly_connected_components(reference(n, edges))
        }

    @settings(max_examples=300, deadline=None)
    @given(digraphs(), st.data())
    def test_reachability_both_ways(self, g, data):
        n, edges = g
        succ, pred = adjacency(n, edges)
        graph = reference(n, edges)
        roots = data.draw(st.sets(st.integers(0, n - 1), max_size=3))
        down, up = set(roots), set(roots)
        for root in roots:
            down |= nx.descendants(graph, root)
            up |= nx.ancestors(graph, root)
        assert reachable(succ, roots) == down
        assert reachable(pred, roots) == up

    @settings(max_examples=300, deadline=None)
    @given(digraphs())
    def test_cfg_adjacency_and_reachable_from_entry(self, g):
        n, edges = g
        cfg = CFG("f")
        nodes = [cfg.entry, cfg.exit] + [cfg.add(STMT) for _ in range(n - 2)]
        graph = nx.DiGraph()
        graph.add_nodes_from(node.cfg_id for node in nodes[:n])
        for a, b in edges:
            cfg.edge(nodes[a], nodes[b])
            graph.add_edge(nodes[a].cfg_id, nodes[b].cfg_id)
        for node in nodes[:n]:
            # successor / predecessor order is networkx's iteration order
            assert [s.cfg_id for s in cfg.successors(node)] == list(
                graph.successors(node.cfg_id)
            )
            assert [p.cfg_id for p in cfg.predecessors(node)] == list(
                graph.predecessors(node.cfg_id)
            )
        entry = cfg.entry.cfg_id
        assert cfg.reachable_from_entry() == nx.descendants(graph, entry) | {entry}

    @settings(max_examples=200, deadline=None)
    @given(digraphs())
    def test_bottom_up_is_callees_first(self, g):
        n, edges = g
        succ, _ = adjacency(n, edges)
        funcs = "\n".join(
            f"func f{v}() {{\n"
            + "".join(f"    f{w}();\n" for a, w in edges if a == v)
            + "    return 0;\n}"
            for v in range(n)
        )
        cg = build_callgraph(parse(f"program g;\n{funcs}\n"))
        assert sorted(cg.bottom_up) == sorted(f"f{v}" for v in range(n))
        graph = reference(n, edges)
        comp = {}
        for c, members in enumerate(nx.strongly_connected_components(graph)):
            comp.update(dict.fromkeys(members, c))
        index = {int(name[1:]): i for i, name in enumerate(cg.bottom_up)}
        for a, b in edges:
            if comp[a] != comp[b]:
                assert index[b] < index[a]
        sizes = Counter(comp.values())
        recursive = {
            f"f{v}" for v in range(n) if graph.has_edge(v, v) or sizes[comp[v]] > 1
        }
        assert cg.recursive == recursive
        # the helper itself: components callees-first, members in node order
        components = callees_first(succ, range(n))
        assert {frozenset(c) for c in components} == {
            frozenset(c) for c in nx.strongly_connected_components(graph)
        }
        assert all(c == sorted(c) for c in components)
        placed = {v: i for i, members in enumerate(components) for v in members}
        assert all(placed[b] <= placed[a] for a, b in edges)


#: three regions reach ``helper`` through three different functions;
#: ``unused`` and ``main`` are both call-graph sources
CHAIN = """
program chain;
func helper() { var r = mpi_comm_rank(MPI_COMM_WORLD); return r; }
func alpha() { helper(); return 0; }
func beta() { helper(); return 0; }
func gamma() { helper(); return 0; }
func spare() { return 0; }
func unused() { spare(); return 0; }
func main() {
    var p = mpi_init_thread(MPI_THREAD_MULTIPLE);
    omp parallel { alpha(); }
    omp parallel { beta(); }
    omp parallel { gamma(); }
    mpi_finalize();
}
"""

ORDER_SCRIPT = f"""
import json
from repro.analysis.static_ import build_callgraph, collect_sites
from repro.minilang import parse
from repro.workloads.npb.ft_mz import ft_mz_source
program = parse({CHAIN!r})
print(json.dumps([
    build_callgraph(program).bottom_up,
    build_callgraph(parse(ft_mz_source(False))).bottom_up,
    [list(s.call_chain) for s in collect_sites(program) if s.func == "helper"],
]))
"""


def run_python(script, **env_vars):
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestHashSeedIndependence:
    def test_bottom_up_and_call_chains(self):
        runs = [
            json.loads(run_python(ORDER_SCRIPT, PYTHONHASHSEED=seed))
            for seed in ("0", "1")
        ]
        assert runs[0] == runs[1]
        chain_order, ft_order, helper_chains = runs[0]
        assert chain_order == [
            "helper", "gamma", "beta", "alpha", "spare", "main", "unused",
        ]
        assert ft_order == ["main", "ft_flag_handler"]
        assert helper_chains == [["alpha", "beta", "gamma", "helper"]]


class TestImportsWithoutNetworkx:
    def test_cli_import_loads_no_networkx(self):
        out = run_python(
            "import sys\nimport repro.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('networkx')))"
        )
        assert out.strip() == "[]"
