"""End-to-end determinism: same inputs, bit-identical outcomes.

Everything the harness reports — virtual times, event streams,
violation findings — must be a pure function of (source, config).
"""

import hashlib
import io
import json
from itertools import zip_longest

import pytest

from helpers import MPI_PAIR_HEADER, inject_all, npb_sources, wrap_main

from repro.analysis.dynamic_ import analyze
from repro.analysis.static_ import collect_sites, instrument_program, run_static_analysis
from repro.baselines import IntelThreadChecker, Marmot, itc_concurrency, observed_concurrency
from repro.events.serialize import dump_log
from repro.home import Home, check_program
from repro.minilang import builder as B
from repro.minilang import parse, validate
from repro.minilang.ast_nodes import OmpParallel as A_OmpParallel
from repro.runtime import RunConfig, run_program
from repro.violations.fixes import apply_serializing_fix
from repro.violations.render import report_to_dict
from repro.workloads.case_studies import case_study_2
from repro.workloads.npb import build_lu_mz, build_racy_npb, lu_mz_source


def fingerprint(result):
    return (
        result.makespan,
        tuple(sorted(result.proc_clocks.items())),
        tuple((type(e).__name__, e.proc, e.thread, e.seq, e.time) for e in result.log),
        tuple(result.outputs),
        tuple(result.notes),
    )


class TestRunDeterminism:
    def test_identical_runs_identical_traces(self):
        prog_a, prog_b = case_study_2(), case_study_2()
        ra = run_program(prog_a, RunConfig(nprocs=2, seed=5, thread_level_mode="permissive"))
        rb = run_program(prog_b, RunConfig(nprocs=2, seed=5, thread_level_mode="permissive"))
        assert fingerprint(ra) == fingerprint(rb)

    def test_different_seeds_may_differ_in_order_not_verdict(self):
        makespans = set()
        for seed in range(3):
            r = run_program(
                case_study_2(),
                RunConfig(nprocs=2, seed=seed, thread_level_mode="permissive"),
            )
            makespans.add(r.makespan)
        # virtual time is schedule-independent for this program shape:
        # all costs are charged per-thread, so makespan coincides
        assert len(makespans) >= 1

    def test_npb_run_deterministic(self):
        ra = run_program(build_lu_mz(inject=True),
                         RunConfig(nprocs=4, seed=1, thread_level_mode="permissive"))
        rb = run_program(build_lu_mz(inject=True),
                         RunConfig(nprocs=4, seed=1, thread_level_mode="permissive"))
        assert fingerprint(ra) == fingerprint(rb)


#: p2p traffic on MPI_COMM_WORLD, a duplicate and a split communicator:
#: every message id and derived communicator id lands in the trace
COMM_PROGRAM = wrap_main(MPI_PAIR_HEADER + """
    var buf[2];
    var dup = mpi_comm_dup(MPI_COMM_WORLD);
    var sub = mpi_comm_split(MPI_COMM_WORLD, 0, size - rank);
    if (rank == 0) {
        mpi_send(buf, 2, 1, 1, MPI_COMM_WORLD);
        mpi_send(buf, 2, 1, 2, dup);
        mpi_recv(buf, 2, 1, 3, sub);
    }
    if (rank == 1) {
        mpi_recv(buf, 2, 0, 2, dup);
        mpi_recv(buf, 2, 0, 1, MPI_COMM_WORLD);
        mpi_send(buf, 2, 0, 3, sub);
    }
    print(dup, sub);
    mpi_finalize();
""")


class TestRunsShareNoState:
    """A trace is a pure function of the program object and the
    RunConfig: runs earlier in the same process leave no trace in it
    (cell, message and communicator ids are all per-run)."""

    @staticmethod
    def _first_difference(a, b):
        """``(line number, a's line, b's line)`` where two traces first
        differ, or None; cheap to report where a full string diff of
        two multi-megabyte traces is not."""
        pairs = zip_longest(a.splitlines(), b.splitlines())
        for lineno, (line_a, line_b) in enumerate(pairs, 1):
            if line_a != line_b:
                return lineno, line_a, line_b
        return None

    @staticmethod
    def _trace(program, engine, **cfg):
        config = RunConfig(nprocs=2, num_threads=2, seed=3, engine=engine, **cfg)
        buf = io.StringIO()
        dump_log(run_program(program, config).log, buf)
        return buf.getvalue()

    @pytest.mark.parametrize("engine", ["ast", "bytecode"])
    def test_interleaved_runs_replay_byte_identical(self, engine):
        racy = build_racy_npb()
        comms = parse(COMM_PROGRAM)
        validate(comms)

        def run_a():
            return self._trace(racy, engine, monitor_memory=True)

        def run_b():
            return self._trace(comms, engine)

        a1, b1, a2, b2 = run_a(), run_b(), run_a(), run_b()
        assert '"t": "MemAccess"' in a1
        assert self._first_difference(a1, a2) is None
        assert self._first_difference(b1, b2) is None


class TestSeparateParses:
    """Node ids are per-program, so two separate parses of one source
    carry the same ids whatever else the process parsed in between, and
    give the same traces and static reports."""

    @staticmethod
    def _itc_trace(program, engine):
        report = IntelThreadChecker().check(program, nprocs=2, seed=3, engine=engine)
        buf = io.StringIO()
        dump_log(report.execution.log, buf)
        return buf.getvalue()

    @pytest.mark.parametrize("engine", ["ast", "bytecode"])
    def test_two_parses_of_one_source_are_indistinguishable(self, engine):
        source = lu_mz_source()
        first = parse(source)
        parse(COMM_PROGRAM)
        second = parse(source)
        assert [n.nid for n in first.walk()] == [n.nid for n in second.walk()]
        trace_a = self._itc_trace(first, engine)
        trace_b = self._itc_trace(second, engine)
        assert '"t": "MemAccess"' in trace_a
        assert TestRunsShareNoState._first_difference(trace_a, trace_b) is None
        static_a = json.dumps(run_static_analysis(first).as_dict())
        static_b = json.dumps(run_static_analysis(second).as_dict())
        assert static_a == static_b


class TestNodeNumbering:
    """Every finished program numbers its nodes 1..N in pre-order."""

    @staticmethod
    def _assert_numbered(program):
        nodes = list(program.walk())
        nids = [n.nid for n in nodes]
        assert nids == list(range(1, len(nids) + 1))
        # the node table built by the same walk agrees with the tree
        table = program.table
        assert len(table.nodes) == len(nodes) + 1
        for node in nodes:
            assert table.node(node.nid) is node
            assert table.node(node.nid).nid == node.nid
            for child in node.children():
                assert table.parent[child.nid] == node.nid
            assert table.subtree(node) == list(node.walk())
        assert table.parent[program.nid] == 0
        # a structural clone is equal, keeps the ids and aliases nothing
        copy = B.clone(program)
        assert B.ast_equal(copy, program)
        assert [n.nid for n in copy.walk()] == nids
        originals = {id(n) for n in nodes}
        assert not any(id(n) in originals for n in copy.walk())

    def test_parse(self):
        self._assert_numbered(parse(COMM_PROGRAM))

    def test_builder_program(self):
        self._assert_numbered(B.program("b", [
            B.func("main", [], [B.callstmt("mpi_init"), B.callstmt("mpi_finalize")]),
        ]))

    def test_instrument_program(self):
        program = case_study_2()
        result = instrument_program(program, collect_sites(program))
        assert result.n_instrumented > 0
        self._assert_numbered(result.program)
        nodes = {n.nid: n for n in result.program.walk()}
        for nid, site in result.instrumented.items():
            assert site.nid == nid
            assert nodes[nid].name == "h" + site.op

    def test_inject_all(self):
        self._assert_numbered(inject_all(build_lu_mz(inject=False)).program)

    def test_apply_serializing_fix(self):
        program = case_study_2()
        repair = apply_serializing_fix(program, check_program(program).violations)
        assert repair.wrapped_statements > 0
        self._assert_numbered(repair.program)


class TestNodeTable:
    """The static phase reads the node table instead of walking."""

    def test_static_analysis_walks_only_to_build_tables(self, monkeypatch):
        program = parse(lu_mz_source(inject=True))
        program.table
        from repro.minilang import ast_nodes as A

        roots = []
        original = A.Node.walk

        def counting_walk(self):
            roots.append(type(self).__name__)
            return original(self)

        monkeypatch.setattr(A.Node, "walk", counting_walk)
        run_static_analysis(program, cache=False)
        assert roots == []

    def test_unpickled_program_rebuilds_its_table(self):
        import pickle

        program = parse(lu_mz_source(inject=True))
        copy = pickle.loads(pickle.dumps(program))
        assert [n.nid for n in copy.walk()] == [n.nid for n in program.walk()]
        assert copy.table.node(5).nid == 5
        assert B.ast_equal(copy, program)

    def test_shadows_lists_declarations_hiding_a_visible_one(self):
        from repro.minilang import ast_nodes as A

        program = parse("""
program t;
var g = 0;
func main() {
    var x = 0;
    { var x = 1; }
    for (var i = 0; i < 2; i = i + 1) { }
    for (var i = 0; i < 2; i = i + 1) { }
    var g = 2;
}""")
        table = program.table
        shadowing = {
            (node.name, node.loc.line)
            for node in table.nodes
            if isinstance(node, A.VarDecl) and node.nid in table.shadows
        }
        # sibling loops' indices never see each other
        assert shadowing == {("x", 6), ("g", 9)}

    @pytest.mark.parametrize("name", ["lu", "racy-lu", "div", "ip"])
    def test_regions_follow_parent_links(self, name):
        program = parse(npb_sources()[name])
        table = program.table
        for node in program.walk():
            ctx = table.ctx[node.nid]
            chain, up = [], table.parent[node.nid]
            while up:
                parent = table.node(up)
                if isinstance(parent, A_OmpParallel) and not (
                    parent.num_threads is not None
                    and table.contains(parent.num_threads.nid, node.nid)
                ):
                    chain.append(up)
                up = table.parent[up]
            assert table.regions(node.nid) == tuple(reversed(chain))
            assert ctx.region == (chain[0] if chain else 0)


#: sha256 of ``dump_log`` bytes for (source, tool, seed), recorded at
#: commit 98dffd8 and identical under both engines.  A change that
#: alters trace bytes on purpose is a declared re-baseline: it updates
#: these digests and records the old and new values in CHANGES.md.
GOLDEN_TRACES = {
    ("lu", "HOME", 0): "0610cea2f9995a1c002bd083ad7971f910d35573c8967749865325213aa73ac1",
    ("lu", "HOME", 1): "cb1b370fe5b48f44c7d51db97b523a0e5a35ae8dc27417a932e05bce04e1481f",
    ("lu", "ITC", 0): "5c4d8a21c38cedc54ba27d2860c0b88f6cab20c0dd01e3a92701ed8643d8f159",
    ("lu", "ITC", 1): "4ab5d5fc1f5c5aff3e2e7bd69a5a63b9559f7f81e3ae7d3310003f0dedccfaa9",
    ("lu", "MARMOT", 0): "f7b106119bb3bacae09f3c876cb98e76fe4e5a0cba46bf4698b666d104c0650e",
    ("lu", "MARMOT", 1): "bfab99ca800933736fd7c8feb01b9ceff0c92524b2aba9390904ffdcb6520ef3",
    ("bt", "HOME", 0): "b3a331ec3c70d0be84c2fbd8d714f33f695d2ec01c8c4df732379e7edb71c559",
    ("bt", "HOME", 1): "2119e6cdd1e9f628efe152ca250d1e449bf722a181a3b312fef7f0cf389588ed",
    ("bt", "ITC", 0): "4c997f41df64d8e8ade4c171799fc52a7626c3b7dc333085656feba8a21633dc",
    ("bt", "ITC", 1): "901bf382588697334a0a3a1edee36bb2be4a4b6c1b6cab612cbeb58c4a2e37b6",
    ("bt", "MARMOT", 0): "b0b55b66d0a27192ebd69db3bf5fa218a7274a418775fb06a129ace1930ac633",
    ("bt", "MARMOT", 1): "8affebc866afbf5f68792ccfd805138cae19b706d2ca073abde0209bd0517111",
    ("sp", "HOME", 0): "791e6f6e1fc8ccce312d02763c87e146584d2c7bb87a32bfee0aff088ae988e8",
    ("sp", "HOME", 1): "dc41ba7dad49e5df38250fb8b40a023fedac721723a5520a90e26ba7e6eef329",
    ("sp", "ITC", 0): "09b99c186bf6351ec1fd2b2c22ccc443311433378be50f327db3dd6b009580e5",
    ("sp", "ITC", 1): "2e2274e987358e1858dbd7d226046bf4dbeff4e2545bbb0e2f0214d42fa787e7",
    ("sp", "MARMOT", 0): "b58ef35c323bdee96bc3dbbe139d375a8286a6356b5fdce7f40d8d9ef3fd3fca",
    ("sp", "MARMOT", 1): "64c14b6cb9886eef97c0e476912db98d571b1718f7aa90777f884bfb74a29f55",
    ("ft", "HOME", 0): "5e0c7205f34b94b0556d2226a6495e6742e10114e4287e949a2cb56e620cbd6d",
    ("ft", "HOME", 1): "44846a64b1d1d19b32c1b5ef06cbb2702cbf191d9507a3824624db492237a3a6",
    ("ft", "ITC", 0): "f3749e753eed0c772759bf4dd7bbaff8b2b2360013930e86def5558a847df1f3",
    ("ft", "ITC", 1): "2073dec229cca26fa9a7c936e785e8d73a9135c0b180296196d6640b9cdb2bfc",
    ("ft", "MARMOT", 0): "3ae4ebb486bf2d044603ff3cfb29cde1296f7b255865b10734ec8153d32d1d44",
    ("ft", "MARMOT", 1): "a34c1183bb0a133e6ef361c3221a53e67ddd8b0f792f240f60c254c9a9d9906e",
    ("racy-lu", "HOME", 0): "3a3300d1e85eb7861e623d2c57d739c4acebb830bcdfb6ec4cbdb2dad237ef92",
    ("racy-lu", "HOME", 1): "aa9970ea19b49ffdc24eb09f6ba9f36d3592fb2cebb424b0a78c3838012a3153",
    ("racy-lu", "ITC", 0): "20ebf7c92547fb74610edef389689c4bd99ebef45e5de877e3dcb749756a4579",
    ("racy-lu", "ITC", 1): "98ae128cccce4b1510663cda676c5bd8da57e495f6c825b1035a2c50bd8ae2ab",
    ("racy-lu", "MARMOT", 0): "b0aa0ebf28f3815e4e5f90c1845dade8b2844268a7d266f7786c6e41a485f3b1",
    ("racy-lu", "MARMOT", 1): "21c50044506d50067abc441edb7debd17bf054e596822c1f460d21ce0785a983",
    ("div", "HOME", 0): "7d67006c0c20beb7d77684a501c0ad4483e025d3b1eb0363e6a1c24e0b8a3ef1",
    ("div", "HOME", 1): "f56017238fbb2a71aed903b918a0197fce8b15f54604662aec40c35ff15de51a",
    ("div", "ITC", 0): "47d38972d5de931fb4028e78d947681094d59a33c445a9acaaa40ee6c357ba3e",
    ("div", "ITC", 1): "d43e10411903d1916e114ac6f92618e34bd2a286b32b9c84c1b2db5621da39a3",
    ("div", "MARMOT", 0): "33e8ff794b5ec7f0a78c59eaad0e86a888f7eecd1461876c29e223293b443387",
    ("div", "MARMOT", 1): "d0a76ddcc8ca6af403f62159f074d190e6c43f37eca3afd72e0adaa84eafb247",
    ("ip", "HOME", 0): "b96478b3a89d3a53e16867ba1af2c31a7157b05dcec82a7fb78ba0328c86a62e",
    ("ip", "HOME", 1): "16d603990bb81b975a02d58c280559e1d577f0e9b60bb6b8fb9612615af6d8bf",
    ("ip", "ITC", 0): "5e51f60e9dffbadb68a25190c9d1d75d2025bdeffdb37d717d756014a905834c",
    ("ip", "ITC", 1): "faa1cbe6fb2a3839ae3b1bece219f4e8491125b5af93d067dbd79e5be3fab681",
    ("ip", "MARMOT", 0): "4e4f145d9f2ec3598bc3bcb4e0e1e044609156d9dcafb3882778878c313ba54b",
    ("ip", "MARMOT", 1): "60361c4cb88e6a58dd670174f339bb8321a07b88ab2a327db73d6a9372516882",
    ("lu-fixed", "HOME", 0): "6ab60575efa2e9969006c23988dbf799c77f347757939c37b0c27a8cf37d9b0d",
    ("lu-fixed", "HOME", 1): "18b0ced53acd9a15699c3ead6b203e0a1bce714433ce88e284d7eb63ec360a43",
    ("lu-fixed", "ITC", 0): "a88e4e7664096cfa57ff5b59853dd78ac2833e39e9636f039c13942f3c720461",
    ("lu-fixed", "ITC", 1): "026dd1ad4b6583555e9d4b523236ae975b619a72090b2f69709784fb9681982a",
    ("lu-fixed", "MARMOT", 0): "5d71378d14008d3132a4562313a7daf92aa4134721e5f0db19effdb7b31fe727",
    ("lu-fixed", "MARMOT", 1): "ec1cf6dab131a60e99a1d9aacba9689daad25df00d2809faaf5abee8466c7707",
}
GOLDEN_TOOLS = {"HOME": Home, "ITC": IntelThreadChecker, "MARMOT": Marmot}

#: (source, tool, seed) -> sha256 of the tool's ``check --format json``
#: violation report and of its per-process concurrency reports, for the
#: same runs as :data:`GOLDEN_TRACES`; recorded at commit 7c6c189 and
#: identical under both engines.
GOLDEN_REPORTS = {
    ("lu", "HOME", 0): (
        "68a583e97cd5e6892219328e5b1e064fc9248f09a5409a1927537071c79de7e1",
        "c77d96c6e30c57567ee2cf1fd5ceb6ab8c6e9811c6a6e24ac034977440106b00",
    ),
    ("lu", "HOME", 1): (
        "68a583e97cd5e6892219328e5b1e064fc9248f09a5409a1927537071c79de7e1",
        "ab9df0fdbf3916fbc32f3a5bcea7f624a2daa62cbeedbbf72e1479f12699129e",
    ),
    ("lu", "ITC", 0): (
        "2323f2c76d3f668a50c4417f4902edf163d86bf6db55df433a6d0bb888bcf09c",
        "4195826100aa70ecf5c0081bd0effa9b1f59cef6b7c601f106ad317fbacbc994",
    ),
    ("lu", "ITC", 1): (
        "2323f2c76d3f668a50c4417f4902edf163d86bf6db55df433a6d0bb888bcf09c",
        "a226401e5cad56872782130cc7ad5ac28bfb41826cf0399b82d3eba3b33f76b9",
    ),
    ("lu", "MARMOT", 0): (
        "30c7b60bfbc594e4f8711ef09444722adc727affc722926d2025267160d5e607",
        "6bb41cbb2d49b5730ed1d8f204e990acb3554cb85e40b2151199363c3c2200eb",
    ),
    ("lu", "MARMOT", 1): (
        "30c7b60bfbc594e4f8711ef09444722adc727affc722926d2025267160d5e607",
        "f09d98b86854d78da15964d7c89bbb52dac08141002f859a67634557bd1ee402",
    ),
    ("bt", "HOME", 0): (
        "ecf75598950ffea9681dc8c61c283f7b6ce18b34e8bbe2589243c4fbeddf06f4",
        "5e97986b10177b4aeb20c990c7b8639f4874359fd6892c8c5b62298e215c3375",
    ),
    ("bt", "HOME", 1): (
        "ecf75598950ffea9681dc8c61c283f7b6ce18b34e8bbe2589243c4fbeddf06f4",
        "b65e85d26760354b3a10c13a5dd0c9b77b40e670c93693ab648b172a3aa2b52e",
    ),
    ("bt", "ITC", 0): (
        "1d214826d283c6962af02d8240c8dd2321392d2b297e6ef2cb44a018dec1d5ff",
        "93cd4026b21079efcca89662c54760194189fbc485ea5b7529852d70add787a7",
    ),
    ("bt", "ITC", 1): (
        "4703fb0adf7302500e8c8a2066ee6fdb119cb694656560171e2cc68555143467",
        "16bb7c62a7ed450f66fd1cb5f7ab6140a5dbb0a5442933b35e1d9a8a5bafcac8",
    ),
    ("bt", "MARMOT", 0): (
        "d7e2de0770ef2a90233a2d783b7a436d6a2f7978c34ac25a95d1e67f90d4744c",
        "5ab0f2fc05a44df0f6afd1ba293b97d4d3e69a167c660203feb34425ce1e2d55",
    ),
    ("bt", "MARMOT", 1): (
        "a2dca2be79a052a5528e78ca9941863e61250e3a828150ce1546e6af92526068",
        "4142e3c4e412dfd88d3bea8a755b77a4e33aecdd7cabe224ad5f06fd38a45be3",
    ),
    ("sp", "HOME", 0): (
        "4897dd53651a954f779aa9786ab11fcef0c922ef61e0a4449eedadfc282b1a03",
        "a189237b8e4dfe0e22a612448e75f8df6b2b681fd84bbc74c19ef328365879d0",
    ),
    ("sp", "HOME", 1): (
        "4897dd53651a954f779aa9786ab11fcef0c922ef61e0a4449eedadfc282b1a03",
        "a2e1d3bba6f4fff8061efde105e6e923e40d8987586c7404366a2706fba6b3d0",
    ),
    ("sp", "ITC", 0): (
        "f0cdef497d25469c02d04ae16bfbb47df302166f42a3c1e264a6da1606a30949",
        "f3746bf3974e0bdc531049fdb18be0b75a80fada7db1fc7897854ab5c723a91f",
    ),
    ("sp", "ITC", 1): (
        "f0cdef497d25469c02d04ae16bfbb47df302166f42a3c1e264a6da1606a30949",
        "52d100582452c7e148099fa6f4b6b4598517210a2f7d2897ebb5f7f99f47b518",
    ),
    ("sp", "MARMOT", 0): (
        "1bdf6ed116b47c6d09bb462451ffe77a7712d15b8d5ad25aced9ce6dab2dbad0",
        "245de95b76b75c94f26dcf3849b7d38f5ea6d694f4c11feaa776989981eb744d",
    ),
    ("sp", "MARMOT", 1): (
        "3c43e4c3d8828c7b9542404d77934a2f3efc5754224b1132796a1078f11cb540",
        "d66e2021226b18c13ac855f1cb04ced0ed9cf824e232e04a9bf3503efa77db3d",
    ),
    ("ft", "HOME", 0): (
        "9e65ea09c0bf239832c172d1c59392cebfe4a531107f4cd5075e7a3fa824096c",
        "1dbf354717dcafc0c6bd6340483b0415ddb1a823603409106eceaa84f139b3ef",
    ),
    ("ft", "HOME", 1): (
        "9e65ea09c0bf239832c172d1c59392cebfe4a531107f4cd5075e7a3fa824096c",
        "a7b600e65cd5e37e6f2b5929216126367492dca5d061a94c28512f691d845459",
    ),
    ("ft", "ITC", 0): (
        "092d5919f1e949d3b2deb34a214260dc455c15bc65cc144706494562199fec6a",
        "a264d22dd47a4e7c83d50e323e9f65408f10e62bc94458f6a6362ac849bd1ee6",
    ),
    ("ft", "ITC", 1): (
        "092d5919f1e949d3b2deb34a214260dc455c15bc65cc144706494562199fec6a",
        "d97f341d36579abd2c30fe61640dfcb22c967db7356da70c6b0453c7b79e7a9c",
    ),
    ("ft", "MARMOT", 0): (
        "092d5919f1e949d3b2deb34a214260dc455c15bc65cc144706494562199fec6a",
        "a264d22dd47a4e7c83d50e323e9f65408f10e62bc94458f6a6362ac849bd1ee6",
    ),
    ("ft", "MARMOT", 1): (
        "092d5919f1e949d3b2deb34a214260dc455c15bc65cc144706494562199fec6a",
        "d97f341d36579abd2c30fe61640dfcb22c967db7356da70c6b0453c7b79e7a9c",
    ),
    ("racy-lu", "HOME", 0): (
        "7a88741e863ec66f921b37401b667c69d296e980159bf3a7bc52ce529debb33e",
        "6514029f9e22c445a25d246cf00e88fec56c2ded4821e53bd8658c50a6ff377c",
    ),
    ("racy-lu", "HOME", 1): (
        "1352f02a4d38d65320dfa21a808bb5f4a16b6884e1dcc1fc29860f0de688197d",
        "6514029f9e22c445a25d246cf00e88fec56c2ded4821e53bd8658c50a6ff377c",
    ),
    ("racy-lu", "ITC", 0): (
        "2b4d1c7d2cbcb7197463bfc33a979e2e95eb542f6125a6009cc4c330f6f3438e",
        "6514029f9e22c445a25d246cf00e88fec56c2ded4821e53bd8658c50a6ff377c",
    ),
    ("racy-lu", "ITC", 1): (
        "23fff322edef87a12509b200d15dd22d7ad064a76c230006d764bddb29a4dd73",
        "6514029f9e22c445a25d246cf00e88fec56c2ded4821e53bd8658c50a6ff377c",
    ),
    ("racy-lu", "MARMOT", 0): (
        "140e5ccf0a0a248cf86f021b5c100b6869d3ae409afd7693fb5fcf594ff379a9",
        "6514029f9e22c445a25d246cf00e88fec56c2ded4821e53bd8658c50a6ff377c",
    ),
    ("racy-lu", "MARMOT", 1): (
        "140e5ccf0a0a248cf86f021b5c100b6869d3ae409afd7693fb5fcf594ff379a9",
        "6514029f9e22c445a25d246cf00e88fec56c2ded4821e53bd8658c50a6ff377c",
    ),
    ("div", "HOME", 0): (
        "2a795a81963db673ace76746c73415eb791c1f62d048ab0d8bddc82cd0df78ad",
        "6514029f9e22c445a25d246cf00e88fec56c2ded4821e53bd8658c50a6ff377c",
    ),
    ("div", "HOME", 1): (
        "bca566171525b4b82e4775ad7e4e275d7e3235bfd06fccfc5c140178a1907437",
        "6514029f9e22c445a25d246cf00e88fec56c2ded4821e53bd8658c50a6ff377c",
    ),
    ("div", "ITC", 0): (
        "140e5ccf0a0a248cf86f021b5c100b6869d3ae409afd7693fb5fcf594ff379a9",
        "6514029f9e22c445a25d246cf00e88fec56c2ded4821e53bd8658c50a6ff377c",
    ),
    ("div", "ITC", 1): (
        "140e5ccf0a0a248cf86f021b5c100b6869d3ae409afd7693fb5fcf594ff379a9",
        "6514029f9e22c445a25d246cf00e88fec56c2ded4821e53bd8658c50a6ff377c",
    ),
    ("div", "MARMOT", 0): (
        "140e5ccf0a0a248cf86f021b5c100b6869d3ae409afd7693fb5fcf594ff379a9",
        "6514029f9e22c445a25d246cf00e88fec56c2ded4821e53bd8658c50a6ff377c",
    ),
    ("div", "MARMOT", 1): (
        "140e5ccf0a0a248cf86f021b5c100b6869d3ae409afd7693fb5fcf594ff379a9",
        "6514029f9e22c445a25d246cf00e88fec56c2ded4821e53bd8658c50a6ff377c",
    ),
    ("ip", "HOME", 0): (
        "18a006fe49a37f1130f592a017300b9b76ccc7b1da41fab07726a1679a78bfb9",
        "ab7ad9a80491d659c807e0fdfe13d9c489206aba7f8e43bd5dd21915c3ad46ee",
    ),
    ("ip", "HOME", 1): (
        "3bc3a5b024bc82687750facb9ca6a11574cd49c9c5402ea12aa82d852c1c863e",
        "66da413a711d78e3029a321616d66d7b9add90fd75a9a97aeba71428a5298d1c",
    ),
    ("ip", "ITC", 0): (
        "b4be57a261ca23b1a9099e7badc80ad48ada5e5bd054e9fd9127dade785fca4f",
        "d13a41bc93e3609f97649744e3715b12c24085540a9f1d0fef00d8efbc469ce5",
    ),
    ("ip", "ITC", 1): (
        "67ec45a673bdb59b582eab19a98f789f49acfb3e8c4e206b39effe4d333a1e62",
        "3c691783ef2a3c4853f24749057d0bf3182b0dc4f34bfb83f18daeab602bf6fa",
    ),
    ("ip", "MARMOT", 0): (
        "f8e5f7663e8f8cb1a5f4c0470d73381562a39380863838ceca64fd3bff7790f3",
        "c565a27b90f6e1a8b963d64b0d3215f8df049d0f57206a9c4d77b042a1457731",
    ),
    ("ip", "MARMOT", 1): (
        "f8e5f7663e8f8cb1a5f4c0470d73381562a39380863838ceca64fd3bff7790f3",
        "102b8eb2667607be7eb17ff6dceb64f178b07617e789f6dec3480ea0aba7b3f6",
    ),
    ("lu-fixed", "HOME", 0): (
        "140e5ccf0a0a248cf86f021b5c100b6869d3ae409afd7693fb5fcf594ff379a9",
        "6514029f9e22c445a25d246cf00e88fec56c2ded4821e53bd8658c50a6ff377c",
    ),
    ("lu-fixed", "HOME", 1): (
        "140e5ccf0a0a248cf86f021b5c100b6869d3ae409afd7693fb5fcf594ff379a9",
        "6514029f9e22c445a25d246cf00e88fec56c2ded4821e53bd8658c50a6ff377c",
    ),
    ("lu-fixed", "ITC", 0): (
        "140e5ccf0a0a248cf86f021b5c100b6869d3ae409afd7693fb5fcf594ff379a9",
        "6514029f9e22c445a25d246cf00e88fec56c2ded4821e53bd8658c50a6ff377c",
    ),
    ("lu-fixed", "ITC", 1): (
        "140e5ccf0a0a248cf86f021b5c100b6869d3ae409afd7693fb5fcf594ff379a9",
        "6514029f9e22c445a25d246cf00e88fec56c2ded4821e53bd8658c50a6ff377c",
    ),
    ("lu-fixed", "MARMOT", 0): (
        "140e5ccf0a0a248cf86f021b5c100b6869d3ae409afd7693fb5fcf594ff379a9",
        "6514029f9e22c445a25d246cf00e88fec56c2ded4821e53bd8658c50a6ff377c",
    ),
    ("lu-fixed", "MARMOT", 1): (
        "140e5ccf0a0a248cf86f021b5c100b6869d3ae409afd7693fb5fcf594ff379a9",
        "6514029f9e22c445a25d246cf00e88fec56c2ded4821e53bd8658c50a6ff377c",
    ),
}

#: each tool's concurrency oracle over a finished run's log
GOLDEN_CONCURRENCY = {
    "HOME": analyze,
    "ITC": lambda log: {p: itc_concurrency(log, p) for p in log.processes()},
    "MARMOT": lambda log: {p: observed_concurrency(log, p) for p in log.processes()},
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def report_digests(tool, report):
    """(violations digest, concurrency digest) for one tool run: the
    report as ``check --format json`` prints it, and every process's
    racing pairs as ``(a.call_id, b.call_id, kinds)`` in order plus its
    sorted ``concurrent_kinds``."""
    violations = json.dumps(report_to_dict(report.violations), indent=2)
    concurrency = [
        [
            proc,
            [
                [pair.a.call_id, pair.b.call_id, [k.value for k in pair.kinds]]
                for pair in conc.pairs
            ],
            sorted(k.value for k in conc.concurrent_kinds),
        ]
        for proc, conc in sorted(
            GOLDEN_CONCURRENCY[tool](report.execution.log).items()
        )
    ]
    return _sha256(violations), _sha256(json.dumps(concurrency))


class TestGoldenTraces:
    """Trace bytes, violation reports and racing-pair lists are pinned:
    any drift in a yield, an RNG draw, an event, a cell id, a message or
    a tool's concurrency verdicts fails here, on both engines."""

    @pytest.mark.parametrize("engine", ["ast", "bytecode"])
    @pytest.mark.parametrize(
        "source", sorted({name for name, _tool, _seed in GOLDEN_TRACES})
    )
    def test_trace_digests(self, source, engine):
        program = parse(npb_sources()[source])
        validate(program)
        for (name, tool, seed), digest in GOLDEN_TRACES.items():
            if name != source:
                continue
            report = GOLDEN_TOOLS[tool]().check(program, seed=seed, engine=engine)
            buf = io.StringIO()
            dump_log(report.execution.log, buf)
            got = hashlib.sha256(buf.getvalue().encode()).hexdigest()
            assert got == digest, (name, tool, seed)
            assert report_digests(tool, report) == GOLDEN_REPORTS[
                (name, tool, seed)
            ], (name, tool, seed)


class TestToolDeterminism:
    def _violation_keys(self, report):
        return sorted(
            (v.vclass, v.proc, v.locs) for v in report.violations
        )

    def test_home_verdicts_reproducible(self):
        a = check_program(case_study_2(), nprocs=2, seed=7)
        b = check_program(case_study_2(), nprocs=2, seed=7)
        assert a.makespan == b.makespan
        assert self._violation_keys(a) == self._violation_keys(b)

    def test_marmot_verdicts_reproducible(self):
        a = Marmot().check(build_lu_mz(inject=True), nprocs=2, seed=0)
        b = Marmot().check(build_lu_mz(inject=True), nprocs=2, seed=0)
        assert self._violation_keys(a) == self._violation_keys(b)

    def test_itc_verdicts_reproducible(self):
        a = IntelThreadChecker().check(case_study_2(), nprocs=2, seed=3)
        b = IntelThreadChecker().check(case_study_2(), nprocs=2, seed=3)
        assert self._violation_keys(a) == self._violation_keys(b)

    def test_home_verdict_stable_across_seeds(self):
        """HOME's hybrid analysis detects potential races regardless of
        which interleaving actually ran — the verdict set is seed-stable."""
        verdicts = {
            tuple(sorted(check_program(case_study_2(), nprocs=2, seed=s)
                         .violations.classes()))
            for s in range(5)
        }
        assert len(verdicts) == 1
