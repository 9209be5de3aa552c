"""The node-table MHP solve against the per-function reference walker.

One :class:`MHPSolution` pass must give exactly the maps the old walker
gave under each of its option sets, on the NPB and fuzz corpora.
"""

import pytest

from repro.analysis.static_.dataflow.mhp import MHPSolution, compute_mhp
from repro.fuzz.generator import generate_program
from repro.minilang import parse

from helpers import npb_sources
from .reference_mhp import compute_mhp as reference_mhp

OPTION_SETS = [(False, False), (True, True), (True, False), (False, True)]


def assert_same_maps(program):
    solution = MHPSolution(program)
    for record_all, implicit in OPTION_SETS:
        expected = reference_mhp(
            program, record_all=record_all, implicit_ws_barriers=implicit
        )
        assert solution.infos(record_all, implicit) == expected
        assert list(solution.infos(record_all, implicit)) == list(expected)


@pytest.mark.parametrize("name,source", sorted(npb_sources().items()))
def test_npb_maps_match_reference(name, source):
    assert_same_maps(parse(source))


def test_fuzz_maps_match_reference():
    for seed in range(120):
        assert_same_maps(generate_program(seed))


def test_compute_mhp_reads_one_solution():
    program = parse(npb_sources()["lu"])
    assert compute_mhp(program) == MHPSolution(program).infos()
