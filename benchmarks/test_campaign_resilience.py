"""Benchmark: detection survives a hostile campaign environment.

Fault-injection campaigns in which 25% of the runs are forced to fail
outright (the tool's run_config raises, as a crashing wrapper process
would) and the rest execute under injected faults.  The drill runs over
three workloads that between them inject every violation class: the
racy NPB-MZ LU benchmark (the paper's six Table-1 classes), injected
FT-MZ (the two error-path classes, which need the ``crash`` plan) and
the divergent NPB variant (the two collective-matching classes).  The
claim under test: each merged campaign report still contains every
class its fault-free single run detects, and together they contain
every class in ``ALL_VIOLATION_CLASSES`` — per-run failures cost runs,
not findings.
"""

from repro.campaign import (
    STATUS_ERROR,
    CampaignConfig,
    default_plan_matrix,
    run_campaign,
)
from repro.home import Home
from repro.violations import ALL_VIOLATION_CLASSES
from repro.workloads import BENCHMARKS
from repro.workloads.npb import build_divergent_npb, build_ft_mz

#: one in four campaign cells dies before producing a trace
_FAILURE_STRIDE = 4

#: workload -> (program builder, campaign seeds); each contributes
#: classes no other one injects, so dropping any fails the drill
WORKLOADS = {
    "lu": (lambda: BENCHMARKS["lu"](inject=True), 16),
    "ft": (lambda: build_ft_mz(inject=True), 4),
    "div": (build_divergent_npb, 4),
}


class FlakyTool(Home):
    """Home whose every ``_FAILURE_STRIDE``-th run dies before running."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def run_config(self, *args, **kwargs):
        self.calls += 1
        if self.calls % _FAILURE_STRIDE == 0:
            raise RuntimeError("injected wrapper crash (resilience drill)")
        return super().run_config(*args, **kwargs)


def run_resilient_campaign(seed_base=0, workload="lu"):
    build, n_seeds = WORKLOADS[workload]
    program = build()
    config = CampaignConfig(
        seeds=[seed_base + s for s in range(n_seeds)],
        plans=default_plan_matrix(2, ["none", "downgrade", "crash"]),
        budget_steps=200_000,
        retries=0,
    )
    result = run_campaign(program, config, tool=FlakyTool())
    baseline = Home().check(
        program, nprocs=2, num_threads=2, seed=seed_base
    )
    return result, baseline


def run_resilience_drill(seed_base=0):
    return {
        name: run_resilient_campaign(seed_base, name) for name in WORKLOADS
    }


def test_findings_survive_25pct_run_failures(benchmark, bench_seed):
    drill = benchmark.pedantic(
        run_resilience_drill,
        kwargs={"seed_base": bench_seed},
        rounds=1,
        iterations=1,
    )
    campaign_classes = set()
    print()
    for name, (result, baseline) in drill.items():
        counts = result.status_counts()
        failed = counts.get(STATUS_ERROR, 0)
        total = len(result.outcomes)
        classes = set(result.report.classes())
        print(f"{name}: campaign cells: {total}; forced failures: {failed} "
              f"({100 * failed / total:.0f}%); "
              f"analyzable: {result.analyzable_runs}; "
              f"baseline classes: {len(baseline.violations.classes())}; "
              f"campaign classes: {len(classes)}")

        # a quarter of the runs really did die...
        assert failed == total // _FAILURE_STRIDE
        assert not result.degraded
        # ...yet every class the clean single run finds survives
        assert set(baseline.violations.classes()) <= classes
        campaign_classes |= classes
    assert campaign_classes >= set(ALL_VIOLATION_CLASSES)
