"""Command-line interface: ``home-check`` / ``python -m repro.cli``.

Subcommands
-----------

``check FILE``
    Run a checking tool (HOME by default) on a mini-language program.
``static FILE``
    Compile-time phase only: sites, warnings, dataflow facts,
    instrumented source; ``--json`` emits the full report as JSON.
``run FILE``
    Execute a program on the simulator without any checking.
``table1``
    Regenerate the paper's detection-count table.
``figure {4,5,6,7}``
    Regenerate one of the paper's figures as a text table.
``demo``
    Run HOME over the built-in case studies.
``campaign FILE``
    Multi-seed fault-injection campaign; ``--journal`` makes it
    crash-safe and exactly resumable.
``serve SPOOL``
    Durable campaign server over a spool directory of submissions.
``bench``
    Interpreter stepping-rate micro-benchmark (N reps, best-of), with
    JSON output compatible with ``BENCH_campaign.json`` so the CI
    regression gate (``benchmarks/check_campaign_regression.py``) can
    consume it directly.

Every execution subcommand takes ``--engine {ast,bytecode}``; the flag
is exported as ``REPRO_ENGINE`` so campaign worker processes inherit
it.  The two engines produce byte-identical traces (see
``docs/PERFORMANCE.md``).

Exit codes: 0 success, 1 findings/degraded, 2 usage or input error,
3 interrupted (SIGTERM/SIGINT landed and a partial result was saved).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from pathlib import Path
from typing import List, Optional

from . import errors
from .baselines import BaseRunner, IntelThreadChecker, Marmot
from .home import Home
from .minilang import parse, print_program, validate

TOOLS = {
    "home": Home,
    "marmot": Marmot,
    "itc": IntelThreadChecker,
    "base": BaseRunner,
}

#: a SIGTERM/SIGINT landed: in-flight work was finished or released,
#: the journal (if any) is current, and a partial report was emitted
EXIT_INTERRUPTED = 3


def _graceful_stop_event() -> threading.Event:
    """Install SIGTERM/SIGINT handlers that request a graceful stop.

    The first signal sets the returned event; long-running commands
    poll it, finish or release in-flight work, leave their journal
    current, emit a partial report and exit with
    :data:`EXIT_INTERRUPTED`.  A second SIGINT falls back to the
    default KeyboardInterrupt so an impatient operator can still bail.
    """
    stop = threading.Event()

    def handler(signum, frame):  # noqa: ARG001 - signal signature
        if stop.is_set() and signum == signal.SIGINT:
            raise KeyboardInterrupt
        stop.set()

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, handler)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    return stop


def _parse_jobs(value):
    """A ``--jobs`` value as a positive int or ``"auto"``; ``None``,
    after an error line on stderr, when it is neither."""
    try:
        jobs = value if value == "auto" else int(value)
    except ValueError:
        jobs = 0
    if jobs == "auto" or jobs >= 1:
        return jobs
    print(f"error: --jobs must be a positive integer or 'auto', "
          f"got {value!r}", file=sys.stderr)
    return None


def _journal_given(journal, flags) -> bool:
    """``False``, after an error line on stderr, when a flag in *flags*
    (``{"--resume": given, ...}``) is set without ``--journal``."""
    for flag, given in flags.items():
        if given and not journal:
            print(f"error: {flag} needs --journal (the journal is the only "
                  "state a run resumes from)", file=sys.stderr)
            return False
    return True


def _interrupted(command: str, journal) -> int:
    """Explain a graceful stop on stderr; returns :data:`EXIT_INTERRUPTED`."""
    if journal:
        print(f"{command} interrupted: partial state saved; rerun with "
              "--resume to continue", file=sys.stderr)
    else:
        print(f"{command} interrupted: partial results reported; without "
              "--journal there is nothing to resume", file=sys.stderr)
    return EXIT_INTERRUPTED


def _load_program(path: str):
    source = Path(path).read_text()
    try:
        program = parse(source)
        validate(program)
    except errors.MiniLangError as err:
        err.path = path
        raise
    return program


#: valid ``--engine`` values (mirrors :data:`repro.runtime.config.ENGINES`;
#: kept literal here so ``--help`` doesn't import the runtime package)
_ENGINE_CHOICES = ("ast", "bytecode")


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--procs", type=int, default=2, help="MPI processes (default 2)")
    p.add_argument("--threads", type=int, default=2, help="OpenMP threads per process")
    p.add_argument("--seed", type=int, default=0, help="scheduler seed")
    _add_engine_arg(p)


def _add_engine_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--engine", choices=_ENGINE_CHOICES, default=None,
        help="execution engine: 'bytecode' (compiled dispatch loop, the "
             "default) or 'ast' (reference tree-walk); traces are "
             "byte-identical either way",
    )


def cmd_check(args: argparse.Namespace) -> int:
    source = Path(args.file).read_text()
    program = _load_program(args.file)
    tool = TOOLS[args.tool]()
    overrides = {}
    if args.thread_level_mode:
        overrides["thread_level_mode"] = args.thread_level_mode
    report = tool.check(
        program, nprocs=args.procs, num_threads=args.threads, seed=args.seed,
        **overrides,
    )
    msg_races = None
    if args.msg_races:
        from .analysis.dynamic_.msgrace import wildcard_races

        msg_races = wildcard_races(report.execution.log)
    if args.format == "json":
        # stdout carries the one JSON document; notes go to stderr
        from .violations.render import report_to_dict

        payload = report_to_dict(report.violations)
        if msg_races is not None:
            payload["message_races"] = [race.as_dict() for race in msg_races]
        print(json.dumps(payload, indent=2))
        for note in report.execution.aborts:
            print(note, file=sys.stderr)
        _write_check_files(args, tool, program, source, report, sys.stderr)
        return _check_status(report)
    if args.excerpts:
        from .violations.render import render_report

        print(f"=== {tool.name} on {program.name} ===")
        print(f"virtual execution time: {report.makespan:.0f}")
        for note in report.execution.aborts:
            print(note)
        print(render_report(report.violations, source=source,
                            with_fixes=args.fix_hints))
    else:
        print(report.summary())
    if args.fix_hints and len(report.violations):
        from .violations.fixes import suggest_fixes

        print()
        print("suggested fixes:")
        for suggestion in suggest_fixes(report.violations):
            print(f"  {suggestion}")
    if msg_races is not None:
        print()
        if msg_races:
            print(f"{len(msg_races)} nondeterministic message match(es) "
                  "(DAMPI-style analysis):")
            for race in msg_races:
                print(f"  {race}")
        else:
            print("no nondeterministic message matches (DAMPI-style analysis)")
    _write_check_files(args, tool, program, source, report, sys.stdout)
    if args.verbose:
        for warning in report.extras.get("static_warnings", []):
            print(f"  {warning}")
        for note in report.execution.notes:
            print(f"  note: {note}")
        if report.extras.get("monitored_vars"):
            from .violations.render import render_race_triage

            print("  race-directed monitoring: "
                  + ", ".join(report.extras["monitored_vars"]))
            print(render_race_triage(report.extras["race_triage"]))
        if report.extras.get("divergence_triage"):
            from .violations.render import render_divergence_triage

            print(render_divergence_triage(report.extras["divergence_triage"]))
    return _check_status(report)


def _write_check_files(args, tool, program, source, report, out) -> None:
    """Write ``check``'s ``--html`` report and ``--save-trace`` trace,
    each announced with a line on *out*."""
    if args.html:
        from .violations.html import report_to_html

        static_info = None
        if report.static is not None:
            static_info = {
                "declared thread level": report.static.thread_level.level_name,
                "MPI call sites": len(report.static.sites),
                "hybrid sites": len(report.static.hybrid_sites),
                "instrumented": report.static.instrumentation.n_instrumented,
                "filtered out": report.static.instrumentation.n_filtered,
                "static candidates": len(report.static.candidates),
            }
        page = report_to_html(
            report.violations,
            program_name=program.name,
            tool_name=tool.name,
            source=source,
            run_info={
                "processes": args.procs, "threads": args.threads,
                "seed": args.seed,
                "virtual time": f"{report.makespan:.0f}",
            },
            static_info=static_info,
        )
        Path(args.html).write_text(page)
        print(f"HTML report written to {args.html}", file=out)
    if args.save_trace:
        from .events.serialize import dump_log

        dump_log(
            report.execution.log, args.save_trace,
            metadata={
                "program": program.name, "tool": tool.name,
                "procs": args.procs, "threads": args.threads,
                "seed": args.seed,
            },
        )
        print(f"trace written to {args.save_trace}", file=out)


def _check_status(report) -> int:
    """``check``'s exit code: 1 for a violation, a deadlock or an
    aborted rank or thread (a run that never got through the program
    is not a clean one), else 0."""
    return 1 if len(report.violations) or report.deadlocked or report.aborted else 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Offline re-analysis of a saved trace."""
    from .analysis.dynamic_.hybrid import DetectorConfig, analyze
    from .events.serialize import load_log
    from .violations import match_violations

    log, meta = load_log(args.trace)
    detector = DetectorConfig(
        use_lockset=not args.no_lockset,
        use_hb=not args.no_hb,
        lock_edges=not args.no_lock_edges,
    )
    reports = analyze(log, detector)
    violations = match_violations(log, reports)
    if meta:
        origin = ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        print(f"trace: {origin}")
    print(f"events: {len(log)}")
    print(violations.summary())
    return 1 if len(violations) else 0


def cmd_fix(args: argparse.Namespace) -> int:
    """Check, auto-repair (serializing critical), verify, write result."""
    from .minilang import print_program
    from .violations.fixes import repair_and_verify, suggest_fixes

    program = _load_program(args.file)
    before, repair, after = repair_and_verify(
        program, nprocs=args.procs, num_threads=args.threads, seed=args.seed
    )
    print(f"before: {len(before.violations)} finding(s)")
    for v in before.violations:
        print(f"  {v}")
    if not len(before.violations):
        print("nothing to fix")
        return 0
    print(f"repair: wrapped {repair.wrapped_statements} statement(s) in "
          f"omp critical (home_repair); classes: "
          f"{', '.join(repair.targeted_classes) or '<none repairable>'}")
    print(f"after:  {len(after.violations)} finding(s)")
    for v in after.violations:
        print(f"  {v}")
    remaining = set(after.violations.classes()) & set(repair.targeted_classes)
    if remaining:
        print(f"WARNING: repair did not clear: {', '.join(sorted(remaining))}")
    if after.violations.classes():
        print("remaining findings need structural fixes:")
        for suggestion in suggest_fixes(after.violations):
            print(f"  {suggestion}")
    if args.output:
        Path(args.output).write_text(print_program(repair.program))
        print(f"repaired program written to {args.output}")
    return 0 if not remaining else 1


def cmd_static(args: argparse.Namespace) -> int:
    from .analysis.static_ import run_static_analysis

    program = _load_program(args.file)
    report = run_static_analysis(
        program,
        dataflow=not args.no_dataflow,
        races=not args.no_races,
        collectives=not args.no_collectives,
        summaries=not args.no_summaries,
    )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
        return 1 if report.warnings else 0
    print(report.summary())
    prunes = report.prune_counts()
    if prunes:
        print("prune counters:")
        for kind, count in sorted(prunes.items()):
            print(f"  {kind}: {count}")
    if report.races is not None and report.races.candidates:
        from .violations.render import render_race_candidates

        print()
        print(render_race_candidates(
            report.races.candidates, source=Path(args.file).read_text()
        ))
    if report.collectives is not None and report.collectives.candidates:
        from .violations.render import render_divergence_candidates

        print()
        print(render_divergence_candidates(
            report.collectives.candidates, source=Path(args.file).read_text()
        ))
    facts = report.dataflow_facts
    if facts is not None and facts.envelopes:
        print("dataflow facts (per site):")
        by_nid = {s.nid: s for s in report.sites}
        for nid, env in sorted(facts.envelopes.items()):
            site = by_nid.get(nid)
            where = f"{site.op}@{site.func}:{site.loc}" if site else f"nid {nid}"
            held = facts.locks_held.get(nid)
            lock_note = f" holds {{{', '.join(sorted(held))}}}" if held else ""
            print(f"  {where}: envelope {env}{lock_note}")
    if args.dump:
        print("\n// ---- instrumented program ----")
        print(print_program(report.instrumented_program))
    return 1 if report.warnings else 0


def cmd_run(args: argparse.Namespace) -> int:
    from .runtime import run_program
    from .runtime.scheduler import DEFAULT_MAX_STEPS

    program = _load_program(args.file)
    result = run_program(
        program,
        nprocs=args.procs,
        num_threads=args.threads,
        seed=args.seed,
        max_steps=args.max_steps or DEFAULT_MAX_STEPS,
        max_wall_seconds=args.max_wall_seconds or 0.0,
        thread_level_mode="permissive" if args.permissive else "skip",
    )
    for proc, thread, text in result.outputs:
        print(f"[rank {proc}.t{thread}] {text}")
    print(result.summary())
    if result.deadlocked:
        print(result.deadlock.summary())
        return 2
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """Hardened multi-seed fault-injection campaign."""
    from .campaign import CampaignConfig, default_plan_matrix, run_campaign
    from .runtime.scheduler import DEFAULT_MAX_STEPS

    if bool(args.file) == bool(args.npb):
        print("error: give either FILE or --npb, not both / neither",
              file=sys.stderr)
        return 2
    if not _journal_given(args.journal, {
        "--resume": args.resume,
        "--drill-abort-after": args.drill_abort_after is not None,
    }):
        return 2
    if args.npb == "div":
        from .workloads.npb import build_divergent_npb

        program = build_divergent_npb(fixed=args.clean)
    elif args.npb == "ip":
        from .workloads.npb import build_interproc_npb

        program = build_interproc_npb(fixed=args.clean)
    elif args.npb:
        from .workloads.npb import BENCHMARKS

        program = BENCHMARKS[args.npb](inject=not args.clean)
    else:
        program = _load_program(args.file)
    try:
        plans = default_plan_matrix(
            args.procs, [p.strip() for p in args.plans.split(",") if p.strip()]
        )
    except KeyError as err:
        print(f"error: {err.args[0]}", file=sys.stderr)
        return 2
    jobs = _parse_jobs(args.jobs)
    if jobs is None:
        return 2
    config = CampaignConfig(
        seeds=range(args.seeds),
        plans=plans,
        nprocs=args.procs,
        num_threads=args.threads,
        budget_steps=args.budget_steps or DEFAULT_MAX_STEPS,
        budget_seconds=args.budget_seconds,
        retries=args.retries,
        thread_level_mode=args.thread_level_mode or "permissive",
        resume=args.resume,
        force_fail=args.force_fail,
        jobs=jobs,
        record_timing=not args.no_timing,
        journal=args.journal,
        lease_seconds=args.lease_seconds,
        poison_retries=args.poison_retries,
        drill_kill_worker_after=args.drill_kill_worker,
        drill_abort_after=args.drill_abort_after,
    )
    progress = print if args.verbose else None
    stop = _graceful_stop_event()
    result = run_campaign(program, config, progress=progress, stop=stop)
    print(result.summary())
    if args.json:
        Path(args.json).write_text(json.dumps(result.as_dict(), indent=2) + "\n")
        print(f"campaign report written to {args.json}")
    if result.interrupted:
        return _interrupted("campaign", args.journal)
    return 1 if result.degraded else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Durable campaign server over a spool directory."""
    from .campaign import CampaignService, ServeConfig

    jobs = _parse_jobs(args.jobs)
    if jobs is None:
        return 2
    stop = _graceful_stop_event()
    service = CampaignService(
        ServeConfig(
            spool=args.spool,
            jobs=jobs,
            poll_seconds=args.poll_seconds,
            once=args.once,
        ),
        progress=print if args.verbose else None,
        stop=stop,
    )
    interrupted = service.run()
    print(f"serve: {service.processed} submission(s) completed, "
          f"{service.failed} rejected")
    if interrupted:
        print("serve interrupted: in-flight submissions stay in active/ "
              "and resume on the next start", file=sys.stderr)
        return EXIT_INTERRUPTED
    return 1 if service.failed else 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Corpus-scale differential fuzzing over generated programs."""
    from .fuzz import GeneratorConfig, FuzzConfig, ORACLES, run_fuzz
    from .fuzz.oracles import INJECT_KINDS

    if not _journal_given(args.journal, {"--resume": args.resume}):
        return 2
    oracle_names = tuple(
        name.strip() for name in args.oracles.split(",") if name.strip()
    )
    unknown = [name for name in oracle_names if name not in ORACLES]
    if unknown:
        print(
            f"error: unknown oracle(s): {', '.join(unknown)} "
            f"(available: {', '.join(ORACLES)})",
            file=sys.stderr,
        )
        return 2
    if args.inject is not None and args.inject not in INJECT_KINDS:
        print(
            f"error: unknown --inject kind {args.inject!r} "
            f"(available: {', '.join(INJECT_KINDS)})",
            file=sys.stderr,
        )
        return 2
    jobs = _parse_jobs(args.jobs)
    if jobs is None:
        return 2
    generator = GeneratorConfig()
    if args.max_stmts is not None:
        if args.max_stmts < 2:
            print("error: --max-stmts must be >= 2", file=sys.stderr)
            return 2
        generator = GeneratorConfig(max_stmts=args.max_stmts)
    config = FuzzConfig(
        seeds=args.seeds,
        seed_base=args.seed_base,
        oracles=oracle_names,
        generator=generator,
        nprocs=args.procs,
        num_threads=args.threads,
        max_steps=args.budget_steps,
        max_wall_seconds=args.budget_seconds,
        jobs_every=args.jobs_oracle_every,
        inject=args.inject,
        reduce=not args.no_reduce,
        jobs=jobs,
        journal=args.journal,
        resume=args.resume,
        lease_seconds=args.lease_seconds,
        poison_retries=args.poison_retries,
    )
    progress = print if args.verbose else None
    stop = _graceful_stop_event()
    report = run_fuzz(config, progress=progress, stop=stop)
    print(report.summary())
    if args.report:
        Path(args.report).write_text(
            json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"fuzz report written to {args.report}")
    if args.corpus:
        from .fuzz import generate_source

        corpus = Path(args.corpus)
        corpus.mkdir(parents=True, exist_ok=True)
        for i in range(config.seeds):
            seed = config.seed_base + i
            (corpus / f"seed-{seed:05d}.mini").write_text(
                generate_source(seed, config.generator)
            )
        written = config.seeds
        for entry in report.bank.entries.values():
            if entry.reduced_source is None:
                continue
            slug = str(entry.signature).replace(":", "_").replace("/", "_")
            (corpus / f"reduced-{slug}.mini").write_text(entry.reduced_source)
            written += 1
        print(f"{written} program(s) written to {corpus}/")
    if report.interrupted:
        return _interrupted("fuzz", args.journal)
    return 0 if report.clean else 1


def cmd_bench(args: argparse.Namespace) -> int:
    """Local stepping-rate micro-bench: best-of-N per engine.

    The JSON written by ``--json`` carries the same ``stepping_rate``
    key as the CI benchmark session's ``BENCH_campaign.json``, so
    ``benchmarks/check_campaign_regression.py`` accepts either file.
    """
    import time

    from .runtime import RunConfig, make_interpreter
    from .workloads.npb import BENCHMARKS

    if args.reps < 1:
        print("error: --reps must be >= 1", file=sys.stderr)
        return 2
    program = BENCHMARKS[args.npb](inject=False)
    engines = _ENGINE_CHOICES if args.engine == "both" else (args.engine,)
    best = {}
    steps = {}
    for engine in engines:
        config = RunConfig(
            nprocs=args.procs, num_threads=args.threads, seed=args.seed,
            engine=engine,
        )
        rate = 0.0
        for _ in range(args.reps):
            start = time.perf_counter()
            result = make_interpreter(program, config).run()
            elapsed = time.perf_counter() - start
            steps[engine] = result.stats["scheduler_steps"]
            rate = max(rate, steps[engine] / elapsed)
        best[engine] = rate
        print(f"{engine:>8}: {rate:>12,.0f} steps/s  "
              f"({steps[engine]} steps, best of {args.reps})")
    # the gated number is the default engine's rate when both were run
    primary = "bytecode" if "bytecode" in best else args.engine
    out = {
        "benchmark": args.npb,
        "nprocs": args.procs,
        "num_threads": args.threads,
        "seed": args.seed,
        "reps": args.reps,
        "engine": primary,
        "scheduler_steps": steps[primary],
        "stepping_rate": round(best[primary], 1),
    }
    if len(best) == 2:
        speedup = best["bytecode"] / best["ast"]
        out["stepping_rate_ast"] = round(best["ast"], 1)
        out["vm_speedup"] = round(speedup, 2)
        print(f"bytecode vs ast: {speedup:.2f}x")
        if steps["ast"] != steps["bytecode"]:
            print(f"error: engines disagree on step count "
                  f"(ast={steps['ast']}, bytecode={steps['bytecode']})",
                  file=sys.stderr)
            return 1
    if args.json:
        Path(args.json).write_text(json.dumps(out, indent=2,
                                              sort_keys=True) + "\n")
        print(f"bench stats written to {args.json}")
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from .experiments import run_table1, table1_data

    cells = run_table1(nprocs=args.procs, threads=args.threads, seed=args.seed)
    print(table1_data(cells).render())
    mismatches = [c for c in cells.values() if not c.matches_paper]
    if mismatches:
        for c in mismatches:
            print(
                f"MISMATCH: {c.benchmark}/{c.tool} scored {c.score}, "
                f"paper reports {c.paper_value}"
            )
        return 1
    print("all cells match the paper's reported counts")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    from .experiments import execution_time_figure, overhead_figure

    procs = args.proc_list or [2, 4, 8, 16, 32, 64]
    if args.number == 7:
        fig = overhead_figure(procs=procs, seed=args.seed)
        print(fig.render(fmt="{:.0f}%"))
    else:
        benchmark = {4: "lu", 5: "bt", 6: "sp"}[args.number]
        fig = execution_time_figure(benchmark, procs=procs, seed=args.seed)
        print(fig.render())
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Regenerate the paper's whole evaluation in one command."""
    from .experiments import (
        overhead_band,
        overhead_figure,
        execution_time_figure,
        run_table1,
        table1_data,
    )

    procs = (2, 4, 8) if args.quick else (2, 4, 8, 16, 32, 64)
    print("=" * 68)
    print("Table 1 — detected violations")
    print("=" * 68)
    cells = run_table1(seed=args.seed)
    print(table1_data(cells).render())
    mismatch = [c for c in cells.values() if not c.matches_paper]
    print("-> all cells match the paper" if not mismatch
          else f"-> {len(mismatch)} cell(s) mismatch the paper")
    for number, benchmark in ((4, "lu"), (5, "bt"), (6, "sp")):
        print()
        print("=" * 68)
        print(f"Figure {number} — {benchmark.upper()}-MZ execution time")
        print("=" * 68)
        print(execution_time_figure(benchmark, procs=procs, seed=args.seed).render())
    print()
    print("=" * 68)
    print("Figure 7 — average overhead")
    print("=" * 68)
    fig7 = overhead_figure(procs=procs, seed=args.seed)
    print(fig7.render(fmt="{:.0f}%"))
    print()
    for tool, paper in (("HOME", "16-45%"), ("MARMOT", "15-56%"),
                        ("ITC", "up to ~200%")):
        lo, hi = overhead_band(fig7, tool)
        print(f"{tool:7s} reproduced {lo:.0f}%-{hi:.0f}%   (paper: {paper})")
    return 0 if not mismatch else 1


def cmd_demo(args: argparse.Namespace) -> int:
    from .workloads.case_studies import (
        case_study_1,
        case_study_2,
        case_study_2_fixed,
        safe_funneled,
    )

    for builder in (case_study_1, case_study_2, case_study_2_fixed, safe_funneled):
        program = builder()
        report = Home().check(program, nprocs=2, num_threads=2, seed=args.seed)
        print("=" * 64)
        print(report.summary())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="home-check",
        description="HOME: thread-safety checking for hybrid MPI/OpenMP programs "
        "(CLUSTER 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run a checking tool on a program")
    p.add_argument("file")
    p.add_argument("--tool", choices=sorted(TOOLS), default="home")
    p.add_argument("-v", "--verbose", action="store_true")
    p.add_argument("--fix-hints", action="store_true",
                   help="print remediation suggestions for findings")
    p.add_argument("--save-trace", metavar="PATH",
                   help="save the execution's event trace as JSON lines")
    p.add_argument("--excerpts", action="store_true",
                   help="show source excerpts at each finding")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--html", metavar="PATH",
                   help="write a standalone HTML report")
    p.add_argument("--msg-races", action="store_true",
                   help="also report nondeterministic message matches "
                        "(DAMPI-style wildcard-receive analysis)")
    p.add_argument(
        "--thread-level-mode", choices=("skip", "permissive", "strict"),
        default=None,
        help="how breaching MPI calls behave (default: the tool's own "
             "mode, permissive for all shipped tools)",
    )
    _add_run_args(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("analyze", help="re-analyze a saved event trace")
    p.add_argument("trace")
    p.add_argument("--no-lockset", action="store_true")
    p.add_argument("--no-hb", action="store_true")
    p.add_argument("--no-lock-edges", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "fix", help="auto-repair concurrency findings (serializing critical)"
    )
    p.add_argument("file")
    p.add_argument("-o", "--output", metavar="PATH",
                   help="write the repaired program here")
    _add_run_args(p)
    p.set_defaults(func=cmd_fix)

    p = sub.add_parser("static", help="compile-time analysis only")
    p.add_argument("file")
    p.add_argument("--dump", action="store_true", help="print the instrumented source")
    p.add_argument("--json", action="store_true", help="emit the full report as JSON")
    p.add_argument(
        "--no-dataflow",
        action="store_true",
        help="skip the worklist dataflow analyses (envelope/lock/MHP pruning)",
    )
    p.add_argument(
        "--no-races",
        action="store_true",
        help="skip the static data-race pass",
    )
    p.add_argument(
        "--no-collectives",
        action="store_true",
        help="skip the static collective-matching / barrier-divergence pass",
    )
    p.add_argument(
        "--no-summaries",
        action="store_true",
        help="skip the context-sensitive interprocedural summary layer",
    )
    p.set_defaults(func=cmd_static)

    p = sub.add_parser("run", help="execute a program without checking")
    p.add_argument("file")
    p.add_argument(
        "--permissive",
        action="store_true",
        help="execute thread-level-breaching MPI calls instead of skipping them",
    )
    p.add_argument("--max-steps", type=int, default=None,
                   help="scheduler step budget; exhausting it exits 2 with "
                        "a one-line step-limit diagnostic")
    p.add_argument("--max-wall-seconds", type=float, default=None,
                   help="wall-clock budget in seconds; exhausting it exits "
                        "2 with a one-line wall-clock diagnostic")
    _add_run_args(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "campaign",
        help="multi-seed fault-injection campaign with crash isolation",
    )
    p.add_argument("file", nargs="?", default=None,
                   help="mini-language program (or use --npb)")
    p.add_argument("--npb", choices=("lu", "bt", "sp", "ft", "div", "ip"),
                   help="campaign over a built-in NPB multi-zone variant "
                        "(ft = the fault-tolerant error-path pair, "
                        "div = the collective-divergence pair, "
                        "ip = the interprocedural helper-chain pair)")
    p.add_argument("--clean", action="store_true",
                   help="with --npb: use the violation-free variant")
    p.add_argument("--seeds", type=int, default=4,
                   help="number of scheduler seeds (0..N-1, default 4)")
    p.add_argument("--plans", default="none,downgrade,crash",
                   help="comma-separated builtin fault plans "
                        "(none,downgrade,crash,delay,reorder,rendezvous,jitter)")
    p.add_argument("--budget-steps", type=int, default=None,
                   help="per-run scheduler step budget")
    p.add_argument("--budget-seconds", type=float, default=0.0,
                   help="per-run host wall-clock budget (0 = unlimited)")
    p.add_argument("--retries", type=int, default=1,
                   help="retry attempts per failed run (default 1)")
    p.add_argument("--resume", action="store_true",
                   help="continue from --journal: finished cells are not "
                        "re-run")
    p.add_argument("--force-fail", action="store_true",
                   help="degradation drill: fail every dynamic run")
    p.add_argument("--jobs", default="auto", metavar="N",
                   help="parallel cell worker processes (positive int or "
                        "'auto' = one per CPU core; 1 = serial; default "
                        "auto).  The merged report and exit code are "
                        "identical for every worker count")
    p.add_argument("--no-timing", action="store_true",
                   help="zero the wall_seconds fields so reports are "
                        "bit-exact across repeated runs")
    p.add_argument("--journal", metavar="PATH",
                   help="append-only crash journal: every cell transition "
                        "is journaled, so --resume is exact even after "
                        "kill -9")
    p.add_argument("--lease-seconds", type=float, default=60.0,
                   help="jobs > 1: seconds a cell may run without a "
                        "heartbeat before its worker is presumed dead "
                        "(default 60)")
    p.add_argument("--poison-retries", type=int, default=2,
                   help="jobs > 1: crash-reclaims a cell survives "
                        "before quarantine (default 2)")
    p.add_argument("--drill-kill-worker", type=int, default=None,
                   metavar="N",
                   help="chaos drill: SIGKILL one busy worker after the "
                        "Nth completed cell (jobs > 1)")
    p.add_argument("--drill-abort-after", type=int, default=None,
                   metavar="N",
                   help="chaos drill: hard-kill the coordinator (exit 137) "
                        "after the Nth fresh cell (needs --journal, which "
                        "makes the resume exact)")
    p.add_argument("--json", metavar="PATH",
                   help="write the merged campaign report as JSON")
    p.add_argument(
        "--thread-level-mode", choices=("skip", "permissive", "strict"),
        default=None,
    )
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print per-run progress lines")
    p.add_argument("--procs", type=int, default=2)
    p.add_argument("--threads", type=int, default=2)
    _add_engine_arg(p)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "serve",
        help="durable campaign server over a spool directory",
    )
    p.add_argument("spool",
                   help="spool directory (incoming/active/reports/done/"
                        "failed are created under it)")
    p.add_argument("--jobs", default=1, metavar="N",
                   help="default worker count for submissions that don't "
                        "set one (positive int or 'auto'; default 1)")
    p.add_argument("--once", action="store_true",
                   help="drain the spool once and exit instead of watching")
    p.add_argument("--poll-seconds", type=float, default=0.5,
                   help="incoming/ scan period (default 0.5)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print per-submission progress lines")
    _add_engine_arg(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "fuzz",
        help="corpus-scale differential fuzzing (generated programs, "
             "cross-engine/cross-tool oracles, triage + reduction)",
    )
    p.add_argument("--seeds", type=int, default=100, metavar="N",
                   help="number of generated programs (default 100); "
                        "generator seeds are SEED_BASE..SEED_BASE+N-1")
    p.add_argument("--seed-base", type=int, default=0,
                   help="first generator seed (default 0); together with "
                        "the grammar version this makes every program "
                        "bit-reproducible")
    p.add_argument("--oracles", default="engine,jobs,narrowing,coherence",
                   help="comma-separated differential oracles to run "
                        "(default: all four)")
    p.add_argument("--corpus", metavar="DIR",
                   help="write every generated program (plus reduced "
                        "reproducers) under DIR as .mini sources")
    p.add_argument("--report", metavar="PATH",
                   help="write the LLOV-style JSON fuzz report to PATH")
    p.add_argument("--no-reduce", action="store_true",
                   help="skip automatic delta-debugging of reproducers")
    p.add_argument("--max-stmts", type=int, default=None,
                   help="generator size budget per program (default 14)")
    p.add_argument("--budget-steps", type=int, default=200_000,
                   help="per-run scheduler step budget (default 200000)")
    p.add_argument("--budget-seconds", type=float, default=20.0,
                   help="per-run wall-clock budget in seconds (default 20)")
    p.add_argument("--jobs-oracle-every", type=int, default=25, metavar="N",
                   help="run the (expensive) jobs oracle on every Nth "
                        "program (default 25; skips are counted in the "
                        "report, never silent)")
    p.add_argument("--inject", default=None, metavar="KIND",
                   help="drill hook: inject a synthetic failure "
                        "('engine-divergence') to exercise triage + "
                        "reduction end-to-end")
    p.add_argument("--jobs", default=1, metavar="N",
                   help="parallel fuzz-cell workers (positive int or "
                        "'auto'; default 1)")
    p.add_argument("--journal", metavar="PATH",
                   help="append-only journal: every cell transition is "
                        "journaled, so --resume continues the session "
                        "exactly")
    p.add_argument("--resume", action="store_true",
                   help="resume a journaled fuzz session")
    p.add_argument("--lease-seconds", type=float, default=60.0,
                   help="jobs > 1: worker heartbeat lease (default 60)")
    p.add_argument("--poison-retries", type=int, default=2,
                   help="jobs > 1: crash-reclaims before a generated "
                        "program is quarantined as poison (default 2)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print per-program progress lines")
    p.add_argument("--procs", type=int, default=2)
    p.add_argument("--threads", type=int, default=2)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "bench",
        help="interpreter stepping-rate micro-benchmark (best-of-N)",
    )
    p.add_argument("--npb", choices=("lu", "bt", "sp"), default="lu",
                   help="NPB multi-zone workload to step (default lu; "
                        "always the fault-free variant)")
    p.add_argument("--reps", type=int, default=3,
                   help="timed repetitions per engine; the best rate is "
                        "reported (default 3)")
    p.add_argument("--engine", choices=_ENGINE_CHOICES + ("both",),
                   default="both",
                   help="engine(s) to time (default both, printing the "
                        "bytecode-over-ast speedup)")
    p.add_argument("--procs", type=int, default=2)
    p.add_argument("--threads", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", metavar="PATH",
                   help="write stats JSON compatible with "
                        "BENCH_campaign.json (stepping_rate key)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("table1", help="regenerate the detection-count table")
    _add_run_args(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("number", type=int, choices=(4, 5, 6, 7))
    p.add_argument(
        "--proc-list", type=int, nargs="+", default=None,
        help="process counts to sweep (default: 2 4 8 16 32 64)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser(
        "reproduce", help="regenerate the paper's full evaluation"
    )
    p.add_argument("--quick", action="store_true",
                   help="sweep only 2/4/8 processes")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("demo", help="run HOME over the built-in case studies")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    engine = getattr(args, "engine", None)
    if engine in _ENGINE_CHOICES:
        # export rather than thread through call sites: RunConfig's
        # default engine reads the env, so campaign/serve worker
        # *processes* inherit the choice too
        os.environ["REPRO_ENGINE"] = engine
    try:
        return args.func(args)
    except errors.MiniLangError as err:
        path = getattr(err, "path", None)
        if path is not None:
            # compiler-style one-liner: file:line:col: error: message
            print(f"{path}:{err.line}:{err.col}: error: {err.bare}",
                  file=sys.stderr)
        else:
            print(f"error: {err}", file=sys.stderr)
        return 2
    except errors.ReproError as err:
        # every typed SimError-family diagnostic (runtime budgets, MPI
        # usage, analysis failures...) exits 2 as one line — raw Python
        # tracebacks never escape for malformed or pathological inputs
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: program exceeds the interpreter recursion limit",
              file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # output piped into a pager/head that exited early
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
