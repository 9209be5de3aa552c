"""``repro serve`` — a durable, incremental campaign service.

The service watches a **spool directory** for submissions and streams
partial reports as cells complete.  The protocol is plain files, so any
client that can write JSON and rename it can drive the service, and
every piece of state survives a hard kill of the server:

.. code-block:: text

    <spool>/
      incoming/   drop submissions here: one JSON file per campaign
      active/     claimed submissions + their <name>.journal.jsonl
      reports/    <name>.report.json, atomically replaced per cell
                  ("partial": true) and on completion ("partial": false)
      done/       finished submissions and their journals
      failed/     rejected submissions, with <name>.error.txt

A submission is a JSON object: ``{"program": "<minilang source>"}``
plus optional campaign knobs (``seeds``, ``plans``, ``nprocs``,
``num_threads``, ``jobs``, ``budget_steps``, ``retries``,
``poison_retries``, ``lease_seconds``, ``record_timing``).  Submitting
is atomic by construction: write the file elsewhere and ``rename`` it
into ``incoming/``.

Every campaign runs on the durable path (journal in ``active/``), so a
server killed — ``kill -9`` included — and restarted on the same spool
resumes each active submission exactly where it stopped and produces
the same final report a never-interrupted server would.  A graceful
stop (SIGTERM/SIGINT) leaves the in-flight submission in ``active/``
with its partial report current.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..errors import AnalysisError
from ..minilang import parse, renumber_nids
from .journal import CORRUPT_SUFFIX
from .outcome import RunOutcome, report_violation_dicts
from .runner import (
    CampaignConfig,
    CampaignRunner,
    default_plan_matrix,
    merge_outcomes,
)

#: spool subdirectories, in lifecycle order
SPOOL_DIRS = ("incoming", "active", "reports", "done", "failed")


@dataclass
class ServeConfig:
    """Parameters of one service instance."""

    spool: str
    #: default worker count for submissions that don't set ``jobs``
    jobs: "int | str" = 1
    #: incoming/ scan period
    poll_seconds: float = 0.5
    #: drain the spool once and exit instead of watching forever
    once: bool = False


def _atomic_write_json(path: str, payload: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


class CampaignService:
    """Single-process spool-directory campaign server."""

    def __init__(
        self,
        config: ServeConfig,
        progress: Optional[Callable[[str], None]] = None,
        stop: Optional[threading.Event] = None,
    ) -> None:
        self.config = config
        self._progress = progress
        self._stop = stop if stop is not None else threading.Event()
        self.processed = 0
        self.failed = 0
        for sub in SPOOL_DIRS:
            os.makedirs(os.path.join(config.spool, sub), exist_ok=True)

    # -- helpers -------------------------------------------------------------

    def _say(self, message: str) -> None:
        if self._progress is not None:
            self._progress(message)

    def _dir(self, sub: str) -> str:
        return os.path.join(self.config.spool, sub)

    def _stopping(self) -> bool:
        return self._stop.is_set()

    # -- the service loop ----------------------------------------------------

    def run(self) -> bool:
        """Serve until stopped (or, with ``once``, until the spool is
        drained).  Returns ``True`` when interrupted mid-work."""
        while True:
            # resume interrupted work first: it holds journal state
            for name in self._claimed():
                if self._stopping():
                    return True
                self._process(name)
            claimed = self._claim_incoming()
            if self._stopping():
                return True
            if claimed:
                continue
            if self.config.once:
                return False
            if self._stop.wait(self.config.poll_seconds):
                return True

    def _claimed(self) -> List[str]:
        active = self._dir("active")
        return sorted(
            name for name in os.listdir(active) if name.endswith(".json")
        )

    def _claim_incoming(self) -> int:
        incoming, active = self._dir("incoming"), self._dir("active")
        claimed = 0
        for name in sorted(os.listdir(incoming)):
            if not name.endswith(".json"):
                continue
            os.replace(os.path.join(incoming, name), os.path.join(active, name))
            self._say(f"claimed submission {name}")
            claimed += 1
        return claimed

    # -- one submission ------------------------------------------------------

    def _process(self, name: str) -> None:
        stem = name[: -len(".json")]
        path = os.path.join(self._dir("active"), name)
        try:
            self._run_submission(stem, path)
        except Exception as err:  # noqa: BLE001 - one bad submission
            # must never take the service down
            self._reject(stem, path, f"{type(err).__name__}: {err}")

    def _run_submission(self, stem: str, path: str) -> None:
        with open(path, "r") as fh:
            spec = json.load(fh)
        if not isinstance(spec, dict) or not isinstance(spec.get("program"), str):
            raise AnalysisError('submission must be a JSON object with a '
                                '"program" source string')
        # renumber: node ids must be a pure function of the program
        # text so a server restart resumes byte-identically (global ids
        # depend on everything parsed before in the process)
        program = renumber_nids(parse(spec["program"]))
        nprocs = int(spec.get("nprocs", 2))
        config = CampaignConfig(
            seeds=[int(s) for s in spec.get("seeds", (0, 1, 2, 3))],
            plans=default_plan_matrix(nprocs, spec.get("plans")),
            nprocs=nprocs,
            num_threads=int(spec.get("num_threads", 2)),
            retries=int(spec.get("retries", 1)),
            jobs=spec.get("jobs", self.config.jobs),
            # deterministic artifacts by default: a resumed submission
            # must finish byte-identical to an uninterrupted one
            record_timing=bool(spec.get("record_timing", False)),
            journal=os.path.join(self._dir("active"), f"{stem}.journal.jsonl"),
            resume=True,
            lease_seconds=float(spec.get("lease_seconds", 60.0)),
            poison_retries=int(spec.get("poison_retries", 2)),
        )
        if "budget_steps" in spec:
            config.budget_steps = int(spec["budget_steps"])
        runner = CampaignRunner(
            program, config,
            progress=lambda m: self._say(f"[{stem}] {m}"),
        )
        report_path = os.path.join(self._dir("reports"), f"{stem}.report.json")
        total = len(config.seeds) * len(config.resolved_plans())

        def publish(outcomes: List[RunOutcome]) -> None:
            _atomic_write_json(
                report_path,
                self._report_payload(stem, runner, outcomes, total, True),
            )

        result = runner.run(stop=self._stop, on_cell=publish)
        if result.interrupted:
            # leave the submission in active/: its journal resumes it
            # on the next start
            publish(result.outcomes)
            self._say(f"[{stem}] interrupted with "
                      f"{len(result.outcomes)}/{total} cell(s) resolved")
            return
        _atomic_write_json(
            report_path,
            self._report_payload(stem, runner, result.outcomes, total, False),
        )
        self._retire(stem, path, "done")
        self.processed += 1
        self._say(f"[{stem}] completed: report at {report_path}")

    def _report_payload(
        self,
        stem: str,
        runner: CampaignRunner,
        outcomes: List[RunOutcome],
        total: int,
        partial: bool,
    ) -> dict:
        merged, degraded = merge_outcomes(outcomes, runner.static)
        return {
            "submission": stem,
            "partial": partial,
            "resolved_cells": len(outcomes),
            "planned_cells": total,
            "degraded": degraded,
            "classes": merged.classes(),
            "violations": report_violation_dicts(merged),
            "outcomes": [o.as_dict() for o in outcomes],
        }

    def _reject(self, stem: str, path: str, why: str) -> None:
        self.failed += 1
        self._say(f"[{stem}] rejected: {why}")
        with open(os.path.join(self._dir("failed"), f"{stem}.error.txt"),
                  "w") as fh:
            fh.write(why + "\n")
        self._retire(stem, path, "failed")

    def _retire(self, stem: str, path: str, target: str) -> None:
        """Move a submission and its journal (plus any journal a resume
        moved aside) out of active/."""
        dest = self._dir(target)
        os.replace(path, os.path.join(dest, os.path.basename(path)))
        for suffix in (".journal.jsonl", ".journal.jsonl" + CORRUPT_SUFFIX):
            artifact = os.path.join(self._dir("active"), stem + suffix)
            if os.path.exists(artifact):
                os.replace(
                    artifact, os.path.join(dest, os.path.basename(artifact))
                )


def serve(
    config: ServeConfig,
    progress: Optional[Callable[[str], None]] = None,
    stop: Optional[threading.Event] = None,
) -> bool:
    """Run a :class:`CampaignService`; returns ``True`` if interrupted."""
    return CampaignService(config, progress=progress, stop=stop).run()
