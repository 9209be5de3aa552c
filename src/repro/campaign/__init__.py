"""Hardened multi-seed fault-injection campaigns.

The campaign layer turns HOME's single-run check into a robust sweep: a
seed × fault-plan matrix with per-run crash isolation, step/wall-clock
budgets with retry backoff, partial-trace salvage, merged deduplicated
findings, and graceful degradation to a clearly-flagged static-only
report when every dynamic run fails.

On top of that sits the **durable service layer**: an append-only
CRC-checked journal (:mod:`.journal`, the only persistent state and the
one thing ``--resume`` continues from), a crash-safe work queue with
time-bounded leases and poison-cell quarantine (:mod:`.queue`), a
supervisor that restarts killed workers (:mod:`.supervisor`), and a
spool-directory server streaming partial reports (:mod:`.serve`).
"""

from .journal import (
    CORRUPT_SUFFIX,
    JOURNAL_FORMAT,
    JOURNAL_SCHEMA_VERSION,
    Journal,
    JournalReplay,
    replay_journal,
)
from .outcome import (
    RUN_STATUSES,
    STATUS_BUDGET,
    STATUS_ERROR,
    STATUS_FORCED,
    STATUS_OK,
    STATUS_QUARANTINED,
    RunOutcome,
    violation_from_dict,
    violation_to_dict,
)
from .queue import CellTask, DurableWorkQueue, Lease, cell_key, resolve_jobs
from .runner import (
    CampaignConfig,
    CampaignResult,
    CampaignRunner,
    CellExecutor,
    default_plan_matrix,
    merge_outcomes,
    run_campaign,
)
from .serve import CampaignService, ServeConfig, SPOOL_DIRS, serve
from .supervisor import Supervisor

__all__ = [
    "CORRUPT_SUFFIX",
    "CampaignConfig",
    "CampaignResult",
    "CampaignRunner",
    "CampaignService",
    "CellExecutor",
    "CellTask",
    "DurableWorkQueue",
    "JOURNAL_FORMAT",
    "JOURNAL_SCHEMA_VERSION",
    "Journal",
    "JournalReplay",
    "Lease",
    "RUN_STATUSES",
    "RunOutcome",
    "STATUS_BUDGET",
    "STATUS_ERROR",
    "STATUS_FORCED",
    "STATUS_OK",
    "STATUS_QUARANTINED",
    "ServeConfig",
    "Supervisor",
    "cell_key",
    "default_plan_matrix",
    "merge_outcomes",
    "replay_journal",
    "resolve_jobs",
    "run_campaign",
    "SPOOL_DIRS",
    "serve",
    "violation_from_dict",
    "violation_to_dict",
]
