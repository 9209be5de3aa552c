"""Hardened multi-seed fault-injection campaigns.

The campaign layer turns HOME's single-run check into a robust sweep: a
seed × fault-plan matrix with per-run crash isolation, step/wall-clock
budgets with retry backoff, partial-trace salvage, JSON checkpoints for
resume, merged deduplicated findings, and graceful degradation to a
clearly-flagged static-only report when every dynamic run fails.

On top of that sits the **durable service layer**: an append-only
CRC-checked journal (:mod:`.journal`), a crash-safe work queue with
time-bounded leases and poison-cell quarantine (:mod:`.queue`), a
supervisor that restarts killed workers (:mod:`.supervisor`), and a
spool-directory server streaming partial reports (:mod:`.serve`).
"""

from .checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_SCHEMA_VERSION,
    CHECKPOINT_VERSION,
    CORRUPT_SUFFIX,
    load_checkpoint,
    quarantine_corrupt,
    save_checkpoint,
)
from .journal import (
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
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_SCHEMA_VERSION",
    "CHECKPOINT_VERSION",
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
    "load_checkpoint",
    "merge_outcomes",
    "quarantine_corrupt",
    "replay_journal",
    "resolve_jobs",
    "run_campaign",
    "save_checkpoint",
    "SPOOL_DIRS",
    "serve",
    "violation_from_dict",
    "violation_to_dict",
]
