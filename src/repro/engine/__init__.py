"""Parallel experiment-campaign engine.

Turns the experiment registry (:mod:`repro.analysis.experiments`) into a
scalable orchestration layer:

* :mod:`repro.engine.spec` — declarative :class:`RunSpec`/:class:`SweepSpec`
  definitions (Cartesian grids, zipped lists, seed replication).
* :mod:`repro.engine.executor` — the :class:`RunExecutor` interface, the
  :class:`RunLedger` retry/deadline/quarantine state machine every execution
  path shares, the serial executor, and :class:`BackendExecutor`, which runs
  sweeps on any :class:`RunBackend` (deterministic per-run seeding).
* :mod:`repro.engine.pool` — :class:`WorkerPool`, the one worker-process
  pool behind ``-j N`` sweeps and searches, ``repro serve`` and
  ``repro node``.
* :mod:`repro.engine.cache` — content-addressed on-disk result store keyed
  by spec fingerprint + library version.
* :mod:`repro.engine.checkpoints` — content-addressed trained-model store
  (full parameter + buffer state) consulted by the mitigation studies and
  pre-warmed by ``python -m repro train``.
* :mod:`repro.engine.records` — structured :class:`RunRecord` results with
  timing and provenance metadata.
* :mod:`repro.engine.campaign` — the high-level :class:`Campaign` API tying
  specs, executor and cache together with streamed progress.
* :mod:`repro.engine.cli` — the ``python -m repro`` command line.
"""

from repro.engine.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.engine.campaign import Campaign, CampaignResult, ProgressEvent
from repro.engine.checkpoints import (
    DEFAULT_CHECKPOINT_DIR,
    CheckpointCache,
    ModelCheckpoint,
    default_checkpoint_dir,
)
from repro.engine.executor import (
    BackendExecutor,
    RetryPolicy,
    RunBackend,
    RunExecutor,
    RunFailure,
    RunLedger,
    SerialExecutor,
    execute_run,
    failure_record,
    make_executor,
    run_all,
)
from repro.engine.pool import WorkerPool
from repro.engine.records import RunRecord
from repro.engine.spec import RunSpec, SweepSpec, canonical_json, spec_fingerprint

__all__ = [
    "Campaign",
    "CampaignResult",
    "ProgressEvent",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "DEFAULT_CHECKPOINT_DIR",
    "CheckpointCache",
    "ModelCheckpoint",
    "default_checkpoint_dir",
    "RunRecord",
    "RunSpec",
    "SweepSpec",
    "RetryPolicy",
    "RunBackend",
    "RunExecutor",
    "RunFailure",
    "RunLedger",
    "SerialExecutor",
    "BackendExecutor",
    "WorkerPool",
    "execute_run",
    "failure_record",
    "make_executor",
    "run_all",
    "canonical_json",
    "spec_fingerprint",
]
