"""Persistent campaign service: durable job queue + shared worker pool + HTTP API.

Turns the one-shot campaign engine into a long-running system:

* :mod:`repro.serve.jobstore` — durable on-disk :class:`JobStore` of
  content-addressed :class:`JobRecord` documents (atomic writes, crash-safe,
  requeues interrupted jobs on restart).
* :mod:`repro.serve.service` — :class:`CampaignService`, the scheduler that
  dedupes submissions, admits within a bounded job queue, round-robins
  active sweeps onto the engine's :class:`~repro.engine.pool.WorkerPool`
  (re-exported here; workers write through to the content-addressed result
  cache) under one :class:`~repro.engine.executor.RunLedger` per job, and
  resumes killed campaigns from the cache.
* :mod:`repro.serve.api` — :class:`ServeDaemon`, the stdlib
  ``ThreadingHTTPServer`` API (``POST /sweeps``, ``GET /jobs/<id>``,
  ``GET /results/<id>``, …).
* :mod:`repro.serve.client` — :class:`ServeClient`, the urllib client the
  ``repro submit`` / ``repro jobs`` commands use.
* :mod:`repro.serve.federation` — multi-node execution:
  :class:`FederationBackend` (coordinator-side lease manager behind the
  :class:`~repro.engine.executor.RunBackend` interface) and
  :class:`NodeAgent` (the ``repro node`` remote-worker loop).

Start a daemon with ``repro serve``; submit work with ``repro submit``;
attach remote capacity with ``repro node --coordinator URL``.
"""

from repro.engine.pool import WorkerPool
from repro.serve.api import DEFAULT_HOST, DEFAULT_PORT, ServeDaemon
from repro.serve.client import DEFAULT_URL, JobFailedError, ServeClient, ServeError
from repro.serve.federation import (
    FederationBackend,
    FencedLeaseError,
    NodeAgent,
    NodeGoneError,
    UnknownNodeError,
)
from repro.serve.jobstore import JobRecord, JobStore, sweep_job_id
from repro.serve.service import (
    DEFAULT_JOBSTORE_DIR,
    AdmissionError,
    CampaignService,
    sweep_from_payload,
)

__all__ = [
    "AdmissionError",
    "CampaignService",
    "DEFAULT_HOST",
    "DEFAULT_JOBSTORE_DIR",
    "DEFAULT_PORT",
    "DEFAULT_URL",
    "FederationBackend",
    "FencedLeaseError",
    "JobFailedError",
    "JobRecord",
    "JobStore",
    "NodeAgent",
    "NodeGoneError",
    "ServeClient",
    "ServeDaemon",
    "ServeError",
    "UnknownNodeError",
    "WorkerPool",
    "sweep_from_payload",
    "sweep_job_id",
]
