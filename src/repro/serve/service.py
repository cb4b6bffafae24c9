"""The campaign service: durable jobs scheduled onto a shared worker pool.

:class:`CampaignService` is the daemon's core (the HTTP layer in
:mod:`repro.serve.api` is a thin shell around it):

* **submit** expands a sweep payload into resolved run specs, derives the
  content-addressed job id, dedupes against the store (an identical sweep
  returns the existing job — finished jobs return with zero new executions),
  applies bounded admission control, and persists the job ``queued``;
* a **scheduler thread** activates queued jobs (serving every point already
  in the result cache as an up-front cache hit), round-robins the remaining
  points of *all* active jobs onto the shared
  :class:`~repro.engine.pool.WorkerPool` queue (work-stealing across
  concurrently submitted sweeps), drains completions, persists progress after
  every point, and replaces dead workers, re-dispatching their lost tasks
  (or quarantining them once no worker or node is left to run them);
* **failure policy** is run-level and lives in one
  :class:`~repro.engine.executor.RunLedger` per active job — the same state
  machine ``repro sweep`` uses: every failed execution (an error record, a
  worker death, a run killed at its wall-clock deadline) charges the point
  one attempt; the point is re-dispatched with capped exponential backoff,
  then **quarantined** at the budget: recorded on the job as a poison run
  (label, attempt history, last error) and counted a failure, so the job
  still reaches a terminal state.  The default policy comes from the
  service; each submit may override it with a ``"policy"`` object in the
  payload;
* **recovery** is automatic: on start the store requeues whatever a previous
  daemon left active, and activation re-runs only the points the cache does
  not already hold — a ``kill -9`` mid-campaign costs at most the runs that
  were physically in flight.

Execution capacity is a list of :class:`~repro.engine.executor.RunBackend`
instances driven uniformly: the local :class:`~repro.engine.pool.WorkerPool`
(when ``workers > 0``) and the :class:`~repro.serve.federation.FederationBackend`
holding remote ``repro node`` agents behind time-bounded leases.  The
scheduler neither knows nor cares where a run executes — dispatch tries each
backend in order, deadlines kill through the owning backend (SIGKILL locally,
lease revocation remotely), and lost runs (dead worker, expired lease, dead
node) all flow through the same attempt-charged failure path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path

from repro.engine.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.engine.campaign import ProgressEvent
from repro.engine.executor import LOST_TASK_GRACE_S, RetryPolicy, RunFailure, RunLedger
from repro.engine.pool import WorkerPool
from repro.engine.records import RunRecord
from repro.engine.spec import RunSpec, SweepSpec
from repro.faults import active_plan
from repro.serve.federation import FederationBackend
from repro.serve.jobstore import JobRecord, JobStore, sweep_job_id
from repro.serve.jobstore import _utc_now as _now
from repro.utils.validation import check_positive_int
from repro.version import __version__

__all__ = ["CampaignService", "AdmissionError", "DEFAULT_JOBSTORE_DIR", "sweep_from_payload"]

#: Default job-store location, kept next to the result cache it resumes from.
DEFAULT_JOBSTORE_DIR = f"{DEFAULT_CACHE_DIR}/jobs"

#: Default service-wide failure policy: three total attempts per run, no
#: wall-clock deadline (experiments legitimately vary by orders of magnitude).
DEFAULT_POLICY = RetryPolicy(max_attempts=3, backoff_s=0.5, backoff_cap_s=10.0)


class AdmissionError(RuntimeError):
    """The service is at its job-queue bound; retry after load drains."""


def sweep_from_payload(payload: dict) -> SweepSpec:
    """Build a :class:`SweepSpec` from a ``POST /sweeps`` JSON body.

    Raises ``repro.utils.validation.ValidationError`` / ``KeyError`` for
    malformed payloads — the API maps those to 400 responses.
    """
    known = {"experiment_id", "base", "grid", "zipped", "seeds"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise KeyError(f"unknown sweep field(s) {unknown}; accepted: {sorted(known)}")
    return SweepSpec(
        experiment_id=str(payload.get("experiment_id", "")),
        base=dict(payload.get("base", {})),
        grid=dict(payload.get("grid", {})),
        zipped=dict(payload.get("zipped", {})),
        seeds=tuple(payload.get("seeds", (0,))),
    )


@dataclass
class _ActiveJob:
    """Scheduler-side view of one running job: its ledger plus counters."""

    job_id: str
    total: int
    ledger: RunLedger
    done: int = 0
    executed: int = 0
    cache_hits: int = 0
    failures: int = 0

    def counters(self) -> dict:
        return {
            "done": self.done,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "failures": self.failures,
        }


class CampaignService:
    """Durable job queue + shared multi-worker executor + result cache."""

    def __init__(
        self,
        jobstore_dir: str | Path = DEFAULT_JOBSTORE_DIR,
        cache_dir: str | Path = DEFAULT_CACHE_DIR,
        workers: int = 2,
        max_jobs: int = 32,
        version: str = __version__,
        tick_s: float = 0.1,
        policy: RetryPolicy | None = None,
        lost_task_grace_s: float = LOST_TASK_GRACE_S,
        max_jobs_per_client: int | None = None,
        lease_ttl_s: float = 15.0,
        heartbeat_s: float = 2.0,
        node_timeout_s: float | None = None,
        node_quarantine_after: int = 5,
    ):
        self.version = version
        self.store = JobStore(jobstore_dir, version=version)
        self.cache = ResultCache(cache_dir, version=version)
        #: ``workers=0`` runs a coordinator-only daemon: no local pool, all
        #: capacity comes from federated ``repro node`` agents.
        self.pool: WorkerPool | None = None
        if workers:
            self.pool = WorkerPool(
                workers=check_positive_int(workers, "workers"),
                cache_dir=str(cache_dir),
                version=version,
            )
        self.federation = FederationBackend(
            cache_dir=str(cache_dir),
            version=version,
            lease_ttl_s=lease_ttl_s,
            heartbeat_s=heartbeat_s,
            node_timeout_s=node_timeout_s,
            quarantine_after=node_quarantine_after,
        )
        #: Dispatch order: local pool first (no network hop), then remotes.
        self.backends = [
            backend for backend in (self.pool, self.federation) if backend is not None
        ]
        self.max_jobs = check_positive_int(max_jobs, "max_jobs")
        self.max_jobs_per_client = (
            check_positive_int(max_jobs_per_client, "max_jobs_per_client")
            if max_jobs_per_client is not None
            else None
        )
        self.tick_s = tick_s
        self.policy = policy if policy is not None else DEFAULT_POLICY
        self.lost_task_grace_s = lost_task_grace_s
        self._active: dict[str, _ActiveJob] = {}
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._started = False

    # ------------------------------------------------------------ lifecycle
    def start(self) -> list[JobRecord]:
        """Start workers + scheduler; returns the jobs recovered for resume."""
        if self._started:
            return []
        self._started = True
        recovered = self.store.recover()
        if self.pool is not None:
            self.pool.start()
        self._thread = threading.Thread(
            target=self._scheduler_loop, name="repro-serve-scheduler", daemon=True
        )
        self._thread.start()
        return recovered

    def shutdown(self, graceful: bool = True) -> None:
        """Stop scheduling; requeue in-flight jobs so a restart resumes them."""
        if not self._started:
            return
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        if self.pool is not None:
            self.pool.stop(graceful=graceful)
        with self._lock:
            for job_id in list(self._active):
                del self._active[job_id]
                job = self.store.get(job_id)
                if job is not None and job.active:
                    self.store.save(job.requeued(note="interrupted by shutdown"))
                    self.store.append_event(job_id, "-- interrupted by shutdown --")
        self._started = False

    # -------------------------------------------------------------- submit
    def submit(self, payload: dict, client: str = "") -> tuple[JobRecord, bool]:
        """Submit a sweep; returns ``(job, created)``.

        ``client`` is the caller's self-declared identity (the
        ``X-Repro-Client`` header): when the service was started with
        ``max_jobs_per_client``, each identity gets its own active-job bound
        *under* the global ``max_jobs`` one, so one noisy client cannot
        starve the queue for everyone.  Anonymous submits share the ``""``
        identity.

        Identical sweeps (same expanded specs under this version) dedupe to
        the existing job whatever its state: active jobs are simply returned,
        finished ``done`` jobs are returned with their results intact (zero
        new executions), and ``failed``/``cancelled`` jobs are requeued so a
        resubmit resumes them from the cache.

        An optional ``"policy"`` object in the payload overrides the service
        failure policy for this job (partial dicts are fine — e.g.
        ``{"policy": {"max_attempts": 5, "deadline_s": 120}}``).  The policy
        is not part of the job identity.
        """
        payload = dict(payload)
        policy_fields = payload.pop("policy", None)
        if policy_fields is not None:
            if not isinstance(policy_fields, dict):
                raise KeyError("sweep field 'policy' must be an object")
            # Validate eagerly so a bad policy 400s at submit, not mid-run.
            RetryPolicy.from_dict(policy_fields, default=self.policy)
        sweep = sweep_from_payload(payload)
        specs = sweep.expand(validate=True)
        job_id = sweep_job_id(specs, self.version)
        with self._lock:
            existing = self.store.get(job_id)
            if existing is not None:
                updates: dict = {"submits": existing.submits + 1}
                if policy_fields is not None:
                    updates["policy"] = dict(policy_fields)
                if existing.state == "done":
                    # The resubmission runs nothing: the cache serves every point.
                    updates["cached"] = tuple(range(existing.total))
                existing = self.store.update(job_id, **updates)
                if existing.state in ("failed", "cancelled"):
                    existing = self.store.save(
                        existing.requeued(note=f"resubmitted after {existing.state}")
                    )
                    self.store.append_event(job_id, "-- resubmitted, resuming --")
                return existing, False
            all_jobs = self.store.jobs()
            active_jobs = sum(1 for job in all_jobs if job.active)
            if active_jobs >= self.max_jobs:
                raise AdmissionError(
                    f"job queue full ({active_jobs}/{self.max_jobs} jobs active); "
                    "retry after current campaigns drain"
                )
            if self.max_jobs_per_client is not None:
                mine = sum(
                    1 for job in all_jobs if job.active and job.client == client
                )
                if mine >= self.max_jobs_per_client:
                    raise AdmissionError(
                        f"client {client or 'anonymous'!r} is at its per-client "
                        f"bound ({mine}/{self.max_jobs_per_client} jobs active); "
                        "retry after its campaigns drain"
                    )
            job = JobRecord(
                job_id=job_id,
                sweep={
                    "experiment_id": sweep.experiment_id,
                    "base": dict(sweep.base),
                    "grid": dict(sweep.grid),
                    "zipped": dict(sweep.zipped),
                    "seeds": list(sweep.seeds),
                },
                specs=tuple(spec.canonical() for spec in specs),
                policy=dict(policy_fields) if policy_fields is not None else {},
                client=client,
            )
            job = self.store.save(job)
            self.store.clear_events(job_id)
            self.store.append_event(
                job_id, f"-- submitted: {job.total} points of {sweep.experiment_id} --"
            )
        return job, True

    # -------------------------------------------------------------- queries
    def job(self, job_id: str) -> JobRecord | None:
        return self.store.get(job_id)

    def jobs(self) -> list[JobRecord]:
        return self.store.jobs()

    def events(self, job_id: str) -> list[str]:
        return self.store.events(job_id)

    def cancel(self, job_id: str) -> JobRecord | None:
        """Cancel a job; pending points are dropped, completed ones stay cached."""
        with self._lock:
            job = self.store.get(job_id)
            if job is None or job.finished:
                return job
            state = self._active.pop(job_id, None)
            fields = state.counters() if state is not None else {}
            job = self.store.update(
                job_id,
                state="cancelled",
                finished_at=_now(),
                note="cancelled by request",
                **fields,
            )
            self.store.append_event(
                job_id, f"-- cancelled ({job.done}/{job.total} points complete) --"
            )
            return job

    def results(self, job_id: str) -> dict | None:
        """Cache-first result read: every point fetched straight from the cache.

        A record's ``cached`` flag says whether the job served that point
        from the cache rather than executing it (the job's ``cached``
        indices), not merely that the read came from the cache.
        """
        job = self.store.get(job_id)
        if job is None:
            return None
        records = []
        payloads = []
        quarantined = {int(entry.get("index", -1)) for entry in job.quarantined}
        cached = set(job.cached)
        for index, spec in enumerate(job.run_specs()):
            record = self.cache.get(spec)
            if record is None:
                status = "quarantined" if index in quarantined else "missing"
                records.append({"label": spec.label(), "status": status})
            else:
                records.append(
                    {
                        "label": spec.label(),
                        "status": record.status,
                        "cached": index in cached,
                        "payload": dict(record.payload),
                    }
                )
                if record.ok:
                    payloads.append(dict(record.payload))
        return {"job": job.summary(), "records": records, "payloads": payloads}

    def health(self) -> dict:
        """Daemon + cluster liveness: ``degraded`` is true when *either* the
        local pool lost capacity past its respawn budget or any federated
        node is dead/quarantined."""
        jobs = self.store.jobs()
        pool = (
            self.pool.health()
            if self.pool is not None
            else {"backend": "local-pool", "workers": 0, "alive": 0, "degraded": False}
        )
        federation = self.federation.health()
        degraded = bool(pool["degraded"] or federation["degraded"])
        plan = active_plan()
        return {
            "status": "degraded" if degraded else "ok",
            "version": self.version,
            "workers": pool["workers"],
            "workers_alive": pool["alive"],
            "pool": pool,
            "federation": federation,
            "nodes": federation["nodes"],
            "degraded": degraded,
            "max_jobs": self.max_jobs,
            "max_jobs_per_client": self.max_jobs_per_client,
            "policy": self.policy.to_dict(),
            "faults_active": plan.describe() if plan is not None else None,
            "jobs": {
                state: sum(1 for job in jobs if job.state == state)
                for state in ("queued", "running", "done", "failed", "cancelled")
            },
            "cache_dir": str(self.cache.root),
            "jobstore_dir": str(self.store.root),
        }

    # ----------------------------------------------------------- scheduler
    def _scheduler_loop(self) -> None:
        while not self._stop.is_set():
            try:
                self._activate_queued()
                self._dispatch()
                self._drain()
                self._enforce_deadlines()
                self._reap_backends()
                self._abandon_stranded()
            except Exception as exc:  # noqa: BLE001 — scheduler must survive
                # A scheduler crash would silently freeze every job; log the
                # tick's failure to the affected stores and keep ticking.
                try:
                    for job_id in list(self._active):
                        self.store.append_event(job_id, f"-- scheduler error: {exc} --")
                except Exception:  # noqa: BLE001
                    pass
                self._stop.wait(self.tick_s)

    def _job_policy(self, job: JobRecord) -> RetryPolicy:
        """The effective failure policy for one job (service default + overrides)."""
        try:
            return RetryPolicy.from_dict(dict(job.policy), default=self.policy)
        except (ValueError, TypeError):
            return self.policy  # tampered store document: fall back, don't freeze

    def _activate_queued(self) -> None:
        """Move queued store jobs into the scheduler, serving cache hits first."""
        with self._lock:
            for job in self.store.jobs():
                if job.state != "queued" or job.job_id in self._active:
                    continue
                ledger = RunLedger(
                    policy=self._job_policy(job),
                    tag=job.job_id,
                    lost_task_grace_s=self.lost_task_grace_s,
                )
                state = _ActiveJob(job_id=job.job_id, total=job.total, ledger=ledger)
                served = []
                for index, spec in enumerate(job.run_specs()):
                    cached = self.cache.get(spec)
                    if cached is not None:
                        served.append(index)
                        state.done += 1
                        state.cache_hits += 1
                        self._emit(job.job_id, cached, state)
                    else:
                        ledger.pending.append((index, spec))
                self._active[job.job_id] = state
                self.store.update(
                    job.job_id,
                    state="running",
                    started_at=_now(),
                    cached=tuple(served),
                    **state.counters(),
                )
                self._finish_if_complete(job.job_id, state)

    def _submit_any(self, token, spec: RunSpec):
        """Offer one run to each backend in order; the acceptor, or None."""
        for backend in self.backends:
            if backend.try_submit(token, spec):
                return backend
        return None

    def _dispatch(self) -> None:
        """Round-robin due points of every active job onto the backends."""
        with self._lock:
            progressing = True
            while progressing:
                progressing = False
                for state in list(self._active.values()):
                    progressing |= state.ledger.dispatch(self._submit_any)

    def _drain(self) -> None:
        """Collect completions for up to one tick and persist progress.

        The tick is split across backends so a chatty pool cannot starve
        remote uploads of scheduler attention (or vice versa).
        """
        share = self.tick_s / max(1, len(self.backends))
        for backend in self.backends:
            self._drain_backend(backend, share)
            if self._stop.is_set():
                return

    def _drain_backend(self, backend, timeout: float) -> None:
        for (job_id, index), record in backend.completions(timeout=timeout):
            with self._lock:
                state = self._active.get(job_id)
                if state is None:
                    continue  # cancelled job
                if index in state.ledger.outstanding:
                    state.executed += 1
                outcome = state.ledger.report(index, record)
                if isinstance(outcome, RunFailure):
                    self._on_failure(state, outcome)
                elif outcome is not None:
                    self._complete(job_id, state, outcome)
            if self._stop.is_set():
                return

    def _complete(self, job_id: str, state: _ActiveJob, record: RunRecord) -> None:
        """Caller holds the lock; account one successfully finished point."""
        if record.ok and not record.cached and self.cache.get(record.spec) is None:
            # The executor finished the run but could not durably cache it
            # (its write attempts all failed — e.g. injected corrupt writes,
            # ENOSPC, or a node whose local cache is elsewhere).  The record
            # is in hand: back-stop the write here so ``GET /results`` serves
            # every completed point.  Still best-effort — a cache that cannot
            # be written costs reuse, not this completion.
            try:
                self.cache.put(record, verify=True)
            except OSError:
                pass
        state.done += 1
        self._emit(job_id, record, state)
        self.store.update(job_id, **state.counters())
        self._finish_if_complete(job_id, state)

    def _on_failure(self, state: _ActiveJob, failure: RunFailure) -> None:
        """Caller holds the lock; log a retry, or record a quarantined run.

        A quarantined point is counted done+failed (the job reaches a
        terminal state) and recorded on the job document with its attempt
        history, so ``repro jobs``/``GET /jobs/<id>`` show what was abandoned.
        """
        label = failure.spec.label()
        if not failure.quarantined:
            self.store.append_event(
                state.job_id,
                f"-- retrying {label} in {failure.retry_in:.2f}s (attempt "
                f"{failure.attempts}/{state.ledger.policy.max_attempts} failed: "
                f"{failure.error}) --",
            )
            self.store.update(state.job_id, **state.counters())
            return
        state.done += 1
        state.failures += 1
        self.store.append_event(
            state.job_id,
            f"-- quarantined {label} after {failure.attempts} attempts: "
            f"{failure.error} --",
        )
        self.store.update(
            state.job_id,
            quarantined=tuple(state.ledger.quarantined),
            **state.counters(),
        )
        self._finish_if_complete(state.job_id, state)

    def _enforce_deadlines(self) -> None:
        """Kill runs past their deadline and fail dispatches that never started."""
        flights = {backend: backend.in_flight() for backend in self.backends}
        with self._lock:
            for state in list(self._active.values()):
                for failure in state.ledger.supervise(flights):
                    self._on_failure(state, failure)

    def _reap_backends(self) -> None:
        """Fail over exactly the runs lost to dead executors, on any backend.

        Locally that means dead worker processes (replaced up to the respawn
        budget); remotely, expired leases and nodes declared dead after
        missing heartbeats.  Each backend names the lost tokens precisely, so
        runs on surviving executors are untouched.
        """
        lost = [token for backend in self.backends for token in backend.reap()]
        with self._lock:
            for job_id, index in lost:
                state = self._active.get(job_id)
                failure = state and state.ledger.fail(index, "worker died mid-run")
                if failure:
                    self._on_failure(state, failure)

    def _abandon_stranded(self) -> None:
        """Quarantine every active job's unsettled runs once nothing can run them.

        That is when the local pool is exhausted (every worker dead, its
        respawn budget spent) and no eligible federated node is registered;
        a coordinator-only daemon (no local pool) keeps waiting for nodes.
        """
        if self.pool is None or not self.pool.exhausted():
            return
        # A node summary reads "alive" only while the node may claim leases.
        if any(node["state"] == "alive" for node in self.federation.nodes()):
            return
        with self._lock:
            for state in list(self._active.values()):
                for failure in state.ledger.abandon("no workers left to run it"):
                    self._on_failure(state, failure)

    def _emit(self, job_id: str, record: RunRecord, state: _ActiveJob) -> None:
        event = ProgressEvent(record=record, done=state.done, total=state.total)
        self.store.append_event(job_id, event.message)

    def _finish_if_complete(self, job_id: str, state: _ActiveJob) -> None:
        """Caller holds the lock; transition a fully accounted job to terminal."""
        if state.done < state.total:
            return
        self._active.pop(job_id, None)
        final = "failed" if state.failures else "done"
        error = (
            f"{state.failures} of {state.total} runs failed" if state.failures else None
        )
        quarantined = state.ledger.quarantined
        self.store.update(
            job_id,
            state=final,
            finished_at=_now(),
            error=error,
            quarantined=tuple(quarantined),
            **state.counters(),
        )
        quarantine_note = f", {len(quarantined)} quarantined" if quarantined else ""
        self.store.append_event(
            job_id,
            f"-- {final}: {state.executed} executed, {state.cache_hits} cache hits, "
            f"{state.failures} failures{quarantine_note} --",
        )
