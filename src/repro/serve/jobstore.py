"""Durable on-disk job store for the campaign service.

Every submitted sweep becomes one :class:`JobRecord` persisted as a JSON
document at ``<root>/<job_id>.json`` (atomic tmp-file + ``os.replace`` writes
via :func:`repro.utils.serialization.save_json`), plus a plain-text
``<job_id>.events`` sidecar of progress lines that ``GET /jobs/<id>/events``
streams.  Because every state transition is flushed atomically, a daemon
killed at any instant — including ``kill -9`` — leaves only complete job
documents behind; :meth:`JobStore.recover` then requeues whatever was
``queued``/``running`` and the service resumes it from the result cache,
re-running only the points the cache does not already hold.

Job identity is *content-addressed*: the id hashes the job's fully expanded
run specs together with the library version, so submitting the same sweep
twice (however it was spelled — grid vs. zip vs. explicit points) dedupes to
the same job, and a library upgrade naturally starts fresh jobs.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Mapping

from repro.engine.spec import RunSpec, canonical_json
from repro.faults import fault_point
from repro.utils.serialization import load_json, save_json
from repro.utils.validation import ValidationError
from repro.version import __version__

__all__ = [
    "JobRecord",
    "JobStore",
    "sweep_job_id",
    "ACTIVE_STATES",
    "TERMINAL_STATES",
    "JOB_STATES",
]

#: Lifecycle: ``queued -> running -> done | failed | cancelled``; terminal
#: ``failed``/``cancelled`` jobs requeue on resubmit (resume from the cache).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
ACTIVE_STATES = ("queued", "running")
TERMINAL_STATES = ("done", "failed", "cancelled")


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def sweep_job_id(specs: Iterable[RunSpec], version: str = __version__) -> str:
    """Content-addressed job identity: hash of the expanded specs + version."""
    digest = hashlib.sha256()
    digest.update(
        canonical_json(
            {"specs": [spec.canonical() for spec in specs], "version": version}
        ).encode()
    )
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class JobRecord:
    """One submitted sweep: identity, expanded points, state and progress.

    Attributes
    ----------
    job_id:
        Content hash of the expanded specs + library version (see
        :func:`sweep_job_id`).
    sweep:
        The sweep payload as submitted (experiment id, grid/zip/base/seeds) —
        kept for display; the authoritative work list is ``specs``.
    specs:
        Fully expanded, parameter-resolved run specs (``RunSpec.canonical()``
        dictionaries) — what the scheduler dispatches and what
        ``GET /results/<id>`` reads back through the cache.
    state:
        One of :data:`JOB_STATES`.
    total / done / executed / cache_hits / failures:
        Point accounting.  ``executed`` counts fresh runs *since the job was
        last (re)queued*, so after a crash-resume it reports exactly how many
        points the restart actually had to run.
    submits:
        How many times this job id has been submitted (dedupe counter).
    error:
        Failure summary for ``failed`` jobs.
    policy:
        Optional per-job retry-policy overrides as submitted (a partial
        :class:`~repro.engine.executor.RetryPolicy` dict: ``max_attempts``,
        ``deadline_s``, ``backoff_s``, …).  Not part of the job identity —
        the same sweep under a different policy is still the same job.
    quarantined:
        Poison runs: points that exhausted their retry budget, recorded as
        ``{"index", "label", "attempts", "error"}`` so operators can see
        exactly what was given up on and why.
    cached:
        Indices of the points the job served from the result cache instead
        of executing: the cache hits when the job was last activated, and
        every point once a finished ``done`` job is resubmitted.  ``GET
        /results/<id>`` reports each record's ``cached`` flag from it.
    client:
        The submitting client's self-declared identity (``X-Repro-Client``
        header); the key the per-client admission quota charges.  ``""`` for
        anonymous submits.  Not part of the job identity.
    """

    job_id: str
    sweep: Mapping[str, object]
    specs: tuple[Mapping[str, object], ...]
    state: str = "queued"
    created_at: str = field(default_factory=_utc_now)
    updated_at: str = ""
    started_at: str = ""
    finished_at: str = ""
    total: int = 0
    done: int = 0
    executed: int = 0
    cache_hits: int = 0
    failures: int = 0
    submits: int = 1
    error: str | None = None
    note: str = ""
    policy: Mapping[str, object] = field(default_factory=dict)
    quarantined: tuple[Mapping[str, object], ...] = ()
    cached: tuple[int, ...] = ()
    client: str = ""

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise ValidationError(
                f"unknown job state {self.state!r}; expected one of {JOB_STATES}"
            )
        object.__setattr__(self, "sweep", dict(self.sweep))
        object.__setattr__(self, "specs", tuple(dict(s) for s in self.specs))
        object.__setattr__(self, "policy", dict(self.policy))
        object.__setattr__(self, "quarantined", tuple(dict(q) for q in self.quarantined))
        object.__setattr__(self, "cached", tuple(int(index) for index in self.cached))
        if not self.total:
            object.__setattr__(self, "total", len(self.specs))

    # ------------------------------------------------------------- helpers
    @property
    def active(self) -> bool:
        return self.state in ACTIVE_STATES

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    def run_specs(self) -> list[RunSpec]:
        """Materialize the stored spec dictionaries back into ``RunSpec``s."""
        return [RunSpec.from_canonical(spec) for spec in self.specs]

    def requeued(self, note: str = "") -> "JobRecord":
        """A copy reset for (re-)execution: counters cleared, state queued.

        Progress is *not* lost — completed points live in the result cache
        and are re-counted as cache hits when the scheduler activates the
        job, so only the missing points execute.  Quarantined points get a
        fresh chance (the quarantine list resets, and so does ``cached``,
        which activation fills again); the submitted retry policy sticks with
        the job.
        """
        return replace(
            self,
            state="queued",
            done=0,
            executed=0,
            cache_hits=0,
            failures=0,
            error=None,
            started_at="",
            finished_at="",
            note=note,
            quarantined=(),
            cached=(),
            updated_at=_utc_now(),
        )

    # ------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "sweep": dict(self.sweep),
            "specs": [dict(s) for s in self.specs],
            "state": self.state,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "total": self.total,
            "done": self.done,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "failures": self.failures,
            "submits": self.submits,
            "error": self.error,
            "note": self.note,
            "policy": dict(self.policy),
            "quarantined": [dict(q) for q in self.quarantined],
            "cached": list(self.cached),
            "client": self.client,
        }

    def summary(self) -> dict:
        """Compact status view (no spec list) for API listings."""
        return {
            key: value
            for key, value in self.to_dict().items()
            if key not in ("specs", "sweep", "cached")
        } | {"experiment_id": self.sweep.get("experiment_id")}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "JobRecord":
        return cls(
            job_id=str(data["job_id"]),
            sweep=dict(data.get("sweep", {})),  # type: ignore[arg-type]
            specs=tuple(data.get("specs", ())),  # type: ignore[arg-type]
            state=str(data.get("state", "queued")),
            created_at=str(data.get("created_at", "")),
            updated_at=str(data.get("updated_at", "")),
            started_at=str(data.get("started_at", "")),
            finished_at=str(data.get("finished_at", "")),
            total=int(data.get("total", 0)),  # type: ignore[arg-type]
            done=int(data.get("done", 0)),  # type: ignore[arg-type]
            executed=int(data.get("executed", 0)),  # type: ignore[arg-type]
            cache_hits=int(data.get("cache_hits", 0)),  # type: ignore[arg-type]
            failures=int(data.get("failures", 0)),  # type: ignore[arg-type]
            submits=int(data.get("submits", 1)),  # type: ignore[arg-type]
            error=data.get("error"),  # type: ignore[arg-type]
            note=str(data.get("note", "")),
            policy=dict(data.get("policy", {})),  # type: ignore[arg-type]
            quarantined=tuple(data.get("quarantined", ())),  # type: ignore[arg-type]
            cached=tuple(data.get("cached", ())),  # type: ignore[arg-type]
            client=str(data.get("client", "")),
        )


class JobStore:
    """Filesystem-backed store of :class:`JobRecord` documents.

    All mutating operations are guarded by a re-entrant lock so the serve
    daemon's scheduler thread and HTTP handler threads can interleave safely;
    every write is an atomic tmp+rename, so concurrent *processes* (or a
    crash at any point) never expose a torn document.
    """

    def __init__(self, root: str | Path, version: str = __version__):
        self.root = Path(root)
        self.version = version
        self._lock = threading.RLock()

    # ------------------------------------------------------------- paths
    def path_for(self, job_id: str) -> Path:
        return self.root / f"{job_id}.json"

    def events_path_for(self, job_id: str) -> Path:
        return self.root / f"{job_id}.events"

    # ------------------------------------------------------------ lookups
    def get(self, job_id: str) -> JobRecord | None:
        path = self.path_for(job_id)
        if not path.is_file():
            return None
        try:
            return JobRecord.from_dict(load_json(path))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError):
            return None

    def jobs(self) -> list[JobRecord]:
        """All stored jobs, oldest submission first."""
        records = []
        for path in self.root.glob("*.json"):
            try:
                records.append(JobRecord.from_dict(load_json(path)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError):
                continue
        return sorted(records, key=lambda job: (job.created_at, job.job_id))

    # ------------------------------------------------------------ mutation
    def save(self, job: JobRecord) -> JobRecord:
        """Persist one job document, verified by read-back.

        Every state transition flows through here, so a torn or corrupt
        write would silently lose job progress.  After each write the
        document is read back and re-parsed; a write that does not verify is
        retried (bounded), and the ``jobstore.save`` fault point lets chaos
        tests inject exactly the corrupt/ENOSPC writes this loop defends
        against.
        """
        job = replace(job, updated_at=_utc_now())
        path = self.path_for(job.job_id)
        document = job.to_dict()
        with self._lock:
            last_error: Exception | None = None
            for _ in range(3):
                try:
                    effect = fault_point("jobstore.save", key=job.job_id)
                    if effect == "corrupt_write":
                        text = json.dumps(document)
                        path.parent.mkdir(parents=True, exist_ok=True)
                        path.write_text(text[: max(1, len(text) // 3)])
                    else:
                        save_json(path, document)
                    JobRecord.from_dict(load_json(path))
                except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError) as exc:
                    last_error = exc
                    continue
                return job
            raise OSError(f"job store write failed for {path}: {last_error}")

    def update(self, job_id: str, **fields: object) -> JobRecord:
        """Atomically load-modify-save one job (thread-safe read-modify-write)."""
        with self._lock:
            job = self.get(job_id)
            if job is None:
                raise KeyError(f"unknown job {job_id!r}")
            return self.save(replace(job, **fields))  # type: ignore[arg-type]

    # ------------------------------------------------------------- events
    def append_event(self, job_id: str, line: str) -> None:
        """Append one progress line to the job's event log (single-writer)."""
        with self._lock:
            path = self.events_path_for(job_id)
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "a") as handle:
                handle.write(line.rstrip("\n") + "\n")

    def events(self, job_id: str) -> list[str]:
        path = self.events_path_for(job_id)
        if not path.is_file():
            return []
        return path.read_text().splitlines()

    def clear_events(self, job_id: str) -> None:
        path = self.events_path_for(job_id)
        if path.is_file():
            path.unlink()

    # ------------------------------------------------------------ recovery
    def recover(self) -> list[JobRecord]:
        """Requeue every job a previous daemon left ``queued``/``running``.

        Called once at service start.  Returns the requeued jobs; completed
        points are not re-run — the scheduler finds them in the result cache
        when it activates each job.
        """
        requeued = []
        with self._lock:
            for job in self.jobs():
                if job.state in ACTIVE_STATES:
                    note = (
                        "resumed after restart"
                        if job.state == "running" or job.done
                        else job.note
                    )
                    job = self.save(job.requeued(note=note))
                    if note:
                        self.append_event(job.job_id, f"-- {note} --")
                    requeued.append(job)
        return requeued
