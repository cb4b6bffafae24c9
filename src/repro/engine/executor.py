"""Run-spec execution: one unit of work, one failure policy, two executors.

:func:`execute_run` is the single unit of work shared by every execution
strategy — it resolves the experiment, runs it with the spec's parameters
and seed, and wraps the outcome (or the failure) into a
:class:`~repro.engine.records.RunRecord`.  It is a module-level function so
worker processes can run it by reference; only the plain-data
:class:`~repro.engine.spec.RunSpec` crosses process boundaries.

Failure policy: :class:`RunLedger` is the one retry/deadline/quarantine
state machine, driven by the :class:`SerialExecutor`, by
:class:`BackendExecutor` (``-j N``: a
:class:`~repro.engine.pool.WorkerPool`, or any :class:`RunBackend`) and by
the serve scheduler.  A run that fails (error record, dead worker, blown
per-run deadline) is re-executed up to :attr:`RetryPolicy.max_attempts`
times with capped exponential backoff and deterministic jitter; a run that
exhausts its attempts is *quarantined* — its final error record carries the
attempt count in provenance and the sweep moves on, so one poison point can
never stall or crash-loop a campaign.  Each death is charged to exactly the
run its worker hosted.  The default policy (one attempt, no deadline) keeps
failures final.

Determinism: each run's randomness is fully derived from ``spec.seed`` (the
experiment runners thread it through :mod:`repro.utils.rng`), so the same
spec produces byte-identical payloads whether it executes inline, in a fresh
process, in a pool worker that has already run other specs — or on the third
retry after two injected crashes (payloads never depend on attempt count).
Worker processes keep the per-process memo of trained workloads (see
:func:`repro.analysis.experiments.prepared_workload`), which makes large
sweeps dramatically cheaper without affecting results.
"""

from __future__ import annotations

import itertools
import os
import time
import weakref
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from datetime import datetime, timezone
from time import monotonic, perf_counter
from typing import Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from repro.engine.records import RunRecord
from repro.engine.spec import RunSpec, spec_fingerprint
from repro.faults import fault_point
from repro.utils.rng import stable_hash
from repro.utils.validation import check_positive_int
from repro.version import __version__

__all__ = [
    "execute_run",
    "run_record",
    "failure_record",
    "RetryPolicy",
    "RunFailure",
    "RunLedger",
    "RunBackend",
    "RunExecutor",
    "SerialExecutor",
    "BackendExecutor",
    "make_executor",
    "run_all",
]


@dataclass(frozen=True)
class RetryPolicy:
    """How a :class:`RunLedger` treats a failing run.

    Attributes
    ----------
    max_attempts:
        Total executions allowed per run, including the first.  ``1`` (the
        default) means failures are final immediately — the historical
        behavior.  A run that fails ``max_attempts`` times is quarantined:
        recorded as failed with its attempt history, never dispatched again.
    backoff_s / backoff_cap_s:
        Exponential re-dispatch delay: attempt *n* waits
        ``min(cap, backoff_s * 2**(n-1))``, scaled by deterministic jitter in
        ``[0.5, 1.0]`` derived from ``(seed, run key, attempt)`` so a fleet
        of retries never stampedes in lockstep yet stays reproducible.
    deadline_s:
        Per-run wall-clock budget.  A run still executing past it is treated
        as hung: the worker hosting it is killed (a remote lease is revoked)
        and the run counts a failed attempt.  ``None``: no deadline.
    seed:
        Jitter seed.
    """

    max_attempts: int = 1
    backoff_s: float = 0.25
    backoff_cap_s: float = 10.0
    deadline_s: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive_int(self.max_attempts, "max_attempts")
        if self.backoff_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff_s and backoff_cap_s must be >= 0")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")

    def delay_s(self, attempt: int, key: str = "") -> float:
        """Backoff before re-dispatching after failed attempt ``attempt``."""
        base = min(self.backoff_cap_s, self.backoff_s * (2 ** max(0, attempt - 1)))
        if base <= 0:
            return 0.0
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, stable_hash(key), attempt])
        )
        return base * (0.5 + 0.5 * float(rng.random()))

    def to_dict(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "backoff_s": self.backoff_s,
            "backoff_cap_s": self.backoff_cap_s,
            "deadline_s": self.deadline_s,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict, default: "RetryPolicy | None" = None) -> "RetryPolicy":
        """Build a policy from a (possibly partial) dict over ``default``."""
        base = default if default is not None else cls()
        known = {"max_attempts", "backoff_s", "backoff_cap_s", "deadline_s", "seed"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown retry-policy field(s) {unknown}; accepted: {sorted(known)}"
            )
        deadline = data.get("deadline_s", base.deadline_s)
        return cls(
            max_attempts=int(data.get("max_attempts", base.max_attempts)),
            backoff_s=float(data.get("backoff_s", base.backoff_s)),
            backoff_cap_s=float(data.get("backoff_cap_s", base.backoff_cap_s)),
            deadline_s=None if deadline is None else float(deadline),
            seed=int(data.get("seed", base.seed)),
        )


def execute_run(
    spec: RunSpec,
    version: str = __version__,
    executor_kind: str = "serial",
) -> RunRecord:
    """Execute one run spec and return its record (never raises).

    Failures are captured in the record (``status="error"``) so one bad grid
    point cannot abort a thousand-point sweep.  The ``worker.run`` fault
    point fires here, inside the try block, so an injected ``raise`` surfaces
    as an ordinary failed record while ``crash``/``hang`` behave exactly like
    a segfaulting or stuck native call.
    """
    from repro.analysis.experiments import run_spec

    def compute() -> dict:
        fault_point("worker.run", key=spec.label())
        return run_spec(spec)

    return run_record(spec, compute, executor_kind, version)


def run_record(
    spec: RunSpec,
    compute: Callable[[], dict],
    executor_kind: str,
    version: str = __version__,
) -> RunRecord:
    """Call ``compute`` and wrap its payload, or what it raised, in ``spec``'s record."""
    started_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    start = perf_counter()
    try:
        payload = compute()
        status, error = "ok", None
    except Exception as exc:  # noqa: BLE001 — sweep survives bad points
        payload, status, error = {}, "error", f"{type(exc).__name__}: {exc}"
    return RunRecord(
        fingerprint=spec_fingerprint(spec, version),
        spec=spec,
        payload=payload,
        status=status,
        error=error,
        duration_s=perf_counter() - start,
        started_at=started_at,
        provenance={
            "version": version,
            "executor": executor_kind,
            "pid": os.getpid(),
        },
    )


def failure_record(
    spec: RunSpec,
    error: str,
    executor_kind: str,
    attempts: int = 1,
    version: str = __version__,
) -> RunRecord:
    """A synthetic error record for a run that produced no record of its own.

    Used when the process executing a run died or was killed at its deadline:
    there is nobody left to report, so the supervising side records the
    failure (with its attempt history) on the run's behalf.
    """
    return RunRecord(
        fingerprint=spec_fingerprint(spec, version),
        spec=spec,
        payload={},
        status="error",
        error=error,
        started_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        provenance={
            "version": version,
            "executor": executor_kind,
            "pid": os.getpid(),
            "attempts": attempts,
        },
    )


class RunExecutor(ABC):
    """Interface every run executor implements.

    ``run_specs`` is the batch contract :class:`~repro.engine.campaign.Campaign`
    consumes: feed it an ordered list of specs, stream back ``(index, record)``
    pairs in whatever order runs complete.  ``close`` releases long-lived
    resources (a pool-backed executor stops the pool it owns).
    """

    kind: str = "abstract"

    @abstractmethod
    def run_specs(self, specs: Sequence[RunSpec]) -> Iterator[tuple[int, RunRecord]]:
        """Yield ``(index, record)`` for every spec, in completion order."""

    def close(self) -> None:
        """Release executor resources (idempotent)."""


class RunBackend(ABC):
    """Execution capacity a :class:`RunLedger` can supervise.

    Runs are submitted tagged with an opaque token (e.g. ``(job_id, index)``)
    that comes back with their completion.  The failure policy also needs to
    see which runs are physically executing (for deadlines), kill or fence
    one overdue run, and learn exactly which runs a dead executor lost —
    which lets one state machine treat the local
    :class:`~repro.engine.pool.WorkerPool` and remote federated nodes
    (:class:`~repro.serve.federation.FederationBackend`) alike.
    """

    #: Provenance name of the records this backend produces.
    kind: str = "backend"
    #: Short name used in dispatch bookkeeping and health documents.
    backend_name: str = "backend"

    def start(self) -> None:
        """Bring the execution capacity up (idempotent)."""

    @abstractmethod
    def submit(self, token: Hashable, spec: RunSpec) -> None:
        """Enqueue one run, waiting for capacity if need be."""

    @abstractmethod
    def try_submit(self, token: Hashable, spec: RunSpec) -> bool:
        """Non-blocking submit; False when the backend has no capacity now."""

    @abstractmethod
    def completions(self, timeout: float | None = None) -> Iterator[tuple[Hashable, RunRecord]]:
        """Yield ``(token, record)`` for finished runs; stops (without
        raising) once nothing arrives for ``timeout`` seconds."""

    @abstractmethod
    def in_flight(self) -> dict:
        """Snapshot ``token -> (host id, started monotonic)`` of executing runs."""

    @abstractmethod
    def kill_for(self, token: Hashable) -> bool:
        """Stop (or fence off) the execution of one run; False if unknown.

        After a successful call the backend never reports a completion for
        this token's current execution — the caller owns its retry.
        """

    @abstractmethod
    def reap(self) -> list:
        """Detect dead executors; return the tokens their deaths lost."""

    def withdraw(self, token: Hashable) -> bool:
        """Take back a submitted-but-not-yet-executing run; False if it
        cannot be recalled (an OS pipe to worker processes cannot)."""
        return False

    def exhausted(self) -> bool:
        """True once the backend can never report another completion."""
        return False


#: How long a dispatched run may wait, while its backend executes nothing,
#: before it is presumed lost (see :meth:`RunLedger.supervise`).
LOST_TASK_GRACE_S = 15.0


@dataclass(frozen=True)
class RunFailure:
    """One failed attempt and what the :class:`RunLedger` made of it."""

    index: int
    spec: RunSpec
    error: str
    attempts: int  #: attempts charged so far, the failed one included
    retry_in: float | None  #: backoff before the retry; None: quarantined
    record: RunRecord | None = None  #: the run's own error record, if any

    @property
    def quarantined(self) -> bool:
        return self.retry_in is None


class RunLedger:
    """The retry, deadline and quarantine state machine for a list of runs.

    Every execution path drives its runs through one of these: the serial
    executor, :class:`BackendExecutor` (``-j N`` sweeps and searches) and the
    serve scheduler (one ledger per active job).  A run moves from
    ``pending`` to ``outstanding`` (:meth:`dispatch` charges one attempt) to
    ``settled``.  Every failed execution — an error record, a worker death,
    a deadline kill, a dispatch that never started — goes through
    :meth:`fail`: the run waits out its backoff in ``delayed`` and is
    dispatched again or, with ``policy.max_attempts`` spent, is quarantined
    (settled and listed in :attr:`quarantined`).  Since attempts are charged
    at dispatch, no run executes more than ``max_attempts`` times; runs
    stranded on an exhausted backend are quarantined by :meth:`abandon`.
    Backend tokens are ``(tag, index)``, so many ledgers can share a backend.
    """

    def __init__(
        self,
        runs: Iterable[tuple[int, RunSpec]] = (),
        policy: RetryPolicy | None = None,
        tag: Hashable = None,
        lost_task_grace_s: float = LOST_TASK_GRACE_S,
    ):
        self.policy = policy if policy is not None else RetryPolicy()
        self.tag = tag
        self.lost_task_grace_s = lost_task_grace_s
        self.pending: deque[tuple[int, RunSpec]] = deque(runs)
        #: (ready monotonic, index, spec): failed runs awaiting their backoff
        self.delayed: list[tuple[float, int, RunSpec]] = []
        #: index -> (spec, waiting-since monotonic, backend) of dispatched runs
        self.outstanding: dict[int, tuple[RunSpec, float, object]] = {}
        #: index -> dispatches so far (the <= max_attempts invariant lives here)
        self.attempts: dict[int, int] = {}
        self.settled: set[int] = set()
        #: ``{"index", "label", "attempts", "error"}`` per quarantined run
        self.quarantined: list[dict] = []

    @property
    def active(self) -> bool:
        """True while any run is unsettled."""
        return bool(self.pending or self.delayed or self.outstanding)

    def next_due_s(self) -> float:
        """Seconds until the earliest delayed retry is due (0 if none waits)."""
        if not self.delayed:
            return 0.0
        return max(0.0, min(entry[0] for entry in self.delayed) - monotonic())

    def dispatch(self, submit: Callable[[tuple, RunSpec], object]) -> bool:
        """Offer the next due run to ``submit(token, spec)``.

        ``submit`` returns whatever accepted the run (the backend that
        :meth:`supervise` consults), or ``None`` when no capacity is free.
        An accepted run is charged one attempt.  False: nothing dispatched.
        """
        now = monotonic()
        if self.delayed:
            self.pending.extend((i, spec) for ready, i, spec in self.delayed if ready <= now)
            self.delayed = [entry for entry in self.delayed if entry[0] > now]
        if not self.pending:
            return False
        index, spec = self.pending[0]
        backend = submit((self.tag, index), spec)
        if backend is None:
            return False
        self.pending.popleft()
        self.attempts[index] = self.attempts.get(index, 0) + 1
        self.outstanding[index] = (spec, now, backend)
        return True

    def fail(
        self, index: int, error: str, record: RunRecord | None = None
    ) -> RunFailure | None:
        """Charge a failed execution of an outstanding run: retry or quarantine.

        ``None`` when ``index`` is not outstanding (settled, or already failed).
        """
        entry = self.outstanding.pop(index, None)
        if entry is None:
            return None
        spec = entry[0]
        attempts = self.attempts[index]
        if attempts < self.policy.max_attempts:
            delay = self.policy.delay_s(attempts, key=spec.label())
            self.delayed.append((monotonic() + delay, index, spec))
            return RunFailure(index, spec, error, attempts, delay, record)
        return self._quarantine(index, spec, error, record)

    def abandon(self, error: str) -> list[RunFailure]:
        """Quarantine every unsettled run: its backend is exhausted."""
        runs = [(index, entry[0]) for index, entry in self.outstanding.items()]
        runs += [(index, spec) for _, index, spec in self.delayed] + list(self.pending)
        self.outstanding, self.delayed, self.pending = {}, [], deque()
        return [self._quarantine(index, spec, error) for index, spec in runs]

    def _quarantine(
        self, index: int, spec: RunSpec, error: str, record: RunRecord | None = None
    ) -> RunFailure:
        attempts = self.attempts.get(index, 0)
        self.settled.add(index)
        self.quarantined.append(
            {"index": index, "label": spec.label(), "attempts": attempts, "error": error}
        )
        return RunFailure(index, spec, error, attempts, None, record)

    def report(self, index: int, record: RunRecord) -> RunRecord | RunFailure | None:
        """Account one completion report.

        Returns the record when it settles the run, a :class:`RunFailure`
        when the outstanding execution failed, and ``None`` when the report
        changes nothing.  A *stale* report — from an execution already
        charged as failed (deadline kill, presumed-lost dispatch) — settles
        the run when it is good (a good result is a result) and cancels the
        scheduled retry; a stale failure adds nothing.
        """
        if index in self.settled:
            return None
        if index in self.outstanding:
            if not record.ok:
                return self.fail(index, record.error or "run failed", record)
            del self.outstanding[index]
        elif not (record.ok and self.cancel_scheduled(index)):
            return None
        self.settled.add(index)
        return record

    def cancel_scheduled(self, index: int) -> bool:
        """Drop any pending/delayed (re-)dispatch of ``index``; True if any."""
        before = len(self.pending) + len(self.delayed)
        self.pending = deque(entry for entry in self.pending if entry[0] != index)
        self.delayed = [entry for entry in self.delayed if entry[1] != index]
        return len(self.pending) + len(self.delayed) < before

    def supervise(self, flights: dict) -> list[RunFailure]:
        """Enforce deadlines and fail dispatches that never started.

        ``flights`` maps each backend to its :meth:`RunBackend.in_flight`.
        A run executing longer than ``policy.deadline_s`` is killed through
        its backend and charged.  A dispatched run that is not executing
        waits legitimately while its backend runs other work; after
        ``lost_task_grace_s`` with the backend executing nothing (a worker
        died before announcing it, every worker is dead, no node leased it)
        it is withdrawn and charged.
        """
        now = monotonic()
        deadline = self.policy.deadline_s
        failures = []
        for index, (spec, since, backend) in list(self.outstanding.items()):
            flight = flights.get(backend, {})
            token = (self.tag, index)
            started = flight.get(token)
            if started is not None:
                if deadline is not None and now - started[1] > deadline:
                    if backend.kill_for(token):
                        failures.append(self.fail(
                            index, f"deadline exceeded ({deadline:.1f}s wall clock)"
                        ))
            elif flight:
                self.outstanding[index] = (spec, now, backend)
            elif now - since > self.lost_task_grace_s:
                backend.withdraw(token)
                failures.append(self.fail(
                    index,
                    f"dispatched but never started within {self.lost_task_grace_s:.0f}s",
                ))
        return failures

    def final_record(
        self, index: int, outcome: RunRecord | RunFailure | None, kind: str
    ) -> RunRecord | None:
        """The record a batch executor yields for ``outcome`` (None: unsettled).

        It carries ``attempts`` in provenance when the run took more than
        one.  A quarantined run comes back as its own last error record, or
        as a synthetic :func:`failure_record` when its last attempt died.
        """
        if isinstance(outcome, RunFailure):
            if not outcome.quarantined:
                return None
            if outcome.record is None:
                error = f"quarantined after {outcome.attempts} attempt(s): {outcome.error}"
                return failure_record(outcome.spec, error, kind, outcome.attempts)
            outcome = outcome.record
        attempts = self.attempts.get(index, 1)
        if outcome is None or attempts == 1:
            return outcome
        return outcome.with_provenance(attempts=attempts)


class SerialExecutor(RunExecutor):
    """Runs specs one after another in the current process.

    Records come back in spec order, except that a retried run completes
    after its backoff (the runs behind it go ahead while it waits).
    """

    kind = "serial"

    def __init__(self, retry: RetryPolicy | None = None):
        self.retry = retry if retry is not None else RetryPolicy()

    def run_specs(self, specs: Sequence[RunSpec]) -> Iterator[tuple[int, RunRecord]]:
        ledger = RunLedger(enumerate(specs), self.retry)
        finished: list[tuple[int, RunRecord]] = []

        def run_inline(token: tuple, spec: RunSpec) -> "SerialExecutor":
            finished.append((token[1], execute_run(spec, executor_kind=self.kind)))
            return self

        while ledger.active:
            if not ledger.dispatch(run_inline):
                time.sleep(ledger.next_due_s())  # only backoffs are left
                continue
            index, record = finished.pop()
            final = ledger.final_record(index, ledger.report(index, record), self.kind)
            if final is not None:
                yield index, final


class BackendExecutor(RunExecutor):
    """Runs spec lists on one :class:`RunBackend`, each under a :class:`RunLedger`.

    Built from a worker count (``make_executor(N)``) it owns a
    :class:`~repro.engine.pool.WorkerPool`: the pool starts on the first
    non-empty batch, keeps its workers (and their per-process memo of
    trained workloads) across batches, and stops in :meth:`close`.  Built
    from a caller's backend it leaves that backend's lifecycle to the caller.
    A batch on an :meth:`~RunBackend.exhausted` backend quarantines its
    unsettled runs; an exhausted owned pool is replaced at the next batch.
    """

    #: Longest wait for a completion before deadlines and deaths are checked.
    _TICK_S = 0.1

    def __init__(self, backend: RunBackend | int, retry: RetryPolicy | None = None):
        from repro.engine.pool import WorkerPool

        #: Size of the pool this executor owns; None when driving a caller's backend.
        self.workers = (
            None if isinstance(backend, RunBackend) else check_positive_int(backend, "workers")
        )
        self.backend: RunBackend | None = None if self.workers else backend
        self.kind = WorkerPool.kind if self.workers else backend.kind
        self.retry = retry if retry is not None else RetryPolicy()

    def _accept(self, token: tuple, spec: RunSpec) -> RunBackend | None:
        return self.backend if self.backend.try_submit(token, spec) else None

    def run_specs(self, specs: Sequence[RunSpec]) -> Iterator[tuple[int, RunRecord]]:
        """Yield ``(index, record)`` as runs settle on the backend."""
        if not specs:
            return
        if self.workers and (self.backend is None or self.backend.exhausted()):
            from repro.engine.pool import WorkerPool

            self.close()
            self.backend = WorkerPool(self.workers)
            # The pool never outlives its executor, even one never closed.
            self._release = weakref.finalize(self, self.backend.close)
        backend = self.backend
        backend.start()
        ledger = RunLedger(enumerate(specs), self.retry, tag=next(_BATCH_TAGS))
        while ledger.active:
            while ledger.dispatch(self._accept):
                pass
            # next_due_s() is 0 with no retry waiting or one awaiting capacity.
            tick = min(self._TICK_S, ledger.next_due_s() or self._TICK_S)
            outcomes = []
            for (tag, index), record in backend.completions(timeout=tick):
                if tag == ledger.tag:
                    outcomes.append((index, ledger.report(index, record)))
                    break  # refill the backend before waiting again
            failures = ledger.supervise({backend: backend.in_flight()})
            failures += [
                ledger.fail(index, "worker died mid-run")
                for tag, index in backend.reap()
                if tag == ledger.tag
            ]
            if backend.exhausted():
                failures += ledger.abandon("no workers left to run it")
            outcomes += [(failure.index, failure) for failure in failures if failure]
            for index, outcome in outcomes:
                final = ledger.final_record(index, outcome, self.kind)
                if final is not None:
                    yield index, final

    def close(self) -> None:
        """Stop the owned worker pool (a caller's backend keeps running)."""
        if self.workers and self.backend is not None:
            self._release()
            self.backend = None


#: Ledger tags for :class:`BackendExecutor` batches, unique per process.
_BATCH_TAGS = itertools.count()


def make_executor(
    workers: int | str | RunExecutor | RunBackend | None,
    retry: RetryPolicy | None = None,
) -> RunExecutor:
    """Build an executor from a worker-count knob.

    ``None``, ``0``, ``1`` or ``"serial"`` select the serial executor; a
    larger integer a :class:`BackendExecutor` over a worker pool of that
    size.  A :class:`RunBackend` (e.g. a caller-owned
    :class:`~repro.engine.pool.WorkerPool`) is wrapped in a
    :class:`BackendExecutor` under ``retry``.  A :class:`RunExecutor`
    passes through unchanged (``retry`` is ignored: it owns its policy).
    """
    if isinstance(workers, RunExecutor):
        return workers
    if isinstance(workers, RunBackend):
        return BackendExecutor(workers, retry=retry)
    if workers == "serial":
        return SerialExecutor(retry=retry)
    if isinstance(workers, str):
        workers = int(workers)
    if workers in (None, 0, 1):
        return SerialExecutor(retry=retry)
    return BackendExecutor(workers, retry=retry)


def run_all(
    executor: RunExecutor,
    specs: Iterable[RunSpec],
) -> list[RunRecord]:
    """Convenience: execute ``specs`` and return records in spec order."""
    specs = list(specs)
    records: list[RunRecord | None] = [None] * len(specs)
    for index, record in executor.run_specs(specs):
        records[index] = record
    return [record for record in records if record is not None]
