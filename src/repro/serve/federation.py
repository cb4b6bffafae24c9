"""Multi-node worker federation: lease-based remote execution backends.

A service with only a local :class:`WorkerPool` runs every point on one
host — one crashed or partitioned machine takes the whole campaign capacity
with it.  This module federates workers across nodes while keeping the
scheduler's failure policy (attempt budgets, backoff, quarantine) exactly as
strong:

* :class:`FederationBackend` — the coordinator side.  A
  :class:`~repro.engine.executor.RunBackend` whose capacity is the registered
  remote nodes: the scheduler submits runs into a *claimable pool*; node
  agents pull them as **time-bounded leases** (``POST /leases``), renew them
  by heartbeat while executing, and upload results with the lease's secret
  token.  The backend is the single source of truth for lease state:

  - an **expired** lease (missed renewals — node crashed, hung, or
    partitioned) is reclaimed and surfaced through :meth:`reap`, so the
    scheduler charges the run one attempt and re-dispatches it, exactly as
    for a dead local worker (*at-least-once* dispatch);
  - an upload whose lease token no longer matches is **fenced** with
    :class:`FencedLeaseError` — a stale node returning after a partition
    cannot clobber a newer result or double-charge a run's attempt budget.
    Together with the content-addressed result cache (a re-dispatched run
    recomputes the byte-identical record into the same cache slot),
    completion is *effectively exactly-once*;
  - a node that misses ``node_timeout_s`` of heartbeats is declared **dead**:
    all its leases requeue at once and ``/healthz`` reports the node dead
    until it re-registers (a healed partition re-registers under a bumped
    generation — its old lease tokens stay fenced);
  - a node that repeatedly poisons runs (failed uploads + expired leases) is
    **quarantined**: it gets no new leases, and the cluster reports itself
    ``degraded`` so operators see the capacity loss.

* :class:`NodeAgent` — the remote side (``repro node --coordinator URL``).
  Registers with the coordinator, drives a local :class:`WorkerPool`, claims
  leases to fill it, heartbeats, renews held leases, and uploads finished
  records (retrying transient failures; dropping fenced ones).  Graceful
  drain — requested locally (SIGTERM) or remotely (``POST /nodes/<id>/drain``,
  relayed through the heartbeat response) — finishes the leased runs, uploads
  them, deregisters and exits.  The ``node.heartbeat`` / ``node.lease_renew``
  / ``node.upload`` fault points fire on the network-send side, so chaos
  plans make partitions, lost renewals and torn uploads deterministically
  injectable per node.
"""

from __future__ import annotations

import json
import os
import queue as queue_module
import socket
import threading
import urllib.error
import urllib.request
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime, timezone
from time import monotonic
from typing import Hashable, Iterator

from repro.engine.cache import ResultCache
from repro.engine.executor import RunBackend, failure_record
from repro.engine.pool import WorkerPool
from repro.engine.records import RunRecord
from repro.engine.spec import RunSpec
from repro.faults import InjectedFault, fault_point
from repro.utils.validation import check_positive_int
from repro.version import __version__

__all__ = [
    "FederationBackend",
    "FencedLeaseError",
    "Lease",
    "NodeAgent",
    "NodeGoneError",
    "NodeRecord",
    "UnknownNodeError",
]


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class UnknownNodeError(KeyError):
    """The node id was never registered with this coordinator."""


class NodeGoneError(RuntimeError):
    """The node is registered but declared dead — it must re-register.

    The HTTP layer maps this to **410 Gone**; an agent receiving it after a
    healed partition re-registers (bumping its generation) before claiming
    new work.  Its previous leases were already requeued when it was declared
    dead, and their tokens stay fenced forever.
    """


class FencedLeaseError(RuntimeError):
    """The lease token no longer grants write access to this run.

    Raised on renew/upload when the lease expired and was reclaimed, was
    revoked by a deadline kill, or belongs to a previous node generation.
    The HTTP layer maps this to **409 Conflict**; the agent drops the work —
    the coordinator already owns the run's retry.
    """


@dataclass
class Lease:
    """One claimed run: who executes it, under which secret, until when."""

    lease_id: str
    token: str  #: fencing secret; uploads/renewals must echo it exactly
    node_id: str
    run_token: Hashable  #: the scheduler's (job_id, index) dispatch token
    spec: dict  #: RunSpec.canonical() payload shipped to the node
    label: str
    granted_at: float  #: monotonic
    deadline: float  #: monotonic; renewals push it forward
    renewals: int = 0


@dataclass
class NodeRecord:
    """Coordinator-side view of one registered node agent."""

    node_id: str
    workers: int
    host: str = ""
    pid: int | None = None
    registered_at: str = field(default_factory=_utc_now)
    generation: int = 1
    last_seen: float = field(default_factory=monotonic)
    state: str = "alive"  #: alive | dead | left
    draining: bool = False
    quarantined: bool = False
    leases: set = field(default_factory=set)  #: lease ids currently held
    completed: int = 0
    failed: int = 0  #: uploads whose record was not ok (poison evidence)
    expired_leases: int = 0  #: leases lost to missed renewals / death

    @property
    def eligible(self) -> bool:
        """May this node claim new leases right now?"""
        return (
            self.state == "alive" and not self.draining and not self.quarantined
        )

    def status(self) -> str:
        if self.state != "alive":
            return self.state
        if self.quarantined:
            return "quarantined"
        if self.draining:
            return "draining"
        return "alive"

    def summary(self, now: float | None = None) -> dict:
        now = monotonic() if now is None else now
        return {
            "node_id": self.node_id,
            "state": self.status(),
            "draining": self.draining,
            "quarantined": self.quarantined,
            "workers": self.workers,
            "leases": len(self.leases),
            "completed": self.completed,
            "failed": self.failed,
            "expired_leases": self.expired_leases,
            "generation": self.generation,
            "host": self.host,
            "pid": self.pid,
            "registered_at": self.registered_at,
            "last_heartbeat_age_s": round(now - self.last_seen, 3),
        }


class FederationBackend(RunBackend):
    """Remote nodes behind the :class:`~repro.engine.executor.RunBackend` API.

    The scheduler drives this exactly like the local pool: ``try_submit``
    succeeds while registered, eligible nodes have spare worker slots;
    ``completions`` yields what nodes upload; ``in_flight``/``kill_for``/
    ``reap`` give the failure policy the same levers it has over local
    workers (a *kill* here revokes the lease — the node's eventual upload is
    fenced instead of SIGKILLed, with the same effect on accounting).

    All entry points are thread-safe: HTTP handler threads (register/claim/
    renew/upload) interleave with the scheduler thread (submit/reap/drain).
    """

    kind = "federation"
    backend_name = "federation"

    def __init__(
        self,
        cache_dir: str | None = None,
        version: str = __version__,
        lease_ttl_s: float = 15.0,
        heartbeat_s: float = 2.0,
        node_timeout_s: float | None = None,
        quarantine_after: int = 5,
    ):
        if lease_ttl_s <= 0 or heartbeat_s <= 0:
            raise ValueError("lease_ttl_s and heartbeat_s must be positive")
        self.version = version
        self.cache = ResultCache(cache_dir, version=version) if cache_dir else None
        self.lease_ttl_s = float(lease_ttl_s)
        self.heartbeat_s = float(heartbeat_s)
        #: A node whose last message is older than this is declared dead and
        #: its leases requeue.  Default: five missed heartbeats.
        self.node_timeout_s = (
            float(node_timeout_s) if node_timeout_s is not None else 5.0 * heartbeat_s
        )
        self.quarantine_after = check_positive_int(quarantine_after, "quarantine_after")
        self._lock = threading.RLock()
        self._nodes: dict[str, NodeRecord] = {}
        #: Runs submitted by the scheduler, waiting for a node to claim them.
        self._claimable: deque = deque()  # (run_token, spec_dict, label)
        self._leases: dict[str, Lease] = {}
        self._by_token: dict[Hashable, str] = {}  # run_token -> lease_id
        self._completions: queue_module.Queue = queue_module.Queue()
        self._lost: list = []  #: run tokens reclaimed since the last reap()

    # ------------------------------------------------------- node lifecycle
    def register_node(
        self,
        node_id: str = "",
        workers: int = 1,
        host: str = "",
        pid: int | None = None,
    ) -> dict:
        """Register (or revive) a node; returns the lease/heartbeat config.

        Re-registration under a known id bumps the node's *generation* and
        revives it — the path a partitioned node takes after its heartbeats
        start landing again and it learns it was declared dead.  Its old
        leases were requeued at death and stay fenced; drain and quarantine
        flags survive revival (a poisoned node cannot launder its record by
        reconnecting).
        """
        workers = check_positive_int(workers, "workers")
        with self._lock:
            node_id = str(node_id) or f"node-{os.urandom(4).hex()}"
            node = self._nodes.get(node_id)
            if node is None:
                node = NodeRecord(node_id=node_id, workers=workers, host=host, pid=pid)
                self._nodes[node_id] = node
            else:
                node.generation += 1
                node.workers = workers
                node.host = host or node.host
                node.pid = pid if pid is not None else node.pid
                node.state = "alive"
                node.registered_at = _utc_now()
                self._expire_node_leases(node)  # stale generation: fence all
            node.last_seen = monotonic()
            return {
                "node_id": node.node_id,
                "generation": node.generation,
                "heartbeat_s": self.heartbeat_s,
                "lease_ttl_s": self.lease_ttl_s,
                "node_timeout_s": self.node_timeout_s,
                "version": self.version,
            }

    def _get_node(self, node_id: str) -> NodeRecord:
        """Caller holds the lock; raises the typed unknown/dead errors."""
        node = self._nodes.get(node_id)
        if node is None:
            raise UnknownNodeError(f"unknown node {node_id!r}")
        if node.state != "alive":
            raise NodeGoneError(
                f"node {node_id!r} was declared {node.state}; re-register"
            )
        return node

    def heartbeat(self, node_id: str) -> dict:
        """Record liveness; relay drain/quarantine instructions back."""
        with self._lock:
            node = self._get_node(node_id)
            node.last_seen = monotonic()
            return {
                "node_id": node.node_id,
                "drain": node.draining,
                "quarantined": node.quarantined,
                "heartbeat_s": self.heartbeat_s,
            }

    def drain(self, node_id: str) -> dict:
        """Mark a node draining: it finishes leased runs, claims nothing new."""
        with self._lock:
            node = self._nodes.get(node_id)
            if node is None:
                raise UnknownNodeError(f"unknown node {node_id!r}")
            node.draining = True
            return node.summary()

    def deregister_node(self, node_id: str) -> dict:
        """Graceful departure; any leases still held requeue immediately."""
        with self._lock:
            node = self._nodes.get(node_id)
            if node is None:
                raise UnknownNodeError(f"unknown node {node_id!r}")
            if node.state == "alive":
                node.state = "left"
            self._expire_node_leases(node)
            return node.summary()

    # --------------------------------------------------------------- leases
    def claim(self, node_id: str, max_runs: int = 1) -> list[dict]:
        """Lease up to ``max_runs`` claimable runs to ``node_id``.

        Draining and quarantined nodes get an empty list (they stay
        registered and may finish what they hold); dead nodes get
        :class:`NodeGoneError` and must re-register first.
        """
        with self._lock:
            node = self._get_node(node_id)
            node.last_seen = monotonic()
            if not node.eligible:
                return []
            budget = max(0, min(int(max_runs), node.workers - len(node.leases)))
            granted: list[dict] = []
            now = monotonic()
            while budget > 0 and self._claimable:
                run_token, spec_dict, label = self._claimable.popleft()
                lease = Lease(
                    lease_id=os.urandom(8).hex(),
                    token=os.urandom(16).hex(),
                    node_id=node_id,
                    run_token=run_token,
                    spec=spec_dict,
                    label=label,
                    granted_at=now,
                    deadline=now + self.lease_ttl_s,
                )
                self._leases[lease.lease_id] = lease
                self._by_token[run_token] = lease.lease_id
                node.leases.add(lease.lease_id)
                granted.append(
                    {
                        "lease_id": lease.lease_id,
                        "token": lease.token,
                        "spec": dict(spec_dict),
                        "label": label,
                        "ttl_s": self.lease_ttl_s,
                    }
                )
                budget -= 1
            return granted

    def _checked_lease(self, lease_id: str, node_id: str, token: str) -> Lease:
        """Caller holds the lock; fence anything that does not match exactly."""
        lease = self._leases.get(lease_id)
        if lease is None or lease.node_id != node_id or lease.token != token:
            raise FencedLeaseError(
                f"lease {lease_id!r} is not held by {node_id!r} (expired, "
                "revoked, or reassigned); drop the work — the coordinator "
                "owns the retry"
            )
        return lease

    def renew(self, lease_id: str, node_id: str, token: str) -> dict:
        """Push the lease deadline out one TTL; fenced if no longer held."""
        with self._lock:
            lease = self._checked_lease(lease_id, node_id, token)
            lease.deadline = monotonic() + self.lease_ttl_s
            lease.renewals += 1
            node = self._nodes.get(node_id)
            if node is not None:
                node.last_seen = monotonic()
            return {"lease_id": lease_id, "ttl_s": self.lease_ttl_s}

    def upload(self, lease_id: str, node_id: str, token: str, record_dict: dict) -> RunRecord:
        """Accept one finished record under a still-valid lease.

        The record is written through the coordinator's result cache (with
        read-back verification) *before* the completion is reported to the
        scheduler — the same durability order local workers follow.  A fenced
        upload raises without touching the cache or the accounting: the
        re-dispatched attempt owns the run now, and determinism guarantees it
        produces the byte-identical record into the same content-addressed
        slot.
        """
        record = RunRecord.from_dict(record_dict)
        with self._lock:
            lease = self._checked_lease(lease_id, node_id, token)
            self._release(lease)
            node = self._nodes.get(node_id)
            if node is not None:
                node.last_seen = monotonic()
                node.completed += 1
                if not record.ok:
                    node.failed += 1
                    self._maybe_quarantine(node)
        if self.cache is not None and record.ok:
            try:
                self.cache.put(record, verify=True)
            except OSError as exc:
                record = record.with_provenance(cache_error=str(exc))
        self._completions.put((lease.run_token, record))
        return record

    def _release(self, lease: Lease) -> None:
        """Caller holds the lock; forget one lease without losing its run."""
        self._leases.pop(lease.lease_id, None)
        if self._by_token.get(lease.run_token) == lease.lease_id:
            del self._by_token[lease.run_token]
        node = self._nodes.get(lease.node_id)
        if node is not None:
            node.leases.discard(lease.lease_id)

    def _expire_node_leases(self, node: NodeRecord) -> None:
        """Caller holds the lock; requeue every lease a node holds."""
        for lease_id in list(node.leases):
            lease = self._leases.get(lease_id)
            if lease is None:
                node.leases.discard(lease_id)
                continue
            self._release(lease)
            self._lost.append(lease.run_token)
            node.expired_leases += 1
        self._maybe_quarantine(node)

    def _maybe_quarantine(self, node: NodeRecord) -> None:
        """Caller holds the lock; quarantine a node past its poison budget."""
        if node.quarantined:
            return
        if node.failed + node.expired_leases >= self.quarantine_after:
            node.quarantined = True

    # --------------------------------------------------- RunBackend surface
    def capacity(self) -> int:
        """Unclaimed worker slots across eligible nodes (may be negative)."""
        with self._lock:
            slots = sum(
                node.workers - len(node.leases)
                for node in self._nodes.values()
                if node.eligible
            )
            return slots - len(self._claimable)

    def try_submit(self, token: Hashable, spec: RunSpec) -> bool:
        """Queue a run for claiming iff eligible nodes have spare slots."""
        with self._lock:
            if self.capacity() <= 0:
                return False
            self._claimable.append((token, spec.canonical(), spec.label()))
            return True

    def withdraw(self, token: Hashable) -> bool:
        """Recall a run no node has claimed yet (lost-task grace requeue)."""
        with self._lock:
            for entry in self._claimable:
                if entry[0] == token:
                    self._claimable.remove(entry)
                    return True
            return False

    def in_flight(self) -> dict:
        """``run_token -> (node id, lease granted monotonic)`` of leased runs."""
        with self._lock:
            return {
                lease.run_token: (lease.node_id, lease.granted_at)
                for lease in self._leases.values()
            }

    def kill_for(self, token: Hashable) -> bool:
        """Revoke the lease executing ``token`` (deadline enforcement).

        The node keeps crunching until it notices (its next renew or upload
        is fenced) — the remote analogue of SIGKILLing a local worker, with
        identical accounting: the caller owns the retry, and this execution
        can never report.
        """
        with self._lock:
            lease_id = self._by_token.get(token)
            if lease_id is None:
                return False
            lease = self._leases[lease_id]
            self._release(lease)
            return True

    def reap(self) -> list:
        """Expire overdue leases and declare silent nodes dead.

        Returns the run tokens reclaimed since the last call — the scheduler
        charges each one attempt and re-dispatches, exactly as for tasks lost
        to a dead local worker.
        """
        now = monotonic()
        with self._lock:
            for lease in list(self._leases.values()):
                if lease.deadline < now:
                    self._release(lease)
                    self._lost.append(lease.run_token)
                    node = self._nodes.get(lease.node_id)
                    if node is not None:
                        node.expired_leases += 1
                        self._maybe_quarantine(node)
            for node in self._nodes.values():
                if node.state == "alive" and now - node.last_seen > self.node_timeout_s:
                    node.state = "dead"
                    self._expire_node_leases(node)
            lost, self._lost = self._lost, []
            return lost

    def completions(self, timeout: float | None = None) -> Iterator[tuple[Hashable, RunRecord]]:
        """Yield uploads as they arrive (same contract as the worker pool)."""
        while True:
            try:
                token, record = self._completions.get(timeout=timeout)
            except queue_module.Empty:
                return
            yield token, record

    def nodes(self) -> list[dict]:
        with self._lock:
            now = monotonic()
            return [
                node.summary(now)
                for node in sorted(self._nodes.values(), key=lambda n: n.node_id)
            ]

    def health(self) -> dict:
        """Cluster liveness for ``/healthz`` and ``repro jobs``.

        ``degraded`` is true while any registered node is dead or
        quarantined — capacity the operator thinks exists but does not.
        Nodes that *left* gracefully do not degrade the cluster.
        """
        with self._lock:
            nodes = self.nodes()
            by_state: dict[str, int] = {}
            for node in nodes:
                by_state[node["state"]] = by_state.get(node["state"], 0) + 1
            return {
                "backend": self.backend_name,
                "nodes": nodes,
                "node_states": by_state,
                "claimable": len(self._claimable),
                "leases": len(self._leases),
                "degraded": any(
                    node["state"] in ("dead", "quarantined") for node in nodes
                ),
                "lease_ttl_s": self.lease_ttl_s,
                "heartbeat_s": self.heartbeat_s,
                "node_timeout_s": self.node_timeout_s,
                "quarantine_after": self.quarantine_after,
            }


class NodeAgent:
    """The remote half of the federation: ``repro node`` in library form.

    Single-threaded control loop around a local :class:`WorkerPool`:
    register, then each tick — heartbeat, renew held leases, claim new ones up
    to the local worker count, drain pool completions into the upload queue,
    and flush uploads.  Transient coordinator failures (connection errors,
    injected partition faults) never crash the agent: heartbeats are simply
    lost (the coordinator's timeout decides what that means), uploads stay
    queued and retry, and a ``410 Gone`` answer triggers re-registration.

    The agent's own durability story mirrors the coordinator's: a local
    worker that dies mid-run is reaped and its lease reported back as a
    *failed* record (the scheduler charges the attempt and re-dispatches);
    an agent killed outright simply stops renewing, and its leases expire.
    """

    def __init__(
        self,
        coordinator: str,
        workers: int = 2,
        node_id: str = "",
        cache_dir: str | None = None,
        poll_s: float = 0.1,
        client=None,
    ):
        from repro.serve.client import ServeClient  # avoid an import cycle

        self.coordinator = coordinator.rstrip("/")
        self.workers = check_positive_int(workers, "workers")
        self.node_id = node_id or f"{socket.gethostname()}-{os.getpid()}"
        self.poll_s = poll_s
        # retries=0: the agent owns its retry cadence, and partition faults
        # must surface immediately instead of being absorbed by the client.
        self.client = client if client is not None else ServeClient(
            self.coordinator, timeout=10.0, retries=0
        )
        self.pool = WorkerPool(workers=self.workers, cache_dir=cache_dir)
        self.draining = False
        self.heartbeat_s = 2.0
        self.lease_ttl_s = 15.0
        self.generation = 0
        #: lease_id -> {"token", "spec", "label", "deadline"(monotonic)}
        self._held: dict[str, dict] = {}
        #: (lease_id, token, label, record) awaiting a successful upload
        self._uploads: deque = deque()
        self._stop = threading.Event()
        self.stats = {
            "executed": 0,
            "uploaded": 0,
            "fenced": 0,
            "lost_heartbeats": 0,
            "reregistrations": 0,
        }

    # ------------------------------------------------------------- control
    def request_drain(self) -> None:
        """Finish held leases, upload them, deregister, exit the run loop."""
        self.draining = True

    def stop(self) -> None:
        """Hard stop: exit the loop at the next tick without draining."""
        self._stop.set()

    # ------------------------------------------------------------ lifecycle
    def run(self) -> int:
        """Drive the agent until drained or stopped; returns held-lease count
        abandoned (0 on a clean drain)."""
        if not self._register(block=True):
            return 0  # stopped before the coordinator ever answered
        self.pool.start()
        next_heartbeat = 0.0
        try:
            while not self._stop.is_set():
                now = monotonic()
                if now >= next_heartbeat:
                    self._heartbeat()
                    next_heartbeat = now + self.heartbeat_s
                self._renew_leases(now)
                if not self.draining:
                    self._claim()
                self._drain_pool()
                self._flush_uploads()
                if self.draining and not self._held and not self._uploads:
                    break
            if not self._stop.is_set():
                # Clean drain: say goodbye.  A hard stop() deliberately does
                # not deregister — it models a crash, and the coordinator's
                # lease/heartbeat timeouts own the cleanup.
                self._deregister()
            return len(self._held)
        finally:
            self.pool.stop(graceful=True)

    def _register(self, block: bool = False) -> bool:
        from repro.serve.client import ServeError

        while not self._stop.is_set():
            try:
                config = self.client.register_node(
                    self.node_id,
                    workers=self.workers,
                    host=socket.gethostname(),
                    pid=os.getpid(),
                )
            except ServeError:
                if not block:
                    return False
                self._stop.wait(self.poll_s * 5)
                continue
            self.heartbeat_s = float(config.get("heartbeat_s", self.heartbeat_s))
            self.lease_ttl_s = float(config.get("lease_ttl_s", self.lease_ttl_s))
            if self.generation:
                self.stats["reregistrations"] += 1
            self.generation = int(config.get("generation", self.generation + 1))
            # Leases from a previous generation are fenced server-side; any
            # still tracked locally are dead weight — drop them.
            if self.stats["reregistrations"]:
                self._held.clear()
            return True
        return False

    def _deregister(self) -> None:
        from repro.serve.client import ServeError

        try:
            self.client.deregister_node(self.node_id)
        except (ServeError, InjectedFault):
            pass  # best-effort; the coordinator's timeout cleans up

    # ------------------------------------------------------------ the loop
    def _heartbeat(self) -> None:
        from repro.serve.client import ServeError

        try:
            fault_point("node.heartbeat", key=self.node_id)
            answer = self.client.node_heartbeat(self.node_id)
        except InjectedFault:
            self.stats["lost_heartbeats"] += 1  # partition: send was lost
            return
        except ServeError as exc:
            if exc.status in (404, 410):  # declared dead while partitioned
                self._register(block=False)
            else:
                self.stats["lost_heartbeats"] += 1
            return
        if answer.get("drain"):
            self.draining = True

    def _claim(self) -> None:
        from repro.serve.client import ServeError

        free = self.workers - len(self._held)
        if free <= 0:
            return
        try:
            leases = self.client.claim_leases(self.node_id, max_runs=free)
        except ServeError as exc:
            if exc.status in (404, 410):
                self._register(block=False)
            return
        except InjectedFault:
            return
        now = monotonic()
        for lease in leases:
            spec = RunSpec.from_canonical(lease["spec"])
            self._held[lease["lease_id"]] = {
                "token": lease["token"],
                "spec": spec.canonical(),
                "label": lease.get("label", spec.label()),
                "deadline": now + float(lease.get("ttl_s", self.lease_ttl_s)),
            }
            self.pool.submit(lease["lease_id"], spec)

    def _renew_leases(self, now: float) -> None:
        from repro.serve.client import ServeError

        for lease_id, held in list(self._held.items()):
            if held["deadline"] - now > self.lease_ttl_s / 2.0:
                continue
            try:
                fault_point("node.lease_renew", key=held["label"])
                self.client.renew_lease(lease_id, self.node_id, held["token"])
            except InjectedFault:
                continue  # renewal lost in the network; retried next tick
            except ServeError as exc:
                if exc.status == 409:
                    # Fenced: the coordinator reclaimed this run.  Stop
                    # wasting a local worker on it — the upload would be
                    # fenced anyway — and let reap() respawn the slot.
                    self._held.pop(lease_id, None)
                    self.pool.kill_for(lease_id)
                    self.stats["fenced"] += 1
                continue
            held["deadline"] = now + self.lease_ttl_s

    def _drain_pool(self) -> None:
        for lease_id, record in self.pool.completions(timeout=self.poll_s):
            held = self._held.pop(lease_id, None)
            if held is None:
                continue  # fenced while executing; drop the orphan record
            self.stats["executed"] += 1
            self._uploads.append((lease_id, held["token"], held["label"], record))
        for lease_id in self.pool.reap():
            held = self._held.pop(lease_id, None)
            if held is None:
                continue
            spec = RunSpec.from_canonical(held["spec"])
            record = failure_record(
                spec, "node worker died mid-run", executor_kind="node-worker"
            )
            self._uploads.append((lease_id, held["token"], held["label"], record))

    def _flush_uploads(self) -> None:
        from repro.serve.client import ServeError

        for _ in range(len(self._uploads)):
            lease_id, token, label, record = self._uploads.popleft()
            try:
                effect = fault_point("node.upload", key=label)
            except InjectedFault:
                self._uploads.append((lease_id, token, label, record))
                continue  # upload lost in the network; retried next tick
            if effect == "corrupt_write":
                # A torn upload: the request body is cut mid-transfer.  The
                # coordinator rejects the unparseable document (400) and the
                # agent retries the full upload on a later tick.
                self._post_torn(
                    f"/leases/{lease_id}/result",
                    {"node_id": self.node_id, "token": token,
                     "record": record.to_dict()},
                )
                self._uploads.append((lease_id, token, label, record))
                continue
            try:
                self.client.upload_result(
                    lease_id, self.node_id, token, record.to_dict()
                )
            except ServeError as exc:
                if exc.status == 409:
                    self.stats["fenced"] += 1  # reclaimed; coordinator retries
                elif exc.status == 400:
                    pass  # permanently malformed: dropping beats looping
                else:
                    self._uploads.append((lease_id, token, label, record))
                continue
            self.stats["uploaded"] += 1

    def _post_torn(self, path: str, payload: dict) -> None:
        """Send a deliberately truncated request body (chaos: torn upload)."""
        body = json.dumps(payload).encode()
        request = urllib.request.Request(
            f"{self.coordinator}{path}",
            data=body[: max(1, len(body) // 3)],
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=10.0):
                pass
        except (urllib.error.URLError, OSError):
            pass  # 400 (or a dead coordinator) — either way, retry later
