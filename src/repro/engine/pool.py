"""The worker-process pool behind every parallel execution path.

:class:`WorkerPool` is the library's one process pool: ``-j N`` sweeps and
searches (through :class:`~repro.engine.executor.BackendExecutor`), the
``repro serve`` scheduler and ``repro node`` agents all run on it.  N
long-lived workers pull ``(token, RunSpec)`` tasks from one shared queue, so
points of concurrently submitted sweeps interleave freely.

What the failure policy (:class:`~repro.engine.executor.RunLedger`) relies on:

* each worker reports over its own pipe with a synchronous
  :meth:`~multiprocessing.connection.Connection.send`, announcing every run
  *before* executing it.  A worker that dies mid-run has therefore always
  named the run it took down, and :meth:`WorkerPool.reap` reads whatever a
  dead worker wrote (its last completions included) before naming the lost
  token;
* with a ``cache_dir``, a worker writes its record through the result cache
  (verified by read-back) *before* reporting completion;
* workers ignore SIGINT and treat SIGTERM as "finish the current run, then
  exit", so a graceful shutdown never tears a cache write;
* dead workers are replaced up to a respawn budget; past it the pool serves
  on with fewer workers (``degraded``) and, with none left, is ``exhausted``.

Start method: a process with no other threads forks its workers (cheapest,
and the platform default on Linux); a threaded one — any respawn once the
task queue's feeder thread runs, or a pool started after a daemon's threads
— spawns them, because forking a threaded process is unreliable.  Forked
workers inherit every open descriptor, so a server forks them before it
binds its port.  Either way workers pick up ``REPRO_FAULTS``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_module
import signal
import threading
import time
from collections import deque
from multiprocessing.connection import Connection, wait
from time import monotonic
from typing import Hashable, Iterator

from repro.engine.cache import ResultCache
from repro.engine.executor import RunBackend, execute_run
from repro.engine.records import RunRecord
from repro.engine.spec import RunSpec
from repro.utils.validation import check_positive_int
from repro.version import __version__

__all__ = ["WorkerPool", "worker_main"]

_STOP = None  # queue sentinel asking a worker to exit

#: Seconds between idle-worker heartbeat messages.
_HEARTBEAT_S = 2.0


def worker_main(
    task_queue: mp.Queue,
    conn: Connection,
    cache_dir: str | None,
    version: str,
) -> None:
    """Worker-process loop: pull tasks, announce, run, cache, report.

    Module-level so the spawn context can import it by reference.  The task
    payload is ``(token, spec_canonical_dict)``; everything sent back on
    ``conn`` is a tagged tuple — ``("started", token, pid)`` before a run
    executes, ``("heartbeat", pid, ts)`` while idle, ``("done", token,
    record_dict)`` after the result is durably cached.
    """
    stop = {"flag": False}

    def _request_stop(signum, frame):  # noqa: ARG001 — signal signature
        stop["flag"] = True

    # The parent owns Ctrl-C; SIGTERM means "finish the current run and exit"
    # so a graceful shutdown never interrupts a cache write.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, _request_stop)

    def send(message: tuple) -> bool:
        try:
            conn.send(message)
        except (ValueError, OSError):  # the parent is gone
            return False
        return True

    pid = os.getpid()
    cache = ResultCache(cache_dir, version=version) if cache_dir else None
    last_beat = monotonic()
    while not stop["flag"]:
        try:
            task = task_queue.get(timeout=0.2)
        except queue_module.Empty:
            now = monotonic()
            if now - last_beat >= _HEARTBEAT_S:
                last_beat = now
                if not send(("heartbeat", pid, time.time())):
                    break
            continue
        if task is _STOP:
            break
        token, spec_dict = task
        spec = RunSpec.from_canonical(spec_dict)
        # Announce before executing: if this process dies mid-run the parent
        # knows exactly which token went down with it.
        if not send(("started", token, pid)):
            break
        record = execute_run(spec, version, executor_kind=WorkerPool.kind)
        if cache is not None and record.ok:
            # Durable (and verified readable) before the completion is
            # reported.  A cache that cannot be written costs future reuse,
            # not this run — the record still reaches the parent, stamped
            # with the failure.
            try:
                cache.put(record, verify=True)
            except OSError as exc:
                record = record.with_provenance(cache_error=str(exc))
        if not send(("done", token, record.to_dict())):
            break
        last_beat = monotonic()


class WorkerPool(RunBackend):
    """N worker processes behind one shared, bounded task queue.

    The queue holds at most ``queue_depth`` (default ``2 * workers``) tasks,
    so callers keep most pending work in their own queues — cancellation
    stays prompt and the serve scheduler can interleave sweeps fairly.
    ``started`` announcements tell which worker pid runs which token, which
    backs :meth:`in_flight` (deadlines), :meth:`kill_for` and :meth:`reap`.
    """

    kind = "worker-pool"
    backend_name = "local-pool"

    def __init__(
        self,
        workers: int = 2,
        cache_dir: str | None = None,
        version: str = __version__,
        queue_depth: int | None = None,
    ):
        self.workers = check_positive_int(workers, "workers")
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.version = version
        self.queue_depth = queue_depth if queue_depth is not None else 2 * self.workers
        # Spawn-context primitives work with forked and spawned workers alike.
        self.task_queue: mp.Queue = mp.get_context("spawn").Queue(maxsize=self.queue_depth)
        #: read end of each worker's message pipe -> the worker process
        self._workers: dict[Connection, mp.process.BaseProcess] = {}
        self._started = False
        self.respawns = 0
        #: Completions read from the pipes but not yet yielded.
        self._ready: deque[tuple[Hashable, RunRecord]] = deque()
        #: token -> (worker pid, monotonic() when its started message was read)
        self._in_flight: dict[Hashable, tuple[int, float]] = {}
        #: worker pid -> monotonic() of its last message of any kind
        self._last_seen: dict[int, float] = {}
        #: Backstop against a respawn loop when workers die instantly and
        #: deterministically (broken environment): past this many
        #: replacements the pool stays degraded instead of forking forever.
        self.max_respawns = 10 * self.workers

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for _ in range(self.workers):
            self._spawn()

    def _spawn(self) -> None:
        ctx = mp.get_context() if threading.active_count() == 1 else mp.get_context("spawn")
        reader, writer = mp.Pipe(duplex=False)
        proc = ctx.Process(
            target=worker_main,
            args=(self.task_queue, writer, self.cache_dir, self.version),
            daemon=True,
        )
        proc.start()
        writer.close()  # the worker holds the only write end: its death is EOF
        self._workers[reader] = proc
        self._last_seen[proc.pid] = monotonic()

    def alive(self) -> int:
        """Number of live worker processes."""
        # A snapshot: health queries run on other threads while reap() edits.
        return sum(1 for proc in list(self._workers.values()) if proc.is_alive())

    @property
    def degraded(self) -> bool:
        """True once the respawn budget is spent and capacity is reduced
        (``/healthz`` and ``repro jobs`` show it); a stopped pool is not."""
        return (
            self._started
            and self.respawns >= self.max_respawns
            and self.alive() < self.workers
        )

    def exhausted(self) -> bool:
        """Every worker is gone, none will replace it, nothing is left to yield."""
        return self._started and not self._workers and not self._ready

    def reap(self) -> list[Hashable]:
        """Replace dead workers; returns the tokens their deaths lost.

        A dead worker's pipe is read to the end first: completions it sent
        before dying stay available to :meth:`completions`, and its last
        ``started`` announcement names the run it took down.  Runs hosted by
        surviving workers are untouched.  Past ``max_respawns`` replacements
        the pool continues degraded.
        """
        lost: list[Hashable] = []
        for conn, proc in list(self._workers.items()):
            if proc.is_alive():
                continue
            while not conn.closed and conn.poll(0):
                self._receive(conn)
            conn.close()
            proc.join(timeout=0)
            del self._workers[conn]
            self._last_seen.pop(proc.pid, None)
            for token, (pid, _) in list(self._in_flight.items()):
                if pid == proc.pid:
                    del self._in_flight[token]
                    lost.append(token)
            if self.respawns < self.max_respawns:
                self._spawn()
                self.respawns += 1
        return lost

    # ------------------------------------------------------- run tracking
    def in_flight(self) -> dict[Hashable, tuple[int, float]]:
        """Snapshot of ``token -> (worker pid, started monotonic)``."""
        return dict(self._in_flight)

    def kill_for(self, token: Hashable) -> bool:
        """SIGKILL the worker hosting ``token`` (deadline enforcement).

        False when the token is not announced as running (it may have just
        completed).  The token leaves :meth:`in_flight` here, so the reap
        that replaces the killed worker does not report it again: the caller
        owns the run's retry.
        """
        self._read(timeout=0)  # catch up, so a just-finished run is not killed
        entry = self._in_flight.pop(token, None)
        if entry is None:
            return False
        try:
            os.kill(entry[0], signal.SIGKILL)
        except OSError:
            pass
        return True

    def health(self) -> dict:
        """Liveness summary for ``/healthz`` and ``repro jobs``."""
        now = monotonic()
        seen = list(self._last_seen.values())
        return {
            "backend": self.backend_name,
            "workers": self.workers,
            "alive": self.alive(),
            "respawns": self.respawns,
            "max_respawns": self.max_respawns,
            "degraded": self.degraded,
            "in_flight": len(self._in_flight),
            "last_heartbeat_age_s": round(now - max(seen), 3) if seen else None,
        }

    # ----------------------------------------------------------- streaming
    def submit(self, token: Hashable, spec: RunSpec) -> None:
        """Enqueue one run (blocks while the shared queue is full)."""
        self.task_queue.put((token, spec.canonical()))

    def try_submit(self, token: Hashable, spec: RunSpec) -> bool:
        """Non-blocking :meth:`submit`; False when the shared queue is full."""
        try:
            self.task_queue.put_nowait((token, spec.canonical()))
        except queue_module.Full:
            return False
        return True

    def completions(self, timeout: float | None = None) -> Iterator[tuple[Hashable, RunRecord]]:
        """Yield ``(token, record)`` pairs as workers report completions.

        ``started`` and ``heartbeat`` messages only update the in-flight map
        and liveness clocks.  Stops once no message arrives for ``timeout``
        seconds, or as soon as a worker's pipe closes (so the caller can
        :meth:`reap` the dead worker promptly).
        """
        more = True
        while True:
            while self._ready:
                yield self._ready.popleft()
            if not more:
                return
            more = self._read(timeout)

    def _read(self, timeout: float | None) -> bool:
        """Receive what arrives within ``timeout``; False when nothing did
        or a worker's pipe closed."""
        conns = [conn for conn in self._workers if not conn.closed]
        if not conns:
            time.sleep(timeout or 0)
            return False
        ready = wait(conns, timeout)
        pipe_closed = False
        for conn in ready:
            pipe_closed |= not self._receive(conn)
        return bool(ready) and not pipe_closed

    def _receive(self, conn: Connection) -> bool:
        """Handle one message; at the end of the pipe close it, return False."""
        try:
            message = conn.recv()
        except (EOFError, OSError):
            conn.close()
            return False
        now = monotonic()
        tag = message[0]
        if tag == "started":
            _, token, pid = message
            self._in_flight[token] = (pid, now)
            self._last_seen[pid] = now
        elif tag == "heartbeat":
            self._last_seen[message[1]] = now
        elif tag == "done":
            _, token, record_dict = message
            entry = self._in_flight.pop(token, None)
            if entry is not None:
                self._last_seen[entry[0]] = now
            self._ready.append((token, RunRecord.from_dict(record_dict)))
        # Unknown tags are ignored: forward compatibility over crashing the
        # caller on a version-skewed worker.
        return True

    # ------------------------------------------------------------- shutdown
    def stop(self, graceful: bool = True, timeout: float = 5.0) -> None:
        """Stop every worker; graceful lets the current runs finish.

        Graceful delivery lands one ``_STOP`` sentinel per worker even when
        the bounded task queue is full of stale work, by shedding stale
        tasks (the pool is shutting down).  Workers still running after
        ``timeout`` (every worker, when not graceful) are killed.
        """
        if not self._started:
            return
        if graceful:
            sentinels = len(self._workers)
            # Each iteration lands a sentinel, sheds one stale task, or waits
            # out the queue's feeder thread (an item just put counts against
            # maxsize before it is readable), so depth + workers (+ margin
            # for racing workers) bounds the loop.
            for _ in range(2 * (self.queue_depth + sentinels) + 8):
                if not sentinels:
                    break
                try:
                    self.task_queue.put_nowait(_STOP)
                    sentinels -= 1
                except queue_module.Full:
                    try:
                        self.task_queue.get_nowait()
                    except queue_module.Empty:
                        time.sleep(0.01)  # full by count, not yet readable
            for proc in self._workers.values():
                if proc.is_alive():
                    os.kill(proc.pid, signal.SIGTERM)
            deadline = monotonic() + timeout
            # A worker blocked on a send can exit; its pipe closes at exit.
            while any(not conn.closed for conn in self._workers) and monotonic() < deadline:
                self._read(timeout=0.05)
        for conn, proc in self._workers.items():
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=1.0)
            conn.close()
        self._workers.clear()
        self._ready.clear()
        self._in_flight.clear()
        self._last_seen.clear()
        self._started = False

    def close(self) -> None:
        """Stop the workers and release the task queue (and its thread)."""
        self.stop(graceful=True)
        self.task_queue.close()
        self.task_queue.join_thread()
