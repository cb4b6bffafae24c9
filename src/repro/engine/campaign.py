"""High-level campaign API: specs + executor + cache, with streamed progress.

A :class:`Campaign` takes a :class:`~repro.engine.spec.SweepSpec` (or an
explicit list of :class:`~repro.engine.spec.RunSpec` points), partitions the
points into cache hits and pending work, fans the pending work out through an
executor, persists fresh results, and returns a :class:`CampaignResult` whose
records are in spec order regardless of completion order.

Progress is streamed through an optional callback so CLIs and benchmarks can
report liveness without the engine knowing anything about terminals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Sequence

from repro.engine.cache import ResultCache
from repro.engine.executor import RetryPolicy, RunBackend, RunExecutor, make_executor
from repro.engine.records import RunRecord
from repro.engine.spec import RunSpec, SweepSpec

__all__ = ["Campaign", "CampaignResult", "ProgressEvent"]


@dataclass(frozen=True)
class ProgressEvent:
    """One completed point, as reported to the progress callback."""

    record: RunRecord
    done: int
    total: int

    @property
    def message(self) -> str:
        source = "cache" if self.record.cached else f"{self.record.duration_s:.2f}s"
        status = "" if self.record.ok else f"  ERROR {self.record.error}"
        return (
            f"[{self.done}/{self.total}] {self.record.spec.label()} ({source}){status}"
        )


@dataclass
class CampaignResult:
    """All records of a campaign plus execution statistics."""

    records: list[RunRecord] = field(default_factory=list)
    cache_hits: int = 0
    executed: int = 0
    failures: int = 0
    cache_write_errors: int = 0
    duration_s: float = 0.0
    executor_kind: str = "serial"

    @property
    def payloads(self) -> list[dict]:
        """Successful payloads in spec order."""
        return [dict(r.payload) for r in self.records if r.ok]

    def summary(self) -> dict:
        return {
            "points": len(self.records),
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "failures": self.failures,
            "cache_write_errors": self.cache_write_errors,
            "duration_s": round(self.duration_s, 3),
            "executor": self.executor_kind,
        }


class Campaign:
    """Ties a sweep, an executor and a result cache into one runnable unit.

    Parameters
    ----------
    sweep:
        A :class:`SweepSpec`, or any sequence of :class:`RunSpec` points.
    cache:
        A :class:`ResultCache`, a directory path to create one at, or
        ``None`` to disable caching entirely.
    workers:
        Executor knob (see :func:`repro.engine.executor.make_executor`):
        ``None``/``1`` runs serially, larger integers use a worker pool of
        that size (started by :meth:`run`, stopped when it returns), a
        :class:`~repro.engine.executor.RunBackend` such as a caller-owned
        :class:`~repro.engine.pool.WorkerPool` is driven as-is, and a
        :class:`~repro.engine.executor.RunExecutor` instance is used as-is
        and left open (e.g. one pool shared across many campaigns).
    progress:
        Optional callback invoked with a :class:`ProgressEvent` after every
        completed point (cache hits included).
    retry:
        Optional :class:`~repro.engine.executor.RetryPolicy` for the executor
        built from ``workers`` (ignored when ``workers`` is already a
        :class:`RunExecutor` instance, which owns its own policy).
    """

    def __init__(
        self,
        sweep: SweepSpec | Sequence[RunSpec],
        cache: ResultCache | str | Path | None = None,
        workers: int | str | RunExecutor | RunBackend | None = None,
        progress: Callable[[ProgressEvent], None] | None = None,
        retry: RetryPolicy | None = None,
    ):
        if isinstance(sweep, SweepSpec):
            self.specs: list[RunSpec] = sweep.expand()
        else:
            self.specs = list(sweep)
        if isinstance(cache, (str, Path)):
            cache = ResultCache(cache)
        self.cache = cache
        self.executor: RunExecutor = make_executor(workers, retry=retry)
        self._owns_executor = not isinstance(workers, RunExecutor)
        self.progress = progress

    # ------------------------------------------------------------------ run
    def run(self) -> CampaignResult:
        """Execute every point, serving repeats from the cache."""
        start = perf_counter()
        result = CampaignResult(executor_kind=self.executor.kind)
        records: list[RunRecord | None] = [None] * len(self.specs)

        pending: list[tuple[int, RunSpec]] = []
        for index, spec in enumerate(self.specs):
            cached = self.cache.get(spec) if self.cache is not None else None
            if cached is not None:
                records[index] = cached
                result.cache_hits += 1
            else:
                pending.append((index, spec))

        done = result.cache_hits
        total = len(self.specs)
        # Cache hits are announced up front, in spec order.
        if self.progress is not None:
            for hit_number, record in enumerate(
                (r for r in records if r is not None), start=1
            ):
                self.progress(ProgressEvent(record=record, done=hit_number, total=total))

        pending_specs = [spec for _, spec in pending]
        try:
            for position, record in self.executor.run_specs(pending_specs):
                index = pending[position][0]
                records[index] = record
                result.executed += 1
                done += 1
                if record.ok:
                    if self.cache is not None:
                        # A failed cache write (disk full, injected ENOSPC)
                        # costs future reuse, not this campaign's results.
                        try:
                            self.cache.put(record)
                        except OSError:
                            result.cache_write_errors += 1
                else:
                    result.failures += 1
                if self.progress is not None:
                    self.progress(ProgressEvent(record=record, done=done, total=total))
        finally:
            if self._owns_executor:
                self.executor.close()

        result.records = [record for record in records if record is not None]
        result.duration_s = perf_counter() - start
        return result
