"""High-level campaign API: specs + executor + cache, with streamed progress.

A :class:`Campaign` takes a :class:`~repro.engine.spec.SweepSpec` (or an
explicit list of :class:`~repro.engine.spec.RunSpec` points), partitions the
points into cache hits and pending work, fans the pending work out through an
executor, persists fresh results, and returns a :class:`CampaignResult` whose
records are in spec order regardless of completion order.

Progress is streamed through an optional callback so CLIs and benchmarks can
report liveness without the engine knowing anything about terminals.

A point whose experiment is a *reduction* (a generator runner, see
:meth:`~repro.analysis.experiments.ExperimentDescriptor.start`) and that the
cache misses is expanded: its unit specs run through the same cache and
executor as every other point — each distinct unit once, so ``-j N`` and the
retry policy apply per unit — and the reduction then reduces their payloads
in this process.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable, Generator, Sequence

from repro.engine.cache import ResultCache
from repro.engine.executor import (
    RetryPolicy,
    RunBackend,
    RunExecutor,
    make_executor,
    run_record,
)
from repro.engine.records import RunRecord
from repro.engine.spec import RunSpec, SweepSpec, canonical_json

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
        """Execute every point, serving repeats from the cache.

        Cache-missing reductions are expanded; a reduction whose runner
        raises or whose unit fails becomes an error record (naming the unit)
        and is not cached.
        """
        from repro.analysis.experiments import EXPERIMENTS

        start = perf_counter()
        result = CampaignResult(executor_kind=self.executor.kind)
        records: list[RunRecord | None] = [None] * len(self.specs)

        #: (points index, or a reduction unit's key, and spec) of every run to execute
        pending: list[tuple[int | str, RunSpec]] = []
        reductions: list[tuple[int, RunSpec, Generator | Exception, list[RunSpec]]] = []
        for index, spec in enumerate(self.specs):
            cached = self.cache.get(spec) if self.cache is not None else None
            descriptor = EXPERIMENTS.get(spec.experiment_id)
            if cached is not None:
                records[index] = cached
                result.cache_hits += 1
            elif descriptor is not None and descriptor.reduction:
                seed = spec.seed if descriptor.seedable else None
                try:
                    reduction, units = descriptor.start(spec.params, seed=seed)
                except Exception as exc:  # noqa: BLE001 — reported in its record
                    reduction, units = exc, []
                reductions.append((index, spec, reduction, units))
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

        def settle(index: int, record: RunRecord) -> None:
            nonlocal done
            records[index] = record
            result.executed += 1
            done += 1
            if record.ok:
                self._store(record, result)
            else:
                result.failures += 1
            if self.progress is not None:
                self.progress(ProgressEvent(record=record, done=done, total=total))

        # Each distinct unit runs once, unless the cache holds it.
        units: dict[str, RunRecord | None] = {}
        for _, _, _, unit_specs in reductions:
            for unit in unit_specs:
                key = canonical_json(unit.canonical())
                if key not in units:
                    units[key] = self.cache.get(unit) if self.cache is not None else None
                    if units[key] is None:
                        pending.append((key, unit))

        try:
            for position, record in self.executor.run_specs([spec for _, spec in pending]):
                index = pending[position][0]
                if isinstance(index, int):
                    settle(index, record)
                    continue
                units[index] = record  # a reduction's unit
                if record.ok:
                    self._store(record, result)
        finally:
            if self._owns_executor:
                self.executor.close()

        for index, spec, reduction, unit_specs in reductions:
            unit_records = [units[canonical_json(unit.canonical())] for unit in unit_specs]
            record = run_record(
                spec, partial(_reduce, reduction, unit_records), self.executor.kind
            )
            # A reduction costs its own time plus that of the units run for it
            # here; a unit the cache served cost nothing.
            ran = sum(unit.duration_s for unit in unit_records if not unit.cached)
            settle(index, replace(record, duration_s=record.duration_s + ran))

        result.records = [record for record in records if record is not None]
        result.duration_s = perf_counter() - start
        return result

    def _store(self, record: RunRecord, result: CampaignResult) -> None:
        """Cache a successful record; a failed write costs reuse, not results."""
        if self.cache is None:
            return
        try:
            self.cache.put(record)
        except OSError:  # disk full, injected ENOSPC
            result.cache_write_errors += 1


def _reduce(reduction: Generator | Exception, unit_records: list[RunRecord]) -> dict:
    """Finish a started reduction on its units' records (raises on a failure)."""
    from repro.analysis.experiments import reduce_units

    if isinstance(reduction, Exception):
        raise reduction
    for record in unit_records:
        if not record.ok:
            reduction.close()
            raise RuntimeError(f"unit {record.spec.label()} failed: {record.error}")
    return reduce_units(reduction, [dict(record.payload) for record in unit_records])
