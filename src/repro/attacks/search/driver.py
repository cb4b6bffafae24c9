"""The attack-search driver: optimizer loop, evaluators, Pareto reduction.

:class:`AttackSearch` ties one seeded optimizer to one (model,
mitigation-variant, attack-kind) workload and spends a fixed budget of
*scenario evaluations* (each candidate costs its placement count) finding
configurations that maximize accuracy drop per attacked MR.  Every candidate
is an ordinary ``fig7_candidate`` :class:`~repro.engine.spec.RunSpec`, so
every evaluation flows through the engine's content-addressed result cache:
an interrupted search re-run under the same seed re-evaluates only the
cache-missing candidates and lands on a byte-identical trajectory and front.

Three interchangeable evaluation backends produce bit-identical records:

``batched``
    The default local path — each optimizer generation's cache-missing
    candidates are concatenated into **one** stacked
    :meth:`AttackedInferenceEngine.accuracy_under_attacks` forward.
``campaign``
    A :class:`~repro.engine.campaign.Campaign` per generation (serial or
    worker pool), sharing one long-lived executor — and so one pool —
    across generations.
``serve``
    Each generation is submitted to a ``repro serve`` coordinator as one
    zipped sweep, so searches run on the worker federation and inherit its
    retry/quarantine policy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from time import perf_counter

from repro.attacks.search.optimizers import OPTIMIZERS, make_optimizer
from repro.attacks.search.pareto import (
    ParetoPoint,
    candidate_label,
    front_payload,
    pareto_front,
)
from repro.attacks.search.space import space_for_kind
from repro.utils.validation import ValidationError, check_positive_int
from repro.version import __version__

__all__ = ["AttackSearchConfig", "AttackSearchResult", "AttackSearch", "SearchError"]


class SearchError(RuntimeError):
    """A candidate evaluation failed; the search cannot continue."""


@dataclass(frozen=True)
class AttackSearchConfig:
    """Everything that identifies one attack search (all JSON-serializable)."""

    kind: str = "hotspot"
    model: str = "cnn_mnist"
    variant: str = ""
    block: str = "both"
    optimizer: str = "random"
    budget: int = 32
    generation_size: int = 8
    placements: int = 2
    fraction_range: tuple = (0.005, 0.10)
    sigma: float = 0.2
    mu: int | None = None
    eta: int = 2
    quantize_weights: bool = True
    checkpoint_cache: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive_int(self.budget, "budget")
        check_positive_int(self.generation_size, "generation_size")
        check_positive_int(self.placements, "placements")
        if self.optimizer not in OPTIMIZERS:
            raise ValidationError(
                f"unknown optimizer {self.optimizer!r}; available: {sorted(OPTIMIZERS)}"
            )
        object.__setattr__(
            self,
            "fraction_range",
            (float(self.fraction_range[0]), float(self.fraction_range[1])),
        )


@dataclass
class AttackSearchResult:
    """Outcome of one search: trajectory, Pareto front, execution stats."""

    config: AttackSearchConfig
    baseline: float = 0.0
    candidates: list = field(default_factory=list)  # payload dicts, eval order
    front: list = field(default_factory=list)  # ParetoPoint, stealth-ascending
    evaluations: int = 0  # scenario evaluations consumed
    generations: int = 0
    executed: int = 0  # candidates actually computed this run
    cache_hits: int = 0  # candidates served from the result cache
    duration_s: float = 0.0

    @property
    def best(self) -> dict | None:
        """The candidate with the highest damage per attacked MR."""
        if not self.candidates:
            return None
        return max(self.candidates, key=lambda c: (c["damage_per_mr"], -c["num_attacked_mrs"]))

    def to_payload(self) -> dict:
        """Deterministic summary (no wall-clock or cache-dependent fields)."""
        compact = [
            {
                key: candidate[key]
                for key in (
                    "fraction",
                    "attack_params",
                    "placements",
                    "num_attacked_mrs",
                    "drop_mean",
                    "drop_max",
                    "damage_per_mr",
                )
            }
            for candidate in self.candidates
        ]
        best = self.best
        return {
            "model": self.config.model,
            "variant": self.config.variant,
            "kind": self.config.kind,
            "block": self.config.block,
            "optimizer": self.config.optimizer,
            "budget": self.config.budget,
            "seed": self.config.seed,
            "baseline": self.baseline,
            "evaluations": self.evaluations,
            "generations": self.generations,
            "num_candidates": len(self.candidates),
            "candidates": compact,
            "front": front_payload(self.front),
            "best": {key: best[key] for key in compact[0]} if best else None,
        }

    def trajectory_json(self) -> str:
        """Canonical JSON of the evaluation trajectory (determinism checks)."""
        from repro.engine.spec import canonical_json

        return canonical_json(self.to_payload())


# ----------------------------------------------------------------- evaluators
class _BatchedEvaluator:
    """Local default: one stacked forward per generation of cache misses."""

    name = "batched"

    def __init__(self, cache=None):
        self.cache = cache
        self.executed = 0
        self.cache_hits = 0

    def evaluate(self, specs: list) -> list:
        from repro.analysis.experiments import candidate_payloads_batched
        from repro.engine.records import RunRecord
        from repro.engine.spec import spec_fingerprint

        records: list = [None] * len(specs)
        pending: list[int] = []
        for index, spec in enumerate(specs):
            cached = self.cache.get(spec) if self.cache is not None else None
            if cached is not None:
                records[index] = cached
                self.cache_hits += 1
            else:
                pending.append(index)
        if pending:
            started_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
            start = perf_counter()
            try:
                payloads = candidate_payloads_batched(
                    [dict(specs[index].params) for index in pending],
                    seed=specs[pending[0]].seed,
                )
            except Exception as exc:
                raise SearchError(
                    f"{len(pending)} candidate evaluation(s) failed: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            duration = perf_counter() - start
            for index, payload in zip(pending, payloads):
                spec = specs[index]
                record = RunRecord(
                    fingerprint=spec_fingerprint(spec, __version__),
                    spec=spec,
                    payload=payload,
                    status="ok",
                    error=None,
                    duration_s=duration / len(pending),
                    started_at=started_at,
                    provenance={
                        "version": __version__,
                        "executor": "search-batched",
                        "pid": os.getpid(),
                    },
                )
                records[index] = record
                self.executed += 1
                if self.cache is not None:
                    try:
                        self.cache.put(record)
                    except OSError:
                        pass  # losing a cache write costs reuse, not results
        return records

    def close(self) -> None:
        pass


class _CampaignEvaluator:
    """One :class:`Campaign` per generation over a shared executor."""

    name = "campaign"

    def __init__(self, cache=None, workers=None, retry=None):
        from repro.engine.executor import make_executor

        self.cache = cache
        self.executor = make_executor(workers, retry=retry)
        self.executed = 0
        self.cache_hits = 0

    def evaluate(self, specs: list) -> list:
        from repro.engine.campaign import Campaign

        result = Campaign(specs, cache=self.cache, workers=self.executor).run()
        self.executed += result.executed
        self.cache_hits += result.cache_hits
        return result.records

    def close(self) -> None:
        self.executor.close()


class _ServeEvaluator:
    """Each generation becomes one zipped sweep on a ``repro serve`` job queue."""

    name = "serve"

    def __init__(self, client, timeout: float = 3600.0):
        self.client = client
        self.timeout = float(timeout)
        self.executed = 0
        self.cache_hits = 0

    def evaluate(self, specs: list) -> list:
        from repro.engine.records import RunRecord
        from repro.engine.spec import spec_fingerprint
        from repro.serve.client import JobFailedError, ServeError

        first = specs[0]
        keys = sorted(first.params)
        constant = {
            key: first.params[key]
            for key in keys
            if all(spec.params[key] == first.params[key] for spec in specs)
        }
        varying = [key for key in keys if key not in constant]
        sweep: dict = {
            "experiment_id": first.experiment_id,
            "base": constant,
            "seeds": [first.seed],
        }
        if varying:
            sweep["zipped"] = {
                key: [spec.params[key] for spec in specs] for key in varying
            }
        try:
            job_id = self.client.submit(sweep)["job_id"]
            final = self.client.wait(job_id, timeout=self.timeout)
            # The coordinator returns cache-first result docs ({label, status,
            # cached, payload}); rebuild full records against our local specs.
            by_label = {
                doc.get("label"): doc
                for doc in self.client.results(job_id)["records"]
            }
        except JobFailedError as exc:
            quarantined = "; ".join(
                f"{entry.get('label')}: {entry.get('error')}" for entry in exc.quarantined
            )
            raise SearchError(
                f"serve job {exc.job.get('job_id')} {exc.state}; "
                f"quarantined candidates: {quarantined or 'none'}"
            ) from exc
        except ServeError as exc:
            raise SearchError(f"serve evaluation failed: {exc}") from exc
        records = []
        for spec in specs:
            doc = by_label.get(spec.label())
            if doc is None or doc.get("status") != "ok":
                raise SearchError(
                    f"serve job {job_id} returned no ok record for "
                    f"{spec.label()} (got {doc!r})"
                )
            records.append(
                RunRecord(
                    fingerprint=spec_fingerprint(spec, __version__),
                    spec=spec,
                    payload=doc["payload"],
                    status="ok",
                    error=None,
                    duration_s=0.0,
                    started_at="",
                    provenance={"version": __version__, "executor": "serve"},
                    cached=bool(doc.get("cached")),
                )
            )
        self.executed += int(final.get("executed", 0))
        self.cache_hits += int(final.get("cache_hits", 0))
        return records

    def close(self) -> None:
        pass


# --------------------------------------------------------------------- driver
class AttackSearch:
    """Run one black-box attack search end to end.

    Parameters
    ----------
    config:
        The search's full identity (workload, optimizer, budget, seed).
    cache:
        Optional :class:`~repro.engine.cache.ResultCache` (or path) the
        per-candidate records flow through — enables resume and cross-search
        reuse.
    workers:
        When set, evaluate generations through a
        :class:`~repro.engine.campaign.Campaign` executor instead of the
        stacked local path (``"serial"`` or a worker-pool size).
    client:
        A :class:`~repro.serve.client.ServeClient`; when set, generations are
        submitted to the coordinator as zipped sweeps (overrides ``workers``).
    retry:
        Optional :class:`~repro.engine.executor.RetryPolicy` for the
        campaign backend.
    """

    def __init__(self, config: AttackSearchConfig, cache=None, workers=None,
                 client=None, retry=None, serve_timeout: float = 3600.0):
        from repro.engine.cache import ResultCache

        self.config = config
        if isinstance(cache, str) and cache:
            cache = ResultCache(cache)
        self.cache = cache or None
        if client is not None:
            self.evaluator = _ServeEvaluator(client, timeout=serve_timeout)
        elif workers is not None:
            self.evaluator = _CampaignEvaluator(cache=self.cache, workers=workers, retry=retry)
        else:
            self.evaluator = _BatchedEvaluator(cache=self.cache)
        self.space = space_for_kind(config.kind, fraction_range=config.fraction_range)
        kwargs: dict = {
            "seed": config.seed,
            "generation_size": config.generation_size,
            "placements": config.placements,
            "mu": config.mu,
            "sigma": config.sigma,
            "eta": config.eta,
        }
        self.optimizer = make_optimizer(config.optimizer, self.space, **kwargs)

    # ------------------------------------------------------------------ specs
    def candidate_spec(self, candidate):
        """The ``fig7_candidate`` :class:`RunSpec` identifying one candidate.

        Parameters are resolved through the experiment descriptor, so the
        fingerprint matches what any sweep expansion of the same point would
        produce — cache entries are shared across every execution path.
        """
        from repro.analysis.experiments import get_experiment

        config = self.config
        return get_experiment("fig7_candidate").spec(
            {
                "model": config.model,
                "variant": config.variant,
                "kind": config.kind,
                "block": config.block,
                "fraction": candidate.values["fraction"],
                "attack_params": candidate.values["params"],
                "placements": candidate.placements,
                "quantize_weights": config.quantize_weights,
                "checkpoint_cache": config.checkpoint_cache,
            },
            config.seed,
        )

    # -------------------------------------------------------------------- run
    def run(self, progress=None) -> AttackSearchResult:
        """Drive ask → evaluate → tell until the budget (or schedule) ends."""
        start = perf_counter()
        config = self.config
        result = AttackSearchResult(config=config)
        points: list[ParetoPoint] = []
        try:
            while result.evaluations < config.budget and not self.optimizer.done:
                asked = self.optimizer.ask()
                if not asked:
                    break
                generation = []
                for candidate in asked:
                    if result.evaluations + candidate.cost > config.budget:
                        break
                    generation.append(candidate)
                    result.evaluations += candidate.cost
                if not generation:
                    break
                specs = [self.candidate_spec(c) for c in generation]
                records = self.evaluator.evaluate(specs)
                failed = [r for r in records if r is None or not r.ok]
                if failed:
                    errors = "; ".join(
                        str(r.error) for r in failed if r is not None
                    ) or "missing record"
                    raise SearchError(
                        f"{len(failed)} candidate evaluation(s) failed: {errors}"
                    )
                fitnesses = []
                for candidate, record in zip(generation, records):
                    payload = dict(record.payload)
                    result.candidates.append(payload)
                    result.baseline = payload["baseline"]
                    fitnesses.append(payload["damage_per_mr"])
                    points.append(
                        ParetoPoint(
                            stealth=payload["num_attacked_mrs"],
                            damage=payload["drop_mean"],
                            label=candidate_label(
                                config.kind,
                                candidate.values["fraction"],
                                candidate.values["params"],
                                candidate.placements,
                            ),
                            meta={
                                "fraction": payload["fraction"],
                                "attack_params": payload["attack_params"],
                                "placements": payload["placements"],
                                "damage_per_mr": payload["damage_per_mr"],
                            },
                        )
                    )
                self.optimizer.tell(generation, fitnesses)
                result.generations += 1
                if progress is not None:
                    progress(result)
        finally:
            self.evaluator.close()
        result.front = pareto_front(points)
        result.executed = self.evaluator.executed
        result.cache_hits = self.evaluator.cache_hits
        result.duration_s = perf_counter() - start
        return result
