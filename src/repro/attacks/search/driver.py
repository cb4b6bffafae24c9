"""The attack-search driver: optimizer loop, generation campaigns, Pareto reduction.

:class:`AttackSearch` ties one seeded optimizer to one (model,
mitigation-variant, attack-kind) workload and spends a fixed budget of
*scenario evaluations* (each candidate costs its placement count) finding
configurations that maximize accuracy drop per attacked MR.  Every candidate
is an ordinary ``fig7_candidate`` :class:`~repro.engine.spec.RunSpec`, and
every generation is one :class:`~repro.engine.campaign.Campaign` through the
result cache: an interrupted search re-run under the same seed re-evaluates
only the cache-missing candidates and lands on a byte-identical trajectory
and front.

The campaign's executor is the search's one executor, closed when the search
ends: the serial executor (a generation's candidates in one stacked
:meth:`AttackedInferenceEngine.accuracy_under_attacks` forward), a worker
pool (``workers=N``; one pool for every generation), or a ``repro serve``
daemon (``client``; each generation one zipped sweep).  All three produce
byte-identical payloads under the same retry policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator, Mapping, Sequence

from repro.attacks.search.optimizers import OPTIMIZERS, make_optimizer
from repro.attacks.search.pareto import (
    ParetoPoint,
    candidate_label,
    front_payload,
    pareto_front,
)
from repro.attacks.search.space import space_for_kind
from repro.engine.executor import RetryPolicy, RunExecutor, failure_record, make_executor
from repro.engine.records import RunRecord
from repro.engine.spec import RunSpec, spec_fingerprint
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


# ------------------------------------------------------------- serve executor
class _ServeExecutor(RunExecutor):
    """Runs each spec list on a ``repro serve`` daemon as one zipped sweep.

    It never raises: a failed, quarantined or missing run, or an unreachable
    daemon, comes back as an error record.  A record is ``cached`` when the
    job's result document says the daemon served it from its result cache
    (every record of an identical job that was already done).  ``policy`` is
    the job's retry-policy document: partial overrides of the daemon's own
    policy, or ``None`` for the daemon's policy as is.
    """

    kind = "serve"

    def __init__(self, client, timeout: float = 3600.0, policy: dict | None = None):
        self.client = client
        self.timeout = float(timeout)
        self.policy = policy

    def _sweep(self, specs: Sequence[RunSpec]) -> dict:
        """The ``POST /sweeps`` body: varying parameters zipped, the rest in ``base``."""
        first = specs[0]
        keys = sorted(first.params)
        varying = [
            key for key in keys if any(spec.params[key] != first.params[key] for spec in specs)
        ]
        sweep = {
            "experiment_id": first.experiment_id,
            "base": {key: first.params[key] for key in keys if key not in varying},
            "zipped": {key: [spec.params[key] for spec in specs] for key in varying},
            "seeds": [first.seed],
        }
        if self.policy is not None:
            sweep["policy"] = dict(self.policy)
        return sweep

    def run_specs(self, specs: Sequence[RunSpec]) -> Iterator[tuple[int, RunRecord]]:
        from repro.serve.client import JobFailedError, ServeError

        if not specs:
            return
        docs: dict = {}
        error = None
        try:
            job_id = self.client.submit(self._sweep(specs))["job_id"]
            try:
                self.client.wait(job_id, timeout=self.timeout)
            except JobFailedError as exc:
                quarantined = "; ".join(
                    f"{entry.get('label')}: {entry.get('error')}" for entry in exc.quarantined
                )
                error = (
                    f"serve job {job_id} {exc.state}; "
                    f"quarantined candidates: {quarantined or 'none'}"
                )
            # Cache-first result docs ({label, status, cached, payload})
            # rebuild the records against the local specs.
            docs = {doc.get("label"): doc for doc in self.client.results(job_id)["records"]}
        except ServeError as exc:
            error = f"serve evaluation failed: {exc}"
        for index, spec in enumerate(specs):
            label = spec.label()
            doc = docs.get(label, {})
            if doc.get("status") != "ok":
                reason = error or f"serve job returned no ok record for {label} (got {doc!r})"
                yield index, failure_record(spec, reason, self.kind)
                continue
            yield index, RunRecord(
                fingerprint=spec_fingerprint(spec, __version__),
                spec=spec,
                payload=doc["payload"],
                provenance={"version": __version__, "executor": self.kind},
                cached=bool(doc.get("cached")),
            )


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
        Executor knob for :func:`~repro.engine.executor.make_executor`:
        ``None``/``1`` runs serially, a larger count on one worker pool.
    client:
        A :class:`~repro.serve.client.ServeClient`; when set, generations are
        submitted to the coordinator as zipped sweeps (overrides ``workers``).
    retry:
        Optional :class:`~repro.engine.executor.RetryPolicy`, or a mapping
        of partial overrides (``max_attempts``, ``backoff_s``, …) over the
        default policy.  With ``client`` it becomes each job's ``policy``:
        a whole policy replaces the daemon's, partial overrides only change
        the fields they name.
    """

    def __init__(self, config: AttackSearchConfig, cache=None, workers=None,
                 client=None, retry=None, serve_timeout: float = 3600.0):
        from repro.engine.cache import ResultCache

        self.config = config
        if isinstance(cache, str) and cache:
            cache = ResultCache(cache)
        self.cache = cache or None
        if isinstance(retry, Mapping):
            policy, retry = dict(retry), RetryPolicy.from_dict(retry)
        else:
            policy = None if retry is None else retry.to_dict()
        self.executor = (
            _ServeExecutor(client, serve_timeout, policy)
            if client is not None
            else make_executor(workers, retry=retry)
        )
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
        from repro.engine.campaign import Campaign

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
                campaign = Campaign(specs, cache=self.cache, workers=self.executor)
                records = campaign.run().records
                hits = sum(record.cached for record in records)
                result.cache_hits += hits
                result.executed += len(records) - hits
                failed = [r for r in records if not r.ok]
                if failed:
                    errors = "; ".join(dict.fromkeys(str(r.error) for r in failed))
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
            self.executor.close()
        result.front = pareto_front(points)
        result.duration_s = perf_counter() - start
        return result
