"""Training the paper's robust model-variant grid (Fig. 8).

For every workload the paper compares:

* ``Original`` — the baseline model, no mitigation;
* ``L2_reg`` — trained with L2 regularization only;
* ``l2+n1`` .. ``l2+n9`` — L2 regularization combined with Gaussian
  noise-aware training at standard deviations 0.1 .. 0.9.

:func:`train_variant_grid` trains all of them (or any subset) on a dataset
split and returns the trained models plus their baseline accuracies.
:func:`train_variant_grid_stacked` trains the *same* grid through the
variant-stacked forward/backward path — every data batch is processed once
for all variants, with per-variant weight decay and noise streams riding
along as vectors — and produces identical per-variant weights for identical
seeds (property-tested in ``tests/test_stacked_training.py``).
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field, replace
from typing import Mapping

import numpy as np

from repro.datasets.base import DatasetSplit
from repro.mitigation.l2_regularization import L2Config
from repro.mitigation.noise_aware import PAPER_NOISE_LEVELS, NoiseAwareConfig
from repro.nn.layers import BatchNorm2D, Dropout, GaussianNoise
from repro.nn.models.registry import build_model
from repro.nn.module import Module
from repro.nn.training import (
    StackedTrainer,
    Trainer,
    TrainingConfig,
    TrainingHistory,
    evaluate_accuracy,
)

__all__ = ["VariantSpec", "VariantResult", "default_variant_grid", "train_variant",
           "train_variant_grid", "train_variant_grid_stacked", "variant_spec_from_name",
           "variant_training_config", "variant_checkpoint_key",
           "variant_result_to_checkpoint", "variant_result_from_checkpoint",
           "load_cached_variant", "store_variant_checkpoint"]


@dataclass(frozen=True)
class VariantSpec:
    """One model variant of the mitigation grid.

    Attributes
    ----------
    name:
        Paper-style label (``Original``, ``L2_reg``, ``l2+n3`` ...).
    l2:
        L2 configuration (``None`` disables the penalty).
    noise:
        Noise-aware training configuration (``None`` disables it).
    """

    name: str
    l2: L2Config | None = None
    noise: NoiseAwareConfig | None = None

    @property
    def uses_l2(self) -> bool:
        return self.l2 is not None and self.l2.enabled

    @property
    def uses_noise(self) -> bool:
        return self.noise is not None and self.noise.enabled

    @property
    def model_noise_std(self) -> float:
        """Activation-noise std this variant's model is built with."""
        return self.noise.model_noise_std if self.noise is not None else 0.0


@dataclass
class VariantResult:
    """A trained variant and its clean (baseline) accuracy."""

    spec: VariantSpec
    model: Module
    history: TrainingHistory
    baseline_accuracy: float
    extras: dict[str, float] = field(default_factory=dict)


def default_variant_grid(
    include_noise_only: bool = False,
    noise_levels: tuple[float, ...] = PAPER_NOISE_LEVELS,
) -> list[VariantSpec]:
    """The paper's variant grid: Original, L2_reg, l2+n1 .. l2+n9.

    Set ``include_noise_only`` to additionally produce noise-aware variants
    without L2 (used by the mitigation ablation benchmark).
    """
    grid: list[VariantSpec] = [
        VariantSpec(name="Original"),
        VariantSpec(name="L2_reg", l2=L2Config()),
    ]
    for std in noise_levels:
        noise = NoiseAwareConfig(std=std)
        grid.append(VariantSpec(name=f"l2+{noise.variant_suffix}", l2=L2Config(), noise=noise))
    if include_noise_only:
        for std in noise_levels:
            noise = NoiseAwareConfig(std=std)
            grid.append(VariantSpec(name=f"noise_{noise.variant_suffix}", noise=noise))
    return grid


def variant_spec_from_name(name: str) -> VariantSpec:
    """Parse a paper-style variant label into a :class:`VariantSpec`.

    Supported labels: ``Original``, ``L2_reg``, ``l2+n1`` .. ``l2+n9`` and
    ``noise_n1`` .. ``noise_n9``.  This lets sweep definitions (and the
    ``python -m repro`` CLI) express the mitigation grid with plain strings.
    """
    if name == "Original":
        return VariantSpec(name=name)
    if name == "L2_reg":
        return VariantSpec(name=name, l2=L2Config())
    match = re.fullmatch(r"(l2\+|noise_)n([1-9])", name)
    if match:
        noise = NoiseAwareConfig(std=round(int(match.group(2)) / 10, 1))
        l2 = L2Config() if match.group(1) == "l2+" else None
        return VariantSpec(name=name, l2=l2, noise=noise)
    raise ValueError(
        f"unknown variant name {name!r}; expected 'Original', 'L2_reg', "
        "'l2+n<K>' or 'noise_n<K>' with K in 1..9"
    )


def variant_training_config(
    base_config: TrainingConfig, spec: VariantSpec
) -> TrainingConfig:
    """Resolve the training configuration a variant actually trains with.

    The variant's mitigation settings are applied on top of ``base_config``
    (L2 sets the optimizer weight decay, noise-aware training sets the
    weight-noise level), and the shuffle seed is pinned to the base
    configuration's effective value so every variant of a grid consumes the
    identical batch order regardless of any per-variant seed override —
    the prerequisite for stacked-vs-serial training equivalence.
    """
    config = replace(base_config, shuffle_seed=base_config.effective_shuffle_seed)
    if spec.l2 is not None:
        config = replace(config, weight_decay=spec.l2.weight_decay)
    if spec.noise is not None:
        config = replace(config, weight_noise_std=spec.noise.weight_noise_std)
    return config


def _build_variant_model(
    model_name: str,
    spec: VariantSpec,
    base_config: TrainingConfig,
    profile: str,
    model_kwargs: Mapping | None,
) -> Module:
    """Build one variant's model exactly as the serial trainer builds it."""
    return build_model(
        model_name,
        profile=profile,
        noise_std=spec.model_noise_std,
        rng=base_config.seed,
        **dict(model_kwargs or {}),
    )


def train_variant(
    model_name: str,
    spec: VariantSpec,
    split: DatasetSplit,
    base_config: TrainingConfig,
    profile: str = "scaled",
    model_kwargs: dict | None = None,
) -> VariantResult:
    """Train a single variant of ``model_name`` on ``split``.

    The variant's mitigation settings are applied on top of ``base_config``:
    L2 regularization sets the optimizer weight decay, noise-aware training
    sets the weight-noise level and inserts Gaussian-noise layers into the
    model.
    """
    model = _build_variant_model(model_name, spec, base_config, profile, model_kwargs)
    config = variant_training_config(base_config, spec)
    trainer = Trainer(model, config)
    history = trainer.fit(split.train, split.test)
    baseline = (
        history.final_test_accuracy
        if history.test_accuracy
        else evaluate_accuracy(model, split.test, config.batch_size)
    )
    return VariantResult(
        spec=spec,
        model=model,
        history=history,
        baseline_accuracy=baseline,
        extras={"training_steps": trainer.steps_taken},
    )


def train_variant_grid(
    model_name: str,
    split: DatasetSplit,
    base_config: TrainingConfig,
    variants: list[VariantSpec] | None = None,
    profile: str = "scaled",
    model_kwargs: dict | None = None,
) -> list[VariantResult]:
    """Train every variant of the grid for one workload (serial reference)."""
    variants = variants if variants is not None else default_variant_grid()
    return [
        train_variant(model_name, spec, split, base_config, profile=profile,
                      model_kwargs=model_kwargs)
        for spec in variants
    ]


# -------------------------------------------------------- stacked grid path
def _modules_of(model: Module, cls: type) -> list:
    """All modules of ``cls`` in deterministic traversal order."""
    return [module for module in model.modules() if isinstance(module, cls)]


def train_variant_grid_stacked(
    model_name: str,
    split: DatasetSplit,
    base_config: TrainingConfig,
    variants: list[VariantSpec] | None = None,
    profile: str = "scaled",
    model_kwargs: dict | None = None,
) -> list[VariantResult]:
    """Train the whole variant grid in one stacked pass per data batch.

    Numerically equivalent to :func:`train_variant_grid`:

    * every variant's model is built exactly as the serial path builds it
      (same constructor, same seed) and contributes its initial weight set as
      one slab of the trainable stacked state;
    * per-variant weight decay and weight-noise levels ride through the
      stacked optimizer/noise path as vectors;
    * each stochastic layer (Gaussian activation noise, dropout) carries the
      per-variant generators harvested from the serially built models, so
      every variant consumes its own serial random stream draw-for-draw;
    * all variants share the one batch order given by the base
      configuration's shuffle seed (see :func:`variant_training_config`).

    The heavy lifting — one im2col per conv layer per batch, batched matmuls
    over all ``V`` weight slabs, single stacked loss/optimizer step — is what
    makes this ~V-fold cheaper in Python/BLAS overhead than the serial loop
    (the ``variant_training`` workload of ``perfbench/`` times it).
    """
    variants = variants if variants is not None else default_variant_grid()
    if not variants:
        return []
    model_kwargs = dict(model_kwargs or {})

    # 1. Per-variant models, built exactly as train_variant builds them.
    variant_models = [
        _build_variant_model(model_name, spec, base_config, profile, model_kwargs)
        for spec in variants
    ]

    # 2. Template carrying the union architecture: any positive activation
    #    noise level yields the noise-layer placement shared by every noisy
    #    variant (the layers themselves have no parameters, so noise-free
    #    variants simply run them with std 0).
    template_noise = max((spec.model_noise_std for spec in variants), default=0.0)
    template = build_model(
        model_name,
        profile=profile,
        noise_std=template_noise,
        rng=base_config.seed,
        **model_kwargs,
    )

    # 3. Stack the initial weights by parameter position (noise layers shift
    #    Sequential indices between variants, so dotted names differ while
    #    the parameter order does not).
    template_named = template.named_parameters()
    stacked: dict[str, np.ndarray] = {}
    for position, (name, template_param) in enumerate(template_named):
        slabs = []
        for model in variant_models:
            param = model.parameters()[position]
            if param.shape != template_param.shape or param.kind != template_param.kind:
                raise ValueError(
                    f"variant parameter {position} ({param.name!r}) does not match "
                    f"template parameter {name!r}"
                )
            slabs.append(param.data)
        stacked[name] = np.stack(slabs)
    template.load_stacked_state(stacked, trainable=True)

    # 4. Attach the per-variant stochastic streams and running statistics.
    noise_stds = np.array([spec.model_noise_std for spec in variants])
    for layer_index, layer in enumerate(_modules_of(template, GaussianNoise)):
        layer.stacked_std = noise_stds
        layer.stacked_rngs = [
            _modules_of(model, GaussianNoise)[layer_index]._rng
            if spec.model_noise_std > 0
            else None
            for spec, model in zip(variants, variant_models)
        ]
    for layer_index, layer in enumerate(_modules_of(template, Dropout)):
        layer.stacked_rngs = [
            _modules_of(model, Dropout)[layer_index]._rng for model in variant_models
        ]
    template_bns = _modules_of(template, BatchNorm2D)
    for layer_index, layer in enumerate(template_bns):
        layer.stacked_running_mean = np.stack(
            [_modules_of(model, BatchNorm2D)[layer_index].running_mean
             for model in variant_models]
        ).astype(np.float32)
        layer.stacked_running_var = np.stack(
            [_modules_of(model, BatchNorm2D)[layer_index].running_var
             for model in variant_models]
        ).astype(np.float32)

    # 5. Per-variant hyper-parameter vectors (resolved as the serial path
    #    resolves them) and the shared-batch-order configuration.
    resolved = [variant_training_config(base_config, spec) for spec in variants]
    shared_config = replace(
        base_config, shuffle_seed=base_config.effective_shuffle_seed
    )
    trainer = StackedTrainer(
        template,
        shared_config,
        weight_decay=np.array([config.weight_decay for config in resolved]),
        weight_noise_std=np.array([config.weight_noise_std for config in resolved]),
    )
    histories = trainer.fit(split.train, split.test)

    # 6. Materialize per-variant models from the final stacked slabs.
    results: list[VariantResult] = []
    for index, (spec, model, history) in enumerate(
        zip(variants, variant_models, histories)
    ):
        for position, (_, template_param) in enumerate(template_named):
            model.parameters()[position].data = template_param.stacked[index].copy()
        for layer_index, template_bn in enumerate(template_bns):
            bn = _modules_of(model, BatchNorm2D)[layer_index]
            bn.running_mean = template_bn.stacked_running_mean[index].copy()
            bn.running_var = template_bn.stacked_running_var[index].copy()
        baseline = (
            history.final_test_accuracy
            if history.test_accuracy
            else evaluate_accuracy(model, split.test, base_config.batch_size)
        )
        results.append(
            VariantResult(
                spec=spec,
                model=model,
                history=history,
                baseline_accuracy=baseline,
                # One stacked pass trained the whole grid: every variant
                # shares the same optimizer-step count.
                extras={"training_steps": trainer.steps_taken},
            )
        )
    template.clear_stacked_state()
    return results


# ------------------------------------------------------ checkpoint plumbing
def variant_checkpoint_key(
    model_name: str,
    spec: VariantSpec,
    base_config: TrainingConfig,
    *,
    profile: str = "scaled",
    model_kwargs: Mapping | None = None,
    dataset: Mapping | None = None,
) -> dict:
    """Content-address payload identifying one trained variant.

    Covers everything that determines the trained weights: the model
    identity (name, profile, constructor kwargs, activation-noise level),
    the *resolved* per-variant training configuration, and the dataset/split
    identity supplied by the caller.  The library version is appended by the
    checkpoint cache itself, mirroring the result cache.
    """
    training = asdict(variant_training_config(base_config, spec))
    training.pop("verbose", None)  # cosmetic; does not affect the weights
    return {
        "kind": "trained-variant",
        "model": model_name,
        "profile": profile,
        "model_kwargs": dict(model_kwargs or {}),
        "model_noise_std": spec.model_noise_std,
        "training": training,
        "dataset": dict(dataset or {}),
    }


def variant_result_to_checkpoint(result: VariantResult) -> tuple[dict, dict]:
    """Split a trained variant into (arrays, metadata) for the cache."""
    arrays = result.model.full_state_dict()
    meta = {
        "variant": result.spec.name,
        "baseline_accuracy": float(result.baseline_accuracy),
        "history": result.history.to_dict(),
        "extras": dict(result.extras),
    }
    return arrays, meta


def variant_result_from_checkpoint(
    model_name: str,
    spec: VariantSpec,
    arrays: Mapping[str, np.ndarray],
    meta: Mapping,
    base_config: TrainingConfig,
    *,
    profile: str = "scaled",
    model_kwargs: Mapping | None = None,
) -> VariantResult:
    """Rebuild a :class:`VariantResult` from a cached checkpoint."""
    model = _build_variant_model(model_name, spec, base_config, profile, model_kwargs)
    model.load_full_state_dict(dict(arrays))
    return VariantResult(
        spec=spec,
        model=model,
        history=TrainingHistory.from_dict(dict(meta.get("history", {}))),
        baseline_accuracy=float(meta["baseline_accuracy"]),
        extras=dict(meta.get("extras", {})),
    )


def load_cached_variant(
    cache,
    key: Mapping,
    model_name: str,
    spec: VariantSpec,
    base_config: TrainingConfig,
    *,
    profile: str = "scaled",
    model_kwargs: Mapping | None = None,
) -> VariantResult | None:
    """Fetch and rebuild one trained variant from the checkpoint store.

    The single load path, in ``MitigationStudy.train_variants``, which
    ``repro train`` and the per-point runners all train through: any store miss *or*
    reconstruction failure (schema drift, shape mismatch from a stale entry)
    counts as a miss — the caller retrains and overwrites, mirroring the
    store's own corrupt-entry semantics.
    """
    if cache is None:
        return None
    checkpoint = cache.get(key)
    if checkpoint is None:
        return None
    try:
        return variant_result_from_checkpoint(
            model_name,
            spec,
            checkpoint.arrays,
            checkpoint.meta,
            base_config,
            profile=profile,
            model_kwargs=model_kwargs,
        )
    except (KeyError, TypeError, ValueError):
        return None


def store_variant_checkpoint(cache, key: Mapping, result: VariantResult) -> None:
    """Persist one trained variant (no-op without a cache)."""
    if cache is None:
        return
    arrays, meta = variant_result_to_checkpoint(result)
    cache.put(key, arrays, meta)
