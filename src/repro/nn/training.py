"""Training loops, evaluation metrics and training configuration.

The :class:`Trainer` drives mini-batch SGD/Adam training of any
:class:`~repro.nn.module.Module` over a :class:`~repro.datasets.base.Dataset`.
It supports the paper's two software mitigation knobs directly:

* **L2 regularization** — via ``TrainingConfig.weight_decay`` (applied by the
  optimizer to conv/fc weights only), plus ``l2_penalty`` reporting.
* **Noise-aware training** — via ``TrainingConfig.weight_noise_std``
  (Gaussian noise injected into conv/fc weights for each forward pass during
  training, then removed before the update) and/or ``GaussianNoise`` layers
  already present in the model.

:class:`StackedTrainer` trains ``V`` model variants concurrently through the
variant-stacked forward/backward path: the model carries a trainable stacked
state (``Module.load_stacked_state(..., trainable=True)``), each data batch
is processed once for all variants, and per-variant hyper-parameters (weight
decay, weight/activation noise levels) ride along as vectors.  Each variant's
arithmetic is slab-for-slab the same as a serial :class:`Trainer` run, so the
two paths produce identical weights for identical seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.base import DataLoader, Dataset
from repro.nn.losses import (
    CrossEntropyLoss,
    StackedCrossEntropyLoss,
    l2_penalty,
    stacked_l2_penalty,
)
from repro.nn.module import Module
from repro.nn.optim import SGD, Adam, Optimizer
from repro.utils.rng import default_rng
from repro.utils.validation import check_in_choices, check_positive_int

__all__ = [
    "TrainingConfig",
    "TrainingHistory",
    "Trainer",
    "StackedTrainer",
    "count_correct",
    "evaluate_accuracy",
    "evaluate_accuracies",
]


@dataclass
class TrainingConfig:
    """Hyper-parameters for a training run.

    Attributes
    ----------
    epochs, batch_size, lr:
        Standard optimization hyper-parameters.
    optimizer:
        ``"adam"`` or ``"sgd"``.
    momentum:
        SGD momentum (ignored for Adam).
    weight_decay:
        L2 regularization coefficient (the paper's ``lambda``); 0 disables it.
    weight_noise_std:
        Standard deviation of the relative Gaussian noise injected into
        conv/fc weights during each training forward pass (noise-aware
        training); 0 disables it.
    label_smoothing:
        Cross-entropy label smoothing.
    seed:
        Seed controlling the weight-noise stream (and, by default, batch
        shuffling).
    shuffle_seed:
        Seed for the mini-batch shuffle order only; ``None`` falls back to
        ``seed``.  Variant-grid training pins this across every variant so
        all grid members provably consume identical batch sequences — the
        prerequisite for stacked-vs-serial training equivalence.
    verbose:
        Print one line per epoch.
    """

    epochs: int = 5
    batch_size: int = 32
    lr: float = 1e-3
    optimizer: str = "adam"
    momentum: float = 0.9
    weight_decay: float = 0.0
    weight_noise_std: float = 0.0
    label_smoothing: float = 0.0
    seed: int = 0
    shuffle_seed: int | None = None
    verbose: bool = False

    def __post_init__(self) -> None:
        check_positive_int(self.epochs, "epochs")
        check_positive_int(self.batch_size, "batch_size")
        check_in_choices(self.optimizer, "optimizer", ("adam", "sgd"))
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if self.weight_noise_std < 0:
            raise ValueError(
                f"weight_noise_std must be non-negative, got {self.weight_noise_std}"
            )

    @property
    def effective_shuffle_seed(self) -> int:
        """The seed actually driving the mini-batch shuffle order."""
        return self.seed if self.shuffle_seed is None else self.shuffle_seed


@dataclass
class TrainingHistory:
    """Metrics recorded by :meth:`Trainer.fit` and :meth:`StackedTrainer.fit`.

    ``train_loss``, ``train_accuracy`` and ``l2_penalty`` hold one value per
    epoch.  ``test_accuracy`` holds the one test-split score taken after the
    last epoch (empty when ``fit`` had no test split); checkpoints written
    before scoring moved there hold one score per epoch, and
    :attr:`final_test_accuracy` reads the last in either case.
    """

    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    test_accuracy: list[float] = field(default_factory=list)
    l2_penalty: list[float] = field(default_factory=list)

    @property
    def final_test_accuracy(self) -> float:
        """Test accuracy after the final epoch (NaN if never evaluated)."""
        return self.test_accuracy[-1] if self.test_accuracy else float("nan")

    def to_dict(self) -> dict:
        """Plain-JSON form (used by the model checkpoint store)."""
        return {
            "train_loss": list(self.train_loss),
            "train_accuracy": list(self.train_accuracy),
            "test_accuracy": list(self.test_accuracy),
            "l2_penalty": list(self.l2_penalty),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrainingHistory":
        return cls(
            train_loss=[float(v) for v in data.get("train_loss", [])],
            train_accuracy=[float(v) for v in data.get("train_accuracy", [])],
            test_accuracy=[float(v) for v in data.get("test_accuracy", [])],
            l2_penalty=[float(v) for v in data.get("l2_penalty", [])],
        )


def _build_optimizer(
    parameters, config: TrainingConfig, weight_decay: float | np.ndarray
) -> Optimizer:
    """Optimizer for ``parameters`` with a (possibly per-variant) decay."""
    if config.optimizer == "adam":
        return Adam(parameters, lr=config.lr, weight_decay=weight_decay)
    return SGD(
        parameters,
        lr=config.lr,
        momentum=config.momentum,
        weight_decay=weight_decay,
    )


class Trainer:
    """Mini-batch trainer for the NumPy NN framework."""

    def __init__(self, model: Module, config: TrainingConfig | None = None):
        self.model = model
        self.config = config or TrainingConfig()
        self.loss_fn = CrossEntropyLoss(label_smoothing=self.config.label_smoothing)
        self.optimizer = _build_optimizer(
            model.parameters(), self.config, self.config.weight_decay
        )
        self._noise_rng = default_rng(self.config.seed + 1)
        # Conv/FC weights are the tensors that both get mapped onto MRs and
        # receive noise-aware training perturbations.
        self._noisy_params = [
            param for param in self.model.parameters() if param.kind in ("conv", "fc")
        ]
        #: Optimizer steps taken across all ``fit`` calls (cache accounting).
        self.steps_taken = 0

    def make_loader(self, train: Dataset) -> DataLoader:
        """The shuffled training loader this trainer iterates.

        Exposed so callers (and tests) can verify that trainers with
        different mitigation settings but a shared shuffle seed consume
        identical batch sequences.
        """
        return DataLoader(
            train,
            batch_size=self.config.batch_size,
            shuffle=True,
            seed=self.config.effective_shuffle_seed,
        )

    # ------------------------------------------------------------------ fit
    def fit(self, train: Dataset, test: Dataset | None = None) -> TrainingHistory:
        """Train the model and return its history.

        Train loss, train accuracy and L2 penalty are recorded every epoch;
        ``test`` is scored once, after the last epoch, since that is the only
        test score a result reads (``VariantResult.baseline_accuracy``).
        """
        history = TrainingHistory()
        loader = self.make_loader(train)
        for epoch in range(self.config.epochs):
            epoch_loss, epoch_accuracy = self._run_epoch(loader)
            history.train_loss.append(epoch_loss)
            history.train_accuracy.append(epoch_accuracy)
            history.l2_penalty.append(
                l2_penalty(
                    self.model.parameters(),
                    self.config.weight_decay,
                    num_samples=len(train),
                )
            )
            scored = test is not None and epoch + 1 == self.config.epochs
            if scored:
                test_accuracy = evaluate_accuracy(self.model, test, self.config.batch_size)
                history.test_accuracy.append(test_accuracy)
            if self.config.verbose:
                test_msg = f", test_acc={history.test_accuracy[-1]:.3f}" if scored else ""
                print(
                    f"epoch {epoch + 1}/{self.config.epochs}: "
                    f"loss={epoch_loss:.4f}, train_acc={epoch_accuracy:.3f}{test_msg}"
                )
        return history

    def _run_epoch(self, loader: DataLoader) -> tuple[float, float]:
        """One pass over the training loader; returns (mean loss, accuracy)."""
        self.model.train()
        total_loss = 0.0
        total_correct = 0
        total_samples = 0
        noise = _WeightNoise(
            self._noisy_params, self.config.weight_noise_std, self._noise_rng
        )
        for images, labels in loader:
            self.optimizer.zero_grad()
            with noise:
                logits = self.model(images)
                loss = self.loss_fn(logits, labels)
                grad_logits = self.loss_fn.backward()
                self.model.backward(grad_logits)
            self.optimizer.step()
            self.steps_taken += 1
            batch = labels.shape[0]
            total_loss += loss * batch
            total_correct += int(count_correct(logits, labels))
            total_samples += batch
        if total_samples == 0:
            return float("nan"), float("nan")
        return total_loss / total_samples, total_correct / total_samples


class StackedTrainer:
    """Trains ``V`` stacked variants of one template model concurrently.

    Parameters
    ----------
    model:
        Template module already carrying a *trainable* stacked state covering
        every parameter (``load_stacked_state(..., trainable=True)``), plus
        any per-variant stochastic-layer streams (``GaussianNoise.stacked_std``
        / ``stacked_rngs``, ``Dropout.stacked_rngs``, batch-norm stacked
        running statistics) attached by the caller.
    config:
        Shared hyper-parameters (epochs, batch size, lr, optimizer family,
        seed, shuffle seed).  ``config.weight_decay``/``weight_noise_std``
        are the fallback values when the per-variant vectors are omitted.
    weight_decay:
        Per-variant L2 coefficients ``(V,)`` (``None``: the config scalar for
        every variant).
    weight_noise_std:
        Per-variant weight-noise levels ``(V,)`` (``None``: the config scalar
        for every variant).  Each noisy variant draws from its own generator
        seeded ``config.seed + 1`` — exactly the stream a serial
        :class:`Trainer` for that variant would consume.
    """

    def __init__(
        self,
        model: Module,
        config: TrainingConfig | None = None,
        *,
        weight_decay: np.ndarray | None = None,
        weight_noise_std: np.ndarray | None = None,
    ):
        self.model = model
        self.config = config or TrainingConfig()
        stacked_params = [p for p in model.parameters() if p.stacked_trainable]
        if not stacked_params:
            raise ValueError(
                "StackedTrainer requires a trainable stacked state; call "
                "model.load_stacked_state(stacked, trainable=True) first"
            )
        self.num_variants = stacked_params[0].stacked.shape[0]
        if weight_decay is None:
            weight_decay = np.full(self.num_variants, self.config.weight_decay)
        self.weight_decay = np.asarray(weight_decay, dtype=np.float64)
        if self.weight_decay.shape != (self.num_variants,):
            raise ValueError(
                f"weight_decay must have shape ({self.num_variants},), "
                f"got {self.weight_decay.shape}"
            )
        if weight_noise_std is None:
            weight_noise_std = np.full(self.num_variants, self.config.weight_noise_std)
        self.weight_noise_std = np.asarray(weight_noise_std, dtype=np.float64)
        if self.weight_noise_std.shape != (self.num_variants,):
            raise ValueError(
                f"weight_noise_std must have shape ({self.num_variants},), "
                f"got {self.weight_noise_std.shape}"
            )
        self.loss_fn = StackedCrossEntropyLoss(
            label_smoothing=self.config.label_smoothing
        )
        self.optimizer = _build_optimizer(
            model.parameters(),
            self.config,
            self.weight_decay.astype(np.float32),
        )
        # One weight-noise stream per noisy variant, seeded exactly as the
        # serial Trainer seeds its single stream (variants with zero noise
        # never consume theirs — matching the serial early-exit).
        self._noise_rngs = [
            default_rng(self.config.seed + 1) if std > 0 else None
            for std in self.weight_noise_std
        ]
        self._noisy_params = [
            param for param in model.parameters() if param.kind in ("conv", "fc")
        ]
        self.steps_taken = 0

    def make_loader(self, train: Dataset) -> DataLoader:
        """Shared shuffled loader — one batch order for all variants."""
        return DataLoader(
            train,
            batch_size=self.config.batch_size,
            shuffle=True,
            seed=self.config.effective_shuffle_seed,
        )

    # ------------------------------------------------------------------ fit
    def fit(
        self, train: Dataset, test: Dataset | None = None
    ) -> list[TrainingHistory]:
        """Train all variants and return one history per variant.

        As :meth:`Trainer.fit`: per-epoch train metrics, and one stacked
        score of ``test`` for every variant after the last epoch.
        """
        histories = [TrainingHistory() for _ in range(self.num_variants)]
        loader = self.make_loader(train)
        for epoch in range(self.config.epochs):
            epoch_loss, epoch_accuracy = self._run_epoch(loader)
            penalties = stacked_l2_penalty(
                self.model.parameters(), self.weight_decay, num_samples=len(train)
            )
            for index, history in enumerate(histories):
                history.train_loss.append(float(epoch_loss[index]))
                history.train_accuracy.append(float(epoch_accuracy[index]))
                history.l2_penalty.append(float(penalties[index]))
            if self.config.verbose:
                print(
                    f"epoch {epoch + 1}/{self.config.epochs}: "
                    f"mean_loss={float(np.mean(epoch_loss)):.4f}, "
                    f"mean_train_acc={float(np.mean(epoch_accuracy)):.3f}"
                )
        if test is not None:
            test_accuracies = evaluate_accuracies(self.model, test, self.config.batch_size)
            for history, accuracy in zip(histories, test_accuracies):
                history.test_accuracy.append(float(accuracy))
        return histories

    def _run_epoch(self, loader: DataLoader) -> tuple[np.ndarray, np.ndarray]:
        """One stacked pass over the loader; returns per-variant (loss, acc)."""
        self.model.train()
        total_loss = np.zeros(self.num_variants)
        total_correct = np.zeros(self.num_variants, dtype=np.int64)
        total_samples = 0
        noise = _WeightNoise(
            self._noisy_params, self.weight_noise_std, self._noise_rngs
        )
        for images, labels in loader:
            self.optimizer.zero_grad()
            with noise:
                logits = self.model(images)
                losses = self.loss_fn(logits, labels)
                grad_logits = self.loss_fn.backward()
                self.model.backward(grad_logits)
            self.optimizer.step()
            self.steps_taken += 1
            batch = labels.shape[0]
            total_loss += losses * batch
            total_correct += count_correct(logits, labels)
            total_samples += batch
        if total_samples == 0:
            nan = np.full(self.num_variants, float("nan"))
            return nan, nan.copy()
        return total_loss / total_samples, total_correct / total_samples


class _WeightNoise:
    """Context manager implementing weight-level noise-aware training.

    On entry, each conv/fc weight tensor is perturbed with zero-mean Gaussian
    noise whose standard deviation is ``std`` times the tensor's own standard
    deviation (relative noise); on exit the original values are restored.
    Gradients are therefore computed at the perturbed point, which is the
    standard noise-injection training recipe for analog accelerators.

    Two modes share this implementation:

    * **scalar** — ``std`` is a float and ``rng`` a single generator: the
      classic per-model path used by :class:`Trainer`.
    * **stacked** — ``std`` is a ``(V,)`` vector and ``rng`` a parallel list
      of per-variant generators: each parameter's stacked slab ``v`` is
      perturbed relative to *its own* standard deviation from *its own*
      stream, replicating the serial per-variant perturbation bit-for-bit.
    """

    def __init__(self, parameters, std, rng):
        self.parameters = parameters
        self.stacked = np.ndim(std) > 0
        if self.stacked:
            self.std = np.asarray(std, dtype=np.float64)
            self.rngs = list(rng)
        else:
            self.std = float(std)
            self.rng = rng
        self._saved: list[np.ndarray] = []

    def _active(self) -> bool:
        if self.stacked:
            return bool(np.any(self.std > 0))
        return self.std > 0

    def __enter__(self) -> "_WeightNoise":
        if not self._active():
            return self
        if self.stacked:
            self._saved = [param.stacked.copy() for param in self.parameters]
            for param in self.parameters:
                for index, (std, rng) in enumerate(zip(self.std, self.rngs)):
                    std = float(std)
                    if std <= 0 or rng is None:
                        continue
                    slab = param.stacked[index]
                    scale = std * max(float(slab.std()), 1e-8)
                    noise = rng.normal(0.0, scale, size=slab.shape).astype(np.float32)
                    np.add(slab, noise, out=slab)
            return self
        self._saved = [param.data.copy() for param in self.parameters]
        for param in self.parameters:
            scale = self.std * max(float(param.data.std()), 1e-8)
            param.data = param.data + self.rng.normal(0.0, scale, size=param.data.shape).astype(
                np.float32
            )
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if not self._active():
            return
        for param, saved in zip(self.parameters, self._saved):
            if self.stacked:
                param.stacked[...] = saved
            else:
                param.data = saved
        self._saved = []


# -------------------------------------------------------------- evaluation
def count_correct(logits: np.ndarray, labels: np.ndarray):
    """Top-1 correct-prediction count.

    For 2-D ``(N, classes)`` logits returns a scalar count; for stacked
    ``(V, N, classes)`` logits returns a ``(V,)`` per-variant count.  Shared
    by the training loops and :func:`evaluate_accuracy` so every accuracy in
    the library is computed by the same reduction.
    """
    predictions = np.argmax(logits, axis=-1)
    return (predictions == labels).sum(axis=-1)


def evaluate_accuracies(
    model: Module, dataset: Dataset, batch_size: int = 64
) -> np.ndarray:
    """Per-variant top-1 accuracies of a (possibly stacked) model.

    A model carrying a stacked state produces ``(V,)`` accuracies in one
    ensemble pass over the dataset; an ordinary model produces a length-1
    array.  :func:`evaluate_accuracy` is the scalar wrapper.
    """
    model.eval()
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    correct: np.ndarray | int = 0
    total = 0
    for images, labels in loader:
        logits = model(images)
        if logits.ndim == 2:
            logits = logits[None]
        correct = correct + count_correct(logits, labels)
        total += labels.shape[0]
    if total == 0:
        size = int(np.size(correct)) or 1
        return np.full(size, float("nan"))
    return np.asarray(correct, dtype=np.int64) / total


def evaluate_accuracy(model: Module, dataset: Dataset, batch_size: int = 64) -> float:
    """Top-1 accuracy of ``model`` on ``dataset`` (inference mode)."""
    accuracies = evaluate_accuracies(model, dataset, batch_size)
    if accuracies.shape != (1,):
        raise ValueError(
            "evaluate_accuracy expects a single-weight model; use "
            "evaluate_accuracies for stacked models"
        )
    return float(accuracies[0])
