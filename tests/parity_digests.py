"""Payload and weight digests of one source tree, to compare two trees.

Run it against each tree's ``src`` directory and compare the outputs; a
change that keeps payloads and trained weights byte-identical prints the
same lines::

    python tests/parity_digests.py ../parent/src > parent.json
    python tests/parity_digests.py src > change.json
    diff parent.json change.json

It prints one JSON object.  Each run of :data:`RUN_ORDER_RUNS`, and a
one-placement ``fig7_grid`` on vgg16_variant and on resnet18, maps to the
sha256 of its canonical payload and of its workload's trained and engine
weights (:func:`run_digests`).  The default ``fig7``, ``fig8`` and ``fig9``
runs map to their payload sha256.  Each variant of the stacked 11-variant
cnn_mnist grid, trained per seed of :data:`VARIANT_GRID_SEEDS`, maps to the
sha256 of its weights, of its history and baseline accuracy, and of the
arrays a checkpoint store gives back (:func:`variant_grid_digests`).
Checkpointed runs use a fresh temporary checkpoint store.

The script needs only ``get_experiment``, ``prepared_workload``,
``canonical_json``, ``MitigationStudy``, ``CheckpointCache``,
``TrainingConfig`` and ``robust_training``'s grid and checkpoint functions
from the tree under test, so an older tree's ``src`` runs under it
unchanged.  ``tests/test_analysis.py`` imports :data:`RUN_ORDER_RUNS` and
:func:`run_digests` from here too.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

#: A mixed in-process sweep over the workload memo: two seeds, quantized and
#: unquantized engines, the unmitigated workload and named variants, with and
#: without the checkpoint store, in registry order.
RUN_ORDER_RUNS = (
    ("fig7_point", {"kind": "hotspot", "seed": 1}),
    ("fig7_point", {"kind": "hotspot"}),
    ("fig7_point", {"kind": "actuation", "block": "fc", "quantize_weights": False}),
    ("fig7_grid", {"kinds": ["actuation"], "blocks": ["fc"], "fractions": [0.1],
                   "num_placements": 1}),
    ("fig7_candidate", {"variant": ""}),
    ("fig7_candidate", {"variant": "l2+n3", "checkpoint_cache": True}),
    ("fig7_candidate", {"variant": "l2+n3", "quantize_weights": False}),
    ("fig8_variant", {"variant": "l2+n3", "checkpoint_cache": True,
                      "fractions": [0.1], "num_placements": 1}),
    ("fig8_variant", {"variant": "Original", "fractions": [0.1], "num_placements": 1}),
)
LARGER_MODEL_RUNS = tuple(
    ("fig7_grid", {"model": model, "num_placements": 1})
    for model in ("vgg16_variant", "resnet18")
)
FIGURES = ("fig7", "fig8", "fig9")
#: Training seeds of the stacked variant grid, trained at the configuration
#: of the ``variant_training`` benchmark workload.
VARIANT_GRID_SEEDS = (1, 2)


def payload_digest(payload) -> str:
    """The sha256 of ``payload``'s canonical JSON."""
    from repro.engine.spec import canonical_json

    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def state_digest(arrays) -> str:
    """The sha256 of a name-to-array mapping's sorted names and bytes."""
    digest = hashlib.sha256()
    for name, value in sorted(arrays.items()):
        digest.update(name.encode() + value.tobytes())
    return digest.hexdigest()


def run_digests(runs) -> list[list[str]]:
    """Run each ``(experiment_id, params)`` in order in this process.

    Returns, per run, the sha256 of its canonical payload and the sha256 of
    the trained and engine weights of the workload it ran on.
    """
    from repro.analysis import get_experiment
    from repro.analysis.experiments import prepared_workload

    digests = []
    for experiment_id, overrides in runs:
        experiment = get_experiment(experiment_id)
        payload = experiment.run(overrides)
        params = experiment.resolve_params(overrides)
        engine, _, _, trained = prepared_workload(
            params["model"],
            params.get("variant", ""),
            params["seed"],
            params.get("quantize_weights", True),
            params.get("checkpoint_cache", False),
        )
        weights = hashlib.sha256()
        for model in (trained.model, engine.model):
            for name, value in sorted(model.full_state_dict().items()):
                weights.update(name.encode() + value.tobytes())
        digests.append([payload_digest(payload), weights.hexdigest()])
    return digests


def variant_grid_digests(seed: int) -> dict[str, list[str]]:
    """Digests of the stacked 11-variant cnn_mnist grid trained under ``seed``.

    The grid trains for one epoch at batch size 32 and learning rate 2e-3,
    as the ``variant_training`` benchmark workload trains it.  Per variant:
    the sha256 of its trained ``full_state_dict()``, of its history and
    baseline accuracy, and of the arrays read back from a temporary
    checkpoint store it was stored into.
    """
    from repro.analysis.mitigation_analysis import MitigationStudy
    from repro.engine.checkpoints import CheckpointCache
    from repro.mitigation import robust_training as rt
    from repro.nn.training import TrainingConfig

    model_name = "cnn_mnist"
    split = MitigationStudy().prepare_split(model_name)
    base = TrainingConfig(seed=seed, epochs=1, batch_size=32, lr=2e-3)
    results = rt.train_variant_grid_stacked(model_name, split, base)
    digests = {}
    with tempfile.TemporaryDirectory() as root:
        cache = CheckpointCache(root)
        for result in results:
            key = rt.variant_checkpoint_key(model_name, result.spec, base)
            rt.store_variant_checkpoint(cache, key, result)
            digests[f"variant_grid seed={seed} {result.spec.name}"] = [
                state_digest(result.model.full_state_dict()),
                payload_digest({
                    "history": result.history.to_dict(),
                    "baseline_accuracy": result.baseline_accuracy,
                }),
                state_digest(cache.get(key).arrays),
            ]
    return digests


def tree_digests(src: Path) -> dict:
    """The digests of the ``repro`` package under ``src``."""
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"repro was imported from {repro.__file__}, not from {src}")
    from repro.analysis import get_experiment

    runs = RUN_ORDER_RUNS + LARGER_MODEL_RUNS
    digests = {
        f"{experiment_id} {json.dumps(params, sort_keys=True)}": pair
        for (experiment_id, params), pair in zip(runs, run_digests(runs))
    }
    for experiment_id in FIGURES:
        digests[experiment_id] = payload_digest(get_experiment(experiment_id).run())
    for seed in VARIANT_GRID_SEEDS:
        digests.update(variant_grid_digests(seed))
    return digests


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python tests/parity_digests.py SRC_DIR")
    with tempfile.TemporaryDirectory() as store:
        os.environ["REPRO_CHECKPOINT_DIR"] = store
        digests = tree_digests(Path(sys.argv[1]).resolve())
    print(json.dumps(digests, indent=1, sort_keys=True))
