"""Content-addressed on-disk store for trained model checkpoints.

Mirrors :mod:`repro.engine.cache` for *models* instead of result payloads:
each checkpoint is addressed by the SHA-256 of a canonical-JSON key payload
(model identity + resolved training configuration + dataset identity, built
by :func:`repro.mitigation.robust_training.variant_checkpoint_key`) combined
with the ``repro`` version, so a library upgrade invalidates every stored
model without any bookkeeping.

Each entry is a pair of files under ``<root>/<group>/``:

* ``<fingerprint>.npz`` — the model's full state (parameters **and**
  buffers such as batch-norm running statistics), an uncompressed archive
  written by :func:`repro.utils.serialization.save_arrays` (entries stored
  compressed by earlier versions load the same way);
* ``<fingerprint>.json`` — JSON metadata (the key payload for auditability,
  baseline accuracy, training history, and a best-effort ``hits`` counter
  that ``python -m repro report`` surfaces).

Variant training (``MitigationStudy.train_variants``, behind every
``fig8_variant`` and ``fig7_candidate`` run) consults this store before
training; ``python -m repro train`` pre-warms it.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from repro.engine.cache import DEFAULT_CACHE_DIR
from repro.engine.spec import canonical_json
from repro.utils.serialization import load_arrays, load_json, save_arrays, save_json
from repro.version import __version__

__all__ = [
    "CheckpointCache",
    "ModelCheckpoint",
    "DEFAULT_CHECKPOINT_DIR",
    "default_checkpoint_dir",
]

#: Default checkpoint location; override with ``REPRO_CHECKPOINT_DIR`` or the
#: CLI ``--checkpoint-dir``.
DEFAULT_CHECKPOINT_DIR = os.path.join(DEFAULT_CACHE_DIR, "checkpoints")


def default_checkpoint_dir() -> str:
    """Resolve the checkpoint directory from the environment or the default."""
    return os.environ.get("REPRO_CHECKPOINT_DIR", DEFAULT_CHECKPOINT_DIR)


@dataclass
class ModelCheckpoint:
    """One stored trained model: full state arrays plus JSON metadata."""

    arrays: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)


class CheckpointCache:
    """Filesystem-backed store of trained models keyed by content hashes."""

    def __init__(
        self, root: str | Path | None = None, version: str = __version__
    ):
        self.root = Path(root if root is not None else default_checkpoint_dir())
        self.version = version
        #: In-process accounting surfaced by the studies/CLI.
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------- keying
    def fingerprint(self, key: Mapping) -> str:
        """Content hash of ``(key, version)`` — the checkpoint address."""
        digest = hashlib.sha256()
        digest.update(
            canonical_json({"key": dict(key), "version": self.version}).encode()
        )
        return digest.hexdigest()

    def _group(self, key: Mapping) -> str:
        return str(key.get("model", "model"))

    def path_for(self, key: Mapping) -> Path:
        """Path of the ``.npz`` state archive for ``key``."""
        return self.root / self._group(key) / f"{self.fingerprint(key)}.npz"

    def meta_path_for(self, key: Mapping) -> Path:
        return self.path_for(key).with_suffix(".json")

    # ------------------------------------------------------------ lookups
    def contains(self, key: Mapping) -> bool:
        return self.path_for(key).is_file()

    def get(self, key: Mapping) -> ModelCheckpoint | None:
        """Load the checkpoint for ``key``, or ``None`` on a miss.

        Unreadable or corrupt entries count as misses (the caller simply
        retrains and overwrites them) — including an orphaned ``.npz`` whose
        ``.json`` sidecar is gone (``put`` writes the archive first, so an
        interrupted store leaves exactly that shape behind).  Successful
        loads bump the entry's persisted ``hits`` counter best-effort.
        """
        path = self.path_for(key)
        meta_path = self.meta_path_for(key)
        if not path.is_file() or not meta_path.is_file():
            self.misses += 1
            return None
        try:
            arrays = load_arrays(path)
            meta = load_json(meta_path)
        except (
            OSError,
            ValueError,
            KeyError,
            json.JSONDecodeError,
            zipfile.BadZipFile,  # truncated .npz that kept its zip magic
        ):
            self.misses += 1
            return None
        self.hits += 1
        try:
            meta["hits"] = int(meta.get("hits", 0)) + 1
            save_json(meta_path, meta)
        except OSError:
            pass  # hit accounting is advisory; never fail a load over it
        return ModelCheckpoint(arrays=arrays, meta=meta)

    def put(self, key: Mapping, arrays: Mapping[str, np.ndarray], meta: Mapping) -> Path:
        """Persist a trained model under ``key``; returns the ``.npz`` path."""
        path = save_arrays(self.path_for(key), dict(arrays))
        payload = dict(meta)
        payload.setdefault("hits", 0)
        payload["key"] = dict(key)
        payload["version"] = self.version
        save_json(self.meta_path_for(key), payload)
        return path

    # --------------------------------------------------------- maintenance
    def invalidate(self, key: Mapping) -> bool:
        """Drop the checkpoint for ``key``; returns whether one existed."""
        existed = False
        for path in (self.path_for(key), self.meta_path_for(key)):
            if path.is_file():
                path.unlink()
                existed = True
        return existed

    def clear(self) -> int:
        """Remove every checkpoint; returns the number of entries deleted."""
        removed = 0
        for path in self.root.glob("*/*.npz"):
            path.unlink()
            sidecar = path.with_suffix(".json")
            if sidecar.is_file():
                sidecar.unlink()
            removed += 1
        return removed

    def entries(self, group: str | None = None) -> Iterator[dict]:
        """Iterate stored entry summaries (for ``python -m repro report``).

        Walks *all* stored files including ones written under other library
        versions — the audit view, not the lookup path.
        """
        pattern = f"{group}/*.npz" if group else "*/*.npz"
        for path in sorted(self.root.glob(pattern)):
            meta_path = path.with_suffix(".json")
            try:
                meta = load_json(meta_path) if meta_path.is_file() else {}
            except (OSError, json.JSONDecodeError):
                meta = {}
            yield {
                "group": path.parent.name,
                "fingerprint": path.stem,
                "size_bytes": path.stat().st_size,
                "variant": meta.get("variant"),
                "baseline_accuracy": meta.get("baseline_accuracy"),
                "hits": int(meta.get("hits", 0)),
                "version": meta.get("version"),
            }
