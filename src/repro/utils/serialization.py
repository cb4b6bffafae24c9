"""Array serialization helpers.

Trained model parameters and experiment result tables are persisted as
``.npz`` archives so examples and benchmarks can cache expensive training
runs between invocations.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from pathlib import Path

import numpy as np

__all__ = ["save_arrays", "load_arrays", "save_json", "load_json"]

#: Monotonic per-process counter making temporary-file names unique across
#: *threads* as well as processes (the serve daemon writes job records and
#: cache entries from several threads of one pid at once).
_TMP_COUNTER = itertools.count()


def _tmp_sibling(path: Path) -> Path:
    """A unique temporary sibling of ``path`` for atomic write-then-rename.

    Uniqueness covers concurrent processes (pid), concurrent threads within a
    process (thread id + counter), and repeated calls from the same thread
    (counter), so no two in-flight writes ever share a temporary file.
    """
    return path.with_name(
        f"{path.name}.tmp{os.getpid()}-{threading.get_ident()}-{next(_TMP_COUNTER)}"
    )


def save_arrays(path: str | Path, arrays: dict[str, np.ndarray]) -> Path:
    """Save a name→array mapping to an uncompressed ``.npz`` file.

    Model weights barely compress (a trained cnn_mnist checkpoint shrinks by
    about 8%), so the archive is stored, not deflated; :func:`load_arrays`
    reads compressed archives too.

    Parent directories are created as needed, and the archive is written to a
    temporary sibling then atomically renamed, so concurrent writers (e.g.
    sweep pool workers filling the checkpoint store) never expose a
    partially written file.  Returns the resolved path.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _tmp_sibling(path)
    try:
        with open(tmp, "wb") as handle:
            np.savez(handle, **{key: np.asarray(value) for key, value in arrays.items()})
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    return path


def load_arrays(path: str | Path) -> dict[str, np.ndarray]:
    """Load a ``.npz`` archive, compressed or not, into a dictionary of arrays."""
    with np.load(Path(path), allow_pickle=False) as archive:
        return {key: archive[key] for key in archive.files}


def save_json(path: str | Path, payload: dict) -> Path:
    """Serialize ``payload`` to pretty-printed JSON, converting NumPy scalars.

    The document is written to a temporary sibling then atomically renamed:
    concurrent writers (checkpoint hit-counter updates from parallel sweep
    workers, cache records, serve-daemon job updates from multiple threads)
    can interleave without ever leaving a truncated file behind — readers
    always see either the previous complete document or the new one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _tmp_sibling(path)
    try:
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_to_builtin))
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    return path


def load_json(path: str | Path) -> dict:
    """Load a JSON document written by :func:`save_json`."""
    return json.loads(Path(path).read_text())


def _to_builtin(value):
    """JSON serializer fallback for NumPy types."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"Cannot serialize {type(value).__name__} to JSON")
