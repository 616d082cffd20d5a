"""JSON / npz persistence helpers for experiment artifacts and models.

Artifacts are stored as plain JSON (for metadata and small results) plus
``.npz`` files (for arrays such as network weights), so that everything on
disk is inspectable without this library.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.errors import ArtifactError

__all__ = [
    "stable_hash",
    "to_jsonable",
    "save_text",
    "save_json",
    "load_json",
    "save_arrays",
    "load_arrays",
    "sweep_stale_temporaries",
]


def to_jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays into JSON-friendly types."""
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(key): to_jsonable(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    return value


def stable_hash(payload: Mapping[str, Any]) -> str:
    """Deterministic short hash of a JSON-serializable mapping.

    Used to key the artifact cache by experiment configuration: the same
    configuration always maps to the same cache directory.
    """
    text = json.dumps(to_jsonable(dict(payload)), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _temporary_path(path: Path) -> Path:
    """The writer-unique ``.<name>.<pid>.<tid>.tmp`` beside *path*."""
    return path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # alive, owned by another user
    return True


def sweep_stale_temporaries(directory: Path | str) -> None:
    """Remove the temporary files of writers that died mid-write.

    :func:`save_text` and :func:`save_arrays` clean up after a Python
    exception, but a process killed mid-write (a pool worker terminated
    with its pool) leaves its ``.<name>.<pid>.<tid>.tmp`` behind.  This
    removes each such file in *directory* whose writer pid is no longer
    alive and keeps those of live writers, which may still be writing.
    Does nothing off POSIX, where probing a pid with signal 0 is not
    available.
    """
    directory = Path(directory)
    if os.name != "posix" or not directory.is_dir():
        return
    for path in directory.glob(".*.tmp"):
        fields = path.name[: -len(".tmp")].rsplit(".", 2)
        if len(fields) != 3 or not fields[1].isdigit() or not fields[2].isdigit():
            continue
        if _pid_alive(int(fields[1])):
            continue
        path.unlink(missing_ok=True)


def save_text(path: Path | str, text: str) -> None:
    """Write *text* to *path* atomically, creating parent directories.

    The write is atomic: the text goes to a uniquely named temporary
    file in the target directory and is moved into place with
    :func:`os.replace`, so a reader (or a crash, or a concurrent writer
    in another worker process) can never observe a half-written file.
    Every exported artifact — JSON results, metrics JSONL — goes through
    this one helper.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = _temporary_path(path)
    try:
        temporary.write_text(text)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def save_json(path: Path | str, payload: Any) -> None:
    """Write *payload* as pretty-printed JSON via the atomic
    :func:`save_text` helper."""
    save_text(path, json.dumps(to_jsonable(payload), indent=2, sort_keys=True))


def load_json(path: Path | str) -> Any:
    """Load JSON from *path*, raising :class:`ArtifactError` when absent."""
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"artifact not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"corrupt artifact {path}: {exc}") from exc


def save_arrays(path: Path | str, arrays: Mapping[str, np.ndarray]) -> None:
    """Persist a named collection of arrays as an ``.npz`` file.

    Atomic exactly like :func:`save_text`: the archive is written to a
    uniquely named temporary file and renamed into place, so a crash (or
    an injected worker kill) mid-write can never leave a truncated
    ``.npz`` behind — which is what makes training checkpoints safe to
    take at any epoch boundary.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = _temporary_path(path)
    try:
        with open(temporary, "wb") as handle:
            np.savez(
                handle, **{key: np.asarray(val) for key, val in arrays.items()}
            )
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def load_arrays(path: Path | str) -> dict[str, np.ndarray]:
    """Load an ``.npz`` file saved by :func:`save_arrays`."""
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"artifact not found: {path}")
    with np.load(path) as data:
        return {key: data[key] for key in data.files}
