"""Config-hashed caching of experiment results.

Training six safety suites takes minutes; the figures only need the
resulting QoE numbers.  The cache stores those numbers as plain JSON under
``artifacts/<config-hash>/``, so re-rendering a figure, re-running a
benchmark, or regenerating EXPERIMENTS.md never retrains unless the
configuration changed.

Two payload kinds share one fingerprint-keyed directory:

* JSON (:meth:`ArtifactCache.store` / :meth:`~ArtifactCache.load`) for
  metadata and small results,
* ``.npz`` (:meth:`~ArtifactCache.store_arrays` /
  :meth:`~ArtifactCache.load_arrays`) for arrays — most importantly the
  trained actor/critic weights of the ensemble members, which lets a
  rebuilt safety suite load its networks instead of retraining them.

:data:`SCHEMA_VERSION` is folded into every hashed fingerprint, so
changing the on-disk layout (weight key names, array shapes, JSON
structure) only requires bumping one constant: old directories simply
stop matching and everything is recomputed instead of being loaded in
the wrong format.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro import obs
from repro.errors import ArtifactError
from repro.util.serialization import (
    load_arrays,
    load_json,
    save_arrays,
    save_json,
    stable_hash,
    sweep_stale_temporaries,
)

__all__ = ["ArtifactCache", "default_cache_dir", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1
"""On-disk artifact layout version, hashed into every cache fingerprint.

Bump this whenever the stored format changes incompatibly (e.g. the npz
weight-key naming scheme); every existing cache directory then misses and
its artifacts are recomputed rather than misread."""


def default_cache_dir() -> Path:
    """``artifacts/`` next to the repository root (or under cwd elsewhere)."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pyproject.toml").exists():
            return parent / "artifacts"
    return Path.cwd() / "artifacts"


class ArtifactCache:
    """A tiny JSON + ``.npz`` store keyed by (config fingerprint, name)."""

    def __init__(
        self,
        fingerprint: Mapping[str, Any],
        root: Path | str | None = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self._fingerprint = dict(fingerprint)
        self._fingerprint.setdefault("artifact_schema_version", SCHEMA_VERSION)
        self.key = stable_hash(self._fingerprint)
        self.directory = self.root / self.key
        # A writer killed mid-write leaves its temporary file behind.
        sweep_stale_temporaries(self.directory)

    def path(self, name: str) -> Path:
        """Path of the JSON artifact called *name*."""
        return self.directory / f"{name}.json"

    def array_path(self, name: str) -> Path:
        """Path of the ``.npz`` artifact called *name*."""
        return self.directory / f"{name}.npz"

    def has(self, name: str) -> bool:
        """Whether the JSON artifact *name* is cached."""
        exists = self.path(name).exists()
        if obs.enabled():
            self._observe_request(name, "json", exists)
        return exists

    def has_arrays(self, name: str) -> bool:
        """Whether the ``.npz`` artifact *name* is cached."""
        exists = self.array_path(name).exists()
        if obs.enabled():
            self._observe_request(name, "npz", exists)
        return exists

    def load(self, name: str) -> Any:
        """Load a cached artifact (raises :class:`ArtifactError` if absent)."""
        return load_json(self.path(name))

    def load_arrays(self, name: str) -> dict[str, np.ndarray]:
        """Load a cached ``.npz`` artifact (raises :class:`ArtifactError`
        if absent)."""
        return load_arrays(self.array_path(name))

    def store(self, name: str, payload: Any) -> None:
        """Persist *payload* under *name*, recording the fingerprint once."""
        self._record_fingerprint()
        save_json(self.path(name), payload)
        obs.event("cache.store", artifact=name, kind="json", fingerprint=self.key)

    def store_arrays(self, name: str, arrays: Mapping[str, np.ndarray]) -> None:
        """Persist named arrays (e.g. trained network weights) under
        *name* as an ``.npz``, recording the fingerprint once."""
        self._record_fingerprint()
        save_arrays(self.array_path(name), arrays)
        obs.event("cache.store", artifact=name, kind="npz", fingerprint=self.key)

    def discard(self, name: str) -> bool:
        """Remove the JSON artifact *name* if present; report whether it
        existed.  Used by the checkpoint layer to drop intermediate state
        once a run's final artifact is stored."""
        path = self.path(name)
        existed = path.exists()
        path.unlink(missing_ok=True)
        return existed

    def discard_arrays(self, name: str) -> bool:
        """Remove the ``.npz`` artifact *name* if present; report whether
        it existed."""
        path = self.array_path(name)
        existed = path.exists()
        path.unlink(missing_ok=True)
        return existed

    def get_or_compute(self, name: str, compute: Callable[[], Any]) -> Any:
        """Return the cached value, computing and storing it on a miss."""
        if self.has(name):
            return self.load(name)
        value = compute()
        self.store(name, value)
        return value

    #: Fingerprint fields that say *what* an artifact is rather than how
    #: it was computed; siblings differing here are different artifacts,
    #: not stale versions of this one.
    _IDENTITY_FIELDS = ("artifact", "name", "train_name")

    def _observe_request(self, name: str, kind: str, hit: bool) -> None:
        """Record a lookup's outcome; on a miss, also surface sibling
        cache directories holding the same artifact under a *different*
        fingerprint — the "your config change invalidated this" signal.
        Only called while collection is on."""
        obs.inc(
            "cache.requests",
            artifact=name,
            kind=kind,
            outcome="hit" if hit else "miss",
        )
        if hit:
            obs.event("cache.hit", artifact=name, kind=kind, fingerprint=self.key)
            return
        obs.event("cache.miss", artifact=name, kind=kind, fingerprint=self.key)
        if not self.root.exists():
            return
        suffix = "json" if kind == "json" else "npz"
        for path in sorted(self.root.glob(f"*/{name}.{suffix}")):
            if path.parent.name == self.key or not self._same_identity(path.parent):
                continue
            obs.inc("cache.invalidated")
            obs.event(
                "cache.invalidated",
                artifact=name,
                kind=kind,
                fingerprint=self.key,
                stale_fingerprint=path.parent.name,
            )

    def _same_identity(self, sibling: Path) -> bool:
        """Whether *sibling* caches the same artifact as this fingerprint
        (so a hit there and a miss here means a config change invalidated
        it).  Caches of genuinely different artifacts — another training
        distribution's weights, a different experiment family — share the
        root but differ in key set or identity fields."""
        try:
            fingerprint = load_json(sibling / "config.json")
        except ArtifactError:
            return False
        if not isinstance(fingerprint, dict):
            return False
        if set(fingerprint) != set(self._fingerprint):
            return False
        return all(
            fingerprint.get(field) == self._fingerprint.get(field)
            for field in self._IDENTITY_FIELDS
        )

    def _record_fingerprint(self) -> None:
        """Write the fingerprint (with its schema version) on first store."""
        fingerprint_path = self.directory / "config.json"
        if not fingerprint_path.exists():
            save_json(fingerprint_path, self._fingerprint)
