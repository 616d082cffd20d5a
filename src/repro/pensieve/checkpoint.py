"""Epoch-granular training checkpoints for crash-safe ensemble builds.

Training a safety suite is the pipeline's longest uninterruptible stretch:
a kill at epoch 799 of 800 used to throw the whole ensemble away.  This
module makes the A2C trainer and the value regression resumable at
epoch boundaries with **bitwise-identical** results — the restored run
replays the exact float sequence of an uninterrupted one, because a
checkpoint captures the full training state:

* the network parameters (actor and critic),
* the RMSProp mean-square accumulators,
* the members' RNG states (``Generator.bit_generator.state``),
* the per-epoch summaries and the number of completed epochs.

Checkpoints are stored through the existing
:class:`~repro.experiments.artifacts.ArtifactCache` fingerprint scheme as
one atomically replaced ``.npz`` per trainer (the meta JSON rides inside
the archive, so state and description cannot tear apart), so they live
next to the final weight artifacts they will become, keyed by the same
training fingerprint, and are invalidated by exactly the same config
changes.  :data:`CHECKPOINT_SCHEMA_VERSION` guards the layout: a loader
never tries to interpret a checkpoint written by an incompatible version.

Cadence resolves from an explicit ``checkpoint_every`` argument or the
``REPRO_CHECKPOINT_EVERY`` environment variable (0 disables, the
default).  The final epoch is always checkpointed, so a suite build
killed after one ensemble finished resumes it instantly; once the
combined weight artifact is stored the checkpoint is discarded.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro import obs
from repro.errors import CheckpointError
from repro.util.serialization import to_jsonable

if TYPE_CHECKING:  # imported lazily to avoid a package-import cycle
    from repro.experiments.artifacts import ArtifactCache

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CHECKPOINT_EVERY_ENV",
    "Checkpointer",
    "resolve_checkpoint_every",
    "require",
]

CHECKPOINT_SCHEMA_VERSION = 1
"""On-disk checkpoint layout version, stamped into every meta payload.

Bump whenever the checkpoint format changes incompatibly; old checkpoints
then fail validation and training restarts from epoch 0 instead of
resuming from state it would misread."""

#: Environment variable consulted when ``checkpoint_every`` is not given.
CHECKPOINT_EVERY_ENV = "REPRO_CHECKPOINT_EVERY"


def resolve_checkpoint_every(checkpoint_every: int | None = None) -> int:
    """Resolve the checkpoint cadence in epochs (0 = disabled).

    Precedence: a positive explicit argument, then the
    ``REPRO_CHECKPOINT_EVERY`` environment variable, then 0 — so
    checkpointing is opt-in and a cadence set by the CLI's ``--resume``
    reaches every engine (including forked workers, which inherit the
    environment).
    """
    if checkpoint_every is not None and checkpoint_every < 0:
        raise CheckpointError(
            f"checkpoint_every must be >= 0, got {checkpoint_every}"
        )
    if checkpoint_every:
        return checkpoint_every
    env = os.environ.get(CHECKPOINT_EVERY_ENV, "").strip()
    if not env:
        return 0
    try:
        value = int(env)
    except ValueError as exc:
        raise CheckpointError(
            f"{CHECKPOINT_EVERY_ENV} must be a non-negative integer, got {env!r}"
        ) from exc
    if value < 0:
        raise CheckpointError(
            f"{CHECKPOINT_EVERY_ENV} must be >= 0, got {value}"
        )
    return value


def require(meta: Mapping[str, Any], **expected: Any) -> None:
    """Validate checkpoint *meta* against the running trainer's identity.

    Raises :class:`CheckpointError` naming the first mismatching field.
    The schema version is always checked; callers add the fields that
    pin a checkpoint to one trainer (engine, seeds, total epochs), so a
    checkpoint can never silently resume the wrong run.
    """
    schema = meta.get("schema")
    if schema != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint schema {schema!r} != supported "
            f"{CHECKPOINT_SCHEMA_VERSION}"
        )
    for field, value in expected.items():
        found = meta.get(field)
        if found != value:
            raise CheckpointError(
                f"checkpoint {field} mismatch: saved {found!r}, "
                f"trainer expects {value!r}"
            )


class Checkpointer:
    """Saves and loads one trainer's checkpoint through an artifact cache.

    One instance is bound to one ``(cache, artifact name)`` pair — e.g.
    the agent-ensemble checkpoint of one training distribution —
    and owns the cadence decision: :meth:`due` is true every *every*
    epochs and always at the final epoch.
    """

    def __init__(self, cache: "ArtifactCache", artifact: str, every: int) -> None:
        if every < 1:
            raise CheckpointError(f"checkpoint cadence must be >= 1, got {every}")
        self.cache = cache
        self.artifact = artifact
        self.every = every

    def due(self, epochs_completed: int, epochs_total: int) -> bool:
        """Whether a checkpoint should be written after this epoch."""
        if epochs_completed < 1:
            return False
        return (
            epochs_completed % self.every == 0
            or epochs_completed == epochs_total
        )

    #: Reserved array key holding the JSON-encoded meta payload.
    META_KEY = "__checkpoint_meta__"

    def load(self) -> tuple[dict, dict[str, np.ndarray]] | None:
        """The saved ``(meta, arrays)``, or ``None`` when absent.

        A schema mismatch or a malformed meta raises
        :class:`CheckpointError`; callers then validate trainer identity
        with :func:`require` before restoring.
        """
        if not self.cache.has_arrays(self.artifact):
            return None
        arrays = self.cache.load_arrays(self.artifact)
        encoded = arrays.pop(self.META_KEY, None)
        if encoded is None:
            raise CheckpointError(
                f"checkpoint {self.artifact!r} has no embedded meta"
            )
        try:
            meta = json.loads(str(np.asarray(encoded)[()]))
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"checkpoint {self.artifact!r} meta is corrupt: {exc}"
            ) from exc
        if not isinstance(meta, dict):
            raise CheckpointError(
                f"checkpoint {self.artifact!r} meta is not a mapping"
            )
        require(meta)
        if obs.enabled():
            obs.inc("checkpoint.resumes", artifact=self.artifact)
            obs.event(
                "checkpoint.resume",
                artifact=self.artifact,
                epochs_completed=meta.get("epochs_completed"),
                engine=meta.get("engine"),
            )
        return meta, arrays

    def save(self, meta: Mapping[str, Any], arrays: Mapping[str, np.ndarray]) -> None:
        """Persist a checkpoint as one atomically replaced ``.npz``.

        The meta rides *inside* the archive (JSON-encoded under
        :data:`META_KEY`), so state and its description can never tear
        apart: a kill mid-save leaves the previous complete checkpoint in
        place, never a half-written or mixed-generation one.
        """
        if self.META_KEY in meta or self.META_KEY in arrays:
            raise CheckpointError(
                f"{self.META_KEY!r} is reserved for the checkpoint layer"
            )
        stamped = dict(meta)
        stamped["schema"] = CHECKPOINT_SCHEMA_VERSION
        payload = dict(arrays)
        payload[self.META_KEY] = np.asarray(
            json.dumps(to_jsonable(stamped), sort_keys=True)
        )
        self.cache.store_arrays(self.artifact, payload)
        if obs.enabled():
            obs.inc("checkpoint.saves", artifact=self.artifact)
            obs.event(
                "checkpoint.save",
                artifact=self.artifact,
                epochs_completed=stamped.get("epochs_completed"),
                engine=stamped.get("engine"),
            )

    def discard(self) -> None:
        """Remove the checkpoint (called once its run completed and the
        final weight artifact exists)."""
        if self.cache.discard_arrays(self.artifact) and obs.enabled():
            obs.inc("checkpoint.discards", artifact=self.artifact)
            obs.event("checkpoint.discard", artifact=self.artifact)
