"""The structure-of-arrays session table behind continuous batching.

:class:`SessionTable` holds the numeric state of every *live* serving
slot in preallocated arrays — one row per slot — so the engine's wave
kernel can gather a full observation batch, fold a wave of monitor
decisions, and test liveness with array operations instead of iterating
Python session objects.  The inherently per-session Python state (the
environment, the RNG, the growing result record — whatever the domain's
:class:`~repro.domains.SessionFactory` produced — and the env-owned
current observation array) rides in parallel lists indexed by the same
slot number.

Slots are recycled through a LIFO free-list: when a session finishes,
its slot is released and the next queued
:class:`~repro.domains.SessionSpec` is admitted into it without
draining the wave — LLM-style continuous batching, so heterogeneous
session mixes keep the batch full.  ``slots_reused`` counts admissions
into previously-used slots (exported as the ``serve.slot_reuse``
metric).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import SimulationError

__all__ = ["SessionTable"]


class SessionTable:
    """SoA storage for up to ``capacity`` concurrently served sessions.

    The table is pure bookkeeping: it never steps environments or
    measures signals.  The engine admits a session with :meth:`admit`
    (claiming a slot from the free-list), advances live rows itself, and
    returns slots with :meth:`release`.
    """

    def __init__(self, capacity: int, observation_shape: tuple[int, ...]) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: Stacked current observations, one row per slot.  Rows of
        #: inactive slots are stale; always index through live rows.
        self.observations = np.zeros((capacity, *observation_shape), dtype=float)
        #: Liveness mask over slots.
        self.active = np.zeros(capacity, dtype=bool)
        #: Which spec (by position in the engine's spec list) each live
        #: slot is serving; -1 for free slots.
        self.spec_index = np.full(capacity, -1, dtype=np.int64)
        #: Agent-controlled chunks left per slot (Python ints — they are
        #: touched once per row per wave, where ints beat numpy scalars).
        self.remaining: list[int] = [0] * capacity
        #: Per-slot Python state: environment, RNG, result, and the
        #: env-owned current observation object (the exact array the
        #: reference loop would pass to ``policy.act``).
        self.envs: list[Any] = [None] * capacity
        self.rngs: list[Any] = [None] * capacity
        self.results: list[Any] = [None] * capacity
        self.current_observation: list[Any] = [None] * capacity
        # LIFO free-list, seeded so pop() claims slot 0 first: initial
        # admissions fill slots in ascending order, and a just-released
        # slot is reused immediately (cache-friendly, and deterministic).
        self._free = list(range(capacity - 1, -1, -1))
        self._used = np.zeros(capacity, dtype=bool)
        #: Admissions into a slot that already served a session.
        self.slots_reused = 0
        #: Total admissions over the table's lifetime.
        self.admissions = 0

    @property
    def free_slots(self) -> int:
        """Number of slots currently available for admission."""
        return len(self._free)

    @property
    def live_count(self) -> int:
        """Number of slots currently serving a session."""
        return self.capacity - len(self._free)

    def live_rows(self) -> np.ndarray:
        """Indices of live slots, ascending."""
        return np.flatnonzero(self.active)

    def admit(
        self,
        spec_index: int,
        env: Any,
        rng: Any,
        result: Any,
        observation: np.ndarray,
        remaining: int,
    ) -> int:
        """Claim a free slot for a fresh session; returns the slot index.

        Raises :class:`SimulationError` when the table is full — the
        engine must only admit while :attr:`free_slots` is positive.
        """
        if not self._free:
            raise SimulationError(
                f"session table is full ({self.capacity} slots)"
            )
        slot = self._free.pop()
        if self._used[slot]:
            self.slots_reused += 1
        self._used[slot] = True
        self.admissions += 1
        self.active[slot] = True
        self.spec_index[slot] = spec_index
        self.remaining[slot] = int(remaining)
        self.envs[slot] = env
        self.rngs[slot] = rng
        self.results[slot] = result
        self.current_observation[slot] = observation
        self.observations[slot] = observation
        return slot

    def release(self, slot: int) -> None:
        """Return a finished session's slot to the free-list."""
        if not self.active[slot]:
            raise SimulationError(f"slot {slot} is not live")
        self.active[slot] = False
        self.spec_index[slot] = -1
        self.remaining[slot] = 0
        self.envs[slot] = None
        self.rngs[slot] = None
        self.results[slot] = None
        self.current_observation[slot] = None
        self._free.append(slot)
