"""The multi-session serving engine.

:class:`ServeEngine` drives N concurrent monitored sessions in waves
over a structure-of-arrays session table
(:class:`~repro.serve.table.SessionTable`): each wave gathers the
stacked observations of every measuring row, answers all of their
uncertainty signals with **one** batched ensemble forward
(:meth:`UncertaintySignal.measure_batch`), folds the whole wave of
monitor decisions with vectorized trigger/monitor banks
(:class:`~repro.core.monitor.MonitorTable`), answers the wave's learned
rows with one batched policy forward when the learned policy has an
``act_batch``, and then advances each live row one decision.  Sessions
join and leave waves without draining the batch: a finished session's
slot goes back to a free-list and the next queued spec is admitted into
it immediately (continuous batching), so ``max_slots`` bounds memory
while waves stay full.  A row that settles on the sticky default
(``will_measure() == False`` for good) is served to completion in a
tight per-session loop on the spot — its remaining trajectory is fully
determined, so waves would only add bookkeeping — and its slot is
recycled immediately.  Stateful signals (``U_S``) run through the same
kernel: each slot owns a copy of the signal and measures its own row
with the scalar ``measure``, and only the fold, the act and the slot
bookkeeping are shared.

The workload enters only through the
:class:`~repro.domains.SessionFactory` the engine is constructed with:
it builds environments, sizes sessions, and produces per-step records.
The engine itself is domain-agnostic — ABR video sessions and
congestion-control sessions run through the same kernel.

Numerics: a batched policy act must return exactly the actions its
per-row ``act`` would (``PensieveAgent.act_batch`` runs a row-stable
forward whose every row is bitwise-equal to a single-observation
forward), so a session's *trajectory* matches the serial session loop
(:func:`repro.core.runner.run_monitored_session`, the one loop every
one-call session function runs through) bitwise as long as its monitor
decisions match.  Batched signal values can differ from the
per-session path in the last ulp (BLAS accumulation order depends on
the batch shape), which could in principle flip a trigger comparison
exactly at the threshold; the serial runner measures one observation
at a time and is the unconditionally bitwise-exact path.  The fold
itself cannot differ: a :class:`~repro.core.monitor.SafetyMonitor` is a
one-row :class:`~repro.core.monitor.MonitorTable`, so the runner, the
service and the kernel run every trigger and mode update through the
same row-bank code (:mod:`repro.core.thresholding`).

Serving is in-process only: the one process pool builds the experiment
matrix (:mod:`repro.parallel`), never the engine.
"""

from __future__ import annotations

import copy
import time

import numpy as np

from repro import obs
from repro.core.monitor import MonitorTable, SafetyMonitor
from repro.core.signals import UncertaintySignal
from repro.core.thresholding import DefaultTrigger
from repro.domains import (
    MonitoredScheme,
    MonitoredSessionResult,
    SessionFactory,
    SessionSpec,
)
from repro.errors import SafetyError
from repro.mdp.interfaces import Policy
from repro.serve.table import SessionTable
from repro.util.rng import rng_from_seed

__all__ = ["ServeEngine"]


class ServeEngine:
    """Serve many monitored sessions from one set of trained artifacts.

    *factory* is the domain's :class:`~repro.domains.SessionFactory`: it
    builds an environment per spec, fixes the number of decision steps,
    and turns env steps into per-step records.  *signal* is shared
    across all sessions when it is stateless (the ensemble signals — one
    stacked forward answers everyone); a stateful signal (``U_S``) is
    deep-copied per slot and reset at each admission, so each session
    keeps its own rolling windows.  *trigger* is a prototype: the kernel
    folds every wave through a bank of the same rule with one row per
    slot (:meth:`~repro.core.thresholding.DefaultTrigger.make_table`).
    ``max_slots`` caps how many sessions are live at once (``None`` —
    all of them); finished sessions free their slot for the next queued
    spec mid-run.
    """

    def __init__(
        self,
        factory: SessionFactory,
        learned: Policy,
        default: Policy,
        signal: UncertaintySignal,
        trigger: DefaultTrigger,
        allow_revert: bool = False,
        name: str = "serve",
        max_slots: int | None = None,
    ) -> None:
        if learned is default:
            raise SafetyError("learned and default policies must be distinct")
        if max_slots is not None and max_slots < 1:
            raise SafetyError(f"max_slots must be >= 1, got {max_slots}")
        self.factory = factory
        self.learned = learned
        self.default = default
        self.signal = signal
        self.trigger = trigger
        self.allow_revert = allow_revert
        self.name = name
        self.max_slots = max_slots

    @classmethod
    def from_scheme(
        cls, scheme: MonitoredScheme, max_slots: int | None = None
    ) -> "ServeEngine":
        """An engine that serves *scheme*'s sessions through its factory."""
        return cls(
            factory=scheme.factory,
            learned=scheme.learned,
            default=scheme.default,
            signal=scheme.signal,
            trigger=scheme.trigger,
            allow_revert=scheme.allow_revert,
            name=scheme.name,
            max_slots=max_slots,
        )

    def spawn_monitor(self) -> SafetyMonitor:
        """A fresh per-session monitor over this engine's scheme."""
        prototype = SafetyMonitor(
            self.signal,
            self.trigger,
            allow_revert=self.allow_revert,
            name=self.name,
        )
        return prototype.fork()

    def run(self, specs: list[SessionSpec]) -> list[MonitoredSessionResult]:
        """Serve *specs* in this process; results come back in order.

        Every session goes through the continuous kernel; stateful
        signals (``U_S``) measure each row alone with the scalar
        ``measure``.
        """
        specs = list(specs)
        watching = obs.enabled()
        start = time.perf_counter() if watching else 0.0
        with obs.span("serve.run", engine=self.name, sessions=len(specs)):
            results, total_steps = self._run_continuous(specs, watching)
        if watching:
            wall = time.perf_counter() - start
            obs.inc("serve.steps", amount=float(total_steps), engine=self.name)
            obs.observe("serve.wall_seconds", wall, engine=self.name)
            if wall > 0:
                obs.observe(
                    "serve.steps_per_second",
                    total_steps / wall,
                    engine=self.name,
                )
        return results

    # perfbench/ calls the kernel by this name and is frozen under
    # BENCHMARK.json's ``paths``.
    run_inprocess = run

    def _run_continuous(
        self, specs: list[SessionSpec], watching: bool
    ) -> tuple[list[MonitoredSessionResult], int]:
        """The continuous-batching step kernel over the SoA session table.

        Per wave: measure every live row's signal (one batched forward
        over the table's stacked observations, or the scalar measure row
        by row), fold the wave into the vectorized monitor bank, answer
        the learned rows with one ``act_batch`` call when the learned
        policy has one, then advance each row one decision (per-row env
        step).  A row that settles on the sticky default is drained to
        completion in a tight loop; finished rows release their slot and
        the next queued spec is admitted into it immediately.
        """
        factory = self.factory
        record = factory.record
        signal = self.signal
        learned = self.learned
        default = self.default
        allow_revert = self.allow_revert
        # A stateful signal is copied per slot and measured row by row.
        batch_measure = signal.stateless
        # Probed once per run: a learned policy without ``act_batch``
        # costs one check per wave and nothing per row.
        act_batch = getattr(learned, "act_batch", None)
        # A sticky row that fires is drained: it is never measured again.
        drain = not allow_revert
        chunks_per_session = factory.steps_per_session()
        capacity = len(specs) if self.max_slots is None else self.max_slots
        capacity = max(min(capacity, len(specs)), 1)
        slot_signals = [signal if signal.stateless else None] * capacity
        results: list[MonitoredSessionResult | None] = [None] * len(specs)
        # The table is allocated lazily from the first admitted session's
        # observation shape (probing the shape up front would need a
        # throwaway env reset, which walks the trace).
        table: SessionTable | None = None
        monitors: MonitorTable | None = None
        next_spec = 0

        def admit_one() -> None:
            """Admit the next queued spec into a free slot (specs whose
            factory leaves no agent-controlled steps complete
            immediately, exactly like the reference construction)."""
            nonlocal next_spec, table, monitors
            while next_spec < len(specs):
                index = next_spec
                next_spec += 1
                spec = specs[index]
                env = factory.new_env(spec)
                rng = rng_from_seed(spec.seed)
                observation = env.reset()
                result = factory.new_result(spec, spec.name or self.name)
                if chunks_per_session <= 0:
                    results[index] = result
                    continue
                if table is None:
                    table = SessionTable(
                        capacity, tuple(np.asarray(observation).shape)
                    )
                    monitors = MonitorTable(
                        capacity,
                        self.trigger.make_table(capacity),
                        allow_revert=allow_revert,
                        name=self.name,
                    )
                slot = table.admit(
                    index, env, rng, result, observation, chunks_per_session
                )
                monitors.admit(slot)
                # A reset signal per session, as the serial reference's
                # monitor reset; stateful ones are copied like ``fork``.
                slot_signal = slot_signals[slot]
                if slot_signal is None:
                    slot_signal = slot_signals[slot] = copy.deepcopy(signal)
                slot_signal.reset()
                return

        admit_one()
        if table is None:
            # Every spec completed at admission (no agent-controlled
            # chunks); nothing to serve.
            return results, 0
        while next_spec < len(specs) and table.free_slots:
            admit_one()

        observations = table.observations
        obs_objects = table.current_observation
        envs = table.envs
        rngs = table.rngs
        slot_results = table.results
        remaining = table.remaining
        spec_index = table.spec_index
        defaulted = monitors.defaulted
        learned_act = learned.act
        default_act = default.act
        total_steps = 0
        # Every live row measures every wave: a row of a sticky
        # (non-revertible) bank that fires is *drained* to completion in
        # a tight per-session loop the moment it settles — its remaining
        # trajectory is fully determined (default policy, no
        # measurement), so carrying it through waves would only pay
        # bookkeeping — and its slot is recycled immediately.  Wave
        # membership therefore only changes when a session finishes or a
        # spec is admitted; cache it between those events instead of
        # rediscovering it every wave.
        rows_list: list[int] = []
        measuring = np.empty(0, dtype=np.intp)
        num_measuring = 0
        membership_dirty = True
        # Per-slot default-mode flags as plain Python bools, synced with
        # ``monitors.defaulted`` whenever it changes: the per-row loop
        # reads one per step, where a list read beats a numpy scalar
        # lookup.
        default_flags = [False] * capacity

        while table.live_count:
            if membership_dirty:
                rows = table.live_rows()
                rows_list = rows.tolist()
                for slot, flag in zip(rows_list, defaulted[rows].tolist()):
                    default_flags[slot] = flag
                measuring = rows
                num_measuring = len(rows_list)
                membership_dirty = False
            if watching:
                obs.observe(
                    "serve.wave_occupancy",
                    num_measuring / capacity,
                    engine=self.name,
                )
            if batch_measure and num_measuring > 1:
                # A full table measures straight off the stacked array —
                # no gather copy.
                batch = (
                    observations
                    if num_measuring == capacity
                    else observations[measuring]
                )
                values = np.asarray(signal.measure_batch(batch), dtype=float)
                if watching:
                    obs.observe(
                        "serve.batch_size",
                        float(num_measuring),
                        engine=self.name,
                    )
            else:
                # A lone row or a stateful signal: each row's own
                # signal through the scalar measure,
                # exactly like the serial reference.
                values = np.array(
                    [
                        float(slot_signals[slot].measure(obs_objects[slot]))
                        for slot in rows_list
                    ]
                )
            now = monitors.observe_measured(measuring, values)
            if allow_revert or now.any():
                for slot, flag in zip(rows_list, now.tolist()):
                    default_flags[slot] = flag
            total_steps += num_measuring
            act = learned_act
            if act_batch is not None:
                learned_rows = [s for s in rows_list if not default_flags[s]]
                if len(learned_rows) > 1:
                    # One batched forward for the wave's learned rows; a
                    # full table of learned rows needs no gather copy.
                    batch = (
                        observations
                        if len(learned_rows) == capacity
                        else observations[learned_rows]
                    )
                    act = _replay(
                        act_batch(batch, [rngs[slot] for slot in learned_rows])
                    )
            for slot in rows_list:
                observation = obs_objects[slot]
                is_default = default_flags[slot]
                action = (default_act if is_default else act)(
                    observation, rngs[slot]
                )
                result = slot_results[slot]
                # The env hands out a freshly copied observation array
                # every step (the state builders copy out), so appending
                # it directly is byte-identical to the reference's
                # defensive copy — without the copy.
                result.observation_list.append(observation)
                step = envs[slot].step(action)
                result.chunks.append(record(step, is_default))
                remaining[slot] -= 1
                finished = step.done or remaining[slot] == 0
                if not finished and is_default and drain:
                    # Settled for good: serve the rest of the session in
                    # a tight loop — byte-identical to the reference's
                    # sticky skip (default action, no measurement)
                    # with the monitor bookkeeping credited in one call.
                    env_step = envs[slot].step
                    rng = rngs[slot]
                    append_observation = result.observation_list.append
                    append_chunk = result.chunks.append
                    observation = step.observation
                    left = remaining[slot]
                    drained = 0
                    while True:
                        action = default_act(observation, rng)
                        append_observation(observation)
                        step = env_step(action)
                        append_chunk(record(step, True))
                        drained += 1
                        left -= 1
                        if step.done or left == 0:
                            break
                        observation = step.observation
                    remaining[slot] = left
                    total_steps += drained
                    monitors.observe_sticky(
                        np.array([slot]), waves=drained
                    )
                    finished = True
                if finished:
                    results[spec_index[slot]] = result
                    table.release(slot)
                    membership_dirty = True
                    if watching:
                        obs.inc("serve.sessions", engine=self.name)
                    if next_spec < len(specs):
                        # Continuous admission: the freed slot (LIFO, so
                        # exactly this one — already stepped this wave)
                        # joins the next wave without draining the batch.
                        admit_one()
                else:
                    obs_objects[slot] = step.observation
                    observations[slot] = step.observation
        if watching and table.slots_reused:
            obs.inc(
                "serve.slot_reuse",
                amount=float(table.slots_reused),
                engine=self.name,
            )
        return results, total_steps


def _replay(actions: list[int]):
    """An ``act``-shaped callable handing out *actions* in call order:
    the wave's batched learned actions, consumed in row order."""
    take = iter(actions).__next__

    def act(observation, rng) -> int:
        return take()

    return act

