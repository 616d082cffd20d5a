"""The congestion-control domain: a rate-control MDP, registered as ``cc``.

The second OSAP workload, built entirely on the existing
:mod:`repro.mdp` substrate: a sender picks one of eight sending rates
each control interval, a bottleneck link (driven by the same bandwidth
traces the ABR domain streams) delivers what capacity allows, queues a
bounded backlog, and drops the rest.  Observations are a short history
of (sent rate, delivered rate, loss fraction, queue delay); the reward
is PCC-Vivace-shaped — throughput minus loss and latency penalties.

The *learned* policy is a tabular Q-learning agent
(:func:`repro.mdp.qlearning.train_q_learning`) trained on in-distribution
traces; the *safe fallback* is a conservative rate rule (highest ladder
rate at most 80 % of the last delivered throughput).  The ``U_pi``
ensemble members are Q-agents with *randomized priors*: each starts from
a member-specific random Q-table, so training pulls well-visited entries
toward the common fixed point while rarely-visited entries keep their
priors — ensemble disagreement concentrates exactly where training data
was scarce, the tabular analogue of deep-ensemble epistemic uncertainty.
In-distribution the link is provisioned above the rate ladder
(:data:`TRACE_SCALE`), so sustained-congestion states are nearly
unvisited during training and light up the signal after a capacity
shift.  The trigger is a CUSUM (:class:`repro.core.strategies
.CusumTrigger`): rare one-step excursions into a lightly-visited state
bleed off against the drift, while the persistent post-shift elevation
accumulates and must fire.  Members are read at a softening temperature;
``U_pi`` is then a pure function of the discrete state, so
:class:`TabularEnsembleSignal` scores every state once at construction
into a per-state Python list and answers a whole serve wave with one
read of it per row: one ``.tolist()`` of the wave's newest samples,
then the scalar :func:`_state_of` binning of each.

The fluid-queue arithmetic lives once, in :func:`_fluid_step`, the
state binning once, in :func:`_state_of`, and the link capacity is read
once, in :func:`_capacity_schedule`: one vectorized pass over a run of
control intervals, bitwise what stepping ``Trace.bandwidth_at`` through
``time += STEP_S`` reads.  The served :class:`CCEnv` steps through them
with its full observation history, kept in a ring that a step writes
one column of, filling its schedule :data:`DEFAULT_HORIZON` steps at a
time; it builds each ``StepResult``, and :class:`CCSessionFactory` each
record, with one dict through :func:`~repro.core.runner.frozen_record`.
The training env (:class:`_CyclingTraceEnv`) steps through the same
functions over one schedule per trace, observes only the newest
sample, which is all the indexer bins, and builds its ``StepResult``
through :func:`~repro.core.runner.frozen_record` too.  Training is the
one generic :func:`~repro.mdp.qlearning.train_q_learning` loop on Python
floats, which reads its exploration draws from blocks of raw PCG64
values, so the learned agent and the K prior members train with one
numpy call per 4096 draws rather than one or two per step, and their
tables are byte-identical to a numpy loop over full :class:`CCEnv`
sessions that calls ``rng.random()`` and ``rng.integers()`` per step.

Everything is deterministic given the seeds: the environment itself
draws no randomness, training consumes a seeded RNG, and trained tables
are cached per ``(seed, ensemble_size)`` so repeated scheme builds are
free.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from repro.core.ensemble_signals import PolicyEnsembleSignal, policy_disagreement
from repro.core.runner import (
    MonitoredScheme,
    MonitoredSessionResult,
    SessionFactory,
    SessionSpec,
    frozen_record,
)
from repro.core.strategies import CusumTrigger
from repro.domains.base import DOMAINS, Domain
from repro.errors import ConfigError, SimulationError, TraceError
from repro.mdp.interfaces import StepResult
from repro.mdp.qlearning import QLearningAgent, train_q_learning
from repro.traces.dataset import DATASET_NAMES, DatasetSplit, make_dataset
from repro.traces.trace import Trace

__all__ = [
    "CCEnv",
    "CCDomain",
    "CCSessionFactory",
    "CCStateIndexer",
    "CCStepRecord",
    "ConservativeRatePolicy",
    "RATE_LADDER_MBPS",
    "TabularEnsembleSignal",
]

#: The discrete sending-rate ladder (Mbit/s).
RATE_LADDER_MBPS = np.array([0.3, 0.6, 1.2, 1.8, 2.4, 3.2, 4.2, 5.5])
#: The ladder as Python floats, for scalar ``bisect`` lookups.
_LADDER = RATE_LADDER_MBPS.tolist()
#: Control-interval length: one decision every half second.
STEP_S = 0.5
#: Observation history length (control intervals).
HISTORY = 8
#: Normalizer for the rate rows of the observation.
RATE_SCALE = 6.0
#: Normalizer for the queue-delay row of the observation (seconds).
DELAY_SCALE = 2.0
#: The bottleneck queue holds at most this many seconds of capacity;
#: arrivals beyond it are dropped (loss).
QUEUE_CAPACITY_S = 1.0
#: Reward shaping (PCC-Vivace style): throughput minus these penalties.
LOSS_PENALTY = 2.0
DELAY_PENALTY = 0.5
#: Default decision steps per monitored session.
DEFAULT_HORIZON = 160
#: Spare columns of :class:`CCEnv`'s history ring: one demo session
#: (:data:`DEFAULT_HORIZON` steps) fills it without moving a column.
_RING_SPARE = DEFAULT_HORIZON
_RING_END = HISTORY + _RING_SPARE
#: Softmax temperature the ensemble members are read at (greedy one-hot
#: distributions would hide inter-member Q-value disagreement).
MEMBER_TEMPERATURE = 0.5
#: Standard deviation of each member's randomized-prior Q-table.
PRIOR_SCALE = 1.0
#: The CC domain provisions link capacity at this multiple of the shared
#: trace corpus, putting the whole rate ladder under the in-distribution
#: link: sustained congestion then only occurs after a capacity shift,
#: which is what makes those states novel to the ensemble.
TRACE_SCALE = 2.5
#: The demo scheme's calibrated CUSUM threshold over the ``U_pi``
#: stream (~2x the largest in-distribution excursion; see
#: ``tools/scenario_matrix.py`` for the shifted-regime separation).
_DEMO_ALPHA = 10.0
#: CUSUM drift allowance, a little above the in-distribution mean
#: disagreement so benign excursions bleed off.
_DEMO_DRIFT = 0.6


def _fluid_step(
    queue_mbit: float, rate: float, capacity: float
) -> tuple[float, float, float, float, float]:
    """One control interval of the bottleneck's fluid queue, on floats.

    Sending at *rate* into a link of *capacity* (both Mbit/s) with
    *queue_mbit* already backlogged: arrivals join the backlog, the link
    drains one interval of capacity, and anything beyond the bounded
    backlog is dropped.  Returns ``(queue_mbit, delivered_mbps,
    loss_fraction, queue_delay_s, reward)``; the serving env and the
    training env both step through this one function.
    """
    sent_mbit = rate * STEP_S
    queue_mbit += sent_mbit
    drained = min(queue_mbit, capacity * STEP_S)
    queue_mbit -= drained
    overflow = max(queue_mbit - capacity * QUEUE_CAPACITY_S, 0.0)
    queue_mbit -= overflow
    delivered_mbps = drained / STEP_S
    loss_fraction = min(overflow / sent_mbit, 1.0) if sent_mbit > 0 else 0.0
    queue_delay_s = queue_mbit / capacity
    reward = (
        delivered_mbps
        - LOSS_PENALTY * rate * loss_fraction
        - DELAY_PENALTY * queue_delay_s
    )
    return queue_mbit, delivered_mbps, loss_fraction, queue_delay_s, reward


def _capacity_schedule(
    trace: Trace, start_s: float, count: int
) -> tuple[list[float], float]:
    """The link capacity of *count* control intervals from *start_s*.

    Returns the capacities (Mbit/s, Python floats) and the time after
    the last interval.  Bitwise what the scalar loop
    ``trace.bandwidth_at(time); time += STEP_S`` reads: ``np.cumsum``
    adds sequentially, so the times are that loop's accumulation, and
    the wrap and the right-side search are the same float64 operations
    on a whole array.  A zero-duration trace raises
    :class:`~repro.errors.TraceError`.
    """
    duration = trace.duration
    if duration <= 0:
        raise TraceError("trace has zero duration")
    times = np.full(count + 1, STEP_S)
    times[0] = start_s
    times = np.cumsum(times)
    first = trace.times[0]
    offsets = (times[:-1] - first) % duration + first
    indices = np.searchsorted(trace.times, offsets, side="right") - 1
    return trace.bandwidths_mbps[indices].tolist(), float(times[-1])


class CCEnv:
    """A trace-driven bottleneck-link rate-control environment.

    Fully deterministic: capacity comes from the trace (wrapping; read
    :data:`DEFAULT_HORIZON` intervals at a time by
    :func:`_capacity_schedule` and kept across ``reset``), queueing is
    fluid (arrivals beyond the drain and a bounded backlog are dropped),
    and no randomness is drawn anywhere — the same action sequence
    always yields the same floats.  Episodes never terminate on their
    own; the session horizon is owned by :class:`CCSessionFactory`.

    The observation history lives in a ``(4, HISTORY + _RING_SPARE)``
    ring: a step writes one column and copies out the newest
    :data:`HISTORY` columns, and only when the ring is full are the
    newest ``HISTORY - 1`` columns moved back to its start.
    """

    def __init__(self, trace: Trace, start_offset_s: float = 0.0) -> None:
        self.trace = trace
        self.start_offset_s = float(start_offset_s)
        self._capacities: list[float] = []
        self._schedule_end_s = self.start_offset_s
        self.reset()

    @property
    def num_actions(self) -> int:
        return int(RATE_LADDER_MBPS.size)

    def reset(self) -> np.ndarray:
        """Empty the queue and history and return the initial observation."""
        self._ring = np.zeros((4, HISTORY + _RING_SPARE))
        self._end = HISTORY
        self._queue_mbit = 0.0
        self._step_index = 0
        return np.zeros((4, HISTORY))

    def step(self, action: int) -> StepResult:
        """Send at ladder rung ``action`` for one interval of the fluid queue."""
        action = int(action)
        if not 0 <= action < len(_LADDER):
            raise SimulationError(
                f"action {action} outside rate ladder of {self.num_actions}"
            )
        rate = _LADDER[action]
        step_index = self._step_index
        capacities = self._capacities
        if step_index == len(capacities):
            more, self._schedule_end_s = _capacity_schedule(
                self.trace, self._schedule_end_s, DEFAULT_HORIZON
            )
            capacities += more
        capacity = capacities[step_index]
        queue_mbit, delivered_mbps, loss_fraction, queue_delay_s, reward = _fluid_step(
            self._queue_mbit, rate, capacity
        )
        self._queue_mbit = queue_mbit
        ring = self._ring
        end = self._end
        if end == _RING_END:
            ring[:, : HISTORY - 1] = ring[:, _RING_END - HISTORY + 1 :]
            end = HISTORY - 1
        # Four scalar writes take about half the time of one column
        # assignment from a tuple, which builds an array first.
        ring[0, end] = rate / RATE_SCALE
        ring[1, end] = delivered_mbps / RATE_SCALE
        ring[2, end] = loss_fraction
        ring[3, end] = queue_delay_s / DELAY_SCALE
        end += 1
        self._end = end
        self._step_index = step_index + 1
        return frozen_record(
            StepResult,
            {
                "observation": ring[:, end - HISTORY : end].copy(),
                "reward": reward,
                "done": False,
                "info": {
                    "step_index": step_index,
                    "rate_index": action,
                    "rate_mbps": rate,
                    "throughput_mbps": delivered_mbps,
                    "loss_fraction": loss_fraction,
                    "queue_delay_s": queue_delay_s,
                    "capacity_mbps": capacity,
                },
            },
        )


@dataclass(frozen=True)
class CCStepRecord:
    """Everything recorded about one control interval."""

    step_index: int
    rate_index: int
    rate_mbps: float
    throughput_mbps: float
    loss_fraction: float
    queue_delay_s: float
    reward: float
    defaulted: bool = False


@dataclass(frozen=True)
class CCSessionFactory(SessionFactory):
    """Session wiring for the congestion-control domain."""

    horizon: int = DEFAULT_HORIZON

    domain = "cc"

    def steps_per_session(self) -> int:
        return int(self.horizon)

    def new_env(self, spec: SessionSpec) -> CCEnv:
        return CCEnv(spec.trace, start_offset_s=spec.start_offset_s)

    def new_result(
        self, spec: SessionSpec, policy_name: str
    ) -> MonitoredSessionResult:
        return MonitoredSessionResult(
            trace_name=spec.trace.name, policy_name=policy_name
        )

    def record(self, step: StepResult, defaulted: bool) -> CCStepRecord:
        info = step.info
        return frozen_record(
            CCStepRecord,
            {
                "step_index": info["step_index"],
                "rate_index": info["rate_index"],
                "rate_mbps": info["rate_mbps"],
                "throughput_mbps": info["throughput_mbps"],
                "loss_fraction": info["loss_fraction"],
                "queue_delay_s": info["queue_delay_s"],
                "reward": step.reward,
                "defaulted": defaulted,
            },
        )


@dataclass(frozen=True)
class CCStateIndexer:
    """Discretize CC observations for the tabular learner.

    Bins the newest (delivered throughput, loss fraction, queue delay)
    sample: 9 throughput bins (the ladder's rungs, left-side search)
    x 3 loss bins x 3 delay bins = 81 states; a non-finite sample raises
    :class:`~repro.errors.SimulationError`.
    """

    def __call__(self, observation: np.ndarray) -> int:
        latest = np.asarray(observation)[1:4, -1].tolist()
        if not all(map(math.isfinite, latest)):
            _reject_non_finite([latest])
        return _state_of(latest)

    def batch(self, observations: np.ndarray) -> np.ndarray:
        """The state of every row of *observations*, ``intp[rows]``,
        bitwise-equal to the scalar indexer row for row."""
        return np.array(_states_of(observations), dtype=np.intp)


def _state_of(sample: Sequence[float]) -> int:
    """The :class:`CCStateIndexer` state of one finite newest sample
    ``(delivered, loss, delay)``, given in observation units (delivered
    / :data:`RATE_SCALE`, loss, delay / :data:`DELAY_SCALE`)."""
    delivered, loss, delay = sample
    throughput_bin = bisect.bisect_left(_LADDER, delivered * RATE_SCALE)
    loss_bin = 0 if loss <= 1e-9 else (1 if loss < 0.1 else 2)
    # Delay bins are deliberately coarse: a one-step queue from a
    # transient capacity dip stays in bin 0 (in-distribution), while
    # the persistently full post-shift queue (delay ~= the backlog
    # bound) lands in bin 2.
    delay *= DELAY_SCALE
    delay_bin = 0 if delay < 0.3 else (1 if delay < 0.75 else 2)
    return (throughput_bin * 3 + loss_bin) * 3 + delay_bin


def _states_of(observations: np.ndarray) -> list[int]:
    """The :class:`CCStateIndexer` state of every row of *observations*,
    as Python ints: one ``.tolist()`` of the newest samples, then
    :func:`_state_of` per row.  A non-finite sample raises, as the
    scalar indexer does."""
    samples = np.asarray(observations, dtype=float)[:, 1:4, -1].tolist()
    # A sum of floats is non-finite if any of them is, or if it
    # overflows; the exact scan then tells the two apart.
    if not math.isfinite(sum(chain.from_iterable(samples))):
        _reject_non_finite(samples)
    return [_state_of(sample) for sample in samples]


_FIELD_NAMES = ("delivered rate", "loss fraction", "queue delay")


def _reject_non_finite(samples: list[list[float]]) -> None:
    """Raise :class:`~repro.errors.SimulationError` naming the field of
    the first non-finite value in *samples*, row by row; return if
    every value is finite."""
    for sample in samples:
        for field, value in zip(_FIELD_NAMES, sample):
            if not math.isfinite(value):
                raise SimulationError(f"non-finite {field}: {value}")


#: Number of discrete states :class:`CCStateIndexer` produces.
NUM_STATES = (RATE_LADDER_MBPS.size + 1) * 3 * 3


class ConservativeRatePolicy:
    """The safe fallback: never outrun what the link just delivered.

    Picks the highest ladder rate at most ``safety_factor`` x the last
    delivered throughput (the lowest rung when nothing was measured
    yet, and for a NaN delivered rate, which measures nothing either).
    Deterministic and stateless, so one instance serves any number of
    concurrent sessions.
    """

    safety_factor = 0.8

    def reset(self) -> None:
        """No per-session state to reset."""

    def act(self, observation: np.ndarray, rng: np.random.Generator) -> int:
        """Highest rung at most ``safety_factor`` x the delivered rate."""
        delivered = float(np.asarray(observation)[1, -1]) * RATE_SCALE
        target = self.safety_factor * delivered
        if math.isnan(target):
            # bisect would place NaN after every rung: full rate.
            return 0
        return max(bisect.bisect_right(_LADDER, target) - 1, 0)

    def action_probabilities(self, observation: np.ndarray) -> np.ndarray:
        """One-hot distribution on the deterministically chosen rung."""
        probabilities = np.zeros(RATE_LADDER_MBPS.size)
        probabilities[self.act(observation, np.random.default_rng(0))] = 1.0
        return probabilities


class TabularEnsembleSignal(PolicyEnsembleSignal):
    """``U_pi`` over tabular Q-learning members, as a per-state table.

    Construction scores every state once with the per-member reference
    reduction; a measurement is then one table read, bitwise-equal to
    :meth:`PolicyEnsembleSignal.measure`.  Members must index states
    with :class:`CCStateIndexer` and share a positive temperature (greedy
    one-hot outputs would make disagreement degenerate).
    """

    def __init__(self, agents: list[QLearningAgent], trim: int = 1) -> None:
        super().__init__(agents, trim=trim)
        first = agents[0]
        if not all(type(agent) is QLearningAgent for agent in agents):
            raise ConfigError("TabularEnsembleSignal needs QLearningAgent members")
        if any(agent.temperature != first.temperature for agent in agents):
            raise ConfigError("ensemble members must share one temperature")
        if first.temperature <= 0:
            raise ConfigError(
                "ensemble members need temperature > 0 for smooth distributions"
            )
        if any(agent.state_indexer != CCStateIndexer() for agent in agents):
            raise ConfigError("ensemble members must index states with CCStateIndexer")
        self._indexer = CCStateIndexer()
        self._values = [
            policy_disagreement(
                np.stack([agent.state_probabilities(state) for agent in agents]),
                trim,
            )
            for state in range(NUM_STATES)
        ]

    def measure(self, observation: np.ndarray) -> float:
        return self._values[self._indexer(observation)]

    def measure_batch(self, observations: np.ndarray) -> np.ndarray:
        """``U_pi`` for one observation per concurrent session."""
        values = self._values
        return np.array([values[state] for state in _states_of(observations)])


class _CyclingTraceEnv:
    """The Q-table training env: round-robin over training traces.

    Each ``reset`` starts the next trace from time 0 with an empty queue,
    so :func:`~repro.mdp.qlearning.train_q_learning` sees the whole
    training distribution through one env, deterministically.  Steps run
    :func:`_fluid_step` over one :func:`_capacity_schedule` per trace
    (``max_steps`` intervals from time 0, as :class:`CCEnv` reads them;
    stepping past raises :class:`~repro.errors.SimulationError`) and
    observe only the newest ``(delivered, loss, delay)`` sample in
    observation units, which :func:`_state_of` bins as
    :class:`CCStateIndexer` bins a history.
    """

    def __init__(self, traces: list[Trace], max_steps: int) -> None:
        self._capacities = [
            _capacity_schedule(trace, 0.0, max_steps)[0] for trace in traces
        ]
        self._index = -1
        self._active = self._capacities[0]
        self._queue_mbit = 0.0
        self._step_index = 0

    @property
    def num_actions(self) -> int:
        return len(_LADDER)

    def reset(self) -> tuple[float, float, float]:
        self._index = (self._index + 1) % len(self._capacities)
        self._active = self._capacities[self._index]
        self._queue_mbit = 0.0
        self._step_index = 0
        return 0.0, 0.0, 0.0

    def step(self, action: int) -> StepResult:
        step_index = self._step_index
        if step_index >= len(self._active):
            raise SimulationError(
                f"training episode ran past its {len(self._active)}-step horizon"
            )
        queue_mbit, delivered_mbps, loss_fraction, queue_delay_s, reward = _fluid_step(
            self._queue_mbit, _LADDER[action], self._active[step_index]
        )
        self._queue_mbit = queue_mbit
        self._step_index = step_index + 1
        return frozen_record(
            StepResult,
            {
                "observation": (
                    delivered_mbps / RATE_SCALE,
                    loss_fraction,
                    queue_delay_s / DELAY_SCALE,
                ),
                "reward": reward,
                "done": False,
                "info": {},
            },
        )


def _scaled_split(
    dataset: str, num_traces: int, duration_s: float, seed: int
) -> DatasetSplit:
    """A split of *dataset* with capacities provisioned by ``TRACE_SCALE``."""
    split = make_dataset(
        dataset, num_traces=num_traces, duration_s=duration_s, seed=seed
    ).split()
    return DatasetSplit(
        train=tuple(t.scaled(TRACE_SCALE, name=t.name) for t in split.train),
        validation=tuple(
            t.scaled(TRACE_SCALE, name=t.name) for t in split.validation
        ),
        test=tuple(t.scaled(TRACE_SCALE, name=t.name) for t in split.test),
    )


def _training_traces() -> list[Trace]:
    """The demo scheme's in-distribution training traces.

    The ``logistic`` corpus is the tight-band one (mu=4, scale=0.5);
    provisioned by :data:`TRACE_SCALE` the link stays above the whole
    rate ladder, so training never sees sustained congestion.
    """
    return list(
        _scaled_split("logistic", num_traces=8, duration_s=240.0, seed=101).train
    )


def _demo_training_runs(seed: int, ensemble_size: int) -> list[dict]:
    """The :func:`~repro.mdp.qlearning.train_q_learning` options of one
    demo scheme's tables: the learned policy's, then each member's.

    The learned policy trains greedily from a zero table; each ensemble
    member trains from its own randomized prior with a slower learning
    rate (less stationary update noise on converged entries) and a
    sustained exploration floor (so every state the learned policy's
    trajectory touches in-distribution is well-visited by every member).
    """
    common = dict(gamma=0.95, max_steps=DEFAULT_HORIZON)
    learned = dict(
        common, episodes=300, learning_rate=0.2, epsilon_end=0.05, seed=seed + 1
    )
    members = [
        dict(
            common,
            episodes=600,
            learning_rate=0.05,
            epsilon_end=0.25,
            seed=member_seed,
            initial_q=np.random.default_rng(member_seed).normal(
                scale=PRIOR_SCALE, size=(NUM_STATES, RATE_LADDER_MBPS.size)
            ),
        )
        for member_seed in range(seed + 10, seed + 10 + ensemble_size)
    ]
    return [learned, *members]


@lru_cache(maxsize=8)
def _demo_tables(
    seed: int, ensemble_size: int
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Trained Q-tables for one demo scheme, cached per configuration:
    one :func:`~repro.mdp.qlearning.train_q_learning` call per
    :func:`_demo_training_runs` entry, each over a fresh
    :class:`_CyclingTraceEnv` of the training traces."""
    traces = _training_traces()
    learned, *members = (
        train_q_learning(
            _CyclingTraceEnv(traces, DEFAULT_HORIZON),
            _state_of,
            NUM_STATES,
            **options,
        ).q_table
        for options in _demo_training_runs(seed, ensemble_size)
    )
    return learned, tuple(members)


@DOMAINS.register("cc")
class CCDomain(Domain):
    """Congestion control over the shared bandwidth-trace datasets."""

    key = "cc"
    observation_shape = (4, HISTORY)

    def dataset_names(self) -> tuple[str, ...]:
        return tuple(DATASET_NAMES)

    def load_split(
        self,
        dataset: str,
        num_traces: int = 20,
        duration_s: float = 1200.0,
        seed: int = 0,
    ) -> DatasetSplit:
        """A provisioned split: capacities scaled by :data:`TRACE_SCALE`.

        The shared trace corpus models last-mile links; this domain's
        bottleneck is provisioned above the rate ladder, so distribution
        shift (not everyday variation) is what causes congestion.
        """
        return _scaled_split(dataset, num_traces, duration_s, seed)

    def session_factory(self, horizon: int = DEFAULT_HORIZON) -> CCSessionFactory:
        if horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {horizon}")
        return CCSessionFactory(horizon=horizon)

    def demo_scheme(
        self,
        alpha: float | None = None,
        ensemble_size: int = 4,
        seed: int = 0,
        name: str = "demo",
    ) -> MonitoredScheme:
        """A trained ``U_pi`` scheme: randomized-prior Q ensemble + CUSUM.

        *alpha* is the CUSUM threshold here (each domain's demo scheme
        interprets the calibrated knob in its own trigger's terms).
        """
        if ensemble_size < 2:
            raise ConfigError(
                f"ensemble_size must be >= 2, got {ensemble_size}"
            )
        if alpha is None:
            alpha = _DEMO_ALPHA
        learned_table, member_tables = _demo_tables(int(seed), int(ensemble_size))
        indexer = CCStateIndexer()
        learned = QLearningAgent(learned_table, indexer)
        members = [
            QLearningAgent(table, indexer, temperature=MEMBER_TEMPERATURE)
            for table in member_tables
        ]
        signal = TabularEnsembleSignal(members, trim=1)
        trigger = CusumTrigger(threshold=alpha, drift=_DEMO_DRIFT)
        return MonitoredScheme(
            name=name,
            learned=learned,
            default=ConservativeRatePolicy(),
            signal=signal,
            trigger=trigger,
            factory=CCSessionFactory(),
        )

    def throughput_of(self, observation: np.ndarray) -> float:
        """The latest delivered throughput from the ``(4, 8)`` state."""
        return float(np.asarray(observation)[1, -1]) * RATE_SCALE
