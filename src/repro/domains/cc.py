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
and answers a whole serve wave with one state-index gather.

Everything is deterministic given the seeds: the environment itself
draws no randomness, training consumes a seeded RNG, and trained tables
are cached per ``(seed, ensemble_size)`` so repeated scheme builds are
free.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.ensemble_signals import PolicyEnsembleSignal, policy_disagreement
from repro.core.runner import MonitoredSessionResult, SessionFactory, SessionSpec
from repro.core.strategies import CusumTrigger
from repro.domains.base import DOMAINS, DemoScheme, Domain
from repro.errors import ConfigError, SimulationError
from repro.mdp.interfaces import StepResult
from repro.mdp.qlearning import QLearningAgent, train_q_learning
from repro.perf import fast_paths_enabled
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


class CCEnv:
    """A trace-driven bottleneck-link rate-control environment.

    Fully deterministic: capacity comes from the trace
    (:meth:`~repro.traces.trace.Trace.bandwidth_at`, wrapping), queueing
    is fluid (arrivals beyond the drain and a bounded backlog are
    dropped), and no randomness is drawn anywhere — the same action
    sequence always yields the same floats.  Episodes never terminate on
    their own; the session horizon is owned by
    :class:`CCSessionFactory`.
    """

    def __init__(self, trace: Trace, start_offset_s: float = 0.0) -> None:
        self.trace = trace
        self.start_offset_s = float(start_offset_s)
        self._history = np.zeros((4, HISTORY))
        self._time = self.start_offset_s
        self._queue_mbit = 0.0
        self._step_index = 0

    @property
    def num_actions(self) -> int:
        return int(RATE_LADDER_MBPS.size)

    def reset(self) -> np.ndarray:
        """Empty the queue and history and return the initial observation."""
        self._history = np.zeros((4, HISTORY))
        self._time = self.start_offset_s
        self._queue_mbit = 0.0
        self._step_index = 0
        return self._history.copy()

    def step(self, action: int) -> StepResult:
        """Send at ladder rung ``action`` for one interval of the fluid queue."""
        if not 0 <= int(action) < self.num_actions:
            raise SimulationError(
                f"action {action} outside rate ladder of {self.num_actions}"
            )
        rate = float(RATE_LADDER_MBPS[int(action)])
        capacity = self.trace.bandwidth_at(self._time)
        sent_mbit = rate * STEP_S
        # Fluid queue: arrivals join the backlog, the link drains one
        # interval of capacity, and anything beyond the bounded backlog
        # is dropped.
        self._queue_mbit += sent_mbit
        drained = min(self._queue_mbit, capacity * STEP_S)
        self._queue_mbit -= drained
        overflow = max(self._queue_mbit - capacity * QUEUE_CAPACITY_S, 0.0)
        self._queue_mbit -= overflow
        delivered_mbps = drained / STEP_S
        loss_fraction = min(overflow / sent_mbit, 1.0) if sent_mbit > 0 else 0.0
        queue_delay_s = self._queue_mbit / capacity
        reward = (
            delivered_mbps
            - LOSS_PENALTY * rate * loss_fraction
            - DELAY_PENALTY * queue_delay_s
        )
        self._history[:, :-1] = self._history[:, 1:]
        self._history[0, -1] = rate / RATE_SCALE
        self._history[1, -1] = delivered_mbps / RATE_SCALE
        self._history[2, -1] = loss_fraction
        self._history[3, -1] = queue_delay_s / DELAY_SCALE
        self._time += STEP_S
        self._step_index += 1
        return StepResult(
            observation=self._history.copy(),
            reward=reward,
            done=False,
            info={
                "step_index": self._step_index - 1,
                "rate_index": int(action),
                "rate_mbps": rate,
                "throughput_mbps": delivered_mbps,
                "loss_fraction": loss_fraction,
                "queue_delay_s": queue_delay_s,
                "capacity_mbps": capacity,
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
        return CCStepRecord(
            step_index=info["step_index"],
            rate_index=info["rate_index"],
            rate_mbps=info["rate_mbps"],
            throughput_mbps=info["throughput_mbps"],
            loss_fraction=info["loss_fraction"],
            queue_delay_s=info["queue_delay_s"],
            reward=step.reward,
            defaulted=defaulted,
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
        delivered, loss, delay = latest = np.asarray(observation)[1:4, -1].tolist()
        if not all(map(math.isfinite, latest)):
            self.batch(np.asarray(observation)[None])  # raises, naming the field
        throughput_bin = bisect.bisect_left(_LADDER, delivered * RATE_SCALE)
        loss_bin = 0 if loss <= 1e-9 else (1 if loss < 0.1 else 2)
        # Delay bins are deliberately coarse: a one-step queue from a
        # transient capacity dip stays in bin 0 (in-distribution), while
        # the persistently full post-shift queue (delay ~= the backlog
        # bound) lands in bin 2.
        delay *= DELAY_SCALE
        delay_bin = 0 if delay < 0.3 else (1 if delay < 0.75 else 2)
        return (throughput_bin * 3 + loss_bin) * 3 + delay_bin

    def batch(self, observations: np.ndarray) -> np.ndarray:
        """The state of every row of *observations*, ``intp[rows]``,
        bitwise-equal to the scalar indexer row for row."""
        latest = np.asarray(observations, dtype=float)[:, 1:4, -1]
        finite = np.isfinite(latest)
        if not finite.all():
            row, column = np.argwhere(~finite)[0]
            field = ("delivered rate", "loss fraction", "queue delay")[column]
            raise SimulationError(f"non-finite {field}: {latest[row, column]}")
        with np.errstate(over="ignore"):
            scaled = latest * _FIELD_SCALES
        bins = (scaled[:, :, None] > _FIELD_EDGES).sum(axis=2)
        return bins @ _BIN_WEIGHTS


#: ``CCStateIndexer.batch`` bins a scaled field by how many of its edges
#: it exceeds (``inf`` pads); ``x >= edge`` is ``x > nextafter(edge, -inf)``.
_FIELD_SCALES = np.array([RATE_SCALE, 1.0, DELAY_SCALE])
_FIELD_EDGES = np.full((3, RATE_LADDER_MBPS.size), np.inf)
_FIELD_EDGES[0] = RATE_LADDER_MBPS
_FIELD_EDGES[1:, :2] = [1e-9, np.nextafter(0.1, -1)], np.nextafter([0.3, 0.75], -1)
_BIN_WEIGHTS = np.array([9, 3, 1], dtype=np.intp)


#: Number of discrete states :class:`CCStateIndexer` produces.
NUM_STATES = (RATE_LADDER_MBPS.size + 1) * 3 * 3


class ConservativeRatePolicy:
    """The safe fallback: never outrun what the link just delivered.

    Picks the highest ladder rate at most ``safety_factor`` x the last
    delivered throughput (the lowest rung when nothing was measured
    yet).  Deterministic and stateless, so one instance serves any
    number of concurrent sessions.
    """

    safety_factor = 0.8

    def reset(self) -> None:
        """No per-session state to reset."""

    def act(self, observation: np.ndarray, rng: np.random.Generator) -> int:
        """Highest rung at most ``safety_factor`` x the delivered rate."""
        delivered = float(np.asarray(observation)[1, -1]) * RATE_SCALE
        target = self.safety_factor * delivered
        index = int(np.searchsorted(RATE_LADDER_MBPS, target, side="right")) - 1
        return max(index, 0)

    def action_probabilities(self, observation: np.ndarray) -> np.ndarray:
        """One-hot distribution on the deterministically chosen rung."""
        probabilities = np.zeros(RATE_LADDER_MBPS.size)
        probabilities[self.act(observation, np.random.default_rng(0))] = 1.0
        return probabilities


class TabularEnsembleSignal(PolicyEnsembleSignal):
    """``U_pi`` over tabular Q-learning members, as a per-state table.

    Construction scores every state once with the per-member reference
    reduction; a measurement is then one table read (bitwise-equal; fast
    paths off still take the reference path).  Members must index states
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
        self._values = np.array(
            [
                policy_disagreement(
                    np.stack([agent.state_probabilities(state) for agent in agents]),
                    trim,
                )
                for state in range(NUM_STATES)
            ]
        )

    def measure(self, observation: np.ndarray) -> float:
        if not fast_paths_enabled():
            return super().measure(observation)
        return float(self._values[self._indexer(observation)])

    def measure_batch(self, observations: np.ndarray) -> np.ndarray:
        """``U_pi`` for one observation per concurrent session."""
        if not fast_paths_enabled():
            return super().measure_batch(observations)
        return self._values[self._indexer.batch(observations)]


class _CyclingTraceEnv:
    """Round-robin over training traces: each ``reset`` starts the next.

    Gives :func:`~repro.mdp.qlearning.train_q_learning` the whole
    training distribution through the single-environment interface it
    expects, deterministically.
    """

    def __init__(self, traces: list[Trace]) -> None:
        self._envs = [CCEnv(trace) for trace in traces]
        self._index = -1
        self._active = self._envs[0]

    @property
    def num_actions(self) -> int:
        return self._active.num_actions

    def reset(self) -> np.ndarray:
        self._index = (self._index + 1) % len(self._envs)
        self._active = self._envs[self._index]
        return self._active.reset()

    def step(self, action: int) -> StepResult:
        return self._active.step(action)


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


@lru_cache(maxsize=8)
def _demo_tables(
    seed: int, ensemble_size: int
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Trained Q-tables for one demo scheme, cached per configuration.

    The learned policy trains greedily from a zero table; each ensemble
    member trains from its own randomized prior with a slower learning
    rate (less stationary update noise on converged entries) and a
    sustained exploration floor (so every state the learned policy's
    trajectory touches in-distribution is well-visited by every member).
    """
    traces = _training_traces()

    def train(
        member_seed: int,
        learning_rate: float,
        episodes: int,
        epsilon_end: float,
        prior: bool,
    ) -> np.ndarray:
        initial_q = None
        if prior:
            initial_q = np.random.default_rng(member_seed).normal(
                scale=PRIOR_SCALE,
                size=(NUM_STATES, RATE_LADDER_MBPS.size),
            )
        agent = train_q_learning(
            _CyclingTraceEnv(traces),
            CCStateIndexer(),
            NUM_STATES,
            episodes=episodes,
            learning_rate=learning_rate,
            gamma=0.95,
            epsilon_end=epsilon_end,
            max_steps=DEFAULT_HORIZON,
            seed=member_seed,
            initial_q=initial_q,
        )
        return agent.q_table

    learned = train(
        seed + 1, learning_rate=0.2, episodes=300, epsilon_end=0.05, prior=False
    )
    members = tuple(
        train(
            seed + 10 + index,
            learning_rate=0.05,
            episodes=600,
            epsilon_end=0.25,
            prior=True,
        )
        for index in range(ensemble_size)
    )
    return learned, members


@DOMAINS.register("cc")
class CCDomain(Domain):
    """Congestion control over the shared bandwidth-trace datasets."""

    key = "cc"

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
    ) -> DemoScheme:
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
        return DemoScheme(
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
