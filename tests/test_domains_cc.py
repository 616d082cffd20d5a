"""Tests for repro.domains.cc: the congestion-control domain.

The environment's determinism and the indexer's binning are unit-level;
the end is the OSAP property the domain was calibrated for — the demo
scheme keeps the learned policy in charge in-distribution and hands over
to the conservative fallback shortly after an abrupt capacity shift.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

import numpy as np
import pytest

from repro.domains import (
    SessionSpec,
    apply_scenario,
    get_domain,
    run_monitored_session,
)
from repro.domains.cc import (
    DEFAULT_HORIZON,
    DELAY_SCALE,
    NUM_STATES,
    RATE_LADDER_MBPS,
    RATE_SCALE,
    STEP_S,
    CCEnv,
    CCSessionFactory,
    CCStateIndexer,
    ConservativeRatePolicy,
    TabularEnsembleSignal,
)
from repro.errors import ConfigError, SimulationError
from repro.mdp.qlearning import QLearningAgent
from repro.perf import fast_paths
from repro.serve import ServeEngine


def _observation(delivered=0.0, loss=0.0, delay=0.0):
    """A CC observation whose newest sample is (delivered, loss, delay),
    in the observation's own normalized units."""
    observation = np.zeros((4, 8))
    observation[1:, -1] = delivered, loss, delay
    return observation


def _observation_of_state(state):
    """An observation :class:`CCStateIndexer` maps to *state*."""
    throughput_bin, rest = divmod(state, 9)
    loss_bin, delay_bin = divmod(rest, 3)
    rungs = (0.0,) + tuple(RATE_LADDER_MBPS)
    delivered = rungs[throughput_bin] + 0.05
    return _observation(
        delivered / RATE_SCALE,
        (0.0, 0.05, 0.5)[loss_bin],
        (0.0, 0.5, 1.0)[delay_bin] / DELAY_SCALE,
    )


@pytest.fixture(scope="module")
def domain():
    return get_domain("cc")


@pytest.fixture(scope="module")
def split(domain):
    return domain.load_split("logistic", num_traces=8, duration_s=96.0, seed=3)


@pytest.fixture(scope="module")
def scheme(domain):
    return domain.demo_scheme()


class TestCCEnv:
    def test_deterministic_replay(self, split):
        actions = [int(i) % 8 for i in range(40)]
        runs = []
        for _ in range(2):
            env = CCEnv(split.test[0])
            env.reset()
            runs.append([env.step(action) for action in actions])
        for first, second in zip(*runs):
            np.testing.assert_array_equal(first.observation, second.observation)
            assert first.reward == second.reward
            assert first.info == second.info

    def test_action_outside_ladder_rejected(self, split):
        env = CCEnv(split.test[0])
        env.reset()
        for action in (-1, env.num_actions):
            with pytest.raises(SimulationError, match="rate ladder"):
                env.step(action)

    def test_overdriving_the_link_queues_then_loses(self, split):
        # A 0.2 Mbps link against the top rung must build queue delay
        # and, once the bounded backlog fills, sustained loss.
        trace = split.test[0].scaled(0.2 / split.test[0].bandwidths_mbps.mean())
        env = CCEnv(trace)
        env.reset()
        infos = [env.step(env.num_actions - 1).info for _ in range(20)]
        assert infos[0]["queue_delay_s"] > 0.0
        assert infos[-1]["loss_fraction"] > 0.5
        assert infos[-1]["throughput_mbps"] < 1.0

    def test_provisioned_link_delivers_what_is_sent(self, split):
        env = CCEnv(split.test[0])
        env.reset()
        info = env.step(2).info
        assert info["throughput_mbps"] == pytest.approx(info["rate_mbps"])
        assert info["loss_fraction"] == 0.0


class TestFactoryAndIndexer:
    def test_factory_defaults(self, domain):
        factory = domain.session_factory()
        assert isinstance(factory, CCSessionFactory)
        assert factory.steps_per_session() == DEFAULT_HORIZON
        with pytest.raises(ConfigError, match="horizon"):
            domain.session_factory(horizon=0)

    def test_record_round_trip(self, domain, split):
        factory = domain.session_factory(horizon=4)
        env = factory.new_env(SessionSpec(trace=split.test[0]))
        env.reset()
        step = env.step(3)
        record = factory.record(step, defaulted=False)
        assert record.rate_index == 3
        assert record.reward == step.reward
        assert not record.defaulted

    def test_indexer_stays_in_range(self, split):
        indexer = CCStateIndexer()
        env = CCEnv(split.test[0])
        observation = env.reset()
        seen = set()
        for action in range(8):
            seen.add(indexer(observation))
            observation = env.step(action).observation
        assert all(0 <= state < NUM_STATES for state in seen)

    def test_indexer_separates_congestion_regimes(self):
        clear = np.zeros((4, 8))
        clear[1, -1] = 2.4 / RATE_SCALE  # healthy delivery, no loss/queue
        congested = np.zeros((4, 8))
        congested[1, -1] = 0.2 / RATE_SCALE
        congested[2, -1] = 0.6  # heavy loss
        congested[3, -1] = 0.5  # persistent queue (1 s / DELAY_SCALE)
        indexer = CCStateIndexer()
        assert indexer(clear) != indexer(congested)

    def test_batch_matches_scalar_on_random_rows_and_bin_edges(self):
        rng = np.random.default_rng(5)
        rows = [
            _observation(*sample)
            for sample in rng.uniform(0.0, [1.2, 1.0, 0.6], size=(500, 3))
        ]
        # Every bin edge in observation units, with its float neighbours.
        edges = [(rate / RATE_SCALE, 0.0, 0.0) for rate in RATE_LADDER_MBPS]
        edges += [(0.5, loss, 0.0) for loss in (1e-9, 0.1)]
        edges += [(0.5, 0.0, delay / DELAY_SCALE) for delay in (0.3, 0.75)]
        for edge in np.array(edges):
            for field in range(3):
                neighbours = np.nextafter(edge[field], [-np.inf, np.inf])
                for value in (edge[field], *neighbours):
                    sample = edge.copy()
                    sample[field] = value
                    rows.append(_observation(*sample))
        # Finite rates whose scaling overflows to +-inf still bin.
        rows += [_observation(sign * 1e308, 0.5, sign * 1e308) for sign in (1, -1)]
        rows = np.stack(rows)
        indexer = CCStateIndexer()
        expected = np.array([indexer(row) for row in rows])
        states = indexer.batch(rows)
        assert states.dtype == np.intp
        np.testing.assert_array_equal(states, expected)

    @pytest.mark.parametrize("field", range(3))
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_are_rejected(self, field, value):
        sample = [0.5, 0.0, 0.0]
        sample[field] = value
        observation = _observation(*sample)
        name = ("delivered rate", "loss fraction", "queue delay")[field]
        indexer = CCStateIndexer()
        with pytest.raises(SimulationError, match=f"non-finite {name}"):
            indexer(observation)
        with pytest.raises(SimulationError, match=f"non-finite {name}"):
            indexer.batch(np.stack([_observation(), observation]))


class TestConservativeRatePolicy:
    def test_cold_start_picks_the_lowest_rung(self):
        policy = ConservativeRatePolicy()
        action = policy.act(np.zeros((4, 8)), np.random.default_rng(0))
        assert action == 0

    def test_never_outruns_delivery(self):
        policy = ConservativeRatePolicy()
        rng = np.random.default_rng(0)
        for delivered in (0.5, 1.5, 3.0, 5.0, 8.0):
            observation = np.zeros((4, 8))
            observation[1, -1] = delivered / RATE_SCALE
            rate = RATE_LADDER_MBPS[policy.act(observation, rng)]
            assert rate <= policy.safety_factor * delivered or rate == (
                RATE_LADDER_MBPS[0]
            )

    def test_action_probabilities_are_one_hot(self):
        observation = np.zeros((4, 8))
        observation[1, -1] = 3.0 / RATE_SCALE
        probabilities = ConservativeRatePolicy().action_probabilities(observation)
        assert probabilities.sum() == 1.0
        assert (probabilities == probabilities.max()).sum() == 1


class TestTabularEnsembleSignal:
    def _agents(self, temperature=0.5, size=3):
        rng = np.random.default_rng(11)
        indexer = CCStateIndexer()
        return [
            QLearningAgent(
                rng.normal(size=(NUM_STATES, RATE_LADDER_MBPS.size)),
                indexer,
                temperature=temperature,
            )
            for _ in range(size)
        ]

    def test_batch_path_is_bitwise_equal_to_scalar(self, split):
        signal = TabularEnsembleSignal(self._agents(), trim=1)
        env = CCEnv(split.test[0])
        observation = env.reset()
        observations = []
        for action in (0, 3, 5, 7, 2, 6):
            observations.append(observation)
            observation = env.step(action).observation
        batch = signal.measure_batch(np.stack(observations))
        scalar = np.array([signal.measure(o) for o in observations])
        np.testing.assert_array_equal(batch, scalar)

    def test_state_table_is_bitwise_equal_to_the_reference_path(self):
        signal = TabularEnsembleSignal(self._agents(), trim=1)
        observations = [_observation_of_state(state) for state in range(NUM_STATES)]
        indexer = CCStateIndexer()
        assert [indexer(o) for o in observations] == list(range(NUM_STATES))
        table = np.array([signal.measure(o) for o in observations])
        batch = signal.measure_batch(np.stack(observations))
        with fast_paths(False):
            reference = np.array([signal.measure(o) for o in observations])
            reference_batch = signal.measure_batch(np.stack(observations))
        assert table.tobytes() == reference.tobytes()
        assert batch.tobytes() == reference.tobytes()
        assert reference_batch.tobytes() == reference.tobytes()

    def test_greedy_act_takes_the_first_tied_maximum(self):
        q_table = np.array([[1.0, 3.0, 3.0, 0.0], [2.0, 2.0, 2.0, 2.0]])
        agent = QLearningAgent(q_table, lambda observation: int(observation))
        rng = np.random.default_rng(0)
        for state, expected in ((0, 1), (1, 0)):
            assert agent.act(state, rng) == expected
            assert agent.act(state, rng) == int(
                np.argmax(agent.action_probabilities(state))
            )

    def test_validation(self):
        agents = self._agents()
        with pytest.raises(ConfigError, match="temperature"):
            TabularEnsembleSignal(self._agents(temperature=0.0), trim=1)
        mixed = agents[:2] + self._agents(temperature=0.9, size=1)
        with pytest.raises(ConfigError, match="temperature"):
            TabularEnsembleSignal(mixed, trim=1)
        foreign = [
            QLearningAgent(agent.q_table, lambda o: 0, temperature=0.5)
            for agent in agents
        ]
        with pytest.raises(ConfigError, match="CCStateIndexer"):
            TabularEnsembleSignal(foreign, trim=1)


class TestDemoSchemeOSAP:
    """The calibrated safety behaviour the scenario matrix depends on."""

    def _run(self, scheme, trace, seed=0):
        return run_monitored_session(
            scheme.factory,
            SessionSpec(trace=trace, seed=seed),
            scheme.learned,
            scheme.default,
            scheme.monitor(),
        )

    def test_in_distribution_never_defaults(self, scheme, split):
        for trace in split.test[:3]:
            result = self._run(scheme, trace)
            assert result.default_fraction == 0.0, trace.name

    def test_abrupt_shift_hands_over_after_onset(self, scheme, split):
        shifted = apply_scenario("abrupt_shift", split.test[0], seed=1)
        result = self._run(scheme, shifted.trace)
        defaulted = [i for i, r in enumerate(result.chunks) if r.defaulted]
        assert defaulted, "monitor never handed over after the shift"
        first_s = defaulted[0] * STEP_S
        assert first_s >= shifted.onset_s
        assert first_s - shifted.onset_s < 30.0
        # Sticky handoff: once defaulted, the session stays defaulted.
        assert defaulted == list(range(defaulted[0], len(result.chunks)))

    def test_non_finite_observation_fails_loudly(self, scheme, split):
        factory = _NaNInjectingFactory(horizon=12)
        spec = SessionSpec(trace=split.test[0], seed=0)
        with pytest.raises(SimulationError, match="non-finite delivered rate"):
            run_monitored_session(
                factory, spec, scheme.learned, scheme.default, scheme.monitor()
            )
        engine = ServeEngine(
            factory, scheme.learned, scheme.default, scheme.signal, scheme.trigger
        )
        with pytest.raises(SimulationError, match="non-finite delivered rate"):
            engine.run([spec, SessionSpec(trace=split.test[1], seed=1)])

    #: sha256 of each session's records and observation stack, computed
    #: when the runner lived in :mod:`repro.domains.runner`.
    GOLDEN = {
        "logistic-006": "6b496371962f24730a87310f1798c1f5b8886360695bfdc56858cc928b8e004f",
        "logistic-006+abrupt_shift@1": "876975b30cd87fb0e03311e243dee76d0fd56c22128c8f5a9845fe04cbb4507e",
    }

    def test_golden_fingerprints(self, scheme, split):
        shifted = apply_scenario("abrupt_shift", split.test[0], seed=1)
        for trace in (split.test[0], shifted.trace):
            result = self._run(scheme, trace)
            digest = hashlib.sha256()
            for record in result.chunks:
                digest.update(repr(dataclasses.astuple(record)).encode())
            digest.update(result.observations.tobytes())
            assert digest.hexdigest() == self.GOLDEN[trace.name]

    def test_scheme_build_is_cached(self, domain, scheme):
        assert domain.demo_scheme().learned.q_table is scheme.learned.q_table


class _NaNDeliveryEnv(CCEnv):
    """A CC link whose delivered-rate report turns NaN after a few steps."""

    def step(self, action):
        result = super().step(action)
        if self._step_index > 4:
            result.observation[1, -1] = np.nan
        return result


@dataclass(frozen=True)
class _NaNInjectingFactory(CCSessionFactory):
    def new_env(self, spec):
        return _NaNDeliveryEnv(spec.trace, start_offset_s=spec.start_offset_s)
