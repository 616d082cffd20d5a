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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ensemble_signals import PolicyEnsembleSignal
from repro.domains import (
    SessionSpec,
    cc,
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
from repro.errors import ConfigError, SimulationError, TraceError
from repro.mdp.qlearning import QLearningAgent, train_q_learning
from repro.serve import ServeEngine
from repro.traces.trace import Trace
from tests import cc_oracles, qlearning_oracles


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


def _scalar_capacities(trace, start_s, count):
    """The reference capacity reader: one ``bandwidth_at`` per step."""
    capacities, time_s = [], start_s
    for _ in range(count):
        capacities.append(trace.bandwidth_at(time_s))
        time_s += STEP_S
    return capacities, time_s


@st.composite
def _traces(draw):
    """A random trace starting after time 0, with uneven sample spacing."""
    first = draw(st.floats(0.01, 50.0))
    gaps = draw(st.lists(st.floats(0.01, 7.0), min_size=1, max_size=30))
    size = len(gaps) + 1
    bandwidths = draw(st.lists(st.floats(0.01, 100.0), min_size=size, max_size=size))
    return Trace(np.cumsum([first, *gaps]), np.array(bandwidths))


class TestCapacitySchedule:
    """``_capacity_schedule`` is bitwise the scalar ``bandwidth_at`` loop."""

    @settings(max_examples=60, deadline=None)
    @given(_traces(), st.floats(0.0, 40.0), st.integers(1, 50))
    def test_chained_schedules_match_the_scalar_loop(self, trace, wraps, count):
        # Start offsets up to 40 trace durations past the first sample.
        start_s = trace.times[0] + wraps * trace.duration
        expected, end_s = _scalar_capacities(trace, start_s, 3 * count)
        capacities, time_s = [], start_s
        for _ in range(3):
            more, time_s = cc._capacity_schedule(trace, time_s, count)
            capacities += more
        assert capacities == expected
        assert time_s == end_s

    @settings(max_examples=15, deadline=None)
    @given(_traces(), st.floats(0.0, 1000.0))
    def test_env_extends_past_the_horizon_bitwise(self, trace, start_offset_s):
        # Two extensions past DEFAULT_HORIZON, then a reset that keeps
        # the schedule and reads it again from the start.
        steps = 2 * DEFAULT_HORIZON + 7
        expected, _ = _scalar_capacities(trace, start_offset_s, steps)
        env = CCEnv(trace, start_offset_s=start_offset_s)
        for _ in range(2):
            env.reset()
            served = [env.step(i % 8).info["capacity_mbps"] for i in range(steps)]
            assert served == expected

    def test_step_times_accumulate_like_the_scalar_loop(self):
        # 1.559 + 13 additions of STEP_S is 8.059000000000001, one ulp
        # above 1.559 + 13 * STEP_S: only sequential addition lands on
        # this boundary and reads the second segment at step 13.
        boundary = 8.059000000000001
        trace = Trace(np.array([0.0, boundary, 100.0]), np.array([1.0, 2.0, 3.0]))
        expected, _ = _scalar_capacities(trace, 1.559, 14)
        assert expected[12:] == [1.0, 2.0]
        env = CCEnv(trace, start_offset_s=1.559)
        env.reset()
        assert [env.step(0).info["capacity_mbps"] for _ in range(14)] == expected

    def test_zero_duration_trace_raises_at_the_first_step(self):
        trace = Trace(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        # Validation forbids it; bypass it to reach the reader's guard.
        object.__setattr__(trace, "times", np.array([1.0, 1.0]))
        env = CCEnv(trace)
        env.reset()
        with pytest.raises(TraceError, match="zero duration"):
            env.step(0)

    def test_training_env_reads_the_same_schedule(self, split):
        traces = list(split.train[:2])
        env = cc._CyclingTraceEnv(traces, 7)
        assert env._capacities == [
            _scalar_capacities(trace, 0.0, 7)[0] for trace in traces
        ]


def _assert_same_step(served, expected):
    """*served* is *expected*: observation bytes, reward, done and every
    ``info`` value with its type."""
    assert type(served) is type(expected)
    assert served.observation.shape == expected.observation.shape
    assert served.observation.dtype == expected.observation.dtype
    assert served.observation.tobytes() == expected.observation.tobytes()
    assert type(served.reward) is type(expected.reward)
    assert served.reward == expected.reward
    assert served.done is expected.done
    assert list(served.info) == list(expected.info)
    for key, value in expected.info.items():
        assert type(served.info[key]) is type(value), key
        assert served.info[key] == value, key


class TestRingHistoryOracle:
    """``CCEnv``'s history ring steps like the shifted-array oracle."""

    SPARE = cc._RING_SPARE

    @staticmethod
    def _actions(count, seed):
        # Python and numpy integers alike; both must serve the same step.
        actions = np.random.default_rng(seed).integers(0, 8, size=count)
        return [int(a) if i % 2 else a for i, a in enumerate(actions)]

    def _compare(self, trace, start_offset_s, segments, seed=0):
        """Step both envs through *segments* (step counts), resetting
        between segments, and compare every step and reset."""
        env = CCEnv(trace, start_offset_s=start_offset_s)
        oracle = cc_oracles.ShiftingCCEnv(trace, start_offset_s=start_offset_s)
        for index, count in enumerate(segments):
            served, expected = env.reset(), oracle.reset()
            assert served.tobytes() == expected.tobytes()
            assert served.shape == expected.shape
            for action in self._actions(count, seed + index):
                _assert_same_step(env.step(action), oracle.step(action))

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_sessions_around_one_ring_length(self, split, offset):
        # R - 1 steps never move a column, R fills the ring exactly and
        # R + 1 moves the window back once.
        trace = split.test[0].scaled(0.4)
        self._compare(trace, 0.0, [self.SPARE + offset])

    @pytest.mark.parametrize("start_offset_s", [0.0, 3.25, 517.0])
    def test_long_sessions_refill_the_ring_repeatedly(self, split, start_offset_s):
        # The ring moves its window back at steps R + 1, 2 (R + 1), ...:
        # four refills here.
        steps = 4 * (self.SPARE + 1) + 3
        trace = split.test[1].scaled(0.3)
        self._compare(trace, start_offset_s, [steps], seed=7)

    def test_reset_mid_session_restarts_the_window(self, split):
        # Resets before, at and after a refill, and an empty session.
        trace = split.train[2].scaled(0.35)
        segments = [5, self.SPARE + 3, 0, 2 * self.SPARE + 9, self.SPARE, 1]
        self._compare(trace, 11.5, segments, seed=3)

    def test_observations_do_not_alias_the_ring(self, split):
        env = CCEnv(split.test[0].scaled(0.4))
        env.reset()
        first = env.step(7).observation
        kept = first.copy()
        for action in self._actions(2 * self.SPARE + 4, seed=5):
            env.step(action).observation[:] = np.nan
        assert first.tobytes() == kept.tobytes()
        assert first.flags.c_contiguous and first.flags.owndata


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

    def test_batch_of_no_rows_is_an_empty_state_array(self):
        states = CCStateIndexer().batch(np.zeros((0, 4, 8)))
        assert states.dtype == np.intp
        assert states.shape == (0,)

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

    def test_act_matches_the_searchsorted_rule(self):
        policy = ConservativeRatePolicy()
        rng = np.random.default_rng(0)
        # Observation entries within 3 ulps of rung / 0.8 put the target
        # exactly on each rung and on both sides of it.
        entries = [0.0, 1e300]
        for rung in RATE_LADDER_MBPS.tolist():
            below = above = rung / policy.safety_factor / RATE_SCALE
            entries.append(below)
            for _ in range(3):
                below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
                entries += [below, above]
        targets = []
        for entry in entries:
            observation = np.zeros((4, 8))
            observation[1, -1] = entry
            target = policy.safety_factor * (entry * RATE_SCALE)
            targets.append(target)
            expected = max(
                int(np.searchsorted(RATE_LADDER_MBPS, target, side="right")) - 1, 0
            )
            assert policy.act(observation, rng) == expected
        assert set(RATE_LADDER_MBPS.tolist()) <= set(targets)

    def test_unusable_delivered_rates(self):
        # NaN measures nothing, so it falls back like a cold start; +inf
        # is a (huge) measurement and a negative rate is below every rung.
        policy = ConservativeRatePolicy()
        rng = np.random.default_rng(0)
        top = RATE_LADDER_MBPS.size - 1
        for delivered, expected in (
            (float("nan"), 0),
            (float("inf"), top),
            (-1.0, 0),
            (0.0, 0),
        ):
            observation = np.zeros((4, 8))
            observation[1, -1] = delivered
            assert policy.act(observation, rng) == expected, delivered

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

    def test_measurement_types(self):
        signal = TabularEnsembleSignal(self._agents(), trim=1)
        assert type(signal.measure(_observation())) is float
        for rows in (0, 1, 5):
            batch = signal.measure_batch(np.zeros((rows, 4, 8)))
            assert batch.dtype == np.float64
            assert batch.shape == (rows,)
        with pytest.raises(SimulationError, match="non-finite queue delay"):
            signal.measure_batch(
                np.stack([_observation(), _observation(0.5, 0.0, np.inf)])
            )

    def test_state_table_is_bitwise_equal_to_the_reference_path(self):
        signal = TabularEnsembleSignal(self._agents(), trim=1)
        observations = [_observation_of_state(state) for state in range(NUM_STATES)]
        indexer = CCStateIndexer()
        assert [indexer(o) for o in observations] == list(range(NUM_STATES))
        table = np.array([signal.measure(o) for o in observations])
        batch = signal.measure_batch(np.stack(observations))
        # The per-member reduction the table was built from.
        reference = np.array(
            [PolicyEnsembleSignal.measure(signal, o) for o in observations]
        )
        assert table.tobytes() == reference.tobytes()
        assert batch.tobytes() == reference.tobytes()

    def test_greedy_act_takes_the_first_tied_maximum(self):
        q_table = np.array([[1.0, 3.0, 3.0, 0.0], [2.0, 2.0, 2.0, 2.0]])
        agent = QLearningAgent(q_table, lambda observation: int(observation))
        rng = np.random.default_rng(0)
        for state, expected in ((0, 1), (1, 0)):
            assert agent.act(state, rng) == expected
            assert agent.act(state, rng) == int(
                np.argmax(agent.action_probabilities(state))
            )

    def test_greedy_act_is_argmax_in_every_state(self, scheme):
        indexer = CCStateIndexer()
        # Rounding to a coarse grid ties many rows, some entirely.
        tied = np.round(np.random.default_rng(5).normal(size=(NUM_STATES, 8)))
        tied[:4] = 0.0
        rng = np.random.default_rng(0)
        for table in (scheme.learned.q_table, tied):
            agent = QLearningAgent(table, indexer)
            for state in range(NUM_STATES):
                observation = _observation_of_state(state)
                assert agent.act(observation, rng) == int(np.argmax(table[state]))

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


class TestQTableTraining:
    """The lean training env and list-based trainer against the numpy
    loop over full :class:`CCEnv` sessions (``tests/qlearning_oracles``)."""

    #: sha256 over ``_demo_tables(0, 4)``: the learned table's bytes,
    #: then each member's, computed with the numpy training loop.
    GOLDEN_TABLES = "4406c5fd007cf9e3173b66d8ad2dfc3e6b69e08884255a1ad2f13fa943144afb"

    @pytest.mark.parametrize(
        "learning_rate, episodes, epsilon_end, prior",
        [
            (0.2, 40, 0.05, False),
            (0.05, 40, 0.25, True),
            (0.2, 25, 0.25, True),
            (0.05, 30, 0.05, False),
        ],
    )
    def test_tables_match_the_numpy_oracle(
        self, learning_rate, episodes, epsilon_end, prior
    ):
        traces = cc._training_traces()
        self._assert_oracle_equal(
            traces, DEFAULT_HORIZON, learning_rate, episodes, epsilon_end, prior
        )

    def test_congested_links_match_the_numpy_oracle(self, split):
        # Under-provisioned links fill the queue and drop packets, so
        # every loss and delay bin and the overflow arithmetic are hit.
        traces = [trace.scaled(0.3) for trace in split.test[:3]]
        self._assert_oracle_equal(traces, 50, 0.05, 40, 0.25, True)

    def _assert_oracle_equal(
        self, traces, max_steps, learning_rate, episodes, epsilon_end, prior
    ):
        initial_q = None
        if prior:
            initial_q = np.random.default_rng(17).normal(
                size=(NUM_STATES, RATE_LADDER_MBPS.size)
            )
        options = dict(
            episodes=episodes,
            learning_rate=learning_rate,
            gamma=0.95,
            epsilon_end=epsilon_end,
            max_steps=max_steps,
            seed=5,
            initial_q=initial_q,
        )
        trained = train_q_learning(
            cc._CyclingTraceEnv(traces, max_steps),
            cc._state_of,
            NUM_STATES,
            **options,
        ).q_table
        expected = qlearning_oracles.train_q_table(
            qlearning_oracles.CyclingCCEnv(traces),
            CCStateIndexer(),
            NUM_STATES,
            **options,
        )
        assert trained.tobytes() == expected.tobytes()

    def test_stepping_past_the_horizon_fails_loudly(self, split):
        env = cc._CyclingTraceEnv(list(split.train[:2]), 3)
        for _ in range(2):
            env.reset()
            for action in (7, 0, 4):
                env.step(action)
            with pytest.raises(SimulationError, match="3-step horizon"):
                env.step(0)

    def test_demo_tables_golden(self):
        learned, members = cc._demo_tables(0, 4)
        digest = hashlib.sha256(learned.tobytes())
        for table in members:
            digest.update(table.tobytes())
        assert digest.hexdigest() == self.GOLDEN_TABLES

    def test_demo_tables_train_through_the_module_level_trainer(self, monkeypatch):
        # Benchmarks time Q training by wrapping this module attribute.
        calls = []

        def counting(environment, state_indexer, num_states, **options):
            calls.append(options["seed"])
            return QLearningAgent(
                np.zeros((num_states, environment.num_actions)), state_indexer
            )

        monkeypatch.setattr(cc, "train_q_learning", counting)
        # The uncached body: clearing the cache would orphan the tables
        # the module-scoped ``scheme`` fixture holds.
        cc._demo_tables.__wrapped__(3, 2)
        assert calls == [4, 13, 14]


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
