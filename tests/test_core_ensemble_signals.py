"""Tests for repro.core.ensemble_signals: U_pi and U_V."""

import numpy as np
import pytest

from repro.core.ensemble_signals import (
    PolicyEnsembleSignal,
    ValueEnsembleSignal,
    policy_disagreement,
    policy_disagreement_batch,
    trim_by_distance,
    value_disagreement,
    value_disagreement_batch,
)
from repro.errors import SafetyError
from repro.pensieve.agent import PensieveAgent, PensieveValueFunction
from repro.pensieve.model import ActorNetwork, CriticNetwork
from repro.util.rng import rng_from_seed


class _FixedPolicy:
    def __init__(self, probabilities):
        self._probabilities = np.asarray(probabilities, dtype=float)

    def action_probabilities(self, observation):
        return self._probabilities

    def act(self, observation, rng):
        return int(np.argmax(self._probabilities))

    def reset(self):
        pass


class _FixedValue:
    def __init__(self, value):
        self._value = float(value)

    def value(self, observation):
        return self._value


OBS = np.zeros((6, 8))
BITRATES = [300.0, 750.0, 1200.0, 1850.0, 2850.0, 4300.0]


def _pensieve_signal(kind: str):
    """A randomized 5-member ensemble signal that stacks its forwards."""
    rngs = [rng_from_seed(10 + i) for i in range(5)]
    if kind == "U_pi":
        actors = [ActorNetwork(6, rng, filters=8, hidden=32) for rng in rngs]
        return PolicyEnsembleSignal(
            [PensieveAgent(BITRATES, actor) for actor in actors], trim=2
        )
    critics = [CriticNetwork(6, rng, filters=8, hidden=32) for rng in rngs]
    return ValueEnsembleSignal(
        [PensieveValueFunction(critic) for critic in critics], trim=2
    )


def _fixed_signal(kind: str):
    """A 5-member ensemble that ignores its input: the member loop."""
    if kind == "U_pi":
        return PolicyEnsembleSignal(
            [_FixedPolicy(p) for p in np.eye(3)[[0, 1, 2, 0, 1]]], trim=2
        )
    return ValueEnsembleSignal([_FixedValue(v) for v in range(5)], trim=2)


class TestTrimByDistance:
    def test_drops_farthest(self):
        outputs = np.array([[1.0], [2.0], [100.0]])
        distances = np.array([0.1, 0.2, 50.0])
        survivors = trim_by_distance(outputs, distances, trim=1)
        assert 100.0 not in survivors

    def test_zero_trim_is_identity(self):
        outputs = np.array([[1.0], [2.0]])
        assert np.array_equal(
            trim_by_distance(outputs, np.array([0.0, 1.0]), 0), outputs
        )

    def test_over_trim_rejected(self):
        with pytest.raises(SafetyError):
            trim_by_distance(np.ones((2, 1)), np.zeros(2), trim=2)

    def test_negative_trim_rejected(self):
        with pytest.raises(SafetyError):
            trim_by_distance(np.ones((3, 1)), np.zeros(3), trim=-1)


class TestPolicyEnsembleSignal:
    def test_identical_agents_zero_uncertainty(self):
        agents = [_FixedPolicy([0.25, 0.25, 0.5]) for _ in range(5)]
        signal = PolicyEnsembleSignal(agents, trim=2)
        assert signal.measure(OBS) == pytest.approx(0.0, abs=1e-9)

    def test_disagreement_raises_uncertainty(self):
        agreeing = [_FixedPolicy([0.9, 0.1]) for _ in range(5)]
        disagreeing = [
            _FixedPolicy([0.9, 0.1]),
            _FixedPolicy([0.1, 0.9]),
            _FixedPolicy([0.5, 0.5]),
            _FixedPolicy([0.8, 0.2]),
            _FixedPolicy([0.2, 0.8]),
        ]
        low = PolicyEnsembleSignal(agreeing, trim=2).measure(OBS)
        high = PolicyEnsembleSignal(disagreeing, trim=2).measure(OBS)
        assert high > low

    def test_trimming_discards_outlier_members(self):
        # Four agreeing agents plus one wild outlier: with trim=2 the
        # outlier cannot dominate the signal.
        agents = [_FixedPolicy([0.98, 0.02])] * 4 + [_FixedPolicy([0.01, 0.99])]
        trimmed = PolicyEnsembleSignal(agents, trim=2).measure(OBS)
        untrimmed = PolicyEnsembleSignal(agents, trim=0).measure(OBS)
        assert trimmed < untrimmed
        assert trimmed == pytest.approx(0.0, abs=1e-9)

    def test_signal_non_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            probs = rng.dirichlet(np.ones(4), size=5)
            agents = [_FixedPolicy(p) for p in probs]
            assert PolicyEnsembleSignal(agents, trim=2).measure(OBS) >= 0.0

    def test_too_small_ensemble_rejected(self):
        with pytest.raises(SafetyError):
            PolicyEnsembleSignal([_FixedPolicy([1.0])], trim=0)

    def test_trim_leaves_two_members(self):
        agents = [_FixedPolicy([0.5, 0.5])] * 4
        with pytest.raises(SafetyError):
            PolicyEnsembleSignal(agents, trim=3)


class TestValueEnsembleSignal:
    def test_identical_values_zero_uncertainty(self):
        members = [_FixedValue(3.0) for _ in range(5)]
        assert ValueEnsembleSignal(members, trim=2).measure(OBS) == pytest.approx(0.0)

    def test_spread_values_raise_uncertainty(self):
        tight = [_FixedValue(v) for v in [1.0, 1.01, 0.99, 1.0, 1.02]]
        spread = [_FixedValue(v) for v in [0.0, 5.0, -5.0, 2.0, -3.0]]
        low = ValueEnsembleSignal(tight, trim=2).measure(OBS)
        high = ValueEnsembleSignal(spread, trim=2).measure(OBS)
        assert high > low

    def test_trim_discards_two_farthest(self):
        # Three members at 1.0, two wild ones: survivors all equal 1.0.
        members = [_FixedValue(1.0)] * 3 + [_FixedValue(100.0), _FixedValue(-50.0)]
        signal = ValueEnsembleSignal(members, trim=2)
        assert signal.measure(OBS) == pytest.approx(0.0, abs=1e-9)

    def test_known_hand_computed_value(self):
        members = [_FixedValue(v) for v in [0.0, 2.0, 4.0]]
        signal = ValueEnsembleSignal(members, trim=0)
        # Mean 2; distances 2, 0, 2; sum = 4.
        assert signal.measure(OBS) == pytest.approx(4.0)

    def test_too_small_ensemble_rejected(self):
        with pytest.raises(SafetyError):
            ValueEnsembleSignal([_FixedValue(1.0)], trim=0)


class TestNonFiniteObservations:
    """A NaN feature must not be scored: the Pensieve ReLU would read it
    as a zero activation and the signal would return a plausible value.
    """

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["U_pi", "U_V"])
    @pytest.mark.parametrize("make", [_pensieve_signal, _fixed_signal])
    def test_measure_rejects(self, make, kind, value):
        signal = make(kind)
        observation = rng_from_seed(0).normal(size=(6, 8))
        observation[1, -1] = value
        with pytest.raises(SafetyError, match="non-finite"):
            signal.measure(observation)

    @pytest.mark.parametrize("kind", ["U_pi", "U_V"])
    @pytest.mark.parametrize("make", [_pensieve_signal, _fixed_signal])
    def test_measure_batch_rejects(self, make, kind):
        signal = make(kind)
        observations = rng_from_seed(1).normal(size=(4, 6, 8))
        observations[2, 1, -1] = np.nan
        with pytest.raises(SafetyError, match="non-finite"):
            signal.measure_batch(observations)

    @pytest.mark.parametrize("kind", ["U_pi", "U_V"])
    def test_finite_observations_still_scored(self, kind):
        signal = _pensieve_signal(kind)
        assert signal._stacked is not None
        observations = rng_from_seed(2).normal(size=(3, 6, 8))
        assert np.isfinite(signal.measure_batch(observations)).all()
        assert np.isfinite(signal.measure(observations[0]))


class TestBatchedReductions:
    """The wave-sized reductions are *bitwise* equal to the scalar ones.

    The serve engine's continuous kernel reduces a whole wave of ensemble
    outputs in one vectorized call; each column must match the per-session
    scalar reduction exactly (not approximately), or batched serving could
    diverge from the reference trajectories.
    """

    @pytest.mark.parametrize("trim", [0, 1, 2])
    def test_value_batch_matches_scalar_columns(self, trim):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(5, 17))
        batch = value_disagreement_batch(values, trim)
        scalar = np.array(
            [value_disagreement(values[:, b], trim) for b in range(17)]
        )
        assert batch.tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("trim", [0, 1, 2])
    def test_policy_batch_matches_scalar_columns(self, trim):
        rng = np.random.default_rng(11)
        distributions = rng.dirichlet(np.ones(6), size=(5, 13))  # (5, 13, 6)
        batch = policy_disagreement_batch(distributions, trim)
        scalar = np.array(
            [policy_disagreement(distributions[:, b, :], trim) for b in range(13)]
        )
        assert batch.tobytes() == scalar.tobytes()

    def test_tied_distances_trim_identically(self):
        # Duplicate members produce exactly tied distances; the batched
        # argsort must break the ties the same way the scalar one does.
        values = np.array(
            [
                [1.0, 2.0, 0.5],
                [1.0, 2.0, 0.5],
                [3.0, 2.0, 0.5],
                [1.0, 5.0, 0.5],
                [3.0, 5.0, 9.0],
            ]
        )
        batch = value_disagreement_batch(values, trim=2)
        scalar = np.array(
            [value_disagreement(values[:, b], 2) for b in range(values.shape[1])]
        )
        assert batch.tobytes() == scalar.tobytes()

    def test_over_trim_rejected(self):
        with pytest.raises(SafetyError):
            value_disagreement_batch(np.ones((2, 4)), trim=2)
        with pytest.raises(SafetyError):
            policy_disagreement_batch(np.ones((2, 4, 3)), trim=5)

    def test_negative_trim_rejected(self):
        with pytest.raises(SafetyError):
            value_disagreement_batch(np.ones((3, 4)), trim=-1)
