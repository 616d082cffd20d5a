"""Crash-safe training: epoch checkpoints and bitwise-identical resume.

The contract under test is the strongest the repository makes: a training
run interrupted at an epoch boundary — by an in-process fault or a hard
``os._exit`` kill — and then resumed from its checkpoint must produce
**bitwise identical** weights to a run that was never interrupted, for
the A2C trainer and the value regression, with one member or many.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import ChaosError, CheckpointError, TrainingError
from repro.experiments.artifacts import ArtifactCache
from repro.parallel import chaos
from repro.pensieve.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    Checkpointer,
    require,
    resolve_checkpoint_every,
)
from repro.pensieve.ensemble import (
    AGENT_CHECKPOINT_ARTIFACT,
    AGENT_WEIGHTS_ARTIFACT,
    VALUE_CHECKPOINT_ARTIFACT,
    VALUE_WEIGHTS_ARTIFACT,
    train_agent_ensemble,
    train_value_ensemble,
)
from repro.pensieve.training import A2CTrainer, TrainingConfig
from repro.traces.dataset import make_dataset
from repro.video.envivio import envivio_dash3_manifest
from tests.pensieve_oracles import train_agents

SEEDS = (0, 1, 2)

EPOCH_FAULT = chaos.ChaosEvent(site="epoch", index=1, action="raise")


@pytest.fixture(scope="module")
def manifest():
    return envivio_dash3_manifest(repeats=1)


@pytest.fixture(scope="module")
def split():
    return make_dataset("gamma_1_2", num_traces=4, duration_s=120.0, seed=0).split()


@pytest.fixture(scope="module")
def config():
    return TrainingConfig(epochs=4, gamma=0.9, n_step=4, filters=4, hidden=12)


def _cache(tmp_path) -> ArtifactCache:
    return ArtifactCache({"suite": "checkpoint-tests"}, root=tmp_path)


def _agent_state(agent) -> dict[str, np.ndarray]:
    state = {}
    for prefix, net in (("actor", agent.actor), ("critic", agent.critic)):
        for key, value in net.state_arrays().items():
            state[f"{prefix}_{key}"] = value
    return state


def _assert_same_state(ours: dict, theirs: dict) -> None:
    assert ours.keys() == theirs.keys()
    for key in ours:
        assert np.array_equal(ours[key], theirs[key]), key


class TestResolveCadence:
    def test_positive_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "7")
        assert resolve_checkpoint_every(3) == 3

    def test_env_fallback_then_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "5")
        assert resolve_checkpoint_every(None) == 5
        monkeypatch.delenv("REPRO_CHECKPOINT_EVERY")
        assert resolve_checkpoint_every(None) == 0

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "often")
        with pytest.raises(CheckpointError, match="REPRO_CHECKPOINT_EVERY"):
            resolve_checkpoint_every(None)

    def test_negative_argument_rejected(self):
        with pytest.raises(CheckpointError, match=">= 0"):
            resolve_checkpoint_every(-1)


class TestCheckpointer:
    def test_due_every_n_and_final_epoch(self, tmp_path):
        checkpointer = Checkpointer(_cache(tmp_path), "t", every=3)
        assert [e for e in range(1, 8) if checkpointer.due(e, 7)] == [3, 6, 7]
        assert not checkpointer.due(0, 7)

    def test_roundtrip_preserves_meta_and_arrays(self, tmp_path):
        checkpointer = Checkpointer(_cache(tmp_path), "t", every=1)
        arrays = {"w": np.arange(6.0).reshape(2, 3)}
        checkpointer.save({"engine": "test", "epochs_completed": 2}, arrays)
        meta, loaded = checkpointer.load()
        assert meta["engine"] == "test"
        assert meta["epochs_completed"] == 2
        assert meta["schema"] == CHECKPOINT_SCHEMA_VERSION
        assert np.array_equal(loaded["w"], arrays["w"])

    def test_missing_checkpoint_loads_none(self, tmp_path):
        assert Checkpointer(_cache(tmp_path), "t", every=1).load() is None

    def test_reserved_meta_key_rejected(self, tmp_path):
        checkpointer = Checkpointer(_cache(tmp_path), "t", every=1)
        with pytest.raises(CheckpointError, match="reserved"):
            checkpointer.save({}, {Checkpointer.META_KEY: np.zeros(1)})

    def test_discard_removes_checkpoint(self, tmp_path):
        cache = _cache(tmp_path)
        checkpointer = Checkpointer(cache, "t", every=1)
        checkpointer.save({"engine": "test"}, {"w": np.zeros(2)})
        checkpointer.discard()
        assert not cache.has_arrays("t")
        checkpointer.discard()  # idempotent

    def test_require_rejects_identity_mismatch(self):
        meta = {"schema": CHECKPOINT_SCHEMA_VERSION, "engine": "per-member"}
        require(meta, engine="per-member")
        with pytest.raises(CheckpointError, match="engine mismatch"):
            require(meta, engine="lockstep")

    def test_require_rejects_schema_mismatch(self):
        with pytest.raises(CheckpointError, match="schema"):
            require({"schema": CHECKPOINT_SCHEMA_VERSION + 1})


def _interrupted(manifest, split, config, seeds, checkpointer) -> None:
    """Train *seeds* until the epoch-1 fault, checkpointing every epoch."""
    trainer = A2CTrainer(manifest, split.train, seeds, config=config)
    trainer.checkpointer = checkpointer
    with chaos.injected([EPOCH_FAULT]):
        with pytest.raises(ChaosError):
            trainer.train()
    assert trainer.epochs_completed == 2


class TestTrainerResume:
    @staticmethod
    def _resume_matches(manifest, split, config, tmp_path, seeds) -> None:
        reference = A2CTrainer(manifest, split.train, seeds, config=config).train()
        checkpointer = Checkpointer(_cache(tmp_path), "a2c", every=1)
        _interrupted(manifest, split, config, seeds, checkpointer)
        resumed = A2CTrainer(manifest, split.train, seeds, config=config)
        resumed.checkpointer = checkpointer
        agents = resumed.train()
        assert resumed.epochs_completed == config.epochs
        assert len(agents) == len(seeds)
        for ours, theirs in zip(agents, reference):
            _assert_same_state(_agent_state(ours), _agent_state(theirs))

    def test_one_member_bitwise_resume(self, manifest, split, config, tmp_path):
        self._resume_matches(manifest, split, config, tmp_path, SEEDS[:1])

    def test_lockstep_bitwise_resume(self, manifest, split, config, tmp_path):
        self._resume_matches(manifest, split, config, tmp_path, SEEDS)

    def test_resume_matches_per_member_oracle(self, manifest, split, config, tmp_path):
        # The restore writes the stacked weights in place after the
        # trainer is built; the resumed rollouts must act on them, as the
        # uninterrupted per-member loop does.
        checkpointer = Checkpointer(_cache(tmp_path), "a2c", every=1)
        _interrupted(manifest, split, config, SEEDS[:1], checkpointer)
        resumed = A2CTrainer(manifest, split.train, SEEDS[:1], config=config)
        resumed.checkpointer = checkpointer
        (agent,) = resumed.train()
        (reference,) = train_agents(manifest, split.train, config, SEEDS[:1])
        _assert_same_state(_agent_state(agent), _agent_state(reference))

    def test_checkpoint_from_other_seeds_rejected(
        self, manifest, split, config, tmp_path
    ):
        # A checkpoint must never silently seed a run with other members.
        checkpointer = Checkpointer(_cache(tmp_path), "a2c", every=1)
        _interrupted(manifest, split, config, SEEDS, checkpointer)
        other = A2CTrainer(manifest, split.train, SEEDS[::-1], config=config)
        other.checkpointer = checkpointer
        with pytest.raises(CheckpointError, match="seeds mismatch"):
            other.train()

    def test_checkpoint_from_other_trainer_rejected(
        self, manifest, split, config, tmp_path
    ):
        # The retired per-member trainer wrote ``engine="per-member"``
        # checkpoints with a single ``seed``; identity validation refuses
        # them loudly instead of misreading their arrays.
        checkpointer = Checkpointer(_cache(tmp_path), "a2c", every=1)
        checkpointer.save(
            {
                "engine": "per-member",
                "seed": SEEDS[0],
                "epochs_total": config.epochs,
                "epochs_completed": 2,
            },
            {"actor_0": np.zeros(3), "actor_ms0": np.zeros(3)},
        )
        trainer = A2CTrainer(manifest, split.train, SEEDS[:1], config=config)
        trainer.checkpointer = checkpointer
        with pytest.raises(CheckpointError, match="engine mismatch"):
            trainer.train()

    def test_non_finite_checkpoint_refused_before_any_write(
        self, manifest, split, config
    ):
        trainer = A2CTrainer(manifest, split.train, SEEDS[:1], config=config)
        meta, arrays = trainer.checkpoint_payload()
        meta["schema"] = CHECKPOINT_SCHEMA_VERSION
        before = [param.copy() for param in trainer.stacked_actor.params]
        poisoned = dict(arrays, critic_ms0=np.full_like(arrays["critic_ms0"], np.nan))
        for name in arrays:
            if name.startswith("actor_p"):
                poisoned[name] = arrays[name] + 1.0
        with pytest.raises(TrainingError, match="non-finite"):
            trainer.restore_checkpoint(meta, poisoned)
        # The actor arrays load before the critic's accumulators; the
        # refusal comes before any of them is written.
        for param, old in zip(trainer.stacked_actor.params, before):
            assert np.array_equal(param, old)


class TestEnsembleResume:
    def test_agent_ensemble_resumes_and_discards(
        self, manifest, split, config, tmp_path
    ):
        reference = train_agent_ensemble(
            manifest, split.train, size=3, config=config, root_seed=5
        )
        cache = _cache(tmp_path)
        with chaos.injected([EPOCH_FAULT]):
            with pytest.raises(ChaosError):
                train_agent_ensemble(
                    manifest,
                    split.train,
                    size=3,
                    config=config,
                    root_seed=5,
                    cache=cache,
                    checkpoint_every=1,
                )
        assert cache.has_arrays(AGENT_CHECKPOINT_ARTIFACT)
        agents = train_agent_ensemble(
            manifest,
            split.train,
            size=3,
            config=config,
            root_seed=5,
            cache=cache,
            checkpoint_every=1,
        )
        for ours, theirs in zip(agents, reference):
            _assert_same_state(_agent_state(ours), _agent_state(theirs))
        # Completion stores the weight artifact and drops the checkpoint.
        assert cache.has_arrays(AGENT_WEIGHTS_ARTIFACT)
        assert not cache.has_arrays(AGENT_CHECKPOINT_ARTIFACT)

    @pytest.mark.parametrize("many_members", [True, False])
    def test_value_ensemble_resumes_bitwise(
        self, many_members, manifest, split, config, tmp_path
    ):
        # Three members or one, through the same stacked regression and
        # the same checkpoint artifact.
        (agent,) = A2CTrainer(manifest, split.train, SEEDS[:1], config=config).train()
        kwargs = dict(
            size=3 if many_members else 1, epochs=3, filters=4, hidden=12, root_seed=5
        )
        reference = train_value_ensemble(agent, manifest, split.train, **kwargs)
        cache = _cache(tmp_path)
        with chaos.injected([EPOCH_FAULT]):
            with pytest.raises(ChaosError):
                train_value_ensemble(
                    agent,
                    manifest,
                    split.train,
                    cache=cache,
                    checkpoint_every=1,
                    **kwargs,
                )
        assert cache.has_arrays(VALUE_CHECKPOINT_ARTIFACT)
        members = train_value_ensemble(
            agent,
            manifest,
            split.train,
            cache=cache,
            checkpoint_every=1,
            **kwargs,
        )
        assert len(members) == kwargs["size"]
        for ours, theirs in zip(members, reference):
            for mine, other in zip(ours.critic.params, theirs.critic.params):
                assert np.array_equal(mine, other)
        assert cache.has_arrays(VALUE_WEIGHTS_ARTIFACT)
        assert not cache.has_arrays(VALUE_CHECKPOINT_ARTIFACT)


_SUBPROCESS_TRAIN = """
import sys
from repro.experiments.artifacts import ArtifactCache
from repro.pensieve.ensemble import train_agent_ensemble
from repro.pensieve.training import TrainingConfig
from repro.traces.dataset import make_dataset
from repro.video.envivio import envivio_dash3_manifest

manifest = envivio_dash3_manifest(repeats=1)
split = make_dataset("gamma_1_2", num_traces=4, duration_s=120.0, seed=0).split()
config = TrainingConfig(epochs=4, gamma=0.9, n_step=4, filters=4, hidden=12)
cache = ArtifactCache({"suite": "kill-resume"}, root=sys.argv[1])
train_agent_ensemble(
    manifest, split.train, size=3, config=config, root_seed=5,
    cache=cache, checkpoint_every=1,
)
"""


class TestHardKillResume:
    def test_killed_build_resumes_bitwise(self, manifest, split, config, tmp_path):
        """The real thing: ``os._exit`` mid-build, then resume to the same
        bits — the scenario the CI ``fault-smoke`` job automates."""
        cache_root = tmp_path / "cache"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            os.path.join(os.path.dirname(__file__), os.pardir, "src")
        )
        env["REPRO_CHAOS"] = "kill@epoch:1"
        env["REPRO_CHAOS_STATE"] = str(tmp_path / "chaos")
        killed = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_TRAIN, str(cache_root)],
            env=env,
            timeout=600,
        )
        assert killed.returncode == chaos.KILL_EXIT_CODE
        # Same command again: the fire ledger is spent, so the run resumes
        # from the checkpoint and completes.
        resumed = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_TRAIN, str(cache_root)],
            env=env,
            timeout=600,
        )
        assert resumed.returncode == 0

        reference = train_agent_ensemble(
            manifest, split.train, size=3, config=config, root_seed=5
        )
        cache = ArtifactCache({"suite": "kill-resume"}, root=cache_root)
        arrays = cache.load_arrays(AGENT_WEIGHTS_ARTIFACT)
        for index, agent in enumerate(reference):
            for key, value in agent.actor.state_arrays().items():
                assert np.array_equal(arrays[f"actor_{index}_{key}"], value)
            for key, value in agent.critic.state_arrays().items():
                assert np.array_equal(arrays[f"critic_{index}_{key}"], value)
