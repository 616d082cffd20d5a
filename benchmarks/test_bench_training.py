"""Substrate benchmark: A2C training cost per epoch.

The paper trained Pensieve for ~8 hours on a GPU cluster; this
reproduction's agents train in tens of seconds on a CPU.  This benchmark
pins the per-epoch cost (one episode collected + one actor and one critic
update) so regressions in the numpy substrate are caught.
"""

from repro.pensieve.training import A2CTrainer, TrainingConfig


def test_a2c_epoch_cost(benchmark, artifacts):
    config = TrainingConfig(epochs=1, filters=8, hidden=48, gamma=0.9, n_step=4)
    trainer = A2CTrainer(artifacts.manifest, artifacts.split.train, [0], config=config)

    def one_epoch():
        trainer._collect()
        return trainer._update(entropy_weight=0.1)

    benchmark(one_epoch)
    assert benchmark.stats["mean"] < 2.0


def test_value_regression_epoch_cost(benchmark, artifacts):
    import numpy as np

    from repro.nn.optim import RMSProp
    from repro.pensieve.model import CriticNetwork

    observations = artifacts.probe_observations
    targets = np.zeros(len(observations))
    critic = CriticNetwork(
        artifacts.manifest.num_bitrates, np.random.default_rng(0), filters=8, hidden=48
    )
    optimizer = RMSProp(critic.params, learning_rate=1e-3)

    def one_step():
        values = critic.values(observations)
        diff = values - targets
        critic.zero_grads()
        critic.backward(2.0 * diff / diff.size)
        optimizer.step(critic.grads)

    benchmark(one_step)
