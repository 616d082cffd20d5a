#!/usr/bin/env python3
"""OSAP in a controlled MDP: detection rate as a function of shift size.

The ABR case study has many moving parts; GridWorld has two — an agent
walking to a goal, and an exactly adjustable distribution shift.  This
example fits the paper's U_S machinery (one-class SVM over observations)
on the training environment, then measures how often it flags episodes as
the observation bias (think: a recalibrated sensor, a changed network
path) grows from zero.

Run:  python examples/gridworld_osap.py     (a few seconds)
"""

import numpy as np

from repro.core.monitor import SafetyMonitor
from repro.core.signals import UncertaintySignal
from repro.core.thresholding import ConsecutiveTrigger
from repro.mdp.gridworld import GridWorld, make_shifted_gridworld
from repro.mdp.qlearning import grid_state_indexer, train_q_learning
from repro.mdp.rollout import rollout
from repro.novelty import OneClassSVM
from repro.util.tables import render_table


def collect_observations(env, episodes, seed):
    rng = np.random.default_rng(seed)
    observations = []
    for _ in range(episodes):
        obs = env.reset()
        done = False
        while not done:
            observations.append(obs)
            result = env.step(int(rng.integers(env.num_actions)))
            obs = result.observation
            done = result.done
    return np.asarray(observations)


class _DetectorSignal(UncertaintySignal):
    """U_S over raw GridWorld observations."""

    binary = True

    def __init__(self, detector):
        self.detector = detector

    def measure(self, observation):
        return 1.0 if self.detector.is_outlier(observation) else 0.0


def monitored_return(env, learned, default, monitor, rng, max_steps=10_000):
    """One episode with the monitor deciding who acts at each step."""
    learned.reset()
    default.reset()
    monitor.reset()
    observation = env.reset()
    total = 0.0
    for _ in range(max_steps):
        policy = default if monitor.observe(observation).defaulted else learned
        step = env.step(policy.act(observation, rng))
        total += step.reward
        observation = step.observation
        if step.done:
            break
    return total


class _SafeWalk:
    """The 'battle-tested' default: walk down, then right.

    Under the shifted observations this heuristic keeps working because
    it never reads the (corrupted) observation at all."""

    def action_probabilities(self, observation):
        return np.array([0.0, 0.5, 0.0, 0.5])

    def act(self, observation, rng):
        return int(rng.choice([1, 3]))

    def reset(self):
        pass


def main() -> None:
    train_env = GridWorld(size=5, slip=0.1, observation_noise=0.03, seed=0)
    train_obs = collect_observations(train_env, episodes=40, seed=0)
    detector = OneClassSVM(nu=0.05).fit(train_obs)
    print(
        f"fitted OC-SVM on {train_obs.shape[0]} observations "
        f"({detector.support_vectors_.shape[0]} support vectors, "
        f"{detector.iterations_} SMO iterations)\n"
    )

    rows = []
    for bias in [0.0, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6]:
        shifted = make_shifted_gridworld(train_env, observation_bias=bias, seed=7)
        obs = collect_observations(shifted, episodes=10, seed=1)
        outlier_rate = float((detector.predict(obs) == -1).mean())
        rows.append([f"{bias:g}", f"{outlier_rate:.0%}"])
    print(render_table(["observation bias", "flagged as OOD"], rows))
    print(
        "\nReading: zero bias stays near the nu=5% false-alarm budget; the"
        "\nflag rate rises smoothly with the size of the shift — the signal"
        "\nis informative, not a tripwire.\n"
    )

    # Part 2: wrap a *learned* policy (tabular Q-learning) with the safety
    # net.  A biased sensor makes the Q-agent misread its position and
    # wander; the safety controller detects the shift and hands over to a
    # heuristic that ignores observations entirely.
    print("Training a Q-learning agent on the clean environment ...")
    agent = train_q_learning(
        train_env, grid_state_indexer(train_env.size),
        num_states=train_env.size**2, episodes=1500, seed=0,
    )
    rows = []
    for bias in [0.0, 0.6]:
        env = make_shifted_gridworld(train_env, observation_bias=bias, seed=11)
        monitor = SafetyMonitor(_DetectorSignal(detector), ConsecutiveTrigger(l=3))
        vanilla_returns = [
            rollout(env, agent, np.random.default_rng(s)).total_reward
            for s in range(10)
        ]
        safe_returns = [
            monitored_return(
                env, agent, _SafeWalk(), monitor, np.random.default_rng(s)
            )
            for s in range(10)
        ]
        rows.append(
            [
                f"{bias:g}",
                round(float(np.mean(vanilla_returns)), 1),
                round(float(np.mean(safe_returns)), 1),
            ]
        )
    print()
    print(
        render_table(
            ["observation bias", "Q-agent return", "Q-agent + safety return"],
            rows,
        )
    )
    print(
        "\nReading: with a clean sensor the safety net stays out of the"
        "\nway; with a biased one the vanilla agent times out far from the"
        "\ngoal while the safety-wrapped agent falls back and still arrives."
    )


if __name__ == "__main__":
    main()
