"""Extension (paper future work): OSAP on a *second* learned ABR system.

Section 5: "extending our preliminary findings for ABR by considering
other DL-based ABR systems (e.g., [61])".  [61] is Fugu: classical MPC
control driven by a learned throughput predictor.  This benchmark builds
that system on the library's substrate (NeuralPredictor + MPC), shows it
has the same failure mode as Pensieve — fine in-distribution, degraded
under shift — and that the same U_S safety net rescues it.
"""

import numpy as np
import pytest

from repro.abr.session import run_session
from repro.core.monitor import SafetyController
from repro.core.novelty_signal import StateNoveltySignal, throughput_window_samples
from repro.core.thresholding import ConsecutiveTrigger
from repro.novelty.ocsvm import OneClassSVM
from repro.policies.buffer_based import BufferBasedPolicy
from repro.policies.predictive import PredictiveMPCPolicy
from repro.predictors.neural import train_neural_predictor
from repro.traces.dataset import make_dataset
from repro.util.tables import render_table


@pytest.fixture(scope="module")
def fugu_setup(config):
    from repro.video.envivio import envivio_dash3_manifest

    manifest = envivio_dash3_manifest(repeats=config.video_repeats)
    train = make_dataset(
        "norway",
        num_traces=config.num_traces,
        duration_s=config.trace_duration_s,
        seed=config.dataset_seed,
    ).split()
    ood = make_dataset(
        "exponential",
        num_traces=config.num_traces,
        duration_s=config.trace_duration_s,
        seed=config.dataset_seed,
    ).split()
    predictor = train_neural_predictor(
        [t.bandwidths_mbps for t in train.train], epochs=300, seed=0
    )
    fugu = PredictiveMPCPolicy(
        manifest.bitrates_kbps,
        predictor,
        chunk_duration_s=manifest.chunk_duration_s,
        horizon=3,
    )
    bb = BufferBasedPolicy(manifest.bitrates_kbps)
    throughputs = []
    for trace in train.train:
        session = run_session(fugu, manifest, trace, seed=0)
        throughputs.append(np.array([c.throughput_mbps for c in session.chunks]))
    k = config.safety.ocsvm_k(False)
    samples = throughput_window_samples(
        throughputs, k=k, throughput_window=config.safety.throughput_window
    )
    detector = OneClassSVM(nu=config.safety.ocsvm_nu).fit(samples)
    safe_fugu = SafetyController(
        learned=fugu,
        default=bb,
        signal=StateNoveltySignal(
            detector,
            manifest.bitrates_kbps,
            k=k,
            throughput_window=config.safety.throughput_window,
        ),
        trigger=ConsecutiveTrigger(l=config.safety.l),
    )
    return manifest, train, ood, fugu, bb, safe_fugu


def mean_qoe(policy, manifest, traces):
    return float(
        np.mean([run_session(policy, manifest, t, seed=0).qoe for t in traces])
    )


def test_fugu_osap_table(benchmark, fugu_setup, emit):
    manifest, train, ood, fugu, bb, safe_fugu = fugu_setup
    rows = []
    results = {}

    def evaluate_all():
        for name, policy in (
            ("Fugu-like (MPC+DNN)", fugu),
            ("BB", bb),
            ("Fugu-like + ND safety", safe_fugu),
        ):
            in_qoe = mean_qoe(policy, manifest, train.test)
            ood_qoe = mean_qoe(policy, manifest, ood.test)
            results[name] = (in_qoe, ood_qoe)
            rows.append([name, round(in_qoe, 1), round(ood_qoe, 1)])

    benchmark.pedantic(evaluate_all, rounds=1, iterations=1)
    emit(
        "extension_fugu",
        render_table(
            ["scheme", "QoE in-dist (norway)", "QoE OOD (exponential)"], rows
        ),
    )
    fugu_in, fugu_ood = results["Fugu-like (MPC+DNN)"]
    _, bb_ood = results["BB"]
    safe_in, safe_ood = results["Fugu-like + ND safety"]
    # The second learned system degrades under shift relative to its own
    # in-distribution performance, and the safety net closes most of the
    # gap toward the default policy.
    assert safe_ood >= fugu_ood - 1e-9
    assert safe_ood > fugu_ood + 0.5 * max(bb_ood - fugu_ood, 0.0) - 1e-9


def test_fugu_decision_cost(benchmark, fugu_setup):
    manifest, train, _, fugu, _, _ = fugu_setup
    session = run_session(fugu, manifest, train.test[0], seed=0)
    observations = session.observations
    index = {"i": 0}
    rng = np.random.default_rng(0)

    def one_decision():
        obs = observations[index["i"] % len(observations)]
        index["i"] += 1
        return fugu.act(obs, rng)

    benchmark(one_decision)
    assert benchmark.stats["mean"] < 0.1
