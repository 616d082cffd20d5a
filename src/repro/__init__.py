"""repro: a reproduction of "Online Safety Assurance for Learning-Augmented
Systems" (Rotman, Schapira, Tamar — HotNets '20).

The package implements the paper's contribution — real-time detection of
out-of-distribution operation for learned sequential decision makers, with
defaulting to a safe policy — together with every substrate its evaluation
needs: a chunk-level ABR video-streaming simulator, a numpy neural-network
and actor-critic (Pensieve) stack, network-trace generators, a from-scratch
one-class SVM, baseline ABR policies, and the experiment harness that
regenerates every figure in the paper.

Quickstart::

    from repro import (
        envivio_dash3_manifest, make_dataset, BufferBasedPolicy,
        build_safety_suite, run_session,
    )

    manifest = envivio_dash3_manifest()
    split = make_dataset("norway").split()
    bb = BufferBasedPolicy(manifest.bitrates_kbps)
    suite = build_safety_suite(manifest, split, bb, is_synthetic=False)
    result = run_session(suite.nd_controller, manifest, split.test[0])
    print(result.qoe, result.default_fraction)
"""

from repro.abr import ABREnv, SessionResult, run_session
from repro.abr.session import run_monitored_session
from repro.abr.suite import SafetySuite, build_safety_suite
from repro.config import FAST, PAPER, ExperimentConfig, get_config
from repro.core import (
    MonitoredScheme,
    PolicyEnsembleSignal,
    SafetyConfig,
    SafetyMonitor,
    StateNoveltySignal,
    ValueEnsembleSignal,
)
from repro.errors import ReproError
from repro.novelty import KDEDetector, MahalanobisDetector, OneClassSVM
from repro.parallel import parallel_map
from repro.pensieve import A2CTrainer, PensieveAgent, TrainingConfig
from repro.policies import (
    BolaPolicy,
    BufferBasedPolicy,
    ConstantPolicy,
    PredictiveMPCPolicy,
    RandomPolicy,
    RateBasedPolicy,
    RobustMPCPolicy,
)
from repro.serve import ServeEngine, SessionSpec
from repro.traces import Dataset, Trace, make_dataset
from repro.video import LinearQoE, LogQoE, VideoManifest, envivio_dash3_manifest

__version__ = "1.0.0"

__all__ = [
    "A2CTrainer",
    "ABREnv",
    "BolaPolicy",
    "BufferBasedPolicy",
    "ConstantPolicy",
    "Dataset",
    "ExperimentConfig",
    "FAST",
    "KDEDetector",
    "LinearQoE",
    "LogQoE",
    "MahalanobisDetector",
    "MonitoredScheme",
    "OneClassSVM",
    "PAPER",
    "PensieveAgent",
    "PolicyEnsembleSignal",
    "PredictiveMPCPolicy",
    "RandomPolicy",
    "RateBasedPolicy",
    "ReproError",
    "RobustMPCPolicy",
    "SafetyConfig",
    "SafetyMonitor",
    "SafetySuite",
    "ServeEngine",
    "SessionResult",
    "SessionSpec",
    "StateNoveltySignal",
    "Trace",
    "TrainingConfig",
    "ValueEnsembleSignal",
    "VideoManifest",
    "build_safety_suite",
    "envivio_dash3_manifest",
    "get_config",
    "make_dataset",
    "parallel_map",
    "run_monitored_session",
    "run_session",
]
