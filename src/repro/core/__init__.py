"""Online Safety Assurance (OSAP) — the paper's contribution.

Detect, in real time, when a learning-augmented agent is operating outside
its training distribution, and default to a safe policy when it is:

* :mod:`repro.core.signals` — the uncertainty-signal protocol and the
  string-keyed registries of signals, novelty detectors, and triggers.
* :mod:`repro.core.novelty_signal` — ``U_S``: state uncertainty via
  novelty detection over windows of throughput statistics.
* :mod:`repro.core.ensemble_signals` — ``U_pi`` (agent-ensemble KL
  disagreement) and ``U_V`` (value-ensemble disagreement), with the
  paper's top-2 outlier trimming.
* :mod:`repro.core.thresholding` — the k-window variance and l-consecutive
  defaulting rules, each one bank of per-session rows.
* :mod:`repro.core.monitor` — :class:`~repro.core.monitor.SafetyMonitor`,
  the serializable step-stream state machine, and
  :func:`~repro.core.monitor.explain_default`, which replays one over a
  served session to explain its hand-off.
* :mod:`repro.core.runner` — the one session loop (the monitor decides,
  then the chosen policy acts), :class:`~repro.core.runner.MonitoredScheme`
  (the safety-enhanced agent as data) and the interface a workload plugs
  into it: :class:`~repro.core.runner.SessionSpec`,
  :class:`~repro.core.runner.SessionFactory` and
  :class:`~repro.core.runner.MonitoredSessionResult`.  Every one-call
  session function (ABR's included) runs through it.
* :mod:`repro.core.calibration` — the domain-agnostic threshold-selection
  rule (Section 2.5); the session-running half lives in
  :mod:`repro.abr.calibration`.
* :mod:`repro.core.osap` — :class:`~repro.core.osap.SafetyConfig`, the
  validated parameter set; suite construction lives in
  :mod:`repro.abr.suite`.

This layer never imports the ABR substrate, the serving engine, or the
experiment harness (enforced by ``tools/check_layers.py``): anything that
streams observations can be monitored.
"""

from repro.core.calibration import CalibrationResult, select_threshold
from repro.core.ensemble_signals import (
    PolicyEnsembleSignal,
    ValueEnsembleSignal,
    policy_disagreement,
    trim_by_distance,
    value_disagreement,
)
from repro.core.monitor import MonitorDecision, SafetyMonitor, explain_default
from repro.core.novelty_signal import StateNoveltySignal, throughput_window_samples
from repro.core.osap import SafetyConfig
from repro.core.runner import MonitoredScheme
from repro.core.signals import (
    DETECTORS,
    SIGNALS,
    TRIGGERS,
    ComponentRegistry,
    UncertaintySignal,
    make_detector,
    make_signal,
    make_trigger,
)
from repro.core.thresholding import (
    ConsecutiveTrigger,
    DefaultTrigger,
    VarianceTrigger,
)

__all__ = [
    "CalibrationResult",
    "ComponentRegistry",
    "ConsecutiveTrigger",
    "DETECTORS",
    "DefaultTrigger",
    "MonitorDecision",
    "MonitoredScheme",
    "PolicyEnsembleSignal",
    "SIGNALS",
    "SafetyConfig",
    "SafetyMonitor",
    "StateNoveltySignal",
    "TRIGGERS",
    "UncertaintySignal",
    "ValueEnsembleSignal",
    "VarianceTrigger",
    "explain_default",
    "make_detector",
    "make_signal",
    "make_trigger",
    "policy_disagreement",
    "select_threshold",
    "throughput_window_samples",
    "trim_by_distance",
    "value_disagreement",
]
