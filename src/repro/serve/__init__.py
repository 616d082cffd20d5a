"""Multi-session serving: many monitored sessions through one engine.

The paper's runtime story is per-decision — one agent, one safety
monitor, one stream.  A deployment serves *many* streams at once, and
the expensive part of every decision is the same batched ensemble
forward.  Every served session still follows the rule of the serial
loop (:func:`repro.core.runner.run_monitored_session`): the monitor
decides, then the chosen policy acts; the engine only batches that work
across sessions, and each trajectory matches the loop bitwise.

The :class:`~repro.serve.engine.ServeEngine` multiplexes N concurrent
monitored sessions over a structure-of-arrays slot table
(:class:`~repro.serve.table.SessionTable`), answers all measuring
sessions' uncertainty signals with **one** batched ensemble forward per
step wave (:meth:`UncertaintySignal.measure_batch`), and folds the wave
of monitor decisions through vectorized trigger banks
(:class:`~repro.core.monitor.MonitorTable`).  Sessions whose monitor
settled on the sticky default (``will_measure() == False``) drop out of
the batch entirely; finished sessions free their slot for the next
queued spec mid-wave (continuous batching), so ``max_slots`` bounds
memory without draining the batch.  Specs are the domain-agnostic
:class:`~repro.domains.SessionSpec` (re-exported here); a session's
monitor state travels between processes through
:meth:`~repro.core.monitor.SafetyMonitor.state_dict`.

Layering: this package sits above :mod:`repro.core` (monitors) and the
:mod:`repro.domains` registry (which supplies the
:class:`~repro.domains.SessionFactory` an engine serves), and below
:mod:`repro.experiments` — enforced by ``tools/check_layers.py``, which
also pins this package to the registry root: no workload module
(``repro.abr``, ``repro.pensieve``, …) is imported here directly.
Serving runs in this process only — the one process pool builds the
experiment matrix (:mod:`repro.parallel`), never the engine; per-engine
metrics flow through :mod:`repro.obs` (``serve.sessions``, ``serve.steps``,
``serve.batch_size``, ``serve.wall_seconds``, ``serve.wave_occupancy``,
``serve.slot_reuse``).
"""

from repro.domains import SessionSpec
from repro.serve.engine import ServeEngine
from repro.serve.table import SessionTable

__all__ = [
    "ServeEngine",
    "SessionSpec",
    "SessionTable",
]
