"""Deterministic parallel execution for the experiment pipeline.

The executor gives every embarrassingly parallel loop in the library —
ensemble-member training, per-(policy, trace) session evaluation,
per-distribution suite builds — the same guarantees: bitwise-identical
results to the serial path, one-time context shipping per worker, a
transparent serial fallback (``max_workers=1``, platforms without
``fork``, or nested use inside a worker), and bounded fault tolerance —
per-task retries with exponential backoff, per-task deadlines, pool
respawn after worker death, and a structured serial degradation when the
pool is irrecoverable.  The :mod:`repro.parallel.chaos` harness injects
deterministic faults at the executor's and the trainers' hook sites so
all of the above is tested against real kills, raises, and stalls.

Serving (:mod:`repro.serve`) never goes through the executor: the
serve engine runs in-process whatever ``REPRO_MAX_WORKERS`` says.
"""

from repro.parallel.executor import (
    backoff_delay,
    in_worker,
    parallel_map,
    resolve_max_workers,
    resolve_pool_respawns,
    resolve_task_retries,
    resolve_task_timeout,
)

__all__ = [
    "parallel_map",
    "resolve_max_workers",
    "resolve_task_retries",
    "resolve_task_timeout",
    "resolve_pool_respawns",
    "backoff_delay",
    "in_worker",
]
