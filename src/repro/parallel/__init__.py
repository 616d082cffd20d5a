"""One small process pool for the experiment matrix.

The paper's evaluation is a train x test matrix over six trace
distributions, and one training distribution (suite training,
calibration, evaluation on every test split) is the heaviest independent
unit of work in the library.  :func:`parallel_map` builds
:func:`~repro.experiments.training_runs.run_all_distributions`'s pending
distributions one per worker; nothing else in the library pools.

The contract:

* **Determinism** — results come back in item order and every item is a
  self-contained description of its work, so the output is
  bitwise-identical at any worker count.
* **Serial fallback** — the pool size is ``min(max_workers, len(items),
  os.cpu_count())`` with ``max_workers`` defaulting to 1; when that is 1,
  or the platform has no ``fork``, the items run in-process, in order.
* **Fail fast, attributed** — a task's exception re-raises in the parent
  with its original type and a :class:`~repro.errors.ParallelError`
  cause naming the task; a worker that dies outright (segfault, OOM kill,
  ``os._exit``) raises a :class:`ParallelError` naming the unfinished
  tasks.  Never a hang, never a bare ``BrokenProcessPool``.

There are no retries: a deterministic task that raised raises again.  A
killed run is recovered by epoch checkpoints plus the artifact cache
(``repro figures --resume``), which also survive the parent dying;
:mod:`repro.parallel.chaos` injects the faults that test that path.

Serving (:mod:`repro.serve`) and ensemble training always run in the
calling process.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable

from repro import obs
from repro.errors import ParallelError

__all__ = ["parallel_map"]


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    max_workers: int | None = None,
) -> list[Any]:
    """Map *fn* over *items*, across a ``fork`` process pool when allowed.

    *fn* must pickle (a module-level function, or a
    :func:`functools.partial` of one); each item is submitted as its own
    task.  Results come back in item order.  See the module docstring for
    the pool size and the failure contract.
    """
    items = list(items)
    requested = 1 if max_workers is None else max_workers
    if requested < 1:
        raise ParallelError(f"max_workers must be >= 1, got {max_workers}")
    workers = min(requested, len(items), os.cpu_count() or 1)
    if "fork" not in multiprocessing.get_all_start_methods():
        workers = 1
    with obs.span("executor.parallel_map", tasks=len(items), workers=workers):
        if workers <= 1:
            return [fn(item) for item in items]
        return _pool_map(fn, items, workers)


def _pool_map(fn: Callable[[Any], Any], items: list[Any], workers: int) -> list[Any]:
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(fn, item) for item in items]
        results = []
        for index, future in enumerate(futures):
            try:
                results.append(future.result())
            except BrokenProcessPool:
                lost = [
                    i
                    for i in range(index, len(items))
                    if not futures[i].done() or futures[i].exception() is not None
                ]
                raise ParallelError(
                    f"a worker process died with tasks {lost} unfinished "
                    f"(first item: {items[index]!r}); rerun with max_workers=1 "
                    "to debug the failing task in-process"
                ) from None
            except Exception as exc:
                cause = ParallelError(
                    f"task {index} ({items[index]!r}) raised "
                    f"{type(exc).__name__} in a worker process"
                )
                cause.__cause__ = exc.__cause__  # the worker-side traceback
                raise exc from cause
        return results
    finally:
        # After a failure, drop the queued tasks rather than run them.
        pool.shutdown(wait=True, cancel_futures=True)
