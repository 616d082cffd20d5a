"""Fault injection for the process pool.

A failing task must surface in the parent as the *original* exception
with a :class:`ParallelError` cause naming the task; a worker that dies
outright (``os._exit``, simulating a segfault or OOM-kill) must surface
as a :class:`ParallelError` naming the unfinished tasks — never a hang
and never a bare ``BrokenProcessPool``.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.errors import ParallelError
from repro.parallel import parallel_map

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool path requires the fork start method",
)


class CustomTaskError(RuntimeError):
    pass


def _raise_on_three(x):
    if x == 3:
        raise CustomTaskError(f"task {x} exploded")
    return x * x


def _exit_on_two(x):
    if x == 2:
        os._exit(23)
    return x * x


@pytest.fixture(autouse=True)
def _pretend_multicore(monkeypatch):
    # The pool size is capped at os.cpu_count(); pretend this machine has
    # enough cores so a real pool is exercised even on 1-CPU CI.
    monkeypatch.setattr("repro.parallel.os.cpu_count", lambda: 4)


@needs_fork
class TestWorkerRaises:
    def test_original_exception_type_survives(self):
        with pytest.raises(CustomTaskError, match="task 3 exploded"):
            parallel_map(_raise_on_three, list(range(6)), max_workers=2)

    def test_cause_names_the_failing_task(self):
        with pytest.raises(CustomTaskError) as excinfo:
            parallel_map(_raise_on_three, list(range(6)), max_workers=2)
        cause = excinfo.value.__cause__
        assert isinstance(cause, ParallelError)
        assert "task 3" in str(cause)
        assert "CustomTaskError" in str(cause)

    def test_serial_fallback_raises_plainly(self):
        # With one worker there is no pool and no wrapping: the exception
        # propagates from the in-process loop as-is.
        with pytest.raises(CustomTaskError) as excinfo:
            parallel_map(_raise_on_three, list(range(6)), max_workers=1)
        assert excinfo.value.__cause__ is None


@needs_fork
class TestWorkerDies:
    def test_death_becomes_parallel_error(self):
        with pytest.raises(ParallelError, match="died"):
            parallel_map(_exit_on_two, list(range(6)), max_workers=2)

    def test_error_names_the_tasks_the_worker_held(self):
        with pytest.raises(ParallelError) as excinfo:
            parallel_map(_exit_on_two, list(range(6)), max_workers=2)
        message = str(excinfo.value)
        # Which tasks finished before the death can vary with scheduling,
        # but the failing item (2) is always among the unfinished ones, and
        # the message must point at them plus the serial-debug escape hatch.
        assert "tasks [" in message
        assert "2" in message.partition("tasks [")[2].partition("]")[0].split(", ")
        assert "first item" in message
        assert "max_workers=1" in message

    def test_pool_usable_after_failure(self):
        with pytest.raises(ParallelError):
            parallel_map(_exit_on_two, list(range(6)), max_workers=2)
        assert parallel_map(abs, [-1, -2, -3], max_workers=2) == [1, 2, 3]
