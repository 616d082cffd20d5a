"""The process pool does not retry, respawn or degrade.

A failing task is never run a second time: a transient failure still
fails the call, and a worker death still raises :class:`ParallelError`
instead of respawning the pool.  Recovery from a failed run is checkpoint
resume (``repro figures --resume``), not the pool.

Each task records its attempts as files in a ledger directory, so the
tests can count how often the pool ran an item, even across processes.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.errors import ParallelError
from repro.parallel import parallel_map

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool path requires the fork start method",
)


class CustomTaskError(RuntimeError):
    pass


def _record_attempt(ledger: Path, x: int) -> int:
    """Log one attempt at item *x*; return how many came before it."""
    earlier = len(list(ledger.glob(f"{x}-*")))
    (ledger / f"{x}-{os.getpid()}-{time.time_ns()}").write_text("")
    return earlier


def _attempts(ledger: Path, x: int) -> int:
    return len(list(ledger.glob(f"{x}-*")))


def _always_raise_on_two(ledger, x):
    _record_attempt(ledger, x)
    if x == 2:
        raise CustomTaskError(f"task {x} exploded")
    return x * x


def _raise_once_on_two(ledger, x):
    if _record_attempt(ledger, x) == 0 and x == 2:
        raise CustomTaskError(f"task {x} failed transiently")
    return x * x


def _exit_once_on_one(ledger, x):
    if _record_attempt(ledger, x) == 0 and x == 1:
        os._exit(23)
    return x * x


@pytest.fixture(autouse=True)
def _pretend_multicore(monkeypatch):
    # The pool size is capped at os.cpu_count(); pretend this machine has
    # enough cores so a real pool is exercised even on 1-CPU CI.
    monkeypatch.setattr("repro.parallel.os.cpu_count", lambda: 4)


@needs_fork
class TestRetryOnRaise:
    def test_exhausted_retries_raise_original_exception(self, tmp_path):
        # The attempt budget is one: the failing task runs once and its
        # exception surfaces with the attributing ParallelError cause.
        fn = functools.partial(_always_raise_on_two, tmp_path)
        with pytest.raises(CustomTaskError, match="task 2 exploded") as excinfo:
            parallel_map(fn, list(range(6)), max_workers=2)
        cause = excinfo.value.__cause__
        assert isinstance(cause, ParallelError)
        assert "task 2" in str(cause)
        assert _attempts(tmp_path, 2) == 1

    def test_zero_retries_preserves_fail_fast(self, tmp_path):
        # A second attempt would succeed, but there is none.
        fn = functools.partial(_raise_once_on_two, tmp_path)
        with pytest.raises(CustomTaskError, match="transiently"):
            parallel_map(fn, list(range(6)), max_workers=2)
        assert _attempts(tmp_path, 2) == 1


@needs_fork
class TestWorkerDeath:
    def test_zero_retries_preserves_died_error(self, tmp_path):
        # A respawned pool would finish the call; the death raises instead.
        fn = functools.partial(_exit_once_on_one, tmp_path)
        with pytest.raises(ParallelError, match="died"):
            parallel_map(fn, list(range(6)), max_workers=2)
        assert _attempts(tmp_path, 1) == 1
