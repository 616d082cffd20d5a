"""Tests for the deterministic process pool."""

import os

import pytest

from repro.errors import ParallelError
from repro.parallel import parallel_map


def _square(x):
    return x * x


def _fail(x):
    raise ValueError(f"task {x} failed")


def _report_pid(_):
    return os.getpid()


@pytest.fixture
def pretend_multicore(monkeypatch):
    # The pool size is capped at os.cpu_count(); pretend this machine has
    # enough cores so a real pool is exercised even on 1-CPU CI.
    monkeypatch.setattr("repro.parallel.os.cpu_count", lambda: 4)


class TestParallelMap:
    def test_serial_matches_plain_map(self):
        items = list(range(20))
        assert parallel_map(_square, items, max_workers=1) == [
            x * x for x in items
        ]

    def test_parallel_matches_serial(self, pretend_multicore):
        items = list(range(20))
        serial = parallel_map(_square, items, max_workers=1)
        parallel = parallel_map(_square, items, max_workers=4)
        assert parallel == serial

    def test_order_preserved(self, pretend_multicore):
        items = [5, 1, 4, 2, 3]
        assert parallel_map(_square, items, max_workers=2) == [
            25, 1, 16, 4, 9,
        ]

    def test_empty_items(self):
        assert parallel_map(_square, [], max_workers=4) == []

    def test_default_is_serial(self):
        assert parallel_map(_report_pid, [0, 1, 2]) == [os.getpid()] * 3

    def test_nonpositive_max_workers_rejected(self):
        with pytest.raises(ParallelError, match="max_workers must be >= 1"):
            parallel_map(_square, [1, 2], max_workers=0)
        with pytest.raises(ParallelError, match="max_workers must be >= 1"):
            parallel_map(_square, [1, 2], max_workers=-3)

    def test_pool_runs_in_worker_processes(self, pretend_multicore):
        pids = parallel_map(_report_pid, list(range(4)), max_workers=2)
        assert os.getpid() not in pids

    def test_worker_exception_propagates(self, pretend_multicore):
        with pytest.raises(ValueError, match="failed"):
            parallel_map(_fail, [1, 2], max_workers=2)
        with pytest.raises(ValueError, match="failed"):
            parallel_map(_fail, [1, 2], max_workers=1)

    def test_worker_count_capped_at_cpu_count(self, monkeypatch):
        # On a single-CPU machine a pool only adds fork overhead, so any
        # requested width must degrade to the in-process serial fallback.
        monkeypatch.setattr("repro.parallel.os.cpu_count", lambda: 1)
        pids = parallel_map(_report_pid, [0, 1, 2], max_workers=8)
        assert pids == [os.getpid()] * 3

    def test_cpu_cap_keeps_results_identical(self, monkeypatch):
        items = list(range(12))
        expected = [x * x for x in items]
        monkeypatch.setattr("repro.parallel.os.cpu_count", lambda: 1)
        assert parallel_map(_square, items, max_workers=6) == expected
        monkeypatch.setattr("repro.parallel.os.cpu_count", lambda: 2)
        assert parallel_map(_square, items, max_workers=6) == expected


class TestWorkerState:
    def test_env_propagates_to_workers(self, pretend_multicore):
        # Fork-based workers inherit the parent environment by
        # construction; the chaos harness's REPRO_CHAOS relies on it.
        os.environ.setdefault("REPRO_TEST_SENTINEL", "1")
        try:
            values = parallel_map(_read_env_sentinel, [0, 1], max_workers=2)
            assert values == ["1", "1"]
        finally:
            os.environ.pop("REPRO_TEST_SENTINEL", None)


def _read_env_sentinel(_):
    return os.environ.get("REPRO_TEST_SENTINEL")
