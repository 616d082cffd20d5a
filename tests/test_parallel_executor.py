"""Tests for the deterministic process-pool executor."""

import os

import pytest

from repro.errors import ParallelError
from repro.parallel import in_worker, parallel_map, resolve_max_workers
from repro.parallel.executor import MAX_WORKERS_ENV
from repro.parallel.worker import _clear_state


def _square(x):
    return x * x


_INIT_STATE = {}


def _record_init(value):
    _INIT_STATE["value"] = value


def _read_init(_):
    return _INIT_STATE.get("value")


def _fail(x):
    raise ValueError(f"task {x} failed")


def _report_worker_flag(_):
    return in_worker()


class TestResolveMaxWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        assert resolve_max_workers() == 1

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "8")
        assert resolve_max_workers(3) == 3

    def test_environment_variable(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "4")
        assert resolve_max_workers() == 4

    @pytest.mark.parametrize("value", ["many", "2.5", "4x", "1 2"])
    def test_non_integer_environment_rejected(self, monkeypatch, value):
        monkeypatch.setenv(MAX_WORKERS_ENV, value)
        with pytest.raises(ParallelError) as excinfo:
            resolve_max_workers()
        # The error must say which variable is broken, what it held, and
        # what a valid setting looks like.
        message = str(excinfo.value)
        assert MAX_WORKERS_ENV in message
        assert repr(value) in message
        assert f"{MAX_WORKERS_ENV}=4" in message

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_nonpositive_environment_rejected(self, monkeypatch, value):
        monkeypatch.setenv(MAX_WORKERS_ENV, value)
        with pytest.raises(ParallelError) as excinfo:
            resolve_max_workers()
        message = str(excinfo.value)
        assert MAX_WORKERS_ENV in message
        assert "unset it" in message

    def test_nonpositive_argument_rejected(self, monkeypatch):
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        with pytest.raises(ParallelError, match="max_workers must be >= 1"):
            resolve_max_workers(0)
        with pytest.raises(ParallelError, match="max_workers must be >= 1"):
            resolve_max_workers(-3)

    @pytest.mark.parametrize("value", ["", "   "])
    def test_blank_environment_means_serial(self, monkeypatch, value):
        monkeypatch.setenv(MAX_WORKERS_ENV, value)
        assert resolve_max_workers() == 1

    def test_environment_tolerates_whitespace(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, " 4 ")
        assert resolve_max_workers() == 4


class TestParallelMap:
    def test_serial_matches_plain_map(self):
        items = list(range(20))
        assert parallel_map(_square, items, max_workers=1) == [
            x * x for x in items
        ]

    def test_parallel_matches_serial(self):
        items = list(range(20))
        serial = parallel_map(_square, items, max_workers=1)
        parallel = parallel_map(_square, items, max_workers=4)
        assert parallel == serial

    def test_order_preserved(self):
        items = [5, 1, 4, 2, 3]
        assert parallel_map(_square, items, max_workers=2) == [
            25, 1, 16, 4, 9,
        ]

    def test_empty_items(self):
        assert parallel_map(_square, [], max_workers=4) == []

    def test_initializer_runs_in_serial_fallback(self):
        _INIT_STATE.clear()
        results = parallel_map(
            _read_init,
            [0, 1],
            max_workers=1,
            initializer=_record_init,
            initargs=(42,),
        )
        assert results == [42, 42]

    def test_initializer_runs_in_every_worker(self, monkeypatch):
        # The pool size is capped at os.cpu_count(); pretend this machine
        # has enough cores so a real pool is exercised even on 1-CPU CI.
        monkeypatch.setattr("repro.parallel.executor.os.cpu_count", lambda: 4)
        _INIT_STATE.clear()
        results = parallel_map(
            _read_init,
            list(range(8)),
            max_workers=2,
            initializer=_record_init,
            initargs=(7,),
        )
        assert results == [7] * 8
        # The parent process state stays untouched by pool workers.
        assert "value" not in _INIT_STATE

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="failed"):
            parallel_map(_fail, [1, 2], max_workers=2)
        with pytest.raises(ValueError, match="failed"):
            parallel_map(_fail, [1, 2], max_workers=1)

    def test_in_worker_flag(self, monkeypatch):
        monkeypatch.setattr("repro.parallel.executor.os.cpu_count", lambda: 4)
        assert not in_worker()
        flags = parallel_map(_report_worker_flag, [0, 1], max_workers=2)
        assert flags == [True, True]
        assert parallel_map(_report_worker_flag, [0, 1], max_workers=1) == [
            False,
            False,
        ]

    def test_env_variable_drives_default(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "2")
        assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_worker_count_capped_at_cpu_count(self, monkeypatch):
        # On a single-CPU machine a pool only adds fork overhead, so any
        # requested width must degrade to the in-process serial fallback —
        # observable through the in_worker flag staying False.
        monkeypatch.setattr("repro.parallel.executor.os.cpu_count", lambda: 1)
        flags = parallel_map(_report_worker_flag, [0, 1, 2], max_workers=8)
        assert flags == [False, False, False]

    def test_cpu_cap_keeps_results_identical(self, monkeypatch):
        items = list(range(12))
        expected = [x * x for x in items]
        monkeypatch.setattr("repro.parallel.executor.os.cpu_count", lambda: 1)
        assert parallel_map(_square, items, max_workers=6) == expected
        monkeypatch.setattr("repro.parallel.executor.os.cpu_count", lambda: 2)
        assert parallel_map(_square, items, max_workers=6) == expected


class TestWorkerState:
    def test_clear_state(self):
        from repro.parallel import worker

        worker._SESSION_STATE["x"] = 1
        worker._DISTRIBUTION_STATE["y"] = 2
        _clear_state()
        assert worker._SESSION_STATE == {}
        assert worker._DISTRIBUTION_STATE == {}

    def test_env_propagates_to_workers(self):
        # Fork-based workers inherit the parent environment by construction;
        # guard the assumption the initializer shipping relies on.
        os.environ.setdefault("REPRO_TEST_SENTINEL", "1")
        try:
            values = parallel_map(_read_env_sentinel, [0], max_workers=2)
            assert values == ["1"]
        finally:
            os.environ.pop("REPRO_TEST_SENTINEL", None)


def _read_env_sentinel(_):
    return os.environ.get("REPRO_TEST_SENTINEL")
