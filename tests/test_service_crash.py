"""Crash consistency of the SQLite cold tier.

A worker may die at any instant, so every cold-tier write must be
durable and whole when it returns, and a crash part-way must leave the
rows as they were.  The tests SIGKILL real processes:

* a ``repro serve-api`` child after an eviction and a few resumed steps —
  a fresh child on the same file resumes the sessions that were cold
  bitwise, and answers the ones that were hot with ``unknown-session``
  (their cold rows were deleted on resume, so no stale snapshot is
  left to be resumed);
* a process that kills itself half-way through ``put_many`` — the sweep
  is either wholly present or wholly absent, and older rows are intact.
"""

from __future__ import annotations

import importlib.util
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.service import ServiceClient, SQLiteBackend, build_demo_scheme
from repro.traces.dataset import make_dataset
from repro.video.envivio import envivio_dash3_manifest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def smoke():
    """``tools/service_smoke.py``: its session driver and reference."""
    spec = importlib.util.spec_from_file_location(
        "service_smoke", ROOT / "tools" / "service_smoke.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _env() -> dict:
    """This interpreter's environment with the source tree importable."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def _boot(smoke, store_path: Path, log_path: Path):
    """A ``serve-api`` child on *store_path* and its bound address."""
    command = [
        sys.executable,
        "-m",
        "repro",
        "serve-api",
        "--port",
        "0",
        "--store",
        "sqlite",
        "--store-path",
        str(store_path),
        "--evict-interval",
        "0",
    ]
    with log_path.open("wb") as log:
        process = subprocess.Popen(
            command, stdout=log, stderr=subprocess.STDOUT, env=_env()
        )
    try:
        return process, smoke.wait_for_address(process, log_path)
    except BaseException:
        process.kill()
        process.wait()
        raise


def test_fresh_backend_is_wal_and_fully_synced(tmp_path):
    backend = SQLiteBackend(tmp_path / "store.sqlite")
    connection = backend._conn
    assert connection.execute("PRAGMA journal_mode").fetchone() == ("wal",)
    assert connection.execute("PRAGMA synchronous").fetchone() == (2,)
    backend.close()


def test_sigkilled_worker_resumes_cold_sessions_and_no_stale_ones(
    smoke, tmp_path
):
    manifest = envivio_dash3_manifest(repeats=1)
    dataset = make_dataset("gamma_1_2", num_traces=4, duration_s=120.0, seed=0)
    store_path = tmp_path / "sessions.sqlite"
    first, address = _boot(smoke, store_path, tmp_path / "first.log")
    try:
        with ServiceClient(*address) as client:
            drivers = [
                smoke.SessionDriver(
                    client, manifest, trace, "t", f"s{index}", seed=index
                )
                for index, trace in enumerate(dataset.traces)
            ]
            for _ in range(6):
                for driver in drivers:
                    driver.step()
            assert client.evict(0.0)["evicted"] == 4
            hot, cold = drivers[:2], drivers[2:]
            for _ in range(3):
                for driver in hot:
                    driver.step()
            assert [driver.resumed_steps for driver in hot] == [1, 1]
            stats = client.stats()
            assert (stats["hot"], stats["cold"]) == (2, 2)
    finally:
        first.kill()
        first.wait()
    assert first.returncode == -signal.SIGKILL

    second, address = _boot(smoke, store_path, tmp_path / "second.log")
    try:
        with ServiceClient(*address) as client:
            assert client.stats()["cold"] == 2
            for driver in hot:
                reply = client.step("t", driver.session, np.zeros((6, 8)).tolist())
                assert not reply["ok"] and reply["code"] == "unknown-session"
            for driver in cold:
                driver.client = client
                while not driver.done:
                    driver.step()
                assert driver.resumed_steps == 1
            client.shutdown()
        assert second.wait(timeout=30) == 0
    finally:
        if second.poll() is None:
            second.kill()
            second.wait()
    runtime = build_demo_scheme()
    for driver in cold:
        assert driver.chunks == smoke.reference_chunks(
            runtime, manifest, driver.trace, driver.seed
        ), f"{driver.session} diverged after the crash"


#: Rows in the killed sweep; 16 x 256 KiB outgrows SQLite's 2 MiB page
#: cache, so uncommitted pages spill into the WAL before the kill.
_ROWS = 16
_PAYLOAD_BYTES = 256 * 1024

_SWEEP = textwrap.dedent(
    """
    import os, signal, sys
    from repro.service import SQLiteBackend

    path, kill_at, rows, size = sys.argv[1], sys.argv[2], *map(int, sys.argv[3:])
    backend = SQLiteBackend(path)

    def sweep():
        for index in range(rows):
            if kill_at == "mid" and index == rows * 3 // 4:
                os.kill(os.getpid(), signal.SIGKILL)
            yield "t", f"s{index}", "new".ljust(size, "x")

    backend.put_many(sweep())
    os.kill(os.getpid(), signal.SIGKILL)
    """
)


@pytest.mark.parametrize("kill_at", ["mid", "after"])
def test_sigkill_during_put_many_is_all_or_none(kill_at, tmp_path):
    path = tmp_path / "store.sqlite"
    backend = SQLiteBackend(path)
    older = [("t", f"s{index}", f"old{index}") for index in range(4)]
    backend.put_many(older + [("u", "other", "kept")])
    backend.close()

    process = subprocess.run(
        [
            sys.executable,
            "-c",
            _SWEEP,
            str(path),
            kill_at,
            str(_ROWS),
            str(_PAYLOAD_BYTES),
        ],
        env=_env(),
        capture_output=True,
        timeout=120,
    )
    assert process.returncode == -signal.SIGKILL, process.stderr.decode()

    backend = SQLiteBackend(path)
    swept = [
        (backend.get("t", f"s{index}") or "").startswith("new")
        for index in range(_ROWS)
    ]
    assert all(swept) or not any(swept)
    # put_many returns only after its commit; a kill before it commits
    # leaves every older snapshot in place.
    assert all(swept) == (kill_at == "after")
    if kill_at == "mid":
        assert [backend.get(*key[:2]) for key in older] == [
            payload for _, _, payload in older
        ]
        assert len(backend) == len(older) + 1
    assert backend.get("u", "other") == "kept"
    backend.close()
