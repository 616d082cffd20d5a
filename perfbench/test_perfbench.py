"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload runs at a small size for a second; the runs must report
every metric ``BENCHMARK.json`` names, account for the traced wall
time, and turn a corrupted reference decision into a failed run.  The
workloads take about four minutes together.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from common import BestTimes, arrivals, coverage, handoff_quality  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    process = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )
    return process.returncode, process.stdout.strip().splitlines()


def small_run(workload: str, trace: int, *extra: str) -> tuple[int, dict]:
    code, lines = run(
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--small", *extra,
    )
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_reports_every_metric(workload, trace):
    code, result = small_run(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in wanted}
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
    if trace:
        values = {name: reported["value"] for name, reported in result["metrics"].items()}
        # Own times plus the kernel's self time (in process) or the
        # transport time (service) add up to the traced wall time.
        assert coverage(values) == pytest.approx(1.0, abs=0.05)
        assert values["serve.self_s"] >= 0 and values["service.transport_s"] >= 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_fails_the_run(workload):
    code, result = small_run(workload, 0, "--corrupt-reference")
    assert code == 1
    assert not result["correct"]
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    code, lines = run(
        "--workload", "abr-suite", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_handoff_quality_follows_the_scenario_matrix_definitions():
    times = [0.0, 1.0, 2.0, 3.0]
    outcomes = [
        ([False] * 4, times, None),  # clean in distribution
        ([False, True, True, True], times, None),  # false alarm
        ([False, False, True, True], times, 1.5),  # detected at once
        ([True] * 4, times, 2.0),  # early: false alarm, still detected
        ([False] * 4, times, 1.0),  # missed
    ]
    quality = handoff_quality(outcomes)
    assert quality["false_alarm_rate"] == pytest.approx(2 / 5)
    assert quality["specificity"] == pytest.approx(3 / 5)
    assert quality["detection_rate"] == pytest.approx(2 / 3)
    assert quality["detection_latency_s"] == pytest.approx((0.5 + 0.0) / 2)
    assert quality["detection_delay_steps"] == pytest.approx(0.0)


def test_best_times_keep_each_requests_fastest_repeat():
    best = BestTimes()
    for key, seconds in [("a", 0.3), ("b", 0.2), ("a", 0.1), ("b", 0.4)]:
        best.add(key, seconds, work=2)
    assert best.best == {"a": 0.1, "b": 0.2}
    assert best.repeats == 4
    assert best.rate() == pytest.approx(4 / 0.3)
    slower = BestTimes()
    slower.add("a", 0.15)
    assert slower.overhead(best) == pytest.approx(0.5)
    latency = best.latency_metrics(["a"])
    assert latency["step_p50_ms"] == latency["step_p99_ms"] == pytest.approx(100.0)


def test_arrival_order_follows_the_seed():
    sessions = list(range(20))
    assert arrivals(sessions, 3) == arrivals(sessions, 3)
    assert arrivals(sessions, 3) != arrivals(sessions, 4)
    assert sorted(arrivals(sessions, 3)) == sessions
