"""Tests for tools/check_bench.py: the benchmark timing gate."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

COMMITTED = {
    "machine": {"cpu_count": 2},
    "schemes": {
        "A-ensemble": {"speedup_batching": 2.0, "batched_s": 1.5},
        "cc-demo": {"speedup_batching": 4.0},
    },
    "min_speedup_gate": 3.0,
}


@pytest.fixture(scope="module")
def check_bench():
    spec = importlib.util.spec_from_file_location(
        "check_bench", ROOT / "tools" / "check_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(check_bench, tmp_path, fresh):
    fresh_path = tmp_path / "fresh.json"
    committed_path = tmp_path / "committed.json"
    fresh_path.write_text(json.dumps(fresh))
    committed_path.write_text(json.dumps(COMMITTED))
    return check_bench.main([str(fresh_path), str(committed_path)])


def _fresh(a_batching=2.0, cc_batching=4.0):
    return {
        "schemes": {
            "A-ensemble": {"speedup_batching": a_batching, "batched_s": 9.0},
            "cc-demo": {"speedup_batching": cc_batching},
        }
    }


def test_passing_fields(check_bench, tmp_path, capsys):
    # Within the default 0.5 tolerance; absolute times are not gated.
    assert _run(check_bench, tmp_path, _fresh(a_batching=1.1)) == 0
    assert "2 speedup field(s) within tolerance" in capsys.readouterr().out


def test_regressed_field_fails(check_bench, tmp_path, capsys):
    assert _run(check_bench, tmp_path, _fresh(cc_batching=1.9)) == 1
    captured = capsys.readouterr()
    assert "schemes.cc-demo.speedup_batching" in captured.err
    assert "REGRESSED" in captured.out


def test_committed_field_missing_from_fresh_run_fails(check_bench, tmp_path, capsys):
    fresh = _fresh()
    del fresh["schemes"]["cc-demo"]
    assert _run(check_bench, tmp_path, fresh) == 1
    captured = capsys.readouterr()
    assert "missing" in captured.err
    assert "schemes.cc-demo.speedup_batching" in captured.err


def test_extra_fresh_field_is_not_a_failure(check_bench, tmp_path):
    fresh = _fresh()
    fresh["schemes"]["new"] = {"speedup_batching": 0.1}
    assert _run(check_bench, tmp_path, fresh) == 0
