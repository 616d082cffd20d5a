"""Runtime-switch, export, report, and CLI integration for ``repro.obs``.

The heavyweight test at the bottom is the acceptance check for the
observability layer: a cold smoke-tier CLI run must emit executor,
trainer, controller-decision, and cache records; a warm rerun must show
cache hits; and the artifact payloads written with metrics on must be
bitwise identical to a run with metrics off.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro import obs
from repro.cli import main
from repro.errors import ObservabilityError


@pytest.fixture(autouse=True)
def _collection_off():
    """Tests own the global switch; leave it off before and after."""
    obs.disable()
    yield
    obs.disable()


class TestDisabledFacade:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.collector() is None

    def test_span_and_timer_share_one_noop_context(self):
        # The disabled path must not allocate per call.
        assert obs.span("a") is obs.span("b")
        assert obs.timer("a") is obs.span("b")

    def test_recording_calls_are_noops(self):
        obs.inc("c")
        obs.set_gauge("g", 1.0)
        obs.observe("h", 2.0)
        obs.event("e")
        run = obs.enable()
        assert run.metrics.records() == []

    def test_export_requires_collection(self):
        with pytest.raises(ObservabilityError, match="collection is off"):
            obs.export_jsonl("anywhere.jsonl")


class TestCollecting:
    def test_facade_routes_to_active_collector(self):
        with obs.collecting() as run:
            obs.inc("executor.tasks.dispatched", 3)
            with obs.span("outer"):
                with obs.timer("seconds"):
                    pass
        counter = run.metrics.counter("executor.tasks.dispatched")
        assert counter.value == 3.0
        assert [s.name for s in run.tracer.spans] == ["outer"]
        assert run.metrics.histogram("seconds").count == 1

    def test_restores_previous_collector(self):
        outer = obs.enable()
        with obs.collecting() as inner:
            assert obs.collector() is inner
        assert obs.collector() is outer

    def test_exports_on_clean_exit(self, tmp_path):
        target = tmp_path / "run.jsonl"
        with obs.collecting(target):
            obs.inc("c")
        lines = [json.loads(l) for l in target.read_text().splitlines()]
        assert lines[0]["kind"] == "meta"
        assert {"kind": "counter", "name": "c", "labels": {}, "value": 1.0} in lines

    def test_no_export_when_body_raises(self, tmp_path):
        target = tmp_path / "run.jsonl"
        with pytest.raises(RuntimeError):
            with obs.collecting(target):
                raise RuntimeError("boom")
        assert not target.exists()
        assert not obs.enabled()

    def test_wall_clock_only_in_meta_line(self, tmp_path):
        target = tmp_path / "run.jsonl"
        with obs.collecting(target) as run:
            obs.inc("c")
            with obs.span("s"):
                with obs.timer("t"):
                    pass
            obs.event("e")
        lines = [json.loads(l) for l in target.read_text().splitlines()]
        assert "created_unix_s" in lines[0]
        for record in lines[1:]:
            assert "created_unix_s" not in record
            assert "timestamp" not in record

    def test_export_without_destination_raises(self):
        with obs.collecting() as run:
            with pytest.raises(ObservabilityError, match="no export path"):
                run.export_jsonl()


class TestDefaultExportPath:
    def test_plain_truthy_value_means_cwd_default(self, monkeypatch):
        for value in ("1", "true", "YES", "on"):
            monkeypatch.setenv(obs.METRICS_ENV, value)
            assert obs.default_export_path() == Path("metrics.jsonl")

    def test_pathlike_value_is_the_destination(self, monkeypatch):
        monkeypatch.setenv(obs.METRICS_ENV, "/tmp/somewhere/run.jsonl")
        assert obs.default_export_path() == Path("/tmp/somewhere/run.jsonl")

    def test_unset_means_cwd_default(self, monkeypatch):
        monkeypatch.delenv(obs.METRICS_ENV, raising=False)
        assert obs.default_export_path() == Path("metrics.jsonl")


class TestRunReport:
    def _populated(self):
        run = obs.enable()
        obs.inc("cache.requests", outcome="miss")
        obs.set_gauge("executor.pool.workers", 2)
        obs.observe("trainer.epoch_seconds", 0.5, engine="lockstep")
        obs.event("cache.miss", artifact="x")
        obs.event("cache.miss", artifact="y")
        with obs.span("experiment.matrix"):
            pass
        return run

    def test_build_summarises_every_section(self):
        report = obs.build_run_report(self._populated())
        assert report["counters"][0]["name"] == "cache.requests"
        assert report["gauges"][0]["value"] == 2.0
        assert report["histograms"][0]["count"] == 1
        assert report["event_counts"] == {"cache.miss": 2}
        assert report["span_count"] == 1
        assert report["slowest_spans"][0]["name"] == "experiment.matrix"

    def test_render_mentions_each_instrument(self):
        rendered = obs.render_run_report(self._populated())
        for expected in (
            "cache.requests",
            "executor.pool.workers",
            "trainer.epoch_seconds",
            "cache.miss",
            "experiment.matrix",
        ):
            assert expected in rendered

    def test_render_empty_collector(self):
        assert "no records" in obs.render_run_report(obs.enable())

    def test_write_run_report(self, tmp_path):
        run = self._populated()
        path = obs.write_run_report(run, tmp_path / "report.json")
        payload = json.loads(path.read_text())
        assert payload["event_counts"] == {"cache.miss": 2}


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestCliEndToEnd:
    """One cold + one warm smoke run with metrics, one cold without."""

    def test_smoke_run_emits_metrics_and_identical_payloads(self, tmp_path):
        cache_on = tmp_path / "cache-on"
        cache_off = tmp_path / "cache-off"
        cold = tmp_path / "metrics-cold.jsonl"
        warm = tmp_path / "metrics-warm.jsonl"

        def figures(cache_root, metrics_out=None):
            out = io.StringIO()
            argv = ["figures", "--config", "smoke", "--cache-root", str(cache_root)]
            if metrics_out is not None:
                argv += ["--metrics-out", str(metrics_out)]
            assert main(argv, out=out) == 0
            return out.getvalue()

        cold_out = figures(cache_on, cold)
        assert "run report" in cold_out
        assert f"wrote metrics to {cold}" in cold_out

        records = _read_jsonl(cold)
        assert records[0]["kind"] == "meta"
        names = {record.get("name") for record in records}
        # Every instrumented layer shows up in one cold run.
        for required in (
            "executor.parallel_map",
            "trainer.epochs",
            "trainer.epoch_seconds",
            "trainer.grad_norm.actor",
            "controller.decisions",
            "controller.signal",
            "session.runs",
            "session.wall_seconds",
            "cache.requests",
            "cache.miss",
            "cache.store",
            "experiment.build_suite",
            "experiment.sweep_sessions",
        ):
            assert required in names, f"missing {required} in cold metrics"
        assert "cache.hit" not in names

        figures(cache_on, warm)
        warm_names = {record.get("name") for record in _read_jsonl(warm)}
        assert "cache.hit" in warm_names
        # Nothing retrains when every artifact is cached.
        assert "trainer.epochs" not in warm_names

        # Metrics collection must not perturb results: a metrics-off run
        # writes byte-identical artifacts.
        figures(cache_off)
        assert _tree_bytes(cache_off) == _tree_bytes(cache_on)
