"""Tests for repro.cli: the command-line interface.

The heavy commands (figures/runtimes/shapes) are exercised indirectly via
the experiment tests; here we cover the parser, the light commands, and
the trace-export paths end to end.
"""

import io

import pytest

from repro.cli import build_parser, main
from repro.traces.mahimahi import read_mahimahi


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_dataset_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["traces", "--dataset", "wifi", "--out", "x"])

    def test_config_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--config", "turbo"])

    def test_serve_scheme_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-demo", "--scheme", "Oracle"])


class TestDatasetsCommand:
    def test_lists_all_six(self):
        out = io.StringIO()
        assert main(["datasets"], out=out) == 0
        text = out.getvalue()
        for name in (
            "norway",
            "belgium",
            "gamma_1_2",
            "gamma_2_2",
            "logistic",
            "exponential",
        ):
            assert name in text


class TestTracesCommand:
    def test_csv_export(self, tmp_path):
        out = io.StringIO()
        code = main(
            [
                "traces",
                "--dataset",
                "gamma_2_2",
                "--out",
                str(tmp_path),
                "--count",
                "2",
                "--duration",
                "60",
            ],
            out=out,
        )
        assert code == 0
        files = sorted(tmp_path.glob("*.csv"))
        assert len(files) == 2
        header = files[0].read_text().splitlines()[0]
        assert header == "time_s,bandwidth_mbps"

    def test_mahimahi_export_round_trips(self, tmp_path):
        out = io.StringIO()
        code = main(
            [
                "traces",
                "--dataset",
                "belgium",
                "--out",
                str(tmp_path),
                "--format",
                "mahimahi",
                "--count",
                "1",
                "--duration",
                "30",
            ],
            out=out,
        )
        assert code == 0
        files = sorted(tmp_path.glob("*.mahi"))
        assert len(files) == 1
        recovered = read_mahimahi(files[0])
        assert recovered.mean_bandwidth > 0

    def test_deterministic_given_seed(self, tmp_path):
        for sub in ("a", "b"):
            main(
                [
                    "traces",
                    "--dataset",
                    "norway",
                    "--out",
                    str(tmp_path / sub),
                    "--count",
                    "1",
                    "--duration",
                    "30",
                    "--seed",
                    "5",
                ],
                out=io.StringIO(),
            )
        a = next((tmp_path / "a").glob("*.csv")).read_text()
        b = next((tmp_path / "b").glob("*.csv")).read_text()
        assert a == b


class TestServeDemoCommand:
    """``serve-demo`` drives the full serve stack from the command line."""

    def test_end_to_end(self):
        out = io.StringIO()
        code = main(
            ["serve-demo", "--config", "smoke", "--sessions", "3"], out=out
        )
        assert code == 0
        text = out.getvalue()
        assert "session-000" in text
        assert "session-002" in text
        assert "mean QoE" in text

    def test_invalid_session_count_is_cli_error(self):
        code = main(
            ["serve-demo", "--config", "smoke", "--sessions", "0"],
            out=io.StringIO(),
        )
        assert code == 2

    def test_continuous_slot_limited_run(self, tmp_path):
        metrics = tmp_path / "continuous.jsonl"
        out = io.StringIO()
        code = main(
            [
                "serve-demo",
                "--config",
                "smoke",
                "--sessions",
                "4",
                "--continuous",
                "--metrics-out",
                str(metrics),
            ],
            out=out,
        )
        assert code == 0
        assert "continuous over 2 slots" in out.getvalue()
        text = metrics.read_text()
        assert "serve.wave_occupancy" in text
        assert "serve.slot_reuse" in text

    def test_invalid_max_slots_is_cli_error(self):
        code = main(
            [
                "serve-demo",
                "--config",
                "smoke",
                "--sessions",
                "2",
                "--max-slots",
                "0",
            ],
            out=io.StringIO(),
        )
        assert code == 2

    def test_metrics_export(self, tmp_path):
        metrics = tmp_path / "serve.jsonl"
        out = io.StringIO()
        code = main(
            [
                "serve-demo",
                "--config",
                "smoke",
                "--sessions",
                "2",
                "--scheme",
                "ND",
                "--metrics-out",
                str(metrics),
            ],
            out=out,
        )
        assert code == 0
        text = metrics.read_text()
        assert "serve.sessions" in text
        assert "serve.steps_per_second" in text


class TestServeApiCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve-api"])
        assert args.port == 0
        assert args.store == "memory"
        assert args.scheme == "demo"
        assert args.hot_ttl == 300.0
        assert args.max_sessions == 64

    def test_store_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-api", "--store", "redis"])

    def test_sqlite_without_path_is_cli_error(self):
        out = io.StringIO()
        assert main(["serve-api", "--store", "sqlite"], out=out) == 2

    def test_invalid_budget_is_cli_error(self):
        out = io.StringIO()
        assert main(["serve-api", "--max-sessions", "0"], out=out) == 2

    def test_boots_serves_and_shuts_down(self):
        import re
        import threading
        import time

        from repro.service import ServiceClient

        out = io.StringIO()
        result = {}

        def run():
            result["code"] = main(
                ["serve-api", "--port", "0", "--evict-interval", "0"], out=out
            )

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        address = None
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            match = re.search(
                r"service listening on ([\d.]+):(\d+)", out.getvalue()
            )
            if match:
                address = (match.group(1), int(match.group(2)))
                break
            time.sleep(0.05)
        assert address is not None, out.getvalue()
        with ServiceClient(*address) as client:
            ping = client.ping()
            assert ping["schemes"] == ["demo"]
            assert client.attach("t", "s", "demo")["ok"]
            client.shutdown()
        thread.join(timeout=30)
        assert result["code"] == 0
        assert "service stopped" in out.getvalue()


class TestResilienceFlags:
    """``--resume`` reaches the pipeline's checkpoint knobs."""

    def _args(self, argv):
        return build_parser().parse_args(argv)

    def test_resume_switches_on_checkpointing(self, monkeypatch):
        from repro.cli import _experiment_config
        from repro.pensieve.checkpoint import CHECKPOINT_EVERY_ENV

        monkeypatch.delenv(CHECKPOINT_EVERY_ENV, raising=False)
        config = _experiment_config(
            self._args(["shapes", "--config", "smoke", "--resume"])
        )
        assert config.checkpoint_every == 1

    def test_resume_honours_cadence_env(self, monkeypatch):
        from repro.cli import _experiment_config
        from repro.pensieve.checkpoint import CHECKPOINT_EVERY_ENV

        monkeypatch.setenv(CHECKPOINT_EVERY_ENV, "3")
        config = _experiment_config(
            self._args(["figures", "--config", "smoke", "--resume"])
        )
        assert config.checkpoint_every == 3

    def test_checkpoint_cadence_never_invalidates_caches(self):
        from repro.config import get_config

        config = get_config("smoke")
        assert config.scaled(checkpoint_every=5).describe() == config.describe()
