"""The deterministic fault-injection harness (:mod:`repro.parallel.chaos`).

Chaos schedules must be pure functions of their inputs (events, spec
string), honour each event's ``times`` budget — in memory and, via the
file ledger, across processes — and stay strictly inert when nothing is
installed.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.errors import ChaosError, ConfigError
from repro.parallel import chaos


class TestChaosEvent:
    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigError, match="unknown chaos action"):
            chaos.ChaosEvent(site="epoch", index=0, action="explode")
        # The pool's retry-era stall action is gone.
        with pytest.raises(ConfigError, match="unknown chaos action"):
            chaos.ChaosEvent(site="epoch", index=0, action="delay")

    def test_unknown_site_rejected(self):
        # Nothing fires the retired pool-task site, so a schedule naming it
        # would silently never fire.
        with pytest.raises(ConfigError, match="unknown chaos site"):
            chaos.ChaosEvent(site="task", index=0, action="kill")

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigError, match="index must be >= 0"):
            chaos.ChaosEvent(site="epoch", index=-1, action="raise")

    def test_times_must_be_positive(self):
        with pytest.raises(ConfigError, match="times must be >= 1"):
            chaos.ChaosEvent(site="epoch", index=0, action="raise", times=0)


class TestParseSpec:
    def test_multi_term_spec(self):
        events = chaos.parse_chaos_spec("kill@epoch:3,raise@epoch:1")
        assert [(e.action, e.site, e.index) for e in events] == [
            ("kill", "epoch", 3),
            ("raise", "epoch", 1),
        ]

    @pytest.mark.parametrize(
        "spec",
        ["kill@task", "raise@", "kill@task:x", "@:1", "kill@epoch:1:0.5"],
    )
    def test_malformed_term_rejected(self, spec):
        # Either the term fails to parse or it parses into an event with
        # an unknown action; both are configuration errors.
        with pytest.raises(ConfigError):
            chaos.parse_chaos_spec(spec)

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigError, match="contains no events"):
            chaos.parse_chaos_spec(" , ")


class TestInjector:
    def test_duplicate_site_index_rejected(self):
        events = [
            chaos.ChaosEvent(site="epoch", index=1, action="raise"),
            chaos.ChaosEvent(site="epoch", index=1, action="kill"),
        ]
        with pytest.raises(ConfigError, match="duplicate chaos event"):
            chaos.ChaosInjector(events)

    def test_raise_fires_exactly_times(self):
        injector = chaos.ChaosInjector(
            [chaos.ChaosEvent(site="epoch", index=2, action="raise", times=2)]
        )
        for _ in range(2):
            with pytest.raises(ChaosError, match="epoch:2"):
                injector.maybe_fire("epoch", 2)
        injector.maybe_fire("epoch", 2)  # budget exhausted: no-op

    def test_other_sites_untouched(self):
        injector = chaos.ChaosInjector(
            [chaos.ChaosEvent(site="epoch", index=1, action="raise")]
        )
        injector.maybe_fire("task", 1)
        injector.maybe_fire("epoch", 0)

    def test_events_property_sorted(self):
        injector = chaos.ChaosInjector(
            [
                chaos.ChaosEvent(site="epoch", index=5, action="raise"),
                chaos.ChaosEvent(site="epoch", index=0, action="raise"),
            ]
        )
        assert [(e.site, e.index) for e in injector.events] == [
            ("epoch", 0),
            ("epoch", 5),
        ]

    def test_file_ledger_spans_injector_instances(self, tmp_path):
        # Simulates a resumed run: a fresh injector with the same
        # state_dir sees the budget already spent and stays quiet.
        event = chaos.ChaosEvent(site="epoch", index=0, action="raise")
        first = chaos.ChaosInjector([event], state_dir=tmp_path)
        with pytest.raises(ChaosError):
            first.maybe_fire("epoch", 0)
        assert (tmp_path / "fired-epoch-0-0").exists()
        second = chaos.ChaosInjector([event], state_dir=tmp_path)
        second.maybe_fire("epoch", 0)  # no-op: ledger says already fired


class TestFacade:
    def test_inert_without_injector(self):
        assert not chaos.active()
        chaos.maybe_fire("epoch", 0)  # must be a no-op, not an error

    def test_injected_installs_and_restores(self):
        with chaos.injected(
            [chaos.ChaosEvent(site="epoch", index=0, action="raise")]
        ):
            assert chaos.active()
            with pytest.raises(ChaosError):
                chaos.maybe_fire("epoch", 0)
        assert not chaos.active()

    def test_injected_restores_previous_injector(self):
        outer = chaos.ChaosInjector(
            [chaos.ChaosEvent(site="epoch", index=9, action="raise")]
        )
        chaos.install(outer)
        try:
            with chaos.injected(
                [chaos.ChaosEvent(site="epoch", index=0, action="raise")]
            ):
                chaos.maybe_fire("epoch", 9)  # outer schedule masked
            with pytest.raises(ChaosError):
                chaos.maybe_fire("epoch", 9)  # outer schedule back
        finally:
            chaos.uninstall()


class TestEnvBootstrap:
    def test_env_spec_installs_at_import(self, tmp_path):
        # A subprocess with REPRO_CHAOS set must self-arm at import and
        # exit with the distinctive kill code when the site fires.
        env = dict(os.environ)
        env["REPRO_CHAOS"] = "kill@epoch:0"
        env["REPRO_CHAOS_STATE"] = str(tmp_path)
        env["PYTHONPATH"] = str(
            os.path.join(os.path.dirname(__file__), os.pardir, "src")
        )
        code = (
            "from repro.parallel import chaos; "
            "assert chaos.active(); "
            "chaos.maybe_fire('epoch', 0)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, timeout=60
        )
        assert result.returncode == chaos.KILL_EXIT_CODE
        assert (tmp_path / "fired-epoch-0-0").exists()

    def test_blank_env_spec_is_ignored(self, monkeypatch):
        monkeypatch.setenv(chaos.CHAOS_ENV, "   ")
        chaos._bootstrap_from_env()
        assert not chaos.active()
