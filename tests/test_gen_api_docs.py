"""Tests for tools/gen_api_docs.py: the generated API reference is stable."""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def gen_api_docs():
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", ROOT / "tools" / "gen_api_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_function_defaults_render_by_name(gen_api_docs):
    # A function default's repr carries its memory address, which would
    # rewrite docs/API.md on every regeneration.
    from repro.nn.layers import Dense

    def sample(values, statistic=np.mean, clock=time.monotonic, scale=2.0):
        return statistic(values) * scale + clock()

    signature = gen_api_docs.signature_of(sample)
    assert signature == "(values, statistic=mean, clock=monotonic, scale=2.0)"
    assert "initializer=glorot_uniform" in gen_api_docs.signature_of(Dense)


def test_classmethods_are_listed(gen_api_docs):
    # Read off its class, a classmethod is a bound method, not a function.
    from repro.serve import ServeEngine

    rendered = "\n".join(gen_api_docs.render_symbol("ServeEngine", ServeEngine))
    assert "- classmethod `from_scheme(scheme: " in rendered
