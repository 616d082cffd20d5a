"""The per-step records both served domains build with ``frozen_record``.

:func:`repro.core.runner.frozen_record` writes a frozen dataclass's
``__dict__`` in one assignment instead of running the generated
``__init__``.  These tests pin the contract that makes that safe: a
record built by a factory is indistinguishable from one built by the
dataclass constructor — equal, same ``repr``, ``astuple`` and ``vars``
order, plain Python field types, frozen, and round-tripping through
``pickle`` and ``copy.deepcopy``.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.abr.session import ChunkRecord
from repro.domains import SessionSpec, get_domain, run_session
from repro.domains.cc import CCStepRecord
from repro.mdp.interfaces import StepResult
from repro.serve import ServeEngine

#: Python type of each record field, by annotation.
_PLAIN = {"int": int, "float": float, "bool": bool}


def _steps(domain_key, count):
    """A factory of *domain_key* and the first *count* steps of one of
    its sessions under random actions, on a link at half capacity."""
    domain = get_domain(domain_key)
    split = domain.load_split("logistic", num_traces=4, duration_s=200.0, seed=2)
    factory = domain.session_factory()
    env = factory.new_env(SessionSpec(trace=split.test[0].scaled(0.5)))
    env.reset()
    actions = np.random.default_rng(4).integers(0, env.num_actions, size=count)
    return factory, [env.step(int(action)) for action in actions]


def _constructed(record_type, step, defaulted):
    """The record the dataclass ``__init__`` builds from *step*."""
    names = [field.name for field in dataclasses.fields(record_type)]
    values = {name: step.info[name] for name in names[:-2]}
    return record_type(**values, reward=step.reward, defaulted=defaulted)


@pytest.fixture(
    scope="module", params=[("cc", CCStepRecord), ("abr", ChunkRecord)], ids=str
)
def built(request):
    """Factory-built and constructor-built records of one domain."""
    domain_key, record_type = request.param
    factory, steps = _steps(domain_key, 20)
    pairs = []
    for index, step in enumerate(steps):
        defaulted = index % 3 == 0
        expected = _constructed(record_type, step, defaulted)
        pairs.append((factory.record(step, defaulted), expected))
    return record_type, pairs


class TestRecordContract:
    def test_equal_to_the_constructed_record(self, built):
        record_type, pairs = built
        for record, expected in pairs:
            assert type(record) is record_type
            assert record == expected
            assert hash(record) == hash(expected)
            assert repr(record) == repr(expected)
            assert dataclasses.astuple(record) == dataclasses.astuple(expected)
            assert list(vars(record).items()) == list(vars(expected).items())

    def test_fields_are_plain_python_values(self, built):
        record_type, pairs = built
        for record, _ in pairs:
            for field in dataclasses.fields(record_type):
                value = getattr(record, field.name)
                assert type(value) is _PLAIN[field.type], field.name

    def test_assignment_is_refused(self, built):
        record_type, pairs = built
        record = pairs[0][0]
        for field in dataclasses.fields(record_type):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.extra = 1
        assert record == pairs[0][1]

    def test_pickle_and_deepcopy_round_trip(self, built):
        _, pairs = built
        for record, expected in pairs:
            for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
                assert clone == record == expected
                assert repr(clone) == repr(expected)
                assert list(vars(clone)) == list(vars(expected))


@pytest.mark.parametrize("domain_key", ["cc", "abr"])
def test_served_records_hold_plain_values(domain_key):
    # The serial runner and the serve kernel (which hands the factory
    # its per-slot default flags) both build the records.
    domain = get_domain(domain_key)
    split = domain.load_split("logistic", num_traces=4, duration_s=200.0, seed=2)
    scheme = domain.demo_scheme()
    specs = [
        SessionSpec(trace=trace, seed=index) for index, trace in enumerate(split.test)
    ]
    results = [run_session(scheme.factory, specs[0], scheme)]
    results += ServeEngine.from_scheme(scheme, max_slots=2).run(specs)
    for result in results:
        for record in result.chunks:
            for field in dataclasses.fields(type(record)):
                value = getattr(record, field.name)
                assert type(value) is _PLAIN[field.type], field.name


def test_step_results_match_the_constructor():
    _, steps = _steps("cc", 3)
    for step in steps:
        expected = StepResult(step.observation, step.reward, step.done, step.info)
        assert type(step) is StepResult
        assert list(vars(step).items()) == list(vars(expected).items())
        with pytest.raises(dataclasses.FrozenInstanceError):
            step.reward = 0.0

