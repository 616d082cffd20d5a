"""Quality gates on the public API surface.

Every symbol exported through ``__all__`` must resolve, and every public
callable must carry a docstring — the "doc comments on every public item"
deliverable, enforced.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro


def public_modules():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return sorted(set(names))


MODULES = public_modules()


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports_and_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_all_symbols_resolve(module_name):
    module = importlib.import_module(module_name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{module_name}.__all__ lists missing {symbol}"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_callables_documented(module_name):
    module = importlib.import_module(module_name)
    for symbol in getattr(module, "__all__", []):
        obj = getattr(module, symbol, None)
        if obj is None or not callable(obj):
            continue
        assert inspect.getdoc(obj), f"{module_name}.{symbol} lacks a docstring"
        if inspect.isclass(obj):
            for name, method in inspect.getmembers(obj, inspect.isfunction):
                if name.startswith("_"):
                    continue
                if not method.__qualname__.startswith(obj.__name__):
                    continue  # inherited
                assert inspect.getdoc(method), (
                    f"{module_name}.{symbol}.{name} lacks a docstring"
                )


def test_root_package_exports_core_workflow():
    # The README quickstart names these; they must stay importable from
    # the package root.
    for symbol in (
        "build_safety_suite",
        "run_session",
        "make_dataset",
        "envivio_dash3_manifest",
        "BufferBasedPolicy",
        "MonitoredScheme",
        "TrainingConfig",
    ):
        assert symbol in repro.__all__
        assert hasattr(repro, symbol)
