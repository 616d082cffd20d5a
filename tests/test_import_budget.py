"""Import budget of the serving paths.

A serve kernel or service worker pays for every module it loads before its
first decision.  The packages a serving path imports (the library root, the
domains, the serve kernel, the service and the CLI that boots ``serve-api``)
must load no third-party package but numpy.  The check runs in a fresh
interpreter so modules this test session already holds do not hide a new
dependency.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SERVING_IMPORTS = (
    "repro",
    "repro.domains",
    "repro.serve",
    "repro.service",
    "repro.cli",
)

ALLOWED_THIRD_PARTY = {"numpy"}

_PROBE = """
import importlib, json, sys
before = set(sys.modules)
for name in sys.argv[1:]:
    importlib.import_module(name)
main = sys.modules["__main__"]
new = {
    name.partition(".")[0]
    for name in set(sys.modules) - before
    if sys.modules[name] is not main  # multiprocessing's __mp_main__ alias
}
print(json.dumps(sorted(new - set(sys.stdlib_module_names) - {"repro"})))
"""


def test_serving_imports_load_only_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE, *SERVING_IMPORTS],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    third_party = set(json.loads(completed.stdout.strip().splitlines()[-1]))
    extra = third_party - ALLOWED_THIRD_PARTY
    assert not extra, f"serving imports load {sorted(extra)}"
