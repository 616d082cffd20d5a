#!/usr/bin/env python3
"""End-to-end crash/resume gate: kill a suite build, resume it, compare.

This is the CI ``fault-smoke`` job's driver.  It proves the pipeline's
crash-safety contract on the real CLI, with a real ``os._exit`` kill:

1. **Reference** — run ``repro figures --config smoke`` into a fresh
   cache with no faults.
2. **Kill** — run the same command with ``--resume`` into a second
   cache, with the chaos harness armed (``REPRO_CHAOS=kill@epoch:1``)
   to hard-kill the process at an epoch boundary mid-training.  The run
   must die with the distinctive chaos exit code.
3. **Resume** — repeat the command.  The chaos fire ledger
   (``REPRO_CHAOS_STATE``) is spent, so the run resumes from the
   checkpoint and completes, exporting run metrics.
4. **Verify** — the resumed run's metrics must contain a
   ``checkpoint.resume`` event (it really restored, not retrained),
   neither cache may hold a leftover ``*.tmp`` write file, and
   **every** artifact in the two caches must match: byte-identical JSON
   (figures, baselines, per-distribution results) and array-identical
   ``.npz`` weights.

Usage::

    PYTHONPATH=src python tools/fault_smoke.py --workdir /tmp/fault-smoke
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.parallel.chaos import (  # noqa: E402
    CHAOS_ENV,
    CHAOS_STATE_ENV,
    KILL_EXIT_CODE,
)


def run_figures(
    cache_root: Path,
    config: str,
    resume: bool = False,
    chaos_spec: str | None = None,
    chaos_state: Path | None = None,
    metrics_out: Path | None = None,
) -> int:
    command = [
        sys.executable,
        "-m",
        "repro",
        "figures",
        "--config",
        config,
        "--cache-root",
        str(cache_root),
    ]
    if resume:
        command.append("--resume")
    if metrics_out is not None:
        command += ["--metrics-out", str(metrics_out)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop(CHAOS_ENV, None)
    env.pop(CHAOS_STATE_ENV, None)
    if chaos_spec is not None:
        env[CHAOS_ENV] = chaos_spec
        env[CHAOS_STATE_ENV] = str(chaos_state)
    result = subprocess.run(
        command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT
    )
    return result.returncode


def compare_caches(reference: Path, resumed: Path) -> list[str]:
    """Every artifact must exist on both sides and hold identical data."""
    problems = []
    reference_files = {
        p.relative_to(reference) for p in reference.rglob("*") if p.is_file()
    }
    resumed_files = {
        p.relative_to(resumed) for p in resumed.rglob("*") if p.is_file()
    }
    for missing in sorted(reference_files - resumed_files):
        problems.append(f"missing from resumed cache: {missing}")
    for extra in sorted(resumed_files - reference_files):
        problems.append(f"only in resumed cache: {extra}")
    for relative in sorted(reference_files & resumed_files):
        ours, theirs = reference / relative, resumed / relative
        if relative.suffix == ".npz":
            with np.load(ours) as a, np.load(theirs) as b:
                if sorted(a.files) != sorted(b.files):
                    problems.append(f"array keys differ: {relative}")
                    continue
                for key in a.files:
                    if not np.array_equal(a[key], b[key]):
                        problems.append(f"array {key!r} differs: {relative}")
        elif ours.read_bytes() != theirs.read_bytes():
            problems.append(f"bytes differ: {relative}")
    if not problems:
        print(
            f"  {len(reference_files & resumed_files)} artifact(s) identical "
            "across both caches"
        )
    return problems


def count_events(metrics_path: Path, name: str) -> int:
    count = 0
    for line in metrics_path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("kind") == "event" and record.get("name") == name:
            count += 1
    return count


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--config", default="smoke", help="experiment tier")
    parser.add_argument(
        "--workdir",
        type=Path,
        default=None,
        help="working directory (default: a fresh temporary directory)",
    )
    parser.add_argument(
        "--kill-at",
        default="kill@epoch:1",
        help="chaos spec for the kill run (default: kill@epoch:1)",
    )
    args = parser.parse_args(argv)
    workdir = (
        args.workdir
        if args.workdir is not None
        else Path(tempfile.mkdtemp(prefix="fault-smoke-"))
    )
    workdir.mkdir(parents=True, exist_ok=True)
    metrics_out = workdir / "resume-metrics.jsonl"

    print(f"[1/4] reference run (no faults) into {workdir / 'reference'} ...")
    code = run_figures(workdir / "reference", args.config)
    if code != 0:
        print(f"FAIL: reference run exited {code}", file=sys.stderr)
        return 1

    print(f"[2/4] killed run ({args.kill_at}) into {workdir / 'resumed'} ...")
    code = run_figures(
        workdir / "resumed",
        args.config,
        resume=True,
        chaos_spec=args.kill_at,
        chaos_state=workdir / "chaos",
    )
    if code != KILL_EXIT_CODE:
        print(
            f"FAIL: killed run exited {code}, expected chaos kill code "
            f"{KILL_EXIT_CODE}",
            file=sys.stderr,
        )
        return 1
    if not any((workdir / "chaos").iterdir()):
        print("FAIL: chaos fire ledger is empty after the kill", file=sys.stderr)
        return 1

    print("[3/4] resumed run (ledger spent) ...")
    code = run_figures(
        workdir / "resumed",
        args.config,
        resume=True,
        chaos_spec=args.kill_at,
        chaos_state=workdir / "chaos",
        metrics_out=metrics_out,
    )
    if code != 0:
        print(f"FAIL: resumed run exited {code}", file=sys.stderr)
        return 1

    print("[4/4] verifying resume evidence and artifact equality ...")
    resumes = count_events(metrics_out, "checkpoint.resume")
    if resumes < 1:
        print(
            "FAIL: resumed run recorded no checkpoint.resume event — it "
            "retrained instead of resuming",
            file=sys.stderr,
        )
        return 1
    print(f"  checkpoint.resume events: {resumes}")
    leftovers = sorted(
        path
        for cache in (workdir / "reference", workdir / "resumed")
        for path in cache.rglob("*.tmp")
    )
    if leftovers:
        for path in leftovers:
            print(f"FAIL: temporary write file left behind: {path}", file=sys.stderr)
        return 1
    problems = compare_caches(workdir / "reference", workdir / "resumed")
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print(f"fault smoke passed (metrics: {metrics_out})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
