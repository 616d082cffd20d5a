#!/usr/bin/env python3
"""Timing gate: compare a fresh benchmark JSON against the committed one.

``tools/bench_parallel.py`` and ``tools/bench_training.py`` write
``BENCH_*.json`` files recording, among machine-dependent wall times, the
*speedup ratios* of each optimized path over its reference
implementation.  Absolute times do not transfer between machines, but the
ratios largely do — a vectorized kernel that is 7x faster on the commit
machine should not be 2x on CI unless something regressed.

This gate walks every numeric ``speedup*`` field of the committed file
(ignoring declared gate constants like ``min_speedup_gate``) and fails if
the fresh run lacks it or its fresh ratio fell below ``--ratio`` times
the committed one, so a gate cannot vanish unnoticed.  The default
tolerance (0.5) is deliberately loose: it catches "the fast path stopped
being fast" regressions, not scheduler noise.

Usage (the nightly CI job)::

    python tools/bench_parallel.py --output /tmp/BENCH_parallel.json
    python tools/check_bench.py /tmp/BENCH_parallel.json BENCH_parallel.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def speedup_fields(payload: dict, prefix: str = "") -> dict[str, float]:
    """Flatten every numeric ``speedup*`` entry, keyed by dotted path."""
    fields: dict[str, float] = {}
    for key, value in payload.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            fields.update(speedup_fields(value, f"{path}."))
        elif (
            key.startswith("speedup")
            and isinstance(value, (int, float))
            and value > 0
        ):
            fields[path] = float(value)
    return fields


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("fresh", type=Path, help="benchmark JSON from this run")
    parser.add_argument(
        "committed", type=Path, help="baseline benchmark JSON from the repository"
    )
    parser.add_argument(
        "--ratio",
        type=float,
        default=0.5,
        help="minimum fresh/committed speedup ratio tolerated (default 0.5)",
    )
    args = parser.parse_args(argv)
    fresh = speedup_fields(json.loads(args.fresh.read_text()))
    committed = speedup_fields(json.loads(args.committed.read_text()))
    if not committed:
        print(f"FAIL: no speedup fields in {args.committed}", file=sys.stderr)
        return 1
    missing = sorted(set(committed) - set(fresh))
    for path in missing:
        print(f"  {path}: committed {committed[path]:6.2f}x, MISSING from fresh run")
    shared = sorted(set(fresh) & set(committed))

    failures = []
    for path in shared:
        floor = committed[path] * args.ratio
        status = "ok" if fresh[path] >= floor else "REGRESSED"
        print(
            f"  {path}: committed {committed[path]:6.2f}x, "
            f"fresh {fresh[path]:6.2f}x (floor {floor:.2f}x) {status}"
        )
        if fresh[path] < floor:
            failures.append(path)
    if missing:
        print(
            f"FAIL: {len(missing)} committed speedup(s) missing from "
            f"{args.fresh}: " + ", ".join(missing),
            file=sys.stderr,
        )
        return 1
    if failures:
        print(
            f"FAIL: {len(failures)} speedup(s) regressed below "
            f"{args.ratio:.0%} of the committed baseline: "
            + ", ".join(failures),
            file=sys.stderr,
        )
        return 1
    print(f"{len(shared)} speedup field(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
