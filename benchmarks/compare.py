#!/usr/bin/env python
"""Check ``BENCH_micro.json`` against its gates and its committed baseline.

Usage::

    python -m pytest -m bench -q        # rewrite BENCH_micro.json
    python benchmarks/compare.py        # check it

A record is checked twice: its own gates (absolute bounds), and every
time-like metric against the same metric in the record's baseline — the
file of the same name under ``benchmarks/baselines/`` beside it — failing
any that reads more than ``MAX_REGRESSION`` over it.  Paths may be given to
check other records; a record with no baseline file is gate-checked only.
This script is the one place that decides what a timing regression is; the
record format it reads is ``records.py`` beside it.

Exit status: 0 all checks pass, 1 a gate or a timing fails *or a baseline
exists and nothing could be compared with it* (renamed entries or metrics
would otherwise pass by comparing nothing), 2 a record does not exist.
"""

from __future__ import annotations

import sys
from pathlib import Path

from records import BenchRecord  # benchmarks/records.py, beside this script

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Allowed fractional slowdown of a pace-corrected timing over its baseline.
#: Sized from the estimator's own spread (see benchmarks/bench_micro.py):
#: repeated runs on unchanged code stay inside it, a 1.3x slowdown does not.
#: The only such number in the repository: a timing over it is a regression
#: by definition, and nothing else re-judges a record.
MAX_REGRESSION = 0.18


def main() -> int:
    paths = [Path(arg) for arg in sys.argv[1:]]
    failed = False
    for path in paths or [REPO_ROOT / "BENCH_micro.json"]:
        if not path.exists():
            print(f"record {str(path)!r} does not exist", file=sys.stderr)
            return 2
        record = BenchRecord.load(path)
        failures = [f"[gate] {failure.message}" for failure in record.check_gates()]
        baseline_path = path.parent / "benchmarks" / "baselines" / path.name
        summary = f"no baseline {baseline_path}, gates only"
        if baseline_path.exists():
            baseline = BenchRecord.load(baseline_path)
            compared = len(list(record.time_pairs(baseline)))
            summary = f"{compared} timing(s) within {MAX_REGRESSION:.0%} of baseline"
            failures += [
                f"[regression] {failure.message}"
                for failure in record.check_regressions(baseline, MAX_REGRESSION)
            ]
            if not compared:
                failures.append(f"[baseline] {path}: no timing in common with {baseline_path}")
        for failure in failures:
            print(f"FAIL {failure}")
        if failures:
            failed = True
        else:
            print(f"OK {path}: {len(record.gates)} gate(s) pass, {summary}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
