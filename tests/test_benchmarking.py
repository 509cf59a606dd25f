"""Tests for the canonical BENCH_*.json records and the compare.py gate."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
COMPARE = REPO_ROOT / "benchmarks" / "compare.py"

# The record class lives beside compare.py, outside the package.
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
from records import BenchRecord  # noqa: E402


def make_record(tmp_path, wall_time=1.0, ms_per_point=3.0):
    record = BenchRecord(name="micro")
    record.record("event_loop", {"corrected_s": wall_time}, meta={"repeats": 25})
    record.record("fan_out", {"ms_per_point": ms_per_point})
    record.gate("fan_out", "ms_per_point", maximum=25.0)
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "BENCH_micro.json"
    record.write(path)
    return record, path


class TestBenchRecord:
    def test_roundtrip_is_canonical(self, tmp_path):
        _, path = make_record(tmp_path)
        first = path.read_text()
        BenchRecord.load(path).write(path)
        assert path.read_text() == first
        payload = json.loads(first)
        assert payload["schema"] == 1
        assert payload["name"] == "micro"

    def test_gates_pass_and_fail(self, tmp_path):
        record, _ = make_record(tmp_path, ms_per_point=3.0)
        assert record.check_gates() == []
        slow, _ = make_record(tmp_path, ms_per_point=30.0)
        failures = slow.check_gates()
        assert len(failures) == 1
        assert "ms_per_point" in failures[0].message

    def test_missing_gated_metric_fails(self):
        record = BenchRecord(name="x")
        record.gate("absent", "wall_time_s", maximum=1.0)
        failures = record.check_gates()
        assert failures and "missing" in failures[0].message

    def test_regression_detection(self, tmp_path):
        baseline, _ = make_record(tmp_path, wall_time=1.0)
        same, _ = make_record(tmp_path, wall_time=1.1)
        slower, _ = make_record(tmp_path, wall_time=2.0)
        assert same.check_regressions(baseline, max_regression=0.25) == []
        failures = slower.check_regressions(baseline, max_regression=0.25)
        assert failures and "exceeds baseline" in failures[0].message
        # Millisecond timings are compared like any other: no floor under
        # which a baseline is skipped.
        fast_baseline, _ = make_record(tmp_path, wall_time=0.010)
        doubled, _ = make_record(tmp_path, wall_time=0.020)
        [failure] = doubled.check_regressions(fast_baseline, max_regression=0.25)
        assert (failure.entry, failure.metric) == ("event_loop", "corrected_s")

    def test_new_entries_are_not_regressions(self, tmp_path):
        baseline = BenchRecord(name="inference")
        current, _ = make_record(tmp_path)
        assert current.check_regressions(baseline, max_regression=0.25) == []


class TestCompareCli:
    def run_compare(self, *args):
        return subprocess.run(
            [sys.executable, str(COMPARE), *args],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )

    def test_passing_record_exits_zero(self, tmp_path):
        _, path = make_record(tmp_path)
        result = self.run_compare(str(path))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "OK" in result.stdout

    def test_gate_failure_exits_one(self, tmp_path):
        _, path = make_record(tmp_path, ms_per_point=30.0)
        result = self.run_compare(str(path))
        assert result.returncode == 1
        assert "FAIL" in result.stdout

    def test_baseline_regression_exits_one(self, tmp_path):
        """A 10 ms timing that doubled is named, not skipped as too small."""
        make_record(tmp_path / "benchmarks" / "baselines", wall_time=0.010)
        _, slow_path = make_record(tmp_path, wall_time=0.020)
        result = self.run_compare(str(slow_path))
        assert result.returncode == 1
        assert "regression" in result.stdout
        assert "event_loop.corrected_s" in result.stdout
        # The one threshold, pinned from both sides: +22 % is a regression
        # (the two retired checkers, at 25 %, passed it), +15 % is not.
        _, path = make_record(tmp_path, wall_time=0.0122)
        result = self.run_compare(str(path))
        assert result.returncode == 1, result.stdout + result.stderr
        assert "by more than 18%" in result.stdout
        _, path = make_record(tmp_path, wall_time=0.0115)
        result = self.run_compare(str(path))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "1 timing(s) within 18%" in result.stdout

    def test_missing_record_exits_two(self, tmp_path):
        result = self.run_compare(str(tmp_path / "nope.json"))
        assert result.returncode == 2

    def test_baseline_dir_matches_records_by_filename(self, tmp_path):
        """Each record is checked against the baseline of its own name beside it."""
        run_a, run_b = tmp_path / "a", tmp_path / "b"
        make_record(run_a / "benchmarks" / "baselines", wall_time=1.0)
        make_record(run_b / "benchmarks" / "baselines", wall_time=1.0)
        _, fast_path = make_record(run_a, wall_time=1.05)
        _, slow_path = make_record(run_b, wall_time=2.0)
        result = self.run_compare(str(fast_path))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "1 timing(s)" in result.stdout
        result = self.run_compare(str(fast_path), str(slow_path))
        assert result.returncode == 1
        assert "regression" in result.stdout

    def test_baseline_dir_without_matching_file_gates_only(self, tmp_path):
        (tmp_path / "benchmarks" / "baselines").mkdir(parents=True)
        _, path = make_record(tmp_path)
        result = self.run_compare(str(path))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "no baseline" in result.stdout

    def test_baseline_sharing_no_timing_exits_one(self, tmp_path):
        """Renamed entries must not pass by comparing nothing."""
        renamed = BenchRecord(name="micro")
        renamed.record("event_loop_renamed", {"corrected_s": 1.0})
        renamed.write(tmp_path / "BENCH_micro.json")
        make_record(tmp_path / "benchmarks" / "baselines")
        result = self.run_compare(str(tmp_path / "BENCH_micro.json"))
        assert result.returncode == 1
        assert "no timing in common" in result.stdout

    def test_repo_record_passes_its_gates(self):
        """The committed record against the committed baseline, no arguments."""
        result = self.run_compare()
        assert result.returncode == 0, result.stdout + result.stderr
        assert "10 timing(s)" in result.stdout
