"""Self-test of the end-to-end benchmark harness.

Collected only by ``pytest benchmarks/e2e -q`` (or ``-m bench``):
``benchmarks/conftest.py`` marks everything under ``benchmarks/`` as
``bench`` and deselects it from the tier-1 run.  The harness modules are
imported inside the tests, so collecting this file has no side effects.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


@pytest.fixture
def harness(monkeypatch):
    """The harness modules, importable by their bare names."""
    monkeypatch.syspath_prepend(str(HERE))
    import e2e_stats
    import e2e_tracing

    return e2e_stats, e2e_tracing


# ------------------------------------------------------------ span arithmetic


def _span(span_id, name, parent, start, end, op=0):
    return [span_id, name, parent, op, start, end]


def test_self_time_subtracts_the_union_of_child_spans(harness):
    _, tracing = harness
    spans = [
        _span(0, "sim.run", None, 0.0, 10.0),
        # Overlapping siblings count once; a child running past its parent
        # (an abandoned thread) is clipped to the parent.
        _span(1, "inference.update", 0, 1.0, 3.0),
        _span(2, "core.plan", 0, 2.0, 5.0),
        _span(3, "core.plan", 0, 7.0, 12.0),
        # A grandchild reduces its parent's self time, not its grandparent's.
        _span(4, "core.utility", 2, 2.5, 4.5),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (4.0 + 3.0))
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0 - 2.0)
    assert own[4] == pytest.approx(2.0)
    layers = tracing.layer_self_times(spans)
    assert layers["sim"] == pytest.approx(3.0)
    assert layers["core"] == pytest.approx(1.0 + 5.0 + 2.0)


def test_layer_self_times_sum_to_the_root_span(harness):
    _, tracing = harness
    tracer = tracing.Tracer()
    root = tracer.begin("bench.pass")
    for _ in range(3):
        outer = tracer.begin("sim.run")
        inner = tracer.begin("core.plan")
        time.sleep(0.002)
        tracer.end(inner)
        tracer.end(outer)
    tracer.end(root)
    total = sum(tracing.layer_self_times(tracer.spans).values())
    assert total == pytest.approx(root[tracing.SPAN_END] - root[tracing.SPAN_START])
    metrics = tracing.layer_metrics(tracer, wall=root[tracing.SPAN_END] - root[tracing.SPAN_START])
    assert metrics["core.plans"] == 3
    assert 0.9 < metrics["bench.layer_coverage_frac"] <= 1.0


def test_a_thread_without_open_spans_parents_under_the_handoff_span(harness):
    _, tracing = harness
    tracer = tracing.Tracer()

    def plan():
        tracer.end(tracer.begin("core.plan"))

    def decide():
        record = tracer.begin("serving.decide", handoff=True)
        worker = threading.Thread(target=plan)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
        tracer.end(record)

    request = tracer.begin("serving.request", handoff=True)
    server = threading.Thread(target=decide)
    server.start()
    server.join(timeout=5)
    assert not server.is_alive()
    tracer.end(request)

    by_name = {span[tracing.SPAN_NAME]: span for span in tracer.spans}
    assert by_name["serving.decide"][tracing.SPAN_PARENT] == request[tracing.SPAN_ID]
    assert (
        by_name["core.plan"][tracing.SPAN_PARENT]
        == by_name["serving.decide"][tracing.SPAN_ID]
    )
    assert tracer.handoff is None
    assert all(len(span) == 6 for span in tracer.spans)
    metrics = tracing.layer_metrics(tracer, wall=1.0)
    assert metrics["serving.plan_s"] == pytest.approx(metrics["core.plan_s"])


# ------------------------------------------------------- percentiles, digests


@pytest.mark.parametrize(
    "count, expected",
    [(5, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1_000, 99.0), (10_000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond_it(harness, count, expected):
    stats, _ = harness
    assert stats.supported_percentile(count) == expected


def test_percentile_is_nearest_rank(harness):
    stats, _ = harness
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(samples, 50.0) == 3.0
    assert stats.percentile(samples, 90.0) == 5.0
    assert stats.percentile(list(range(1, 101)), 90.0) == 90
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)


def test_digest_ignores_key_order_and_nothing_else(harness):
    stats, _ = harness
    one = {"alpha": 0.9, "packets_sent": 295, "rate": 1 / 3}
    two = {"rate": 1 / 3, "packets_sent": 295, "alpha": 0.9}
    assert stats.canonical_json(one) == '{"alpha":0.9,"packets_sent":295,"rate":0.3333333333333333}'
    assert stats.metrics_digest(one) == stats.metrics_digest(two)
    assert stats.metrics_digest(one) != stats.metrics_digest({**one, "packets_sent": 296})
    assert stats.metrics_digest(one) != stats.metrics_digest({**one, "rate": 0.3333333333333334})
    # Values the runner serializes with default=str digest the same way.
    assert stats.canonical_json({"path": Path("a")}) == '{"path":"a"}'


def test_a_wrong_digest_is_a_failure(harness, monkeypatch):
    import e2e_workloads

    class Spec:
        label = "figure3_alpha[alpha=1.0,seed=1]"

    class Point:
        spec = Spec()
        metrics = {"packets_sent": 141}

    stats, _ = harness
    failures: list[str] = []
    good = {Spec.label: stats.metrics_digest(Point.metrics)}
    e2e_workloads.check_points([Point()], good, failures)
    assert failures == []
    e2e_workloads.check_points([Point()], {Spec.label: "0" * 64}, failures)
    e2e_workloads.check_points([Point()], {}, failures)
    assert len(failures) == 2


# ------------------------------------------------------------ wrapper hygiene


def test_wrappers_install_restore_and_are_detected(harness):
    _, tracing = harness
    from repro.serving.fallback import DecisionService
    from repro.sim.engine import Simulator

    pristine = Simulator.__dict__["run"]
    tracing.assert_untraced()
    tracing.install(tracing.Tracer())
    try:
        assert Simulator.__dict__["run"] is not pristine
        assert hasattr(DecisionService.__dict__["decide"], tracing.WRAPPED_MARK)
        with pytest.raises(RuntimeError):
            tracing.assert_untraced()
        with pytest.raises(RuntimeError):
            tracing.install(tracing.Tracer())
    finally:
        tracing.restore()
    assert Simulator.__dict__["run"] is pristine
    tracing.assert_untraced()


# ------------------------------------------------------------------ contract


def test_benchmark_json_agrees_with_the_harness(harness, monkeypatch):
    _, tracing = harness
    import e2e_workloads
    import run as e2e_run

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert declared["paths"] == ["benchmarks/e2e"]
    assert declared["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert declared["run_seconds"] == e2e_run.DEFAULT_SECONDS
    assert declared["end_to_end"] == e2e_run.END_TO_END
    assert declared["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, (unit, better) in tracing.PER_LAYER.items()
    ]
    assert declared["workloads"] == [
        {"name": name, "why": cls.why} for name, cls in e2e_workloads.WORKLOADS.items()
    ]
    assert all(len(workload["why"]) <= 200 for workload in declared["workloads"])


def test_quick_run_of_every_workload(tmp_path):
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert elapsed < 30.0
    results = json.loads((tmp_path / "results.json").read_text(encoding="utf-8"))
    assert {"nproc", "python", "numpy", "git_commit", "load_average_1m"} <= set(results["meta"])
    (only_set,) = results["sets"]
    assert len(only_set) == 6
    for name, result in only_set.items():
        assert result["failed"] == 0 and result["attempted"] >= 1, name
        assert result["info"]["failed_fraction"] == 0.0
        assert all(value > 0 for value in result["end_to_end"].values()), name


def test_quick_traced_run_accounts_for_the_wall(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "contention_isender32",
         "--quick", "--trace", "1", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    reply = json.loads(done.stdout.strip().splitlines()[-1])
    assert reply["correct"] is True and reply["failed"] == 0
    metrics = {name: entry["value"] for name, entry in reply["metrics"].items()}
    assert metrics["bench.layer_coverage_frac"] >= 0.95
    assert metrics["api.builds"] == 32
    assert metrics["core.policy_lookups"] > metrics["core.plans"] > 0
    assert (tmp_path / "trace-contention_isender32.json").is_file()
