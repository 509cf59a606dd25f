"""End-to-end benchmark: six reference workloads, absolute numbers, per-layer trace.

One workload, the form the benchmark contract drives (last stdout line is
one JSON object)::

    python3 benchmarks/e2e/run.py --workload serve_table --seed 3 --seconds 10 --trace 0

Everything, one workload after another, each in a fresh interpreter::

    python3 benchmarks/e2e/run.py [--seed N] [--trace] [--quick] [--sets 2] [--out DIR]

See README.md beside this file for the metrics, workloads and bounds.
"""

from __future__ import annotations

import os
import time

_PROCESS_STARTED = time.perf_counter()

# One load-generating process on a 2-core box: keep BLAS from spawning
# threads that would compete with it.  Must precede the first numpy import.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

# ... and keep the interpreter's own threads (event loop, executor, planner)
# on one core: the GIL serialises them anyway, and a wake-up that crosses
# cores costs a variable amount on a virtual machine.  Children inherit it.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Optional, Sequence  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from e2e_stats import (  # noqa: E402
    metrics_digest,
    percentile,
    samples_beyond,
    spread_fraction,
    supported_percentile,
)

#: End-to-end metrics, as BENCHMARK.json declares them (the self-test
#: checks the two agree).  Every workload reports every one of them; what
#: ``work_per_s`` counts and what the ``op_*`` percentiles time is fixed
#: per workload (``Workload.work_unit`` / ``Workload.operation``).
END_TO_END = [
    {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "op_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

#: ``run_seconds`` of BENCHMARK.json: how long one run measures.
DEFAULT_SECONDS = 10

#: Timed passes per run, however short ``--seconds`` is.
MIN_PASSES = 2

#: Set-ups per run (this interpreter's own plus fresh child interpreters).
SETUP_REPEATS = 3

#: Reference-kernel runs behind the one host-pace sample a set-up gets.
SETUP_KERNEL_RUNS = 25

#: Where caches, registries and trace files go: inside the checkout, ignored by git.
SCRATCH = ROOT / ".bench_e2e"


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this interpreter")
    parser.add_argument("--seed", type=int, default=0, help="input-order seed (default 0)")
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help=f"measure each workload for this long (default {DEFAULT_SECONDS})",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="add one traced pass per workload and report the per-layer metrics",
    )
    parser.add_argument("--quick", action="store_true", help="1/10 size, one pass, one set-up")
    parser.add_argument("--sets", type=int, default=1, help="repeat everything; compare sets")
    parser.add_argument(
        "--out", type=Path, default=SCRATCH,
        help=f"results/trace directory (default {SCRATCH.name}/ at the repository root)",
    )
    parser.add_argument(
        "--write-expected", action="store_true",
        help="re-pin expected.json from this checkout's simulated statistics",
    )
    # Internal, used between this script's own processes.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--report", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------- one workload


def _child_command(args: argparse.Namespace, workload: str, *extra: str) -> list[str]:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    command += ["--out", str(args.out)]
    if args.quick:
        command.append("--quick")
    return command + list(extra)


def _last_json_line(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    return json.loads(lines[-1])


def run_workload(args: argparse.Namespace) -> int:
    """Set up, measure, check and report one workload in this interpreter."""
    import e2e_tracing
    from e2e_pace import host_pace, speed_factor
    from e2e_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = SCRATCH / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        workload.setup()
        raw_setup = time.perf_counter() - _PROCESS_STARTED
        # One sample has to do for a set-up, so it is a long one.
        setup_timed = [(raw_setup, speed_factor([host_pace(SETUP_KERNEL_RUNS)]))]
        if args.setup_only:
            print(json.dumps({"setup_timed": setup_timed[0]}))
            return 0
        result = _measure(args, workload, e2e_tracing)
    finally:
        e2e_tracing.restore()
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    # Further set-ups, each in a fresh interpreter, after this one has gone
    # quiet: set-up time is a median like every other timing.
    for _ in range(0 if args.quick else SETUP_REPEATS - 1):
        child = subprocess.run(
            _child_command(args, args.workload, "--setup-only"),
            capture_output=True, text=True, check=True, timeout=170,
        )
        setup_timed.append(tuple(_last_json_line(child.stdout)["setup_timed"]))
    setup_samples = [raw * factor for raw, factor in setup_timed]
    result["end_to_end"]["setup_s"] = statistics.median(setup_samples)
    result["info"]["raw"]["setup_s"] = statistics.median(raw for raw, _ in setup_timed)
    result["info"]["setup_samples"] = len(setup_samples)
    result["info"]["setup_spread_frac"] = spread_fraction(setup_samples)

    _print_workload_report(workload, result)
    failed = result["failed"]
    if args.report:
        print(json.dumps(result))
    else:
        units = (
            {name: unit for name, (unit, _) in e2e_tracing.PER_LAYER.items()}
            if args.trace
            else {metric["name"]: metric["unit"] for metric in END_TO_END}
        )
        values = result["per_layer"] if args.trace else result["end_to_end"]
        print(json.dumps({
            "correct": failed == 0,
            "attempted": result["attempted"],
            "failed": failed,
            "metrics": {
                name: {"value": values[name], "unit": unit} for name, unit in units.items()
            },
        }))
    return 0 if failed == 0 else 1


def _measure(args: argparse.Namespace, workload: Any, e2e_tracing: Any) -> dict:
    from e2e_pace import speed_factor

    e2e_tracing.assert_untraced()
    passes = []
    started = time.perf_counter()
    while True:
        gc.collect()
        passes.append(workload.run_pass(quick=args.quick))
        if args.quick or (
            len(passes) >= MIN_PASSES and time.perf_counter() - started >= args.seconds
        ):
            break
    e2e_tracing.assert_untraced()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # One host-speed factor for the run; every raw duration is scaled by it.
    factor = speed_factor([pace for one in passes for pace in one.paces])
    raw_rates = [one.work / one.work_wall for one in passes]
    blocks = [block for one in passes for block in one.op_blocks]
    op_samples = sum(len(block) for block in blocks)

    def op_percentile_ms(q: float) -> float:
        """Median over blocks of the within-block percentile (raw).

        The median over blocks keeps a burst on the host, which hits some
        blocks and not others, out of the tail figure.
        """
        return 1e3 * statistics.median(percentile(block, q) for block in blocks)

    raw = {
        "work_per_s": statistics.median(raw_rates),
        "op_p50_ms": op_percentile_ms(50.0),
        "op_p90_ms": op_percentile_ms(90.0),
    }
    failures = [message for one in passes for message in one.failures]
    attempted = sum(one.attempted for one in passes)
    result: dict[str, Any] = {
        "workload": workload.name,
        "attempted": attempted,
        "failed": len(failures),
        "end_to_end": {
            "work_per_s": raw["work_per_s"] / factor,
            "op_p50_ms": raw["op_p50_ms"] * factor,
            "op_p90_ms": raw["op_p90_ms"] * factor,
            "peak_rss_mb": peak_rss_mb,
        },
        "per_layer": None,
        "info": {
            "seed": args.seed,
            "passes": len(passes),
            "pass_spread_frac": spread_fraction(raw_rates),
            "op_samples": op_samples,
            "op_blocks": len(blocks),
            "op_samples_beyond_p90": samples_beyond(op_samples, 90.0),
            "supported_percentile": supported_percentile(op_samples),
            "failed_fraction": len(failures) / attempted,
            # The same numbers without the host-speed correction (e2e_pace).
            "raw": raw,
            "host_speed_factor": factor,
            "pace_samples": sum(len(one.paces) for one in passes),
            "failures": failures[:20],
            "loopback": "server and client share one interpreter; traffic crosses "
                        "the host loopback; client encode/parse is inside the round trip"
                        if workload.work_unit == "decision" else None,
        },
    }
    if not args.trace:
        return result

    tracer = e2e_tracing.Tracer()
    gc.collect()
    e2e_tracing.install(tracer)
    try:
        traced = workload.run_pass(quick=args.quick, tracer=tracer)
    finally:
        e2e_tracing.restore()
    per_layer = dict.fromkeys(e2e_tracing.PER_LAYER, 0.0)
    per_layer.update(e2e_tracing.layer_metrics(tracer, traced.wall))
    per_layer.update(traced.counts)
    untraced_wall = statistics.median(one.wall for one in passes) * factor
    per_layer.update({
        "bench.passes": len(passes),
        "bench.pass_spread_frac": spread_fraction(raw_rates),
        "bench.trace_overhead_frac": (
            traced.wall * speed_factor(traced.paces) / untraced_wall - 1.0
        ),
    })
    result["per_layer"] = per_layer
    result["failed"] += len(traced.failures)
    result["attempted"] += traced.attempted
    result["info"]["failures"] = (failures + traced.failures)[:20]
    result["info"]["layer_self_s"] = e2e_tracing.layer_self_times(tracer.spans)
    result["info"]["spans"] = len(tracer.spans)
    result["info"]["trace_file"] = str(
        tracer.dump(args.out / f"trace-{workload.name}.json")
    )
    return result


def _print_workload_report(workload: Any, result: dict) -> None:
    info = result["info"]
    print(f"== {workload.name}  (seed {info['seed']}, {info['passes']} timed pass(es), "
          f"pass spread {info['pass_spread_frac']:.3f}, {info['op_samples']} operation(s))")
    print(f"   work unit: {workload.work_unit}; operation: {workload.operation}")
    if info["loopback"]:
        print(f"   {info['loopback']}")
    for metric in END_TO_END:
        name = metric["name"]
        arrow = "higher is better" if metric["better"] == "higher" else "lower is better"
        raw = info["raw"].get(name)
        print(f"   {name:<12} {result['end_to_end'][name]:>14.4f} {metric['unit']:<4} "
              f"({arrow}, bound {metric['bound']:.0%}"
              + (f"; uncorrected {raw:.4f})" if raw is not None else ")"))
    supported = info["supported_percentile"]
    print(f"   op percentiles: nearest rank within each of {info['op_blocks']} block(s), "
          f"median over blocks; {info['op_samples']} sample(s) in all, "
          f"{info['op_samples_beyond_p90']} beyond p90; highest percentile with >=10 "
          f"beyond it: {'p%g' % supported if supported else 'none'}")
    print(f"   host-speed factor {info['host_speed_factor']:.3f} "
          f"(from {info['pace_samples']} pace samples; 1 = quiet host, see e2e_pace.py)")
    print(f"   set-up: median of {info['setup_samples']} fresh interpreter(s), "
          f"spread {info['setup_spread_frac']:.3f}")
    print(f"   failed_fraction {info['failed_fraction']:.6f} "
          f"({result['failed']} of {result['attempted']} operations)")
    for message in info["failures"]:
        print(f"   FAILED {message}")
    if result["per_layer"] is not None:
        layers = {k: v for k, v in info["layer_self_s"].items() if k != "bench"}
        wall = sum(layers.values())
        print("   layer self time over the traced pass "
              f"(coverage {result['per_layer']['bench.layer_coverage_frac']:.3f}, tracing "
              f"overhead {result['per_layer']['bench.trace_overhead_frac']:+.3f}):")
        for layer, seconds in sorted(layers.items(), key=lambda item: -item[1]):
            print(f"     {layer:<10} {seconds:>9.4f} s  {seconds / wall:>6.1%}")
        import e2e_tracing

        for name, (unit, _) in e2e_tracing.PER_LAYER.items():
            if result["per_layer"][name]:
                print(f"     {name:<32} {result['per_layer'][name]:>16.6g} {unit}")
        print(f"   trace: {info['spans']} spans in {info['trace_file']}")


# ------------------------------------------------------------------ everything


def meta_block() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "load_average_1m": os.getloadavg()[0],
        "blas_threads": os.environ["OMP_NUM_THREADS"],
    }


#: Per-layer counts that must repeat exactly between two sets of one commit.
EXACT_COUNTS = (
    "sim.events", "inference.updates", "core.plans", "core.policy_lookups",
    "runner.cache_loads", "serving.tier_table", "serving.tier_planner",
    "serving.tier_default",
)


def run_everything(args: argparse.Namespace) -> int:
    """Every workload, one after another, each in a fresh interpreter."""
    from e2e_workloads import WORKLOADS

    meta = meta_block()
    print("meta " + json.dumps(meta))
    sets: list[dict[str, dict]] = []
    status = 0
    for set_index in range(args.sets):
        results: dict[str, dict] = {}
        for name in WORKLOADS:
            if args.sets > 1:
                print(f"-- set {set_index + 1} of {args.sets}")
            child = subprocess.run(
                _child_command(args, name, "--trace", str(args.trace), "--report"),
                stdout=subprocess.PIPE, text=True, timeout=900,
            )
            lines = child.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            if child.returncode not in (0, 1):
                print(f"error: workload {name} exited with {child.returncode}", file=sys.stderr)
                return child.returncode or 1
            results[name] = _last_json_line(child.stdout)
            status |= child.returncode
        sets.append(results)

    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "results.json").write_text(
        json.dumps({"meta": meta, "end_to_end": END_TO_END, "sets": sets}, indent=1),
        encoding="utf-8",
    )
    print(f"results written to {args.out / 'results.json'}")
    if args.sets > 1 and compare_sets(sets[0], sets[1]):
        status = 1
    return status


def compare_sets(first: dict[str, dict], second: dict[str, dict]) -> int:
    """Print both medians per workload × metric; count bound breaches."""
    breaches = 0
    print(f"{'workload':<22}{'metric':<14}{'set 1':>14}{'set 2':>14}{'worse by':>10}{'bound':>8}")
    for name, one in first.items():
        two = second[name]
        for metric in END_TO_END:
            a, b = one["end_to_end"][metric["name"]], two["end_to_end"][metric["name"]]
            worse = (a - b) / a if metric["better"] == "higher" else (b - a) / a
            # Either set may be the slower one: the two must agree within the bound.
            breach = abs(worse) > metric["bound"]
            breaches += breach
            print(f"{name:<22}{metric['name']:<14}{a:>14.4f}{b:>14.4f}{worse:>+10.3f}"
                  f"{metric['bound']:>8.2f}{'  BREACH' if breach else ''}")
        if one["per_layer"] is not None:
            for count in EXACT_COUNTS:
                if one["per_layer"][count] != two["per_layer"][count]:
                    breaches += 1
                    print(f"{name:<22}{count}: {one['per_layer'][count]} != "
                          f"{two['per_layer'][count]}  BREACH (counts must repeat exactly)")
    print(f"{breaches} breach(es)")
    return breaches


def write_expected() -> int:
    """Pin the digest of every scenario point the benchmark runs, both sizes."""
    from e2e_workloads import EXPECTED_PATH, WORKLOADS, ScenarioWorkload
    from repro.runner.backends import SerialRunner

    expected: dict[str, str] = {}
    for cls in WORKLOADS.values():
        if not issubclass(cls, ScenarioWorkload):
            continue
        workload = cls(0, SCRATCH)
        for quick in (False, True):
            for point in SerialRunner().run(workload.specs(quick)):
                expected[point.spec.label] = metrics_digest(point.metrics)
                print(f"{expected[point.spec.label][:16]}  {point.spec.label}")
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(expected)} digests written to {EXPECTED_PATH}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.write_expected:
        return write_expected()
    if args.workload is not None:
        return run_workload(args)
    return run_everything(args)


if __name__ == "__main__":
    sys.exit(main())
