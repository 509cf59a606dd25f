"""Command-line entry point for the scenario runner.

::

    python -m repro.runner list
    python -m repro.runner run figure3_alpha --sweep alpha=0.9,1,2.5,5 \
        --backend parallel --workers 4 --json sweep.json
    python -m repro.runner run figure3_alpha --sweep alpha=0.9,1,2.5,5 \
        --backend parallel --cache-dir .repro-cache

``run`` expands ``--sweep`` axes into the cross product of points (times
``--seeds`` trials), executes them on the chosen backend (``serial`` in
this process, ``parallel`` in one worker process per in-flight point),
prints the metric table, and optionally writes the canonical JSON / CSV
artifacts.

With ``--cache-dir`` (or ``$REPRO_CACHE_DIR``) every executed point is
persisted under its fingerprint-derived key and replayed on later runs —
a warm rerun of the same grid reports all hits and produces bit-identical
artifacts.  ``--no-cache`` forces execution even when a cache directory is
configured in the environment.

Fault tolerance is opt-in and is a policy of the one run loop, not a
second path: any of ``--resume``, ``--max-retries``, ``--point-timeout``,
``--strict`` or ``--inject-faults`` attaches a ``Supervision`` (durable
journal under the cache directory, per-point retries with deterministic
backoff, quarantine of persistently failing points); without one a failing
point's own exception ends the sweep, with every completed point already
cached.  Exit codes: 0 full success, 1 partial (quarantined points remain),
2 configuration error, 3 a point failure that ends the sweep (``--strict``,
or a plain run whose worker died), 130 interrupted.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Optional, Sequence

from repro._cli import parse_assignments, parse_value
from repro._persist import cache_dir_override
from repro.errors import ConfigurationError, PointFailureError
from repro.metrics.summary import format_table
from repro.runner.backends import RUNNERS, run_specs
from repro.runner.cache import CACHE_DIR_ENV, ResultCache, default_cache_dir
from repro.runner.faults import FaultPlan
from repro.runner.registry import DEFAULT_REGISTRY
from repro.runner.spec import grid
from repro.runner.supervise import Supervision


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description="Run registered simulation scenarios, serially or in parallel.",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_scenarios",
        help="list registered scenarios (alias for the 'list' command)",
    )
    commands = parser.add_subparsers(dest="command", required=False)

    commands.add_parser("list", help="list registered scenarios")

    run = commands.add_parser("run", help="run one scenario over a parameter grid")
    run.add_argument("scenario", help="registered scenario name (see 'list')")
    run.add_argument(
        "--set",
        dest="fixed",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="fix one parameter for every point (repeatable)",
    )
    run.add_argument(
        "--sweep",
        dest="sweeps",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        help="sweep one parameter axis; repeat for a cross product",
    )
    run.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    run.add_argument(
        "--seeds",
        type=int,
        default=1,
        help="number of seed trials per grid point, seeds seed..seed+N-1",
    )
    run.add_argument(
        "--backend",
        choices=tuple(RUNNERS),
        default="serial",
        help="execution backend (default serial)",
    )
    run.add_argument("--workers", type=int, default=None, help="parallel worker count")
    run.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help=(
            "persist executed points under PATH and replay them on reruns "
            f"(default: ${CACHE_DIR_ENV} when set, else no caching)"
        ),
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="execute every point even when a cache directory is configured",
    )
    run.add_argument("--json", default=None, metavar="PATH", help="write canonical JSON artifact")
    run.add_argument("--csv", default=None, metavar="PATH", help="write CSV artifact")
    run.add_argument("--timing", action="store_true", help="include per-point wall time")

    faults = run.add_argument_group(
        "fault tolerance",
        "any of these attaches a supervision policy to the run "
        "(journalled, retried, quarantining)",
    )
    faults.add_argument(
        "--resume",
        action="store_true",
        help=(
            "replay completed points from the sweep journal of an earlier "
            "(possibly killed) run of this exact grid; needs --cache-dir or "
            f"${CACHE_DIR_ENV} to locate the journal"
        ),
    )
    faults.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="re-run a failing point up to N times before quarantining it (default 2)",
    )
    faults.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill and retry a point whose worker goes silent this long",
    )
    faults.add_argument(
        "--retry-backoff",
        type=float,
        default=None,
        metavar="SECONDS",
        help="base delay before a retry, doubled per attempt (default 0.1)",
    )
    faults.add_argument(
        "--strict",
        action="store_true",
        help="fail the whole sweep on the first exhausted point (no quarantine)",
    )
    faults.add_argument(
        "--inject-faults",
        default=None,
        metavar="PLAN",
        help=(
            "chaos-test the run with a seeded fault plan, e.g. "
            "'exception=0.1,kills=2,hangs=1,seed=7' or targeted 'kill@3'"
        ),
    )

    cache = commands.add_parser(
        "cache", help="inspect and garbage-collect the result cache"
    )
    cache.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help=f"cache directory (default: ${CACHE_DIR_ENV} when set)",
    )
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)
    cache_commands.add_parser("list", help="report entry counts, sizes, and ages")
    prune = cache_commands.add_parser(
        "prune", help="remove entries by age and total size"
    )
    prune.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        metavar="DAYS",
        help="remove results/policy artifacts older than DAYS",
    )
    prune.add_argument(
        "--max-size-mb",
        type=float,
        default=None,
        metavar="MB",
        help="then remove oldest-first until the cache fits MB",
    )
    prune.add_argument(
        "--sweep-quarantine",
        action="store_true",
        help="also empty the quarantine/ directory of triaged corrupt files",
    )
    prune.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be removed without touching anything",
    )
    return parser


def _cmd_list() -> int:
    for entry in DEFAULT_REGISTRY:
        print(f"{entry.name:24s} {entry.description}")
        # One indented line of accepted params with their effective
        # defaults, so every scenario is sweepable without reading source.
        effective = entry.effective_params({})
        parts = [f"{key}={effective[key]!r}" for key in sorted(effective)]
        if entry.accepted_params is None:
            parts.append("**params")
        if parts:
            print(f"{'':24s} params: {' '.join(parts)}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    # One key across --set and --sweep: a second --sweep of one axis would
    # replace the first, and --sweep would beat --set (--sweep takes
    # comma-separated values).
    pairs = parse_assignments(args.fixed + args.sweeps, "--set/--sweep")
    fixed, sweeps = pairs[: len(args.fixed)], pairs[len(args.fixed) :]
    base: dict[str, Any] = {key: parse_value(value) for key, value in fixed}
    axes: dict[str, list[Any]] = {
        key: [parse_value(value) for value in values.split(",") if value != ""]
        for key, values in sweeps
    }

    specs = grid(
        args.scenario,
        seeds=range(args.seed, args.seed + max(1, args.seeds)),
        base=base,
        **axes,
    )
    # Fail fast on unknown scenario names or parameter typos, before the
    # backend starts chewing through the grid.
    entry = DEFAULT_REGISTRY.get(args.scenario)
    entry.validate_params({**base, **axes})

    if args.no_cache and args.cache_dir is not None:
        raise ConfigurationError(
            "--no-cache and --cache-dir are contradictory; pass one or the other"
        )
    cache = None
    if not args.no_cache:
        cache_dir = args.cache_dir if args.cache_dir is not None else default_cache_dir()
        if cache_dir is not None:
            # The runner exports the directory per point execution, so
            # workers and the policy-table precompute path share it.
            cache = ResultCache(cache_dir)

    supervision = _build_supervision(args)
    if args.resume and cache is None:
        raise ConfigurationError(
            "--resume needs a journal location: pass --cache-dir or set "
            f"${CACHE_DIR_ENV} (the journal lives under the cache directory)"
        )

    started = time.perf_counter()
    # With --no-cache, clear the inherited $REPRO_CACHE_DIR for the run's
    # duration so the policy-table precompute path cannot reuse artifacts
    # either; the caller's environment is restored afterwards.
    with cache_dir_override(None, clear=args.no_cache):
        store = run_specs(
            specs,
            backend=args.backend,
            workers=args.workers,
            cache=cache,
            supervision=supervision,
            resume=args.resume,
        )
    elapsed = time.perf_counter() - started

    title = f"{args.scenario}: {len(store)} points via {args.backend} backend in {elapsed:.2f}s"
    print(format_table(store.rows(), title=title))
    if cache is not None:
        corrupt = f", {store.cache_corrupt} corrupt" if store.cache_corrupt else ""
        print(
            f"cache: {store.cache_hits} hit(s), {store.cache_misses} miss(es)"
            f"{corrupt} in {cache.root}"
        )
    if supervision is not None:
        counts = store.counts()
        print(
            f"supervision: {counts['completed']} completed, "
            f"{counts['quarantined']} quarantined, {counts['retries']} retried, "
            f"{counts['resumed']} resumed from journal"
        )
        for point in store.quarantined:
            print(
                f"quarantined: {point.spec.label} after {point.attempts} "
                f"attempt(s): {point.error}",
                file=sys.stderr,
            )
    if args.timing:
        print(f"\nper-point wall time total: {store.total_wall_time:.2f}s")
    if args.json:
        store.to_json(args.json, include_timing=args.timing)
        print(f"wrote JSON artifact to {args.json}")
    if args.csv:
        store.to_csv(args.csv)
        print(f"wrote CSV artifact to {args.csv}")
    return 1 if store.quarantined else 0


def _format_bytes(count: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if count < 1024 or unit == "GiB":
            return f"{count:.1f} {unit}" if unit != "B" else f"{int(count)} B"
        count /= 1024
    return f"{int(count)} B"  # pragma: no cover - unreachable


def _cmd_cache(args: argparse.Namespace) -> int:
    cache_dir = args.cache_dir if args.cache_dir is not None else default_cache_dir()
    if cache_dir is None:
        raise ConfigurationError(
            f"no cache directory: pass --cache-dir or set ${CACHE_DIR_ENV}"
        )
    cache = ResultCache(cache_dir)

    if args.cache_command == "list":
        stats = cache.stats()
        print(f"cache: {stats.root}")
        print(f"entries: {stats.entries} ({_format_bytes(stats.bytes)})")
        print(
            f"corpus traces: {stats.corpus_entries} "
            f"({_format_bytes(stats.corpus_bytes)}, manifest never pruned)"
        )
        print(
            f"quarantined: {stats.quarantined} "
            f"({_format_bytes(stats.quarantined_bytes)})"
        )
        print(f"oldest entry: {stats.oldest_age_s / 86_400.0:.1f} day(s)")
        return 0

    if (
        args.max_age_days is None
        and args.max_size_mb is None
        and not args.sweep_quarantine
    ):
        raise ConfigurationError(
            "cache prune needs at least one criterion: --max-age-days, "
            "--max-size-mb, or --sweep-quarantine"
        )
    if args.max_age_days is not None and args.max_age_days < 0:
        raise ConfigurationError("--max-age-days must be >= 0")
    if args.max_size_mb is not None and args.max_size_mb < 0:
        raise ConfigurationError("--max-size-mb must be >= 0")
    report = cache.gc(
        max_age_s=args.max_age_days * 86_400.0 if args.max_age_days is not None else None,
        max_total_bytes=int(args.max_size_mb * 1024 * 1024)
        if args.max_size_mb is not None
        else None,
        sweep_quarantine=args.sweep_quarantine,
        dry_run=args.dry_run,
    )
    verb = "would remove" if report.dry_run else "removed"
    print(
        f"{verb}: {len(report.removed)} entr(ies), "
        f"{_format_bytes(report.freed_bytes)} freed"
    )
    if args.sweep_quarantine:
        print(
            f"quarantine {verb}: {len(report.quarantine_removed)} file(s), "
            f"{_format_bytes(report.quarantine_freed_bytes)} freed"
        )
    return 0


def _build_supervision(args: argparse.Namespace) -> Optional[Supervision]:
    """The :class:`Supervision` the flags ask for, or ``None`` (plain policy).

    The plain policy stays the default so ordinary sweeps pay zero
    journalling overhead; touching any fault-tolerance flag opts in.
    """
    requested = (
        args.resume
        or args.strict
        or args.max_retries is not None
        or args.point_timeout is not None
        or args.retry_backoff is not None
        or args.inject_faults is not None
    )
    if not requested:
        return None
    if args.max_retries is not None and args.max_retries < 0:
        raise ConfigurationError("--max-retries must be >= 0")
    if args.point_timeout is not None and args.point_timeout <= 0:
        raise ConfigurationError("--point-timeout must be positive")
    plan = FaultPlan.parse(args.inject_faults) if args.inject_faults else None
    defaults = Supervision()
    return Supervision(
        max_retries=args.max_retries if args.max_retries is not None else defaults.max_retries,
        point_timeout=args.point_timeout,
        backoff=args.retry_backoff if args.retry_backoff is not None else defaults.backoff,
        seed=args.seed,
        strict=args.strict,
        fault_plan=plan,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.list_scenarios and args.command not in (None, "list"):
            parser.error("--list cannot be combined with the 'run' command")
        if args.command == "list" or args.list_scenarios:
            return _cmd_list()
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command is None:
            parser.error("a command is required (list, run, cache) unless --list is given")
        return _cmd_run(args)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except PointFailureError as error:
        # The executor already tore the workers down; surface the point
        # that ended the sweep and its last error.
        print(f"error: {error}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
