"""Command-line management of the trace corpus.

::

    python -m repro.corpus ingest traces/verizon.pps --name verizon_lte
    python -m repro.corpus generate markov_onoff --name flaky \
        --seed 3 --set mean_off_s=4.0
    python -m repro.corpus list
    python -m repro.corpus describe verizon_lte

The corpus root defaults to ``<cache-dir>/corpus`` (``$REPRO_CACHE_DIR``
or the packaged default), overridable with ``--corpus-dir`` — the same
directory the ``corpus_trace`` / ``many_flow_contention`` scenarios read.
Exit codes: 0 success, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Sequence

from repro._cli import parse_assignments, parse_value
from repro.corpus.generators import GENERATOR_FAMILIES
from repro.corpus.ingest import DEFAULT_BIN_MS
from repro.corpus.store import open_corpus_store
from repro.errors import ConfigurationError
from repro.units import DEFAULT_PACKET_BITS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.corpus",
        description="Manage the trace corpus: ingest files, generate synthetic workloads.",
    )
    parser.add_argument(
        "--corpus-dir",
        default=None,
        metavar="PATH",
        help="corpus root (default: <cache-dir>/corpus)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser(
        "ingest", help="parse a trace file and register it in the corpus"
    )
    ingest.add_argument("path", help="trace file (mahimahi ms-timestamps or 'time rate' samples)")
    ingest.add_argument("--name", default="", help="entry name (default: file stem)")
    ingest.add_argument(
        "--format",
        dest="fmt",
        choices=("auto", "mahimahi", "samples"),
        default="auto",
        help="input format (default: auto-detect)",
    )
    ingest.add_argument(
        "--packet-bits",
        type=int,
        default=DEFAULT_PACKET_BITS,
        help=f"bits per delivery opportunity for mahimahi input (default {DEFAULT_PACKET_BITS})",
    )
    ingest.add_argument(
        "--bin-ms",
        type=int,
        default=DEFAULT_BIN_MS,
        help=f"rate-estimation bin width for mahimahi input (default {DEFAULT_BIN_MS} ms)",
    )

    commands.add_parser("list", help="list corpus entries")

    describe = commands.add_parser("describe", help="print one entry's manifest record")
    describe.add_argument("name", help="corpus entry name")

    generate = commands.add_parser(
        "generate", help="materialize a synthetic generator family into the corpus"
    )
    generate.add_argument(
        "family",
        choices=tuple(sorted(GENERATOR_FAMILIES)),
        help="generator family",
    )
    generate.add_argument("--name", required=True, help="corpus entry name")
    generate.add_argument("--seed", type=int, default=0, help="build seed (default 0)")
    generate.add_argument(
        "--set",
        dest="params",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one family parameter (repeatable)",
    )
    return parser


def _cmd_ingest(args: argparse.Namespace) -> int:
    store = open_corpus_store(args.corpus_dir)
    entry = store.ingest(
        args.path,
        name=args.name,
        fmt=args.fmt,
        packet_bits=args.packet_bits,
        bin_ms=args.bin_ms,
    )
    name = args.name or entry["source"].rsplit("/", 1)[-1].rsplit(".", 1)[0]
    print(f"ingested {name}: digest={entry['digest']}")
    _print_entry(entry)
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    store = open_corpus_store(args.corpus_dir)
    names = store.names()
    if not names:
        print(f"corpus at {store.root} is empty")
        return 0
    print(f"corpus: {store.root}")
    for name in names:
        entry = store.describe(name)
        kind = entry.get("kind", "trace")
        print(
            f"{name:24s} {kind:9s} {entry['samples']:6d} samples "
            f"{entry['duration_s']:8.1f}s  mean {entry['mean_rate_bps'] / 1e6:7.3f} Mbps  "
            f"digest {str(entry['digest'])[:12]}"
        )
    return 0


def _print_entry(entry: dict) -> None:
    for key in sorted(entry):
        print(f"  {key}: {entry[key]}")


def _cmd_describe(args: argparse.Namespace) -> int:
    store = open_corpus_store(args.corpus_dir)
    entry = store.describe(args.name)
    print(f"{args.name}:")
    _print_entry(entry)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    params: dict[str, Any] = {
        key: parse_value(value) for key, value in parse_assignments(args.params, "--set")
    }
    store = open_corpus_store(args.corpus_dir)
    entry = store.register_generator(
        args.name, args.family, params=params, seed=args.seed
    )
    print(f"generated {args.name}: digest={entry['digest']}")
    _print_entry(entry)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "ingest":
            return _cmd_ingest(args)
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "describe":
            return _cmd_describe(args)
        return _cmd_generate(args)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
