"""Names of retired code stay out of the tree.

Three retirements are checked here, each by the text it left behind:

* The array rollout is a packet-column kernel: one iteration per arrival
  column, deliveries read off the accepted slots.  The event frontier it
  replaced, the drained departure runs and the event classification that
  went with them are gone, and so is every name that pointed at them.
* An option no caller set is a constant: twelve settings no scenario, CLI,
  example or benchmark set to anything but their default are constants or
  the only code path, and the two exceptions only they raised are gone
  with them.
* What no caller reads is not recorded: the element tracer, four
  per-event logs and a belief row's cross tally are gone, and no option
  stands in their place.

The scans read text files only (binary ones, such as bytecode caches, are
skipped, like ``grep -I``); this file, which has to spell the names, is
the one text file left out.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RETIRED = (
    "_run_frontier",
    "_drain_runs",
    "DRAIN_MIN_QUEUE_DEPTH",
    "_classify_events",
    "_cross_backlog_sequential",
)

#: The settings that became constants and the two exceptions they raised.
CONSTANT_NOT_OPTION = re.compile(
    r"missing_grace|cross_tally_window|on_degenerate|max_sends_per_wake"
    r"|raise_on_overload|cooldown_cap|breaker_seed|start_method"
    r"|DegenerateBeliefError|OverloadedError|jitter="
)

#: The element tracer, the per-event logs and the belief row's cross tally.
NOT_RECORDED = re.compile(
    r"TraceRecorder|TraceRecord|trace_kinds|\b_trace\b|\.trace\(|cwnd_trace"
    r"|occupancy_trace|sent_packets|DecisionRecord|\.decisions\b"
    r"|CROSS_TALLY_WINDOW|def trim"
)


def text_files(scope: Path):
    """``scope`` itself if it is a file, else every file under it, that
    holds no NUL byte."""
    paths = [scope] if scope.is_file() else sorted(scope.rglob("*"))
    for path in paths:
        if path.is_file() and path.resolve() != Path(__file__).resolve():
            data = path.read_bytes()
            if b"\0" not in data:
                yield path, data.decode("utf-8", errors="replace")


def matching_lines(scope: str, pattern: re.Pattern) -> list[str]:
    """``grep -rnIE pattern scope``: every matching line, as ``path:line: text``."""
    files = list(text_files(ROOT / scope))
    assert files, scope
    return [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for path, text in files
        for number, line in enumerate(text.splitlines(), start=1)
        if pattern.search(line)
    ]


@pytest.mark.parametrize("directory", ["src", "tests"])
def test_no_retired_rollout_name_remains(directory):
    files = list(text_files(ROOT / directory))
    assert files
    found = {
        f"{path.relative_to(ROOT)}: {name}"
        for path, text in files
        for name in RETIRED
        if name in text
    }
    assert found == set()


@pytest.mark.parametrize("scope", ["src", "tests", "examples", "benchmarks", "README.md"])
def test_an_option_no_caller_sets_stays_a_constant(scope):
    assert matching_lines(scope, CONSTANT_NOT_OPTION) == []


def test_the_action_grid_has_no_delay_cap():
    # max_delay is also a metric name elsewhere: scoped to the grid.
    assert matching_lines("src/repro/core/actions.py", re.compile("max_delay")) == []


def test_the_element_tracer_stays_gone():
    assert not (ROOT / "src/repro/sim/trace.py").exists()


@pytest.mark.parametrize("scope", ["src", "examples"])
def test_what_no_caller_reads_stays_unrecorded(scope):
    assert matching_lines(scope, NOT_RECORDED) == []
