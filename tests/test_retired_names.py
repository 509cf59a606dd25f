"""Names the rollout kernel no longer has stay out of the code and its tests.

The array rollout is a packet-column kernel: one iteration per arrival
column, deliveries read off the accepted slots.  The event frontier it
replaced, the drained departure runs and the event classification that
went with them are gone, and so is every name that pointed at them.  The
scan reads text files only (binary ones, such as bytecode caches, are
skipped, like ``grep -I``); this file, which has to spell the names, is
the one text file left out.
"""

from __future__ import annotations

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


def text_files(directory: Path):
    """Every file under ``directory`` that holds no NUL byte."""
    for path in sorted(directory.rglob("*")):
        if path.is_file() and path.resolve() != Path(__file__).resolve():
            data = path.read_bytes()
            if b"\0" not in data:
                yield path, data.decode("utf-8", errors="replace")


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
