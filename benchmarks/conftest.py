"""Collection rules and the record fixture for everything under benchmarks/.

Two things live here: ``bench_micro.py`` (the sub-ledger timings behind
``BENCH_micro.json``, written through ``records.py`` and checked by
``compare.py``, both beside this file) and ``e2e/`` (the ``BENCHMARK.json``
ledger and its self-test).  Neither belongs in the tier-1 run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from records import BenchRecord  # pytest puts this directory on sys.path

#: BENCH_*.json records live at the repository root, next to ROADMAP.md.
REPO_ROOT = Path(__file__).resolve().parent.parent


def pytest_collection_modifyitems(config, items) -> None:
    """Mark everything under benchmarks/ with ``bench``; opt-in to run it.

    Keeps the tier-1 run fast while preserving both benchmark workflows:

    * ``pytest -m bench`` (any mark expression naming ``bench``) runs the
      suite and rewrites ``BENCH_micro.json``;
    * ``pytest benchmarks/e2e`` (an explicit benchmarks/ path on the
      command line) runs what is under that path;
    * every other invocation — in particular the tier-1
      ``pytest -x -q`` — deselects the benchmarks.

    The hook receives the whole session's items (tests/ included when both
    test paths are collected together), so it filters to this directory.
    """
    bench_dir = Path(__file__).resolve().parent
    bench_items = []
    for item in items:
        if bench_dir in Path(str(item.fspath)).resolve().parents:
            item.add_marker(pytest.mark.bench)
            bench_items.append(item)
    if not bench_items:
        return
    if "bench" in (config.option.markexpr or ""):
        return  # the user's -m expression decides
    if config.option.keyword:
        return  # a -k expression selects by name; let it decide
    for argument in config.invocation_params.args:
        text = str(argument)
        if text.startswith("-"):
            continue
        try:
            path = Path(text.split("::", 1)[0]).resolve()
        except OSError:  # pragma: no cover - unresolvable CLI token
            continue
        if path == bench_dir or bench_dir in path.parents:
            return  # benchmarks were requested explicitly by path
    config.hook.pytest_deselected(items=bench_items)
    selected = set(map(id, bench_items))
    items[:] = [item for item in items if id(item) not in selected]


@pytest.fixture
def bench_record():
    """Write a whole ``BENCH_<name>.json`` at the repo root.

    ``entries`` maps a label to ``(metrics, meta)``, ``gates`` maps
    ``"<label>.<metric>"`` to ``{"min": ..., "max": ...}``.  The file is
    replaced, never merged into: what it holds is what this run measured.
    """

    def _record(name, entries, gates):
        record = BenchRecord(name=name, gates=dict(gates))
        for label, (metrics, meta) in entries.items():
            record.record(label, metrics, meta)
        return record.write(REPO_ROOT / f"BENCH_{name}.json")

    return _record
