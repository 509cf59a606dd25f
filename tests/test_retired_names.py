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

``TEXT_RULES`` holds the rest, one row each: a retired name that stays
out of a scope, or a rule written once that stays at one site.

The scans read text files only (binary ones, such as bytecode caches, are
skipped, like ``grep -I``); this file, which has to spell the names, is
the one text file left out.
"""

from __future__ import annotations

import re

import pytest

from text_scan import ROOT, matching_lines, text_files

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


#: ``(name, pattern, scopes, lines, why)``: under each scope, exactly
#: ``lines`` text lines match ``pattern``.
TEXT_RULES = [
    (
        "engine-registry",
        r"\bBackendRegistry\b|(BELIEF|ROLLOUT|RUNNER)_BACKENDS",
        ("src", "tests", "examples", "benchmarks", "README.md", ".claude"),
        0,
        "engines are named, not registered",
    ),
    (
        "hypothesis-factory",
        "hypothesis_factory",
        ("src", "tests", "examples", "benchmarks"),
        0,
        "from_prior has one outcome per engine: there is no factory to pass",
    ),
    (
        "fill-rule",
        "remaining > 1e-9",
        ("src/repro",),
        1,
        "the initial fill is cut into packets once, in repro.units",
    ),
    (
        "interleave",
        r"interleave\(",
        ("src/repro/inference",),
        0,
        "a gate fork is one gather, not two states scattered into one",
    ),
    (
        "sorted-params",
        r"sorted\(hypothesis.params.items\(\)\)",
        ("src/repro/inference/belief.py",),
        0,
        "the list form reads each hypothesis's digest, it never sorts the parameters per call",
    ),
    (
        "bench-reader",
        "BenchRecord|BENCH_",
        ("src",),
        0,
        "benchmarks/compare.py alone decides a timing regression: nothing in src/ reads a record",
    ),
    (
        "stream-transport",
        "start_server|open_connection|StreamReader",
        ("src/repro/serving/server.py",),
        0,
        "one transport: no stream path beside the protocols",
    ),
]


def matching(scope: str, pattern: re.Pattern) -> list[str]:
    return matching_lines(ROOT / scope, pattern, skip=__file__)


@pytest.mark.parametrize("directory", ["src", "tests"])
def test_no_retired_rollout_name_remains(directory):
    files = list(text_files(ROOT / directory, skip=__file__))
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
    assert matching(scope, CONSTANT_NOT_OPTION) == []


def test_the_action_grid_has_no_delay_cap():
    # max_delay is also a metric name elsewhere: scoped to the grid.
    assert matching("src/repro/core/actions.py", re.compile("max_delay")) == []


def test_the_element_tracer_stays_gone():
    assert not (ROOT / "src/repro/sim/trace.py").exists()


@pytest.mark.parametrize("scope", ["src", "examples"])
def test_what_no_caller_reads_stays_unrecorded(scope):
    assert matching(scope, NOT_RECORDED) == []


def test_the_engine_registry_stays_gone():
    assert not (ROOT / "src/repro/api/backends.py").exists()


@pytest.mark.parametrize(
    "pattern, scope, lines, why",
    [
        pytest.param(pattern, scope, lines, why, id=f"{name}:{scope}")
        for name, pattern, scopes, lines, why in TEXT_RULES
        for scope in scopes
    ],
)
def test_a_text_rule_holds(pattern, scope, lines, why):
    found = matching(scope, re.compile(pattern))
    assert len(found) == lines, (why, found)
