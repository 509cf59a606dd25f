"""Names of retired code stay out of the tree.

Every function, method and class under ``src/repro`` is named by code the
program runs: ``src``, ``examples`` or ``benchmarks``.  A definition only
tests reach is deleted, and ``RUN_FROM_OUTSIDE`` lists, with a reason, the
few the scan cannot see called.

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

import ast
import re
from collections import Counter

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
        "per-packet-logs",
        r"\brtt_samples\b|\bRttSample\b|\bdropped_packets\b|(?<!cross)\.deliveries\b"
        r"|list\[Delivery\]|tally\.arrivals",
        ("src", "examples"),
        0,
        "a long run keeps per-packet history in columns: RTT samples and deliveries are"
        " arrays, a buffer counts its drops per flow, a collector keeps no arrival log,"
        " and no list of objects comes back",
    ),
    (
        "stream-transport",
        "start_server|open_connection|StreamReader",
        ("src/repro/serving/server.py",),
        0,
        "one transport: no stream path beside the protocols",
    ),
    (
        "reply-counters",
        r"counters_snapshot\(",
        ("src/repro/serving/server.py",),
        1,
        "a /decide reply is its answer: the counters are read at GET /metrics alone",
    ),
]


#: Definitions no code names that still run, by qualified name: the reason each is kept.
RUN_FROM_OUTSIDE = {
    **{
        f"repro.serving.server.{name}": "asyncio calls it on the protocol"
        for name in (
            "_Connection.get_buffer",
            "_Connection.buffer_updated",
            "_ServerConnection.connection_made",
            "_ServerConnection.connection_lost",
            "_ServerConnection.eof_received",
            "_ServerConnection.pause_writing",
            "_ServerConnection.resume_writing",
            "_ClientConnection.eof_received",
            "_ClientConnection.connection_lost",
        )
    },
    "repro.elements.either.Either": "one of the paper's §3.1 elements, built by no preset yet",
    "repro.inference.belief.BeliefState.entropy": "ROADMAP 4(a)'s wake-up record reads it",
}


def python_trees(scope: str) -> list[tuple]:
    trees = [
        (path, ast.parse(text))
        for path, text in text_files(ROOT / scope, skip=__file__)
        if path.suffix == ".py"
    ]
    assert trees, scope
    return trees


#: Calls that only add to their receiver: ``x.log.append(...)`` as a statement writes ``log``.
MUTATORS = {"append", "extend", "add", "update", "insert"}


def names_in(tree: ast.AST, reads_only: bool = False) -> Counter:
    """Names, attributes and identifier strings (``getattr``), not docstrings or ``__all__``.

    ``reads_only`` counts what reads a field: attributes loaded and
    identifier strings, not bare names (a field's own declaration is one),
    an attribute assigned, nor one only added to (the receiver of a
    :data:`MUTATORS` call statement).
    """
    ignored, written = set(), set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr in MUTATORS
        ):
            written.add(id(node.value.func.value))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                ignored.add(id(node.body[0].value))
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            ignored.update(id(child) for child in ast.walk(node.value))
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not reads_only:
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            if not (reads_only and (isinstance(node.ctx, ast.Store) or id(node) in written)):
                names[node.attr] += 1
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in ignored
        ):
            names[node.value] += 1
    return names


def definitions(tree: ast.AST, prefix: str):
    """``(qualified name, node)`` for every function, method and class, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{prefix}.{node.name}", node
            yield from definitions(node, f"{prefix}.{node.name}")
        else:
            yield from definitions(node, prefix)


def dataclass_fields(node: ast.AST):
    """The field names a ``@dataclass`` class declares (``ClassVar`` ones are no fields)."""
    if not isinstance(node, ast.ClassDef) or not any(
        "dataclass" in (getattr(target, "id", None), getattr(target, "attr", None))
        for target in (getattr(decorator, "func", decorator) for decorator in node.decorator_list)
    ):
        return
    for statement in node.body:
        if (
            isinstance(statement, ast.AnnAssign)
            and isinstance(statement.target, ast.Name)
            and "ClassVar" not in ast.unparse(statement.annotation)
        ):
            yield statement.target.id


def registered(node: ast.AST) -> bool:
    """A scenario is run by the name its decorator registers."""
    return any(
        isinstance(decorator, ast.Call) and getattr(decorator.func, "id", None) == "scenario"
        for decorator in node.decorator_list
    )


def test_every_definition_is_run_by_the_program():
    """Every function, method and class is named, and every dataclass field
    read, by code the program runs.

    A field counts as read where its name appears as an attribute or an
    identifier string anywhere in that code, whichever class the attribute
    belongs to: a field that shares its name with another class's read
    field (``config``, ``wall_time``) still escapes the scan.
    """
    named, read = Counter(), Counter()
    for scope in ("src", "examples", "benchmarks"):
        for _, tree in python_trees(scope):
            named.update(names_in(tree))
            read.update(names_in(tree, reads_only=True))
    unnamed, unread, defined = [], [], set()
    for path, tree in python_trees("src/repro"):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        for qualname, node in definitions(tree, module.removesuffix(".__init__")):
            defined.add(qualname)
            unread.extend(f"{qualname}.{name}" for name in dataclass_fields(node) if not read[name])
            if (node.name.startswith("__") and node.name.endswith("__")) or registered(node):
                continue
            # A name inside its own definition (recursion, a timer re-arming itself) is no caller.
            if named[node.name] == names_in(node)[node.name] and qualname not in RUN_FROM_OUTSIDE:
                unnamed.append(qualname)
    assert unnamed == []
    assert unread == []
    assert set(RUN_FROM_OUTSIDE) <= defined, "an allowlisted definition is gone: drop its row"


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
