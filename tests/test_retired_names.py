"""Names of retired code stay out of the tree.

Every function, method and class under ``src/repro`` is named by code the
program runs: ``src``, ``examples`` or ``benchmarks``.  A definition only
tests reach is deleted, and ``RUN_FROM_OUTSIDE`` lists, with a reason, the
few the scan cannot see called.  Likewise every parameter with a default is
passed by some call that code makes: a parameter only tests set is a
constant or the only code path, and ``SET_FROM_OUTSIDE`` lists, with a
reason, the few that are set from outside.

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

#: The element tracer, the per-event logs (an ISender's send and ack records
#: included) and the belief row's cross tally.
NOT_RECORDED = re.compile(
    r"TraceRecorder|TraceRecord|trace_kinds|\b_trace\b|\.trace\(|cwnd_trace"
    r"|occupancy_trace|sent_packets|DecisionRecord|\.decisions\b"
    r"|CROSS_TALLY_WINDOW|def trim|SentRecord|\.acks\b"
)


#: ``(name, pattern, scopes, lines, why)``: under each scope, exactly
#: ``lines`` text lines match ``pattern``.
TEXT_RULES = [
    (
        "derived-queued-sizes",
        r'(?<!")q_size|q_size(?!")',
        ("src",),
        0,
        "a queued packet's size follows from its flow, sequence number and row"
        " (EnsembleState.queued_sizes): no size plane is stored, and lane_arrays'"
        ' "q_size" key is the one spelling',
    ),
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
        "set-by-no-program",
        r"\b(survival_tagging|ack_delay|initially_connected|filler_flow|include_gate_uncertainty"
        r"|send_packet|hard_cutoff_sigmas|action_grid|fsync_every|breaker_threshold"
        r"|breaker_cooldown|failure_threshold|max_attempts|initial_cwnd|min_rto|total_packets"
        r"|stop_time|prior_points|tcp_factory|cache_counters|collision_config"
        r"|collision_resolution_bits|require_terminated|x_label)\b",
        ("src", "examples", "README.md"),
        0,
        "a parameter no program set is a constant or the only code path, not an option",
    ),
    (
        "reply-counters",
        r"counters_snapshot\(",
        ("src/repro/serving/server.py",),
        1,
        "a /decide reply is its answer: the counters are read at GET /metrics alone",
    ),
    (
        "pair-tables",
        r"parent median|pairs won|pairs, \d+/\d+",
        ("README.md", ".claude"),
        0,
        "the docs describe the system as it is: paired parent/change readings are"
        " history, and CHANGES.md keeps them",
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


#: Parameters with a default no call in the program passes that still take
#: other values, by qualified name: the reason each is kept.
SET_FROM_OUTSIDE = {
    "repro.runner.backends.run_specs.cache_dir": "a deployment setting: where a"
    " library caller keeps its results",
    "repro.cellular.link.CellularLink._begin_service.attempt": "Simulator.schedule"
    " re-arms the callback with its arguments",
    "repro.baselines.rate_sender.FixedRateSender.__init__.packet_bits": "a probe source's"
    " packet size beside its rate, refused unless positive and finite; the calls through"
    " MANY_FLOW_SENDER_KINDS set it on the window senders only",
    **{
        f"repro.inference.prior.figure3_prior.{axis}_{end}": "ROADMAP directions 13 and 17"
        " set the grid bounds: an off-grid point and a one-point prior at the truth"
        for axis in ("link_rate", "cross_fraction", "loss", "buffer")
        for end in ("low", "high")
    },
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


def base_names(node: ast.ClassDef) -> tuple[str, ...]:
    return tuple(ast.unparse(base).split(".")[-1] for base in node.bases)


def calls_in(tree: ast.AST):
    """``(names, call)`` for every call: the names of the definitions it
    reaches, which are a function's name or a class's name for its
    ``__init__`` (``super().__init__`` reaches the bases, ``cls(...)`` in a
    classmethod its own class, a module-level alias its target, and a
    subscript of a module-level dict literal of names every value)."""
    assignments = [
        (statement.targets[0].id, statement.value)
        for statement in getattr(tree, "body", ())
        if isinstance(statement, ast.Assign) and isinstance(statement.targets[0], ast.Name)
    ]
    aliases = {name: value.attr for name, value in assignments if isinstance(value, ast.Attribute)}
    tables = {
        name: tuple(entry.id for entry in value.values)
        for name, value in assignments
        if isinstance(value, ast.Dict)
        and value.values
        and all(isinstance(entry, ast.Name) for entry in value.values)
    }

    def visit(node, bases, own_class, in_classmethod):
        for child in ast.iter_child_nodes(node):
            inner = bases, own_class, in_classmethod
            if isinstance(child, ast.ClassDef):
                inner = base_names(child), child.name, False
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorators = {getattr(decorator, "id", None) for decorator in child.decorator_list}
                inner = bases, own_class, "classmethod" in decorators
            if isinstance(child, ast.Call):
                func, names = child.func, ()
                if isinstance(func, ast.Name):
                    cls_call = func.id == "cls" and in_classmethod
                    names = (own_class,) if cls_call else (aliases.get(func.id, func.id),)
                elif isinstance(func, ast.Attribute):
                    receiver = func.value
                    if (
                        func.attr == "__init__"
                        and isinstance(receiver, ast.Call)
                        and getattr(receiver.func, "id", None) == "super"
                    ):
                        names = bases
                    else:
                        names = (aliases.get(func.attr, func.attr),)
                elif isinstance(func, ast.Subscript) and isinstance(func.value, ast.Name):
                    names = tables.get(func.value.id, ())
                yield names, child
            yield from visit(child, *inner)

    yield from visit(tree, (), None, False)


def parameters_to_set(tree: ast.AST, prefix: str, owner: str | None = None):
    """``(qualified name, key, position)`` for every parameter with a
    default that a caller passes; ``key`` is the name calls reach its
    definition by and ``position`` counts the arguments before it (no
    ``self``/``cls``), None for a keyword-only one."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from parameters_to_set(node, f"{prefix}.{node.name}", node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}.{node.name}"
            dunder = node.name.startswith("__") and node.name.endswith("__")
            called_outside = dunder and node.name != "__init__"
            if not (registered(node) or node.name == "main" or called_outside):
                key = owner if node.name == "__init__" else node.name
                static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                arguments = node.args
                positional = arguments.posonlyargs + arguments.args
                skip = 1 if owner is not None and not static and positional else 0
                first_default = len(positional) - len(arguments.defaults)
                for index, argument in enumerate(positional[first_default:], first_default):
                    yield f"{qualname}.{argument.arg}", key, index - skip
                for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
                    if default is not None:
                        yield f"{qualname}.{argument.arg}", key, None
            yield from parameters_to_set(node, qualname)
        else:
            yield from parameters_to_set(node, prefix, owner)


#: Callees a call's keywords reach no scanned parameter through:
#: ``dataclasses.replace`` sets dataclass fields, and ``ScenarioEntry.fn``
#: runs a ``@scenario`` function, both out of the rule's scope.
SETS_NO_PARAMETER = {"replace", "fn"}


def parameter_findings(defining, calling, allowed):
    """``(unset, gone, set_anyway)`` for the parameters ``defining`` holds.

    ``defining`` is ``(module, tree)`` pairs, ``calling`` the trees whose
    calls count.  ``unset`` is every parameter with a default no call sets
    and ``allowed`` does not list; ``gone`` the rows of ``allowed`` that name
    no such parameter; ``set_anyway`` the rows a call sets after all.
    """
    candidates, names, classes = [], set(), {}
    for module, tree in defining:
        candidates.extend(parameters_to_set(tree, module))
        for _, node in definitions(tree, module):
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                own_init = any(getattr(child, "name", None) == "__init__" for child in node.body)
                classes[node.name] = (base_names(node), own_init)

    def init_owner(name: str) -> str:
        """The class whose ``__init__`` a call of ``name`` runs."""
        while name in classes and not classes[name][1]:
            bases = [base for base in classes[name][0] if base in classes]
            if not bases:
                break
            name = bases[0]
        return name

    keywords, positions, unpacked, anywhere = {}, Counter(), set(), set()
    for tree in calling:
        for targets, call in calls_in(tree):
            if SETS_NO_PARAMETER.intersection(targets):
                continue
            named = {keyword.arg for keyword in call.keywords if keyword.arg}
            keys = {init_owner(target) for target in targets if target in names}
            if not keys:
                anywhere |= named
            for key in keys:
                keywords.setdefault(key, set()).update(named)
                positions[key] = max(positions[key], len(call.args))
                if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
                    keyword.arg is None for keyword in call.keywords
                ):
                    unpacked.add(key)
    unset, set_by_program = [], set()
    for qualname, key, position in candidates:
        name = qualname.rsplit(".", 1)[1]
        if (
            name in keywords.get(key, ())
            or name in anywhere
            or key in unpacked
            or (position is not None and position < positions[key])
        ):
            set_by_program.add(qualname)
        elif qualname not in allowed:
            unset.append(qualname)
    gone = sorted(set(allowed) - {qualname for qualname, _, _ in candidates})
    return unset, gone, sorted(set(allowed) & set_by_program)


def test_every_parameter_is_set_by_the_program():
    """Every parameter with a default is passed by a call the program makes.

    A call sets a parameter by keyword, by position, or by ``*args`` /
    ``**kwargs``, where it names the definition: a function by its name, an
    ``__init__`` by the name of its class or of a subclass that inherits it,
    by ``super().__init__`` or by ``cls(...)``, each also through a
    module-level alias.  A call whose callee names no definition
    (``RUNNERS[backend](...)``, a builtin) sets its keywords on every one.
    ``@scenario`` parameters are the CLI's ``--set`` surface, dunders other
    than ``__init__`` and ``main(argv)`` are called from outside, and
    dataclass fields are no parameters: they are read, not passed.
    """
    defining = [
        (".".join(path.relative_to(ROOT / "src").with_suffix("").parts), tree)
        for path, tree in python_trees("src/repro")
    ]
    defining = [(module.removesuffix(".__init__"), tree) for module, tree in defining]
    calling = [
        tree for scope in ("src", "examples", "benchmarks") for _, tree in python_trees(scope)
    ]
    unset, gone, set_anyway = parameter_findings(defining, calling, SET_FROM_OUTSIDE)
    assert unset == []
    assert gone == [], "an allowlisted parameter is gone: drop its row"
    assert set_anyway == [], "the program sets it: drop its row"


#: ``(definitions in module "pkg", calls elsewhere, what the rule flags)``.
PARAMETER_RULE_CASES = [
    pytest.param(definition, calls, flagged, id=name)
    for name, definition, calls, flagged in [
        ("no-call-passes-it", "def f(x=1): pass", "f()", ["pkg.f.x"]),
        ("by-keyword", "def f(x=1): pass", "f(x=2)", []),
        ("by-position", "def f(x=1): pass", "f(2)", []),
        ("a-shorter-call-leaves-it", "def f(a, x=1): pass", "f(1)", ["pkg.f.x"]),
        ("by-star-args", "def f(x=1): pass", "f(*values)", []),
        ("by-star-kwargs", "def f(x=1): pass", "f(**values)", []),
        ("keyword-only-not-by-position", "def f(*, x=1): pass", "f(2)", ["pkg.f.x"]),
        (
            "a-call-of-another-definition",
            "def f(x=1): pass\ndef g(x=1): pass",
            "g(x=2)",
            ["pkg.f.x"],
        ),
        ("an-unknown-callee-sets-its-keywords-everywhere", "def f(x=1): pass", "table[k](x=2)", []),
        (
            "init-through-a-module-level-table-of-classes",
            "class A:\n def __init__(self, x=1, y=1): pass\nclass B(A): pass\n"
            "def f(x=1): pass",
            "KINDS = {'a': A, 'b': B}\nKINDS[k](x=2)",
            ["pkg.A.__init__.y", "pkg.f.x"],
        ),
        (
            "a-dataclass-replace-sets-no-parameter",
            "def f(x=1): pass",
            "replace(c, x=2)",
            ["pkg.f.x"],
        ),
        (
            "a-scenario-entry-call-reaches-only-scenarios",
            "def f(x=1): pass",
            "entry.fn(x=2, **settings)",
            ["pkg.f.x"],
        ),
        ("init-by-class-name-without-self", "class C:\n def __init__(self, x=1): pass", "C(2)", []),
        ("method-by-attribute-without-self", "class C:\n def m(self, x=1): pass", "c.m(2)", []),
        (
            "init-by-a-subclass-that-inherits-it",
            "class B:\n def __init__(self, x=1): pass\nclass C(B): pass",
            "C(2)",
            [],
        ),
        (
            "init-by-super",
            "class B:\n def __init__(self, x=1): pass\n"
            "class C(B):\n def __init__(self):\n  super().__init__(2)",
            "C()",
            [],
        ),
        (
            "init-by-cls-in-a-classmethod",
            "class C:\n def __init__(self, x=1): pass\n"
            " @classmethod\n def make(cls):\n  return cls(2)",
            "C.make()",
            [],
        ),
        (
            "through-a-module-level-alias",
            "class R:\n def register(self, x=1): pass",
            "add = REGISTRY.register\nadd(2)",
            [],
        ),
        ("a-scenario-parameter-is-out-of-scope", "@scenario()\ndef s(x=1): pass", "s()", []),
        ("main-argv-is-out-of-scope", "def main(argv=None): pass", "main()", []),
        ("a-dunder-is-out-of-scope", "class C:\n def __call__(self, x=1): pass", "C()(1)", []),
        ("a-dataclass-field-is-no-parameter", "@dataclass\nclass C:\n x: int = 1", "C()", []),
    ]
]


@pytest.mark.parametrize("definition, calls, flagged", PARAMETER_RULE_CASES)
def test_the_parameter_rule_resolves_calls(definition, calls, flagged):
    """The rule flags a parameter no call sets, and only that, on each way a call reaches it."""
    source = ast.parse(definition)
    unset, gone, set_anyway = parameter_findings(
        [("pkg", source)], [source, ast.parse(calls)], {}
    )
    assert (unset, gone, set_anyway) == (flagged, [], [])


@pytest.mark.parametrize(
    "calls, allowed, findings",
    [
        pytest.param("f()", {"pkg.f.x": "why"}, ([], [], []), id="a-row-excuses-its-parameter"),
        pytest.param(
            "f()", {"pkg.f.y": "why"}, (["pkg.f.x"], ["pkg.f.y"], []),
            id="a-row-whose-parameter-is-gone",
        ),
        pytest.param(
            "f(x=2)", {"pkg.f.x": "why"}, ([], [], ["pkg.f.x"]), id="a-row-the-program-sets"
        ),
    ],
)
def test_the_parameter_rule_reads_its_allowlist(calls, allowed, findings):
    source = ast.parse("def f(x=1): pass")
    assert parameter_findings([("pkg", source)], [source, ast.parse(calls)], allowed) == findings


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
