"""Outside-in tracing for the end-to-end benchmark.

Nothing under ``src/`` knows about this module.  :func:`install` swaps the
public callables of each layer for wrappers that record a span — name,
start, end, parent span, operation id — into an in-memory
:class:`Tracer`; :func:`restore` puts the originals back.  A layer's self
time is its spans' duration minus the part their child spans cover, so the
per-layer table sums to the traced wall time.

Layer of a span = the part of its name before the dot (``sim``,
``inference``, ``core``, ``api``, ``runner``, ``scenario``, ``serving``;
``bench`` is the harness's own root span).
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

from e2e_stats import percentile

#: Attribute every wrapper carries; the untraced run asserts its absence.
WRAPPED_MARK = "__e2e_original__"

#: Span record layout (a list, mutated once at ``end``).
SPAN_ID, SPAN_NAME, SPAN_PARENT, SPAN_OP, SPAN_START, SPAN_END = range(6)


class Tracer:
    """In-memory span recorder shared by every wrapper.

    Parenting: a span's parent is the innermost span open *on the same
    thread*.  A thread with no open span of its own (the server's executor
    thread running ``DecisionService.decide``, the daemon thread planning
    live) parents under :attr:`handoff` — the most recent still-open span
    that was begun with ``handoff=True``.  That is unambiguous because the
    benchmark drives one closed-loop client: one request is in flight at a
    time.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: Operation id stamped on new spans (point or request index).
        self.op = -1
        self.handoff: Optional[int] = None
        self.counts: dict[str, float] = {}
        self.gauges: dict[str, dict[Any, float]] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def begin(self, name: str, handoff: bool = False) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else self.handoff
        stack.append(span_id)
        record = [span_id, name, parent, self.op, 0.0, 0.0]
        if handoff:
            with self._lock:
                record.append(self.handoff)
                self.handoff = span_id
        record[SPAN_START] = time.perf_counter()
        return record

    def end(self, record: list) -> None:
        record[SPAN_END] = time.perf_counter()
        self._local.stack.pop()
        if len(record) > SPAN_END + 1:
            with self._lock:
                self.handoff = record.pop()
        self.spans.append(record)  # list.append is atomic under the GIL

    def add(self, counter: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[counter] = self.counts.get(counter, 0) + amount

    def put(self, counter: str, key: Any, value: float) -> None:
        """Last-writer-wins gauge per ``key``; :func:`layer_metrics` sums them."""
        with self._lock:
            self.gauges.setdefault(counter, {})[key] = value

    def dump(self, path: Path) -> Path:
        """Write every span as ``[id, name, parent, op, start, end]`` rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "columns": ["id", "name", "parent", "op", "start_s", "end_s"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
        return path


# ------------------------------------------------------------ span arithmetic


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """Per span id: duration minus the part covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[SPAN_PARENT] is not None:
            children.setdefault(span[SPAN_PARENT], []).append(
                (span[SPAN_START], span[SPAN_END])
            )
    return {
        span[SPAN_ID]: (span[SPAN_END] - span[SPAN_START])
        - covered(span[SPAN_START], span[SPAN_END], children.get(span[SPAN_ID], ()))
        for span in spans
    }


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_self_times(spans: list[list]) -> dict[str, float]:
    """Self time summed per layer (``bench`` = harness time inside a pass)."""
    totals: dict[str, float] = {}
    own = self_times(spans)
    for span in spans:
        layer = layer_of(span[SPAN_NAME])
        totals[layer] = totals.get(layer, 0.0) + own[span[SPAN_ID]]
    return totals


# ------------------------------------------------------------ per-layer table

#: Every per-layer metric the benchmark reports: name → (unit, better).
#: A workload that does not cross a layer reports that layer's metrics as 0.
#: Counts of work done are "lower is better" (the same result from less
#: work), except the input sizes and the useful-outcome counts.
PER_LAYER = {
    "sim.events": ("count", "lower"),
    "sim.run_s": ("s", "lower"),
    "sim.self_s": ("s", "lower"),
    "sim.us_per_event": ("us", "lower"),
    "sim.events_per_s": ("1/s", "higher"),
    "inference.updates": ("count", "lower"),
    "inference.update_s": ("s", "lower"),
    "inference.us_per_update": ("us", "lower"),
    "inference.hypotheses_final": ("count", "lower"),
    "inference.degenerate_updates": ("count", "lower"),
    "core.plans": ("count", "lower"),
    "core.plan_s": ("s", "lower"),
    "core.us_per_plan": ("us", "lower"),
    "core.utility_calls": ("count", "lower"),
    "core.utility_s": ("s", "lower"),
    "core.policy_lookups": ("count", "lower"),
    "core.policy_s": ("s", "lower"),
    "core.policy_hit_ratio": ("ratio", "higher"),
    "api.builds": ("count", "lower"),
    "api.build_s": ("s", "lower"),
    "api.table_lookups": ("count", "lower"),
    "api.table_lookup_s": ("s", "lower"),
    "runner.points": ("count", "higher"),
    "runner.execute_s": ("s", "lower"),
    "runner.overhead_s": ("s", "lower"),
    "runner.key_s": ("s", "lower"),
    "runner.cache_loads": ("count", "lower"),
    "runner.cache_load_s": ("s", "lower"),
    "runner.cache_stores": ("count", "lower"),
    "runner.cache_store_s": ("s", "lower"),
    "runner.cache_hit_ratio": ("ratio", "higher"),
    "serving.requests": ("count", "higher"),
    "serving.decide_s": ("s", "lower"),
    "serving.us_per_decide": ("us", "lower"),
    "serving.registry_lookup_s": ("s", "lower"),
    "serving.reconstruct_s": ("s", "lower"),
    "serving.plan_s": ("s", "lower"),
    "serving.http_json_us": ("us", "lower"),
    "serving.decide_p99_us": ("us", "lower"),
    "serving.tier_table": ("count", "higher"),
    "serving.tier_planner": ("count", "lower"),
    "serving.tier_default": ("count", "lower"),
    "serving.shed": ("count", "lower"),
    "serving.errors": ("count", "lower"),
    "scenario.other_s": ("s", "lower"),
    "bench.passes": ("count", "higher"),
    "bench.pass_spread_frac": ("ratio", "lower"),
    "bench.trace_overhead_frac": ("ratio", "lower"),
    "bench.layer_coverage_frac": ("ratio", "higher"),
}


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """The ``<layer>.<name>`` metrics one traced pass of ``wall`` seconds supports.

    ``wall`` is the time the pass spent in the program (the harness's
    host-pace sampling between stretches is not part of it).  The
    ``serving.tier_*``/``shed``/``errors`` counts and the ``bench.*``
    entries other than coverage come from the workload, not from spans.
    """
    spans = tracer.spans
    own = self_times(spans)
    by_id = {span[SPAN_ID]: span for span in spans}
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    for span in spans:
        name = span[SPAN_NAME]
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + span[SPAN_END] - span[SPAN_START]
        self_total[name] = self_total.get(name, 0.0) + own[span[SPAN_ID]]

    def n(name: str) -> int:
        return count.get(name, 0)

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def per(amount: float, units: float, scale: float = 1.0) -> float:
        return amount / units * scale if units else 0.0

    def parent_name(span: list) -> str:
        parent = by_id.get(span[SPAN_PARENT])
        return parent[SPAN_NAME] if parent is not None else ""

    def under(span: list, ancestor: str) -> bool:
        while span is not None:
            if span[SPAN_NAME] == ancestor:
                return True
            span = by_id.get(span[SPAN_PARENT])
        return False

    gauges = {name: sum(values.values()) for name, values in tracer.gauges.items()}
    events = tracer.counts.get("sim.events", 0)
    plans = n("core.plan")
    cached_plans = sum(
        1
        for span in spans
        if span[SPAN_NAME] == "core.plan" and parent_name(span) == "core.policy"
    )
    nested_builds = sum(
        span[SPAN_END] - span[SPAN_START]
        for span in spans
        if span[SPAN_NAME] == "api.build_components"
        and parent_name(span) == "api.build_sender"
    )
    requests = n("serving.request")
    round_trips = [
        span[SPAN_END] - span[SPAN_START]
        for span in spans
        if span[SPAN_NAME] == "serving.request"
    ]
    layer_self = sum(
        own[span[SPAN_ID]] for span in spans if layer_of(span[SPAN_NAME]) != "bench"
    )
    return {
        "sim.events": events,
        "sim.run_s": t("sim.run"),
        "sim.self_s": self_total.get("sim.run", 0.0),
        "sim.us_per_event": per(self_total.get("sim.run", 0.0), events, 1e6),
        "sim.events_per_s": per(events, t("sim.run")),
        "inference.updates": n("inference.update"),
        "inference.update_s": t("inference.update"),
        "inference.us_per_update": per(t("inference.update"), n("inference.update"), 1e6),
        "inference.hypotheses_final": gauges.get("inference.hypotheses_final", 0),
        "inference.degenerate_updates": gauges.get("inference.degenerate_updates", 0),
        "core.plans": plans,
        "core.plan_s": t("core.plan"),
        "core.us_per_plan": per(t("core.plan"), plans, 1e6),
        "core.utility_calls": n("core.utility"),
        "core.utility_s": t("core.utility"),
        "core.policy_lookups": n("core.policy"),
        "core.policy_s": self_total.get("core.policy", 0.0),
        "core.policy_hit_ratio": (
            1.0 - cached_plans / n("core.policy") if n("core.policy") else 0.0
        ),
        "api.builds": n("api.build_components"),
        "api.build_s": t("api.build_sender") + t("api.build_components") - nested_builds,
        "api.table_lookups": n("api.table_lookup"),
        "api.table_lookup_s": t("api.table_lookup"),
        "runner.points": tracer.counts.get("runner.points", 0),
        "runner.execute_s": t("scenario.point"),
        "runner.overhead_s": t("runner.run") - t("scenario.point"),
        "runner.key_s": t("runner.key"),
        "runner.cache_loads": n("runner.cache_load"),
        "runner.cache_load_s": t("runner.cache_load"),
        "runner.cache_stores": n("runner.cache_store"),
        "runner.cache_store_s": t("runner.cache_store"),
        "runner.cache_hit_ratio": per(
            tracer.counts.get("runner.cache_hits", 0), n("runner.cache_load")
        ),
        "serving.requests": requests,
        "serving.decide_s": t("serving.decide"),
        "serving.us_per_decide": per(t("serving.decide"), n("serving.decide"), 1e6),
        "serving.registry_lookup_s": t("serving.registry_lookup"),
        "serving.reconstruct_s": t("serving.reconstruct"),
        "serving.plan_s": sum(
            span[SPAN_END] - span[SPAN_START]
            for span in spans
            if span[SPAN_NAME] == "core.plan" and under(span, "serving.decide")
        ),
        "serving.http_json_us": per(
            t("serving.request") - t("serving.decide"), requests, 1e6
        ),
        "serving.decide_p99_us": (
            percentile(round_trips, 99.0) * 1e6 if round_trips else 0.0
        ),
        "scenario.other_s": self_total.get("scenario.point", 0.0),
        "bench.layer_coverage_frac": per(layer_self, wall),
    }


# ------------------------------------------------------------------ wrapping


def _wrap(
    tracer: Tracer,
    name: str,
    original: Callable,
    *,
    handoff: bool = False,
    after: Optional[Callable[[Tracer, tuple, Any], None]] = None,
) -> Callable:
    def wrapper(*args, **kwargs):
        record = tracer.begin(name, handoff)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(record)
        if after is not None:
            after(tracer, args, result)
        return result

    setattr(wrapper, WRAPPED_MARK, original)
    wrapper.__name__ = getattr(original, "__name__", name)
    return wrapper


def _after_sim_run(tracer: Tracer, args: tuple, fired: int) -> None:
    tracer.add("sim.events", fired)


def _after_update(tracer: Tracer, args: tuple, _result: Any) -> None:
    belief = args[0]
    # Keyed by (operation, object): beliefs of one point are alive together,
    # so ids cannot collide within it.
    key = (tracer.op, id(belief))
    tracer.put("inference.hypotheses_final", key, len(belief))
    tracer.put("inference.degenerate_updates", key, belief.degenerate_updates)


def _after_runner_run(tracer: Tracer, args: tuple, store: Any) -> None:
    tracer.add("runner.points", len(store))


def _after_cache_load(tracer: Tracer, args: tuple, cached: Any) -> None:
    if cached is not None:
        tracer.add("runner.cache_hits")


def _method_targets() -> list[tuple[type, str, str, dict]]:
    """``(class, attribute, span name, wrapper options)`` for every layer.

    Imported here, not at module import, so the self-test can exercise the
    span arithmetic without ``repro`` on the path.
    """
    from repro.api.policy import PolicyTable
    from repro.core.planner import ExpectedUtilityPlanner
    from repro.core.policy import PolicyCache
    from repro.core.utility import AlphaWeightedUtility
    from repro.inference.belief import BeliefState
    from repro.inference.vectorized.belief import VectorizedBeliefState
    from repro.runner.backends import RunnerBase
    from repro.runner.cache import ResultCache
    from repro.runner.registry import ScenarioRegistry
    from repro.serving.fallback import DecisionService
    from repro.serving.registry import PolicyTableRegistry
    from repro.sim.engine import Simulator

    return [
        (Simulator, "run", "sim.run", {"after": _after_sim_run}),
        # The fused belief inherits VectorizedBeliefState.update; neither
        # array class calls up into the scalar one, so spans never nest.
        (BeliefState, "update", "inference.update", {"after": _after_update}),
        (VectorizedBeliefState, "update", "inference.update", {"after": _after_update}),
        (ExpectedUtilityPlanner, "decide", "core.plan", {}),
        (AlphaWeightedUtility, "evaluate", "core.utility", {}),
        (AlphaWeightedUtility, "evaluate_batch", "core.utility", {}),
        (PolicyCache, "decide", "core.policy", {}),
        (PolicyTable, "decision_for", "api.table_lookup", {}),
        # SerialRunner inherits run() from RunnerBase.
        (RunnerBase, "run", "runner.run", {"after": _after_runner_run}),
        (ResultCache, "point_key", "runner.key", {}),
        (ResultCache, "load_point", "runner.cache_load", {"after": _after_cache_load}),
        (ResultCache, "store_point", "runner.cache_store", {}),
        (ScenarioRegistry, "run_point", "scenario.point", {}),
        (PolicyTableRegistry, "lookup", "serving.registry_lookup", {}),
        (DecisionService, "decide", "serving.decide", {"handoff": True}),
    ]


def _function_targets() -> list[tuple[Callable, str]]:
    from repro.api.sender import build_components, build_sender
    from repro.serving.fallback import belief_from_signature

    return [
        (build_sender, "api.build_sender"),
        (build_components, "api.build_components"),
        (belief_from_signature, "serving.reconstruct"),
    ]


#: What :func:`install` replaced: ``(owner, attribute, original)``.
_installed: list[tuple[Any, str, Any]] = []

#: The method targets as first seen in this process, before any wrapping.
_pristine: dict[tuple[type, str], Any] = {}


def _remember_pristine() -> None:
    if not _pristine:
        for owner, attribute, _name, _options in _method_targets():
            _pristine[(owner, attribute)] = owner.__dict__[attribute]


def install(tracer: Tracer) -> None:
    """Replace every target with a span-recording wrapper.

    Methods are swapped on the class that defines them.  Module-level
    functions are swapped in every loaded ``repro`` module that holds a
    reference (``from x import f`` binds a second name), so call sites
    imported before tracing started are traced too.
    """
    if _installed:
        raise RuntimeError("tracing wrappers are already installed")
    _remember_pristine()
    for owner, attribute, name, options in _method_targets():
        original = owner.__dict__[attribute]
        _installed.append((owner, attribute, original))
        setattr(owner, attribute, _wrap(tracer, name, original, **options))
    for original, name in _function_targets():
        wrapper = _wrap(tracer, name, original)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    _installed.append((module, attribute, original))
                    setattr(module, attribute, wrapper)


def restore() -> None:
    """Put every original back (safe to call when nothing is installed)."""
    while _installed:
        owner, attribute, original = _installed.pop()
        setattr(owner, attribute, original)


def assert_untraced() -> None:
    """Raise unless every traced callable is the pristine, unwrapped one.

    The untraced run calls this before and after measuring, so a wrapper
    can never sit inside an end-to-end number.
    """
    if _installed:
        raise RuntimeError("tracing wrappers are installed during an untraced run")
    _remember_pristine()
    for (owner, attribute), original in _pristine.items():
        current = owner.__dict__[attribute]
        if current is not original or hasattr(current, WRAPPED_MARK):
            raise RuntimeError(f"{owner.__name__}.{attribute} is wrapped")
    for function, name in _function_targets():
        if hasattr(function, WRAPPED_MARK):
            raise RuntimeError(f"{name} is wrapped")
