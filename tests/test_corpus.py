"""Tests for the trace-corpus subsystem: parsing, store, generators, CLI."""

from __future__ import annotations

import dataclasses
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus import (
    GENERATOR_FAMILIES,
    CorpusStore,
    LinkTrace,
    build_generator,
    load_trace_path,
    parse_mahimahi_text,
    parse_samples_text,
    trace_digest,
)
from repro.corpus.__main__ import main as corpus_main
from repro.corpus.ingest import DEFAULT_BIN_MS, MAX_MAHIMAHI_BINS
from repro.corpus.trace import MIN_SERVICE_RATE_BPS
from repro.errors import ConfigurationError

FIXTURE = Path(__file__).parent / "data" / "mahimahi_small.trace"


class TestLinkTrace:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LinkTrace(times=[], rates=[])
        with pytest.raises(ConfigurationError):
            LinkTrace(times=[0.0, 1.0], rates=[1e6])
        with pytest.raises(ConfigurationError):
            LinkTrace(times=[-1.0], rates=[1e6])
        with pytest.raises(ConfigurationError):
            LinkTrace(times=[0.0, 1.0, 1.0], rates=[1e6, 1e6, 1e6])
        with pytest.raises(ConfigurationError):
            LinkTrace(times=[0.0, 1.0], rates=[1e6, 0.0])
        with pytest.raises(ConfigurationError):
            LinkTrace(times=[0.0, 5.0], rates=[1e6, 1e6], duration=5.0)

    def test_rate_process_compatible_surface(self):
        trace = LinkTrace(times=[0.0, 2.0, 4.0], rates=[1e6, 3e6, 2e6], duration=6.0)
        assert next(trace.segments_from(-1.0))[0] == 1e6
        assert next(trace.segments_from(0.5))[0] == 1e6
        assert next(trace.segments_from(2.0))[0] == 3e6
        assert next(trace.segments_from(100.0))[0] == 2e6
        assert trace.min_rate() == 1e6
        # Time-weighted: each rate holds for 2 s of the 6 s span.
        assert trace.mean_rate() == pytest.approx((1e6 + 3e6 + 2e6) / 3)
        assert len(trace) == 3
        assert trace.samples() == [(0.0, 1e6), (2.0, 3e6), (4.0, 2e6)]

    def test_digest_ignores_name_and_source(self):
        a = LinkTrace(times=[0.0], rates=[1e6], duration=1.0, name="a", source="x")
        b = LinkTrace(times=[0.0], rates=[1e6], duration=1.0, name="b", source="y")
        c = LinkTrace(times=[0.0], rates=[2e6], duration=1.0)
        assert a.digest == b.digest == trace_digest([0.0], [1e6], 1.0)
        assert a.digest != c.digest

    def test_payload_round_trip_preserves_digest(self):
        trace = LinkTrace(times=[0.0, 1.5], rates=[1e6, 2e6], duration=3.0, name="t")
        clone = LinkTrace.from_payload(trace.to_payload())
        assert clone.digest == trace.digest
        assert clone.samples() == trace.samples()
        assert clone.name == "t"

    def test_payload_digest_mismatch_is_rejected(self):
        payload = LinkTrace(times=[0.0], rates=[1e6], duration=1.0).to_payload()
        payload["rates"] = [2e6]
        with pytest.raises(ConfigurationError):
            LinkTrace.from_payload(payload)


def _with_non_finite(field: str, value: float) -> dict:
    """A two-segment trace's fields with ``value`` in place of ``field``."""
    fields = {"times": [0.0, 1.0], "rates": [1e6, 2e6], "duration": 2.0}
    if field == "first_time":
        fields["times"] = [value, 1.0]
    elif field == "time":
        fields["times"] = [0.0, value]
    elif field == "rate":
        fields["rates"] = [1e6, value]
    else:
        fields["duration"] = value
    return fields


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["first_time", "time", "rate", "duration"])
class TestNonFiniteTraceValues:
    """NaN and ±inf fail every check, however the trace arrives."""

    def test_constructor_refuses(self, field, value):
        with pytest.raises(ConfigurationError):
            LinkTrace(**_with_non_finite(field, value))

    def test_payload_refuses(self, field, value):
        payload = LinkTrace(times=[0.0, 1.0], rates=[1e6, 2e6], duration=2.0).to_payload()
        del payload["digest"]
        payload.update(_with_non_finite(field, value))
        # Python's json writes and reads NaN / Infinity, as a stored blob can.
        with pytest.raises(ConfigurationError):
            LinkTrace.from_payload(json.loads(json.dumps(payload)))


@st.composite
def _traces(draw):
    """1–8 segments; rates 10¹–10⁷ bps, so some sit under the service floor."""
    count = draw(st.integers(min_value=1, max_value=8))
    gaps = draw(st.lists(st.floats(0.01, 5.0), min_size=count, max_size=count))
    rates = draw(st.lists(st.floats(1.0, 7.0), min_size=count, max_size=count))
    times = [draw(st.floats(0.0, 2.0))]
    for gap in gaps[:-1]:
        times.append(times[-1] + gap)
    return LinkTrace(
        times=times,
        rates=[10.0**exponent for exponent in rates],
        duration=times[-1] + gaps[-1],
    )


def _floored_bits(trace: LinkTrace, start: float, end: float) -> float:
    """The floored rate integrated over ``[start, end]``."""
    bits = 0.0
    cursor = start
    for rate, segment_end in trace.segments_from(start):
        upto = min(segment_end, end)
        bits += max(rate, MIN_SERVICE_RATE_BPS) * (upto - cursor)
        cursor = upto
        if cursor >= end:
            return bits
    raise AssertionError("unreachable: the final segment is unbounded")


class TestServiceTimeLaw:
    """`LinkTrace.service_time`, the one serialization rule both links use."""

    @settings(max_examples=200, deadline=None)
    @given(
        trace=_traces(),
        # Before, inside and past the trace (it ends by t = 42).
        start=st.floats(-5.0, 60.0),
        first=st.floats(1e3, 1e6),
        second=st.floats(1e3, 1e6),
    )
    def test_splitting_a_packet_does_not_change_when_it_finishes(
        self, trace, start, first, second
    ):
        head = trace.service_time(start, first)
        tail = trace.service_time(start + head, second)
        assert head + tail == pytest.approx(
            trace.service_time(start, first + second), rel=1e-9
        )
        assert _floored_bits(trace, start, start + head) == pytest.approx(
            first, rel=1e-9
        )

    @given(
        rate=st.floats(MIN_SERVICE_RATE_BPS, 1e8),
        start=st.floats(-5.0, 60.0),
        size=st.floats(1.0, 1e7),
    )
    def test_one_segment_is_exactly_size_over_rate(self, rate, start, size):
        assert LinkTrace.constant(rate, 30.0).service_time(start, size) == size / rate


class TestParsers:
    def test_samples_text(self):
        trace = parse_samples_text("# hdr\n0 1e6\n1.0, 2e6\n\n2.0 3e6 # tail\n")
        assert trace.samples() == [(0.0, 1e6), (1.0, 2e6), (2.0, 3e6)]

    def test_samples_text_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            parse_samples_text("0 1e6 extra\n")
        with pytest.raises(ConfigurationError):
            parse_samples_text("zero 1e6\n")
        with pytest.raises(ConfigurationError):
            parse_samples_text("# only comments\n")

    def test_mahimahi_binning(self):
        # 10 packets in [0, 100) ms and 20 in [100, 200) ms at 12 kbit each:
        # 1.2 Mbps then 2.4 Mbps.
        stamps = [i * 10 for i in range(10)] + [100 + i * 5 for i in range(20)]
        trace = parse_mahimahi_text("\n".join(map(str, stamps)), bin_ms=100)
        assert len(trace) == 2
        assert trace.rates[0] == pytest.approx(1_200_000.0)
        assert trace.rates[1] == pytest.approx(2_400_000.0)
        assert trace.duration == pytest.approx(0.2)

    def test_mahimahi_empty_bins_floor_at_positive_rate(self):
        trace = parse_mahimahi_text("0\n500\n", bin_ms=100)
        assert len(trace) == 6
        assert all(rate > 0 for rate in trace.rates)

    def test_mahimahi_rejects_decreasing_timestamps(self):
        with pytest.raises(ConfigurationError):
            parse_mahimahi_text("5\n3\n")
        with pytest.raises(ConfigurationError):
            parse_mahimahi_text("-1\n")

    @pytest.mark.parametrize("text", ["0 nan\n1 5", "0 inf\n1 5", "nan 5\n1 5", "0 5\n1e400 5"])
    def test_samples_text_refuses_non_finite_values(self, text):
        with pytest.raises(ConfigurationError):
            parse_samples_text(text)

    def test_mahimahi_refuses_a_trace_past_the_bin_bound_without_allocating(self):
        last = MAX_MAHIMAHI_BINS * DEFAULT_BIN_MS  # the first stamp of bin MAX + 1
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match=str(last)):
                parse_mahimahi_text(f"0\n{last}\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One list of a million bins alone is 8 MB.
        assert peak < 1_000_000

    def test_auto_detect(self, tmp_path):
        mahi = tmp_path / "a.trace"
        mahi.write_text("0\n10\n20\n")
        samples = tmp_path / "b.trace"
        samples.write_text("0 1e6\n1 2e6\n")
        assert load_trace_path(mahi).source.endswith("a.trace")
        assert len(load_trace_path(samples)) == 2
        with pytest.raises(ConfigurationError):
            load_trace_path(tmp_path / "missing.trace")


#: Text shaped like trace files — numbers, spellings of non-finite floats,
#: separators and comments — mixed with arbitrary text.  Integers stay
#: small enough that an accepted mahimahi trace spans few bins.
_trace_tokens = st.one_of(
    st.integers(min_value=-1_000, max_value=10_000_000).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", "#", ",", "1_000", "0x10"]),
    st.text(max_size=4),
)
_trace_texts = st.one_of(
    st.text(),
    st.lists(st.lists(_trace_tokens, max_size=3).map(" ".join), max_size=8).map("\n".join),
)


def _valid_or_refused(parse) -> None:
    """``parse()`` returns a well-formed trace or raises ConfigurationError."""
    try:
        trace = parse()
    except ConfigurationError:
        return
    times = trace.times
    assert all(math.isfinite(time) for time in times)
    assert all(earlier < later for earlier, later in zip(times, times[1:]))
    assert all(math.isfinite(rate) and rate > 0.0 for rate in trace.rates)
    assert math.isfinite(trace.duration)


class TestParserFuzz:
    """Any text either parses to a well-formed trace or is a clean refusal."""

    @settings(max_examples=300, deadline=None)
    @given(text=_trace_texts)
    def test_samples_text(self, text):
        _valid_or_refused(lambda: parse_samples_text(text))

    @settings(max_examples=300, deadline=None)
    @given(text=_trace_texts)
    def test_mahimahi_text(self, text):
        _valid_or_refused(lambda: parse_mahimahi_text(text))

    @settings(max_examples=150, deadline=None)
    @given(text=_trace_texts)
    def test_load_trace_path_auto_detect(self, text):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "fuzz.trace"
            path.write_text(text, encoding="utf-8")
            _valid_or_refused(lambda: load_trace_path(path))


class TestGenerators:
    @pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
    def test_deterministic_per_seed(self, family):
        params = {"duration": 20.0}
        assert (
            build_generator(family, params).build(3).digest
            == build_generator(family, params).build(3).digest
        )
        assert (
            build_generator(family, params).build(3).digest
            != build_generator(family, params).build(4).digest
        )

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
    def test_a_non_finite_parameter_is_refused_at_construction(self, family, value):
        # NaN and inf used to pass `value <= 0`: an infinite duration
        # generated until killed, a NaN step made a 1-sample trace.  Each
        # field is refused before any build can start.
        for field in dataclasses.fields(GENERATOR_FAMILIES[family]):
            with pytest.raises(ConfigurationError, match=field.name):
                build_generator(family, {field.name: value})

    def test_unknown_family_and_param(self):
        with pytest.raises(ConfigurationError):
            build_generator("nope")
        with pytest.raises(ConfigurationError):
            build_generator("diurnal", {"frequency": 2.0})

    def test_markov_visits_both_states(self):
        trace = build_generator(
            "markov_onoff", {"duration": 60.0, "mean_on_s": 2.0, "mean_off_s": 2.0}
        ).build(1)
        rates = {r for _, r in trace.samples()}
        assert len(rates) == 2


class TestCorpusStore:
    def test_ingest_describe_round_trip_preserves_digest(self, tmp_path):
        store = CorpusStore(tmp_path)
        entry = store.ingest(FIXTURE, name="fixture")
        described = store.describe("fixture")
        loaded = store.get("fixture")
        assert (
            load_trace_path(FIXTURE).digest
            == entry["digest"]
            == described["digest"]
            == loaded.digest
        )
        assert described["kind"] == "trace"

    def test_same_content_shares_one_blob(self, tmp_path):
        store = CorpusStore(tmp_path)
        a = store.ingest(FIXTURE, name="a")
        b = store.ingest(FIXTURE, name="b")
        assert a["digest"] == b["digest"]
        assert len(list((tmp_path / "traces").glob("*.json"))) == 1

    def test_lookup_by_digest(self, tmp_path):
        store = CorpusStore(tmp_path)
        entry = store.ingest(FIXTURE, name="fixture")
        assert store.get(entry["digest"]).digest == entry["digest"]
        with pytest.raises(ConfigurationError):
            store.get("no-such-entry")

    def test_corrupt_blob_is_quarantined_and_generator_rebuilds(self, tmp_path):
        store = CorpusStore(tmp_path)
        entry = store.register_generator("mk", "markov_onoff", {"duration": 15.0}, seed=2)
        blob = store.blob_path(entry["digest"])
        blob.write_text("{torn")
        rebuilt = store.get("mk")
        assert rebuilt.digest == entry["digest"]
        assert (tmp_path / "quarantine" / blob.name).exists()

    def test_missing_ingested_blob_is_an_error_naming_the_source(self, tmp_path):
        store = CorpusStore(tmp_path)
        entry = store.ingest(FIXTURE, name="fixture")
        store.blob_path(entry["digest"]).unlink()
        with pytest.raises(ConfigurationError, match="re-ingest"):
            store.get("fixture")

    def test_manifest_is_byte_stable(self, tmp_path):
        store = CorpusStore(tmp_path)
        store.ingest(FIXTURE, name="fixture")
        first = store.manifest_path.read_bytes()
        store.ingest(FIXTURE, name="fixture")
        assert store.manifest_path.read_bytes() == first


class TestCorpusCli:
    def test_ingest_list_describe_generate(self, tmp_path, capsys):
        root = str(tmp_path)
        assert corpus_main(["--corpus-dir", root, "ingest", str(FIXTURE)]) == 0
        ingest_out = capsys.readouterr().out
        assert "digest=" in ingest_out

        assert corpus_main(["--corpus-dir", root, "list"]) == 0
        assert "mahimahi_small" in capsys.readouterr().out

        assert corpus_main(["--corpus-dir", root, "describe", "mahimahi_small"]) == 0
        describe_out = capsys.readouterr().out
        digest = json.loads(
            (tmp_path / "manifest.json").read_text()
        )["entries"]["mahimahi_small"]["digest"]
        assert digest in describe_out  # describe reports the exact digest

        assert (
            corpus_main(
                [
                    "--corpus-dir", root, "generate", "flash_crowd",
                    "--name", "crowd", "--seed", "3", "--set", "duration=30.0",
                ]
            )
            == 0
        )
        assert corpus_main(["--corpus-dir", root, "describe", "crowd"]) == 0
        assert "flash_crowd" in capsys.readouterr().out

    def test_errors_exit_2(self, tmp_path, capsys):
        root = str(tmp_path)
        assert corpus_main(["--corpus-dir", root, "describe", "missing"]) == 2
        assert "error:" in capsys.readouterr().err
        assert corpus_main(["--corpus-dir", root, "ingest", str(tmp_path / "no.trace")]) == 2
        capsys.readouterr()
        bad = tmp_path / "bad.trace"
        bad.write_text("5\n3\n")
        assert corpus_main(["--corpus-dir", root, "ingest", str(bad)]) == 2

    def test_a_nan_generator_parameter_exits_2_and_registers_nothing(self, tmp_path, capsys):
        # It used to register a 1-sample trace and exit 0.
        argv = [
            "--corpus-dir", str(tmp_path), "generate", "random_walk", "--name", "walk",
            "--set", "step_interval=nan", "--set", "duration=10",
        ]
        assert corpus_main(argv) == 2
        assert "error: step_interval must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_repeated_set_key_exits_2_and_names_it(self, tmp_path, capsys):
        # It used to generate with the last spelling, silently.
        argv = [
            "--corpus-dir", str(tmp_path), "generate", "markov_onoff", "--name", "onoff",
            "--set", "on_rate_bps=1000000", "--set", "on_rate_bps=2000000",
        ]
        assert corpus_main(argv) == 2
        assert "parameter 'on_rate_bps' is given more than once" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()
