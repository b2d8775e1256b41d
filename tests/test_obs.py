"""Observability subsystem (:mod:`repro.obs`).

Covers the four pillars and their contracts:

* span nesting/ordering invariants (property-based),
* histogram percentile estimates bracket true sorted-list quantiles,
* exporter round-trip (JSONL → parsed spans identical),
* the null-sink guarantee: a run with observability disabled records
  nothing and *cannot* allocate collector state,
* end-to-end: a traced protocol run whose phase spans sum to the
  ``PhaseTimings`` totals and whose metrics match the run's accounting.
"""

from __future__ import annotations

import json
import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main, save_cohort_bundle
from repro.config import ObservabilityConfig, StudyConfig
from repro.core.protocol import run_study
from repro.core.timing import ALL_LABELS
from repro.errors import ObservabilityError
from repro.genomics.synthetic import SyntheticSpec, generate_cohort
from repro.obs.export import read_jsonl, render_span_tree, to_chrome_trace, write_jsonl
from repro.obs.metrics import Histogram, MetricsRegistry, exponential_buckets
from repro.obs.report import RunReport, config_fingerprint
from repro.obs.span import NULL_SINK, SpanCollector
from repro.obs.tracer import NULL_SPAN, TRACER, traced


# ---------------------------------------------------------------------------
# Tracing core
# ---------------------------------------------------------------------------

#: Arbitrary span-nesting shapes: a tree is a list of child trees.
TREES = st.recursive(
    st.just([]), lambda kids: st.lists(kids, max_size=3), max_leaves=12
)


def _walk(tree, depth=0):
    with TRACER.span(f"node-{depth}", depth=depth):
        for child in tree:
            _walk(child, depth + 1)


class TestSpanNesting:
    @settings(max_examples=60, deadline=None)
    @given(TREES)
    def test_nesting_invariants(self, tree):
        collector = SpanCollector()
        with TRACER.activated(collector):
            _walk(tree)
        spans = collector.spans()
        by_id = {s.span_id: s for s in spans}
        assert len(by_id) == len(spans)  # unique ids
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == 1  # exactly the synthetic root

        order = {s.span_id: i for i, s in enumerate(spans)}
        for span in spans:
            if span.parent_id is None:
                continue
            parent = by_id[span.parent_id]
            # Temporal containment: children start and end inside the parent.
            assert parent.start_ns <= span.start_ns
            assert span.end_ns <= parent.end_ns
            # Completion order: a child is collected before its parent.
            assert order[span.span_id] < order[parent.span_id]
            # Depth attribute mirrors structural depth.
            assert span.attributes["depth"] == parent.attributes["depth"] + 1

    def test_sibling_ordering(self):
        collector = SpanCollector()
        with TRACER.activated(collector):
            with TRACER.span("parent"):
                for i in range(4):
                    with TRACER.span("child", index=i):
                        pass
        children = [s for s in collector.spans() if s.name == "child"]
        starts = [s.start_ns for s in children]
        assert starts == sorted(starts)
        assert [s.attributes["index"] for s in children] == [0, 1, 2, 3]

    def test_event_parenting_and_annotation(self):
        collector = SpanCollector()
        with TRACER.activated(collector):
            with TRACER.span("outer") as handle:
                TRACER.event("ping", n=1)
                handle.annotate(extra="yes")
        event, outer = collector.spans()
        assert event.name == "ping" and event.is_event
        assert event.parent_id == outer.span_id
        assert outer.attributes["extra"] == "yes"

    def test_exception_is_recorded_and_stack_unwound(self):
        collector = SpanCollector()
        with TRACER.activated(collector):
            with pytest.raises(ValueError):
                with TRACER.span("bad"):
                    raise ValueError("boom")
            assert TRACER.current_span_id() is None
        (span,) = collector.spans()
        assert span.attributes["error"] == "ValueError"

    def test_duration_override(self):
        collector = SpanCollector()
        with TRACER.activated(collector):
            with TRACER.span("modelled") as handle:
                handle.set_duration_seconds(2.5)
        (span,) = collector.spans()
        assert span.duration_ns == int(2.5e9)

    def test_traced_decorator(self):
        @traced("decorated", kind="test")
        def add(a, b):
            return a + b

        assert add(1, 2) == 3  # disabled: plain call
        collector = SpanCollector()
        with TRACER.activated(collector):
            assert add(3, 4) == 7
        (span,) = collector.spans()
        assert span.name == "decorated"
        assert span.attributes == {"kind": "test"}

    def test_activation_restores_previous_sink(self):
        assert TRACER.collector is NULL_SINK
        with TRACER.activated(SpanCollector()):
            inner = SpanCollector()
            with TRACER.activated(inner):
                assert TRACER.collector is inner
        assert TRACER.collector is NULL_SINK
        assert not TRACER.enabled

    def test_thread_local_parenting(self):
        collector = SpanCollector()
        errors = []

        def worker(tag):
            try:
                with TRACER.span("outer", tag=tag):
                    with TRACER.span("inner", tag=tag):
                        pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        with TRACER.activated(collector):
            threads = [
                threading.Thread(target=worker, args=(t,)) for t in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        spans = collector.spans()
        by_id = {s.span_id: s for s in spans}
        inners = [s for s in spans if s.name == "inner"]
        assert len(inners) == 4
        for inner in inners:
            # Each inner span is parented to the outer span of ITS thread.
            assert by_id[inner.parent_id].attributes["tag"] == inner.attributes["tag"]


# ---------------------------------------------------------------------------
# Histograms / metrics registry
# ---------------------------------------------------------------------------

BOUNDS = exponential_buckets(0.001, 2.0, 32)


class TestHistogram:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.001, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_percentile_brackets_true_quantile(self, values, q):
        histogram = Histogram("h", bounds=BOUNDS)
        histogram.observe_many(values)
        rank = max(1, math.ceil(q * len(values)))
        true_quantile = sorted(values)[rank - 1]
        estimate = histogram.percentile(q)
        # Upper bracket: the estimate never understates the quantile.
        assert true_quantile <= estimate
        # Lower bracket: the boundary below the estimate is exceeded.
        below = [b for b in BOUNDS if b < estimate]
        if below and estimate in BOUNDS:
            assert true_quantile > below[-1]

    def test_counts_sum_min_max(self):
        histogram = Histogram("h", bounds=(1.0, 10.0, 100.0))
        histogram.observe_many([0.5, 5.0, 50.0, 500.0])
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(555.5)
        assert histogram.min == 0.5
        assert histogram.max == 500.0
        assert histogram.mean == pytest.approx(555.5 / 4)
        # Overflow value is reported via the observed maximum.
        assert histogram.percentile(1.0) == 500.0

    def test_empty_percentile_is_none(self):
        assert Histogram("h").percentile(0.5) is None

    def test_invalid_parameters(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", bounds=(3.0, 2.0))
        with pytest.raises(ObservabilityError):
            Histogram("h").percentile(1.5)
        with pytest.raises(ObservabilityError):
            Histogram("h").observe(float("nan"))


class TestMetricsRegistry:
    def test_get_or_create_identity(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")
        assert len(registry) == 3

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(ObservabilityError):
            registry.gauge("name")

    def test_counter_is_monotone(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        with pytest.raises(ObservabilityError):
            counter.inc(-1)

    def test_concurrent_increments(self):
        counter = MetricsRegistry().counter("c")

        def bump():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000

    def test_as_dict_layout(self):
        registry = MetricsRegistry()
        registry.counter("a.count").inc(2)
        registry.gauge("b.gauge").set(1.5)
        registry.histogram("c.hist").observe(3.0)
        dump = registry.as_dict()
        assert dump["counters"] == {"a.count": 2}
        assert dump["gauges"] == {"b.gauge": 1.5}
        assert dump["histograms"]["c.hist"]["count"] == 1
        json.dumps(dump)  # JSON-safe


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


def _sample_spans():
    collector = SpanCollector()
    with TRACER.activated(collector):
        with TRACER.span("study", study_id="s"):
            with TRACER.span("phase", label="LD analysis"):
                TRACER.event("net.send", wire_bytes=128, tag="ld")
            with TRACER.span("phase", label="LR-test analysis"):
                pass
    return collector.spans()


class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        spans = _sample_spans()
        path = str(tmp_path / "trace.jsonl")
        assert write_jsonl(spans, path) == len(spans)
        parsed = read_jsonl(path)
        assert parsed == spans  # dataclass equality: loss-free round trip

    def test_jsonl_lines_are_valid_json(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(_sample_spans(), path)
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                payload = json.loads(line)
                assert {"name", "span_id", "start_ns", "duration_ns"} <= set(payload)

    def test_malformed_jsonl_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ObservabilityError):
            read_jsonl(str(path))
        path.write_text('{"name": "x"}\n')  # missing required fields
        with pytest.raises(ObservabilityError):
            read_jsonl(str(path))

    def test_chrome_trace_format(self):
        spans = _sample_spans()
        document = to_chrome_trace(spans)
        events = document["traceEvents"]
        assert len(events) == len(spans)
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 1  # the net.send event
        for event, span in zip(events, spans):
            assert event["ts"] == pytest.approx(span.start_ns / 1000.0)
            assert event["args"] == span.attributes
        for event in complete:
            assert event["dur"] >= 0.0
        json.dumps(document)

    def test_render_span_tree(self):
        text = render_span_tree(_sample_spans())
        lines = text.splitlines()
        assert lines[0].startswith("study")
        assert any(line.startswith("  phase") for line in lines)
        assert any("net.send" in line for line in lines)

    def test_render_elides_event_floods(self):
        collector = SpanCollector()
        with TRACER.activated(collector):
            with TRACER.span("root"):
                for i in range(10):
                    TRACER.event("net.send", i=i)
        text = render_span_tree(collector.spans(), max_events=3)
        assert "7 more events" in text


# ---------------------------------------------------------------------------
# Null sink guard: disabled observability records and allocates nothing
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_cohort():
    cohort, _ = generate_cohort(
        SyntheticSpec(num_snps=60, num_case=80, num_control=70, seed=11)
    )
    return cohort


class TestNullSinkGuard:
    def test_null_sink_cannot_hold_state(self):
        # Structural guarantee: no __dict__, no slots — nothing to grow.
        assert type(NULL_SINK).__slots__ == ()
        assert not hasattr(NULL_SINK, "__dict__")
        assert len(NULL_SINK) == 0
        assert NULL_SINK.spans() == ()

    def test_disabled_span_is_the_shared_singleton(self):
        assert TRACER.span("anything", a=1, b=2) is NULL_SPAN
        assert TRACER.event("anything", a=1) is None
        assert TRACER.span("x").annotate(k="v") is NULL_SPAN

    def test_disabled_protocol_run_records_nothing(self, tiny_cohort):
        assert not TRACER.enabled
        assert TRACER.collector is NULL_SINK
        result = run_study(
            tiny_cohort, StudyConfig(snp_count=60, study_id="untraced"), 2
        )
        # The run exercised every instrumented layer (phases, ECALLs,
        # sends, buffer registration) against the null sink:
        assert result.observability is None
        assert TRACER.collector is NULL_SINK
        assert len(NULL_SINK) == 0 and NULL_SINK.spans() == ()
        assert TRACER.current_span_id() is None


# ---------------------------------------------------------------------------
# End to end: traced runs, RunReport, CLI
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_run(tiny_cohort):
    config = StudyConfig(
        snp_count=60,
        study_id="traced",
        observability=ObservabilityConfig.tracing(),
    )
    return config, run_study(tiny_cohort, config, 3)


class TestTracedRun:
    def test_report_attached(self, traced_run):
        _, result = traced_run
        report = result.observability
        assert isinstance(report, RunReport)
        assert report.study_id == "traced"
        assert report.meta["num_members"] == 3

    def test_phase_spans_sum_to_phase_timings(self, traced_run):
        _, result = traced_run
        phases = result.observability.phase_seconds()
        assert set(phases) == set(ALL_LABELS)
        for label in ALL_LABELS:
            assert phases[label] == pytest.approx(
                result.timings.get(label), abs=1e-6
            )
        assert sum(phases.values()) == pytest.approx(
            result.timings.total_seconds, abs=1e-5
        )

    def test_span_taxonomy(self, traced_run):
        _, result = traced_run
        counts = result.observability.span_counts()
        assert counts["study"] == 1
        assert counts["phase"] == 4
        assert counts["round"] >= 3
        assert counts["ecall"] >= counts["round"]
        assert counts["net.send"] == result.network_messages
        by_id = {s.span_id: s for s in result.observability.spans}
        study = next(s for s in result.observability.spans if s.name == "study")
        for span in result.observability.spans:
            if span.name == "phase":
                assert span.parent_id == study.span_id
            if span.name == "round":
                assert by_id[span.parent_id].name in ("phase", "ecall")

    def test_traced_message_bytes_match_accounting(self, traced_run):
        _, result = traced_run
        sends = [
            s for s in result.observability.spans if s.name == "net.send"
        ]
        assert sum(s.attributes["wire_bytes"] for s in sends) == result.network_bytes

    def test_metrics_match_result(self, traced_run):
        _, result = traced_run
        metrics = result.observability.metrics
        assert metrics["counters"]["net.messages"] == result.network_messages
        assert metrics["counters"]["net.wire_bytes"] == result.network_bytes
        model_ms = metrics["gauges"]["phase.model_ms"]
        assert model_ms == pytest.approx(
            result.timings.total_seconds * 1000.0, rel=1e-6
        )
        for gdo, peak in result.enclave_peak_memory.items():
            key = f"tee.peak_memory_bytes.{gdo.replace('-', '_')}"
            assert metrics["gauges"][key] == peak

    def test_report_json_round_trip(self, traced_run, tmp_path):
        _, result = traced_run
        report = result.observability
        clone = RunReport.from_json(report.to_json())
        assert clone.spans == report.spans
        assert clone.metrics == report.metrics
        assert clone.config_fingerprint == report.config_fingerprint
        path = str(tmp_path / "report.json")
        report.save(path)
        assert RunReport.load(path).spans == report.spans

    def test_newer_schema_rejected(self, traced_run):
        _, result = traced_run
        payload = result.observability.to_dict()
        payload["schema_version"] = 99
        with pytest.raises(ObservabilityError):
            RunReport.from_dict(payload)

    def test_render_mentions_phases_and_study(self, traced_run):
        _, result = traced_run
        text = result.observability.render()
        assert "traced" in text
        for label in ALL_LABELS:
            assert label in text

    def test_fingerprint_ignores_observability_only(self, traced_run):
        config, _ = traced_run
        untraced = StudyConfig(snp_count=60, study_id="traced")
        assert config_fingerprint(config) == config_fingerprint(untraced)
        other = StudyConfig(snp_count=61, study_id="traced")
        assert config_fingerprint(config) != config_fingerprint(other)


class TestCli:
    @pytest.fixture()
    def cohort_file(self, tmp_path, tiny_cohort):
        path = str(tmp_path / "cohort.npz")
        save_cohort_bundle(path, tiny_cohort)
        return path

    def test_run_trace_and_report(self, cohort_file, tmp_path, capsys):
        trace_path = str(tmp_path / "out.jsonl")
        report_path = str(tmp_path / "report.json")
        assert main(
            [
                "run",
                "--cohort", cohort_file,
                "--members", "2",
                "--trace", trace_path,
                "--report", report_path,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "trace written to" in out
        assert "run report written to" in out

        # Acceptance: the JSONL trace is valid and its phase spans sum
        # (within tolerance) to the PhaseTimings totals the CLI printed.
        spans = read_jsonl(trace_path)
        assert spans
        phase_ms = sum(
            s.duration_seconds for s in spans if s.name == "phase"
        ) * 1000.0
        report = RunReport.load(report_path)
        assert phase_ms == pytest.approx(
            report.metrics["gauges"]["phase.model_ms"], abs=1e-3
        )

    def test_report_command(self, cohort_file, tmp_path, capsys):
        report_path = str(tmp_path / "report.json")
        chrome_path = str(tmp_path / "chrome.json")
        main(["run", "--cohort", cohort_file, "--members", "2",
              "--report", report_path])
        capsys.readouterr()
        assert main(["report", report_path, "--chrome", chrome_path]) == 0
        out = capsys.readouterr().out
        assert "RunReport" in out
        assert "Phases" in out
        with open(chrome_path, encoding="utf-8") as handle:
            assert "traceEvents" in json.load(handle)

    def test_report_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{]")
        assert main(["report", str(path)]) == 1
        assert "error" in capsys.readouterr().err
