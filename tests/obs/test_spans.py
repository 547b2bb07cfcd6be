"""Tests for repro.obs.spans: deterministic ids, nesting, causal links,
sampling, tree reconstruction, critical paths and the streaming analyzer."""

import pytest

from repro.obs import Recorder
from repro.obs.spans import (NULL_SPAN, SpanAnalyzer, SpanTreeBuilder,
                             critical_path, derive_span_id, derive_trace_id,
                             span_node_from_event)
from repro.simulator.engine import EventEngine


def make_recorder(sample=1, seed=42):
    recorder = Recorder(trace_sink=[], span_seed=seed, span_sample=sample)
    clock = [0.0]
    recorder.bind_clock(lambda: clock[0])
    return recorder, clock


def span_events(recorder):
    return [event for event in recorder.trace_sink
            if event.get("event") == "span"]


class TestIdDerivation:
    def test_deterministic(self):
        assert derive_trace_id(7, 100.0, 1) == derive_trace_id(7, 100.0, 1)
        assert derive_span_id(123, 4) == derive_span_id(123, 4)

    def test_sensitive_to_every_input(self):
        base = derive_trace_id(7, 100.0, 1)
        assert derive_trace_id(8, 100.0, 1) != base
        assert derive_trace_id(7, 100.5, 1) != base
        assert derive_trace_id(7, 100.0, 2) != base

    def test_fits_signed_int64(self):
        for counter in range(1, 200):
            trace_id = derive_trace_id(3, float(counter), counter)
            assert 0 <= trace_id < 2 ** 63
            assert 0 <= derive_span_id(trace_id, counter) < 2 ** 63


class TestSpanEmission:
    def test_null_span_is_inert(self):
        with NULL_SPAN as span:
            span.add_cost(1.0)
            span.count("x")
            span.annotate(a=1)
        assert span.span_id is None
        assert not span.kept

    def test_request_span_null_when_disabled(self):
        recorder, _ = make_recorder(sample=0)
        assert recorder.request_span("op") is NULL_SPAN
        assert not recorder.spans_enabled

    def test_plain_span_still_profiles_when_disabled(self):
        recorder, _ = make_recorder(sample=0)
        with recorder.span("op"):
            pass
        assert recorder.profiler.phase("op").calls == 1
        assert span_events(recorder) == []

    def test_emits_record_with_ids_and_durations(self):
        recorder, clock = make_recorder()
        with recorder.span("op") as span:
            span.add_cost(2.5)
            clock[0] = 10.0
        (event,) = span_events(recorder)
        assert event["name"] == "op"
        assert event["t"] == 0.0
        assert event["t_end"] == 10.0
        assert event["dur"] == pytest.approx(2.5)
        assert event["busy"] == pytest.approx(2.5)
        assert event["span"] == span.span_id
        assert event["trace"] == span.trace_id
        assert "parent" not in event

    def test_nested_children_fold_into_parent_dur(self):
        recorder, _ = make_recorder()
        with recorder.span("outer") as outer:
            outer.add_cost(1.0)
            with recorder.span("inner") as inner:
                inner.add_cost(2.5)
        events = span_events(recorder)
        by_name = {event["name"]: event for event in events}
        assert by_name["inner"]["parent"] == by_name["outer"]["span"]
        assert by_name["inner"]["trace"] == by_name["outer"]["trace"]
        assert by_name["outer"]["dur"] == pytest.approx(3.5)
        assert by_name["outer"]["busy"] == pytest.approx(1.0)

    def test_counters_and_annotations_land_in_record(self):
        recorder, _ = make_recorder()
        with recorder.span("op", file="f1") as span:
            span.count("retries", 2)
            span.annotate(ok=False)
        (event,) = span_events(recorder)
        assert event["retries"] == 2
        assert event["ok"] is False
        assert event["file"] == "f1"

    def test_counters_merge_into_profiler(self):
        recorder, _ = make_recorder(sample=0)
        for _ in range(2):
            with recorder.span("op") as span:
                span.count("hops", 3)
        assert recorder.profiler.phase("op").counters == {"hops": 6}

    def test_byte_identical_across_recorders(self):
        def run():
            recorder, clock = make_recorder()
            for i in range(5):
                clock[0] = float(i)
                with recorder.span("op") as span:
                    span.add_cost(0.5 * i)
            return span_events(recorder)

        assert run() == run()

    def test_different_seed_changes_ids(self):
        def ids(seed):
            recorder, _ = make_recorder(seed=seed)
            with recorder.span("op"):
                pass
            return span_events(recorder)[0]["span"]

        assert ids(1) != ids(2)


class TestSampling:
    def test_keeps_every_nth_trace(self):
        recorder, _ = make_recorder(sample=2)
        for _ in range(4):
            with recorder.span("op"):
                pass
        assert len(span_events(recorder)) == 2

    def test_unkept_traces_still_tick_counters(self):
        full, _ = make_recorder(sample=1)
        sampled, _ = make_recorder(sample=4)
        for _ in range(4):
            with full.span("op"):
                pass
            with sampled.span("op"):
                pass
        full_ids = [event["span"] for event in span_events(full)]
        sampled_ids = [event["span"] for event in span_events(sampled)]
        # The kept trace's ids are identical under any sampling rate.
        assert sampled_ids == full_ids[:1]

    def test_unkept_spans_still_profile(self):
        recorder, _ = make_recorder(sample=100)
        for _ in range(5):
            with recorder.span("op"):
                pass
        assert recorder.profiler.phase("op").calls == 5
        assert len(span_events(recorder)) == 1


class TestEnginePropagation:
    def test_scheduled_callback_resumes_trace(self):
        recorder, clock = make_recorder()
        engine = EventEngine(recorder=recorder)
        clock_binder = engine  # engine drives sim time itself

        def completion(eng):
            with recorder.span("transfer") as span:
                span.add_cost(1.0)

        with recorder.span("request") as request_span:
            engine.schedule_at(5.0, completion)
            scheduling_span_id = request_span.span_id
            scheduling_trace = request_span.trace_id
        engine.run()
        by_name = {event["name"]: event
                   for event in span_events(recorder)}
        transfer = by_name["transfer"]
        # Same trace, linked (not parented) to the scheduling span.
        assert transfer["trace"] == scheduling_trace
        assert transfer["link"] == scheduling_span_id
        assert "parent" not in transfer
        # Linked segments are not folded into the scheduler's dur.
        assert by_name["request"]["dur"] == pytest.approx(0.0)
        assert clock_binder.now == 5.0

    def test_unsampled_schedule_has_no_link(self):
        recorder, _ = make_recorder(sample=2)
        engine = EventEngine(recorder=recorder)
        emitted = []

        def completion(eng):
            with recorder.span("work") as span:
                emitted.append(span.kept)

        # Second trace: dropped by 1-in-2 sampling.
        with recorder.span("kept-root"):
            pass
        with recorder.span("dropped-root"):
            engine.schedule_at(1.0, completion)
        engine.run()
        assert emitted == [False]


class TestTreeReconstruction:
    def _trace(self):
        recorder, clock = make_recorder()
        with recorder.span("root") as root:
            root.add_cost(1.0)
            with recorder.span("a") as a:
                a.add_cost(2.0)
            with recorder.span("b") as b:
                b.add_cost(3.0)
                with recorder.span("b1") as b1:
                    b1.add_cost(4.0)
        return list(recorder.trace_sink)

    def test_builder_returns_completed_root(self):
        builder = SpanTreeBuilder()
        roots = [root for event in self._trace()
                 if (root := builder.feed(event)) is not None]
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "root"
        assert [child.name for child in root.children] == ["a", "b"]
        assert root.dur == pytest.approx(10.0)
        assert root.consistent
        assert builder.finish() == []

    def test_orphans_drained_at_finish(self):
        events = [event for event in self._trace()
                  if event.get("name") != "root"]
        builder = SpanTreeBuilder()
        for event in events:
            assert builder.feed(event) is None
        orphans = builder.finish()
        assert sorted(node.name for node in orphans) == ["a", "b"]

    def test_malformed_span_counted_not_crashed(self):
        builder = SpanTreeBuilder()
        assert builder.feed({"event": "span", "name": "x"}) is None
        assert builder.malformed == 1
        assert builder.feed({"event": "download"}) is None
        assert builder.malformed == 1

    def test_critical_path_follows_max_dur_child(self):
        builder = SpanTreeBuilder()
        root = None
        for event in self._trace():
            root = builder.feed(event) or root
        names = [node.name for node in critical_path(root)]
        assert names == ["root", "b", "b1"]

    def test_span_node_from_event_roundtrip(self):
        recorder, _ = make_recorder()
        with recorder.span("op", color="red") as span:
            span.add_cost(1.0)
            span.count("hops", 2)
        node = span_node_from_event(span_events(recorder)[0])
        assert node.name == "op"
        assert node.fields["color"] == "red"
        assert node.fields["hops"] == 2
        assert node.busy == pytest.approx(1.0)


class TestSpanAnalyzer:
    def test_full_analysis(self):
        recorder, clock = make_recorder()
        engine = EventEngine(recorder=recorder)

        def completion(eng):
            with recorder.span("transfer") as span:
                span.add_cost(7.0)

        for i in range(3):
            with recorder.span("request") as span:
                span.add_cost(float(i + 1))
                engine.schedule_at(float(i + 1), completion)
        engine.run()

        analyzer = SpanAnalyzer()
        for event in recorder.trace_sink:
            analyzer.feed(event)
        analysis = analyzer.finish()
        assert analysis.spans == 6
        assert analysis.traces == 3
        assert analysis.segments == 6
        assert analysis.orphans == 0
        assert analysis.inconsistent == 0
        assert analysis.operations["request"].count == 3
        assert analysis.operations["request"].total_dur == pytest.approx(6.0)
        # The exemplar critical path is the slowest root of each name.
        path = analysis.critical_paths["request"]
        assert path[0].dur == pytest.approx(3.0)
        document = analysis.to_dict()
        assert document["operations"]["transfer"]["p50"] == pytest.approx(7.0)

    def test_empty_trace(self):
        analysis = SpanAnalyzer().finish()
        assert analysis.spans == 0
        assert analysis.operations == {}
        assert analysis.critical_paths == {}
