"""Tests for repro.obs.tracer: span hierarchy, bounded event buffering,
and the JSONL export round-trip."""

from contextlib import nullcontext

import pytest

from repro.congest.events import RingTraceRecorder, TraceEvent, TraceRecorder
from repro.obs import Tracer, load_jsonl


class TestSpans:
    def test_nesting_and_phases(self):
        t = Tracer()
        with t.span("outer", h=3) as outer:
            assert t.current_span is outer
            with t.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert t.current_span is inner
            with t.span("inner2"):
                pass
        assert t.current_span is None
        assert [s.name for s in t.phases()] == ["outer"]
        assert [s.name for s in t.spans] == ["outer", "inner", "inner2"]

    def test_attrs_and_wall_time(self):
        t = Tracer()
        with t.span("phase", k=7) as sp:
            sp.set(rounds=42)
        assert sp.attrs == {"k": 7, "rounds": 42}
        assert sp.wall_seconds is not None and sp.wall_seconds >= 0

    def test_exception_marks_span_failed(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("doomed"):
                raise RuntimeError("boom")
        assert t.spans[0].attrs["failed"] is True
        assert t.current_span is None  # stack unwound

    def test_span_cap_counts_drops(self):
        t = Tracer(max_spans=2)
        for i in range(5):
            with t.span(f"s{i}"):
                pass
        assert len(t.spans) == 2
        assert t.dropped_spans == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            Tracer(max_events=0)
        with pytest.raises(ValueError):
            Tracer(max_spans=0)


class TestEvents:
    def test_is_a_trace_recorder(self):
        """Tracer must be usable wherever the simulator takes a
        TraceRecorder (run_hk_ssp(trace=...), program emits)."""
        t = Tracer()
        assert isinstance(t, TraceRecorder)
        t.emit(3, 1, "send", 2, 5)
        [e] = t.of_kind("send")
        assert (e.round, e.node, e.data) == (3, 1, (2, 5))

    def test_kind_counts(self):
        t = Tracer()
        for r in range(4):
            t.emit(r, 0, "tick")
        t.emit(9, 0, "tock")
        assert t.kind_counts() == {"tick": 4, "tock": 1}

    def test_structured_event_sorted_fields(self):
        t = Tracer()
        t.event("fault", round=7, node=2, peer=5, kind2="drop")
        [e] = t.events
        assert e.kind == "fault"
        assert e.data == (("kind2", "drop"), ("peer", 5))

    def test_ring_eviction_bounded_and_counted(self):
        t = Tracer(max_events=64)
        for i in range(1000):
            t.emit(i, 0, "e", i)
        assert len(t.events) <= 64
        assert t.dropped == 1000 - len(t.events)
        # the *newest* events are the ones retained
        assert t.events[-1].data == (999,)

    @pytest.mark.parametrize("make", [
        lambda: Tracer(max_events=5), lambda: Tracer(max_events=16),
        lambda: Tracer(), lambda: TraceRecorder(),
        lambda: RingTraceRecorder(3)])
    def test_emit_events_equals_one_emit_per_event(self, make):
        """The bulk hand-over of the columnar kernel leaves every
        recorder -- ring drops and span ids included -- exactly as
        emitting the events one by one would."""
        events = [TraceEvent(r // 4, r % 3, "e", (r, -r)) for r in range(40)]

        def feed(bulk):
            rec = make()
            for k, (i, j) in enumerate(((0, 7), (7, 30), (30, 40))):
                in_span = k == 1 and isinstance(rec, Tracer)
                with rec.span("phase") if in_span else nullcontext():
                    if bulk:
                        rec.emit_events(events[i:j])
                    else:
                        for e in events[i:j]:
                            rec.emit(e.round, e.node, e.kind, *e.data)
            return (rec.events, getattr(rec, "dropped", None),
                    getattr(rec, "_event_spans", None))

        assert feed(bulk=True) == feed(bulk=False)

    def test_events_record_innermost_span(self):
        t = Tracer()
        t.emit(1, 0, "outside")
        with t.span("a") as sa:
            t.emit(2, 0, "in-a")
            with t.span("b") as sb:
                t.emit(3, 0, "in-b")
        events = [r for r in t.records() if r["type"] == "event"]
        spans_of = {r["kind"]: r["span"] for r in events}
        assert spans_of == {"outside": None, "in-a": sa.span_id,
                            "in-b": sb.span_id}


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        t = Tracer()
        with t.span("phase", h=2) as sp:
            t.emit(1, 4, "send", 5, float("inf"))
            sp.set(rounds=9)
        path = tmp_path / "trace.jsonl"
        count = t.export_jsonl(path)
        recs = load_jsonl(path)
        assert len(recs) == count == 3  # header + 1 span + 1 event
        header, span, event = recs
        assert header["type"] == "trace"
        assert header == {"type": "trace", "events": 1, "spans": 1,
                          "dropped_events": 0, "dropped_spans": 0}
        assert span["type"] == "span" and span["name"] == "phase"
        assert span["attrs"] == {"h": 2, "rounds": 9}
        assert event["type"] == "event" and event["kind"] == "send"
        assert event["data"] == [5, "inf"]  # inf survives as a string
        assert event["span"] == span["id"]

    def test_header_reports_drops(self, tmp_path):
        t = Tracer(max_events=8)
        for i in range(100):
            t.emit(i, 0, "e")
        path = tmp_path / "t.jsonl"
        t.export_jsonl(path)
        header = load_jsonl(path)[0]
        assert header["dropped_events"] == t.dropped > 0
        assert header["events"] == len(t.events)
