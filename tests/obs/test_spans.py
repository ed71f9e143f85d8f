"""Unit tests for hierarchical spans and the Observability hub."""

import pytest

from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder

from .test_metrics import FakeTimer


@pytest.fixture
def recorder():
    return SpanRecorder(MetricsRegistry(timer=FakeTimer()))


class TestSpanTrees:
    def test_nesting_builds_a_tree(self, recorder):
        with recorder.span("sql.select") as root:
            with recorder.span("plan.choose"):
                pass
            with recorder.span("am.am_getnext"):
                with recorder.span("buffer.read"):
                    pass
        assert [c.name for c in root.children] == [
            "plan.choose", "am.am_getnext",
        ]
        assert root.find("buffer.read") is not None
        assert root.find("nope") is None
        assert list(recorder.roots) == [root]
        assert recorder.current is None

    def test_durations_use_injected_timer(self, recorder):
        with recorder.span("outer"):
            pass
        root = recorder.last_root()
        # FakeTimer ticks 1.0 per call: start, snapshot-free end => 1.0.
        assert root.duration == pytest.approx(1.0)
        assert root.finished

    def test_exception_still_finishes_span(self, recorder):
        with pytest.raises(RuntimeError):
            with recorder.span("boom"):
                raise RuntimeError("x")
        root = recorder.last_root("boom")
        assert root is not None and root.finished
        assert recorder.current is None

    def test_metric_deltas_attribute_work_to_spans(self, recorder):
        registry = recorder.registry
        with recorder.span("root"):
            registry.inc("pages.read", 2)
            with recorder.span("child"):
                registry.inc("pages.read", 3)
        root = recorder.last_root("root")
        assert root.metric_deltas == {"pages.read": 5}
        assert root.children[0].metric_deltas == {"pages.read": 3}

    def test_max_roots_trims_oldest(self):
        recorder = SpanRecorder(MetricsRegistry(timer=FakeTimer()), max_roots=2)
        for i in range(4):
            with recorder.span(f"s{i}"):
                pass
        assert [s.name for s in recorder.roots] == ["s2", "s3"]

    def test_add_completed_child_under_current(self, recorder):
        with recorder.span("root") as root:
            recorder.add_completed_child("sql.parse", 1.0, 3.5, tokens=4)
        parse = root.children[0]
        assert parse.name == "sql.parse"
        assert parse.duration == pytest.approx(2.5)
        assert parse.attrs == {"tokens": 4}

    def test_format_and_to_dicts(self, recorder):
        with recorder.span("root", table="emp"):
            recorder.registry.inc("x")
        text = recorder.format_trees()
        assert "root" in text and "table='emp'" in text and "x +1" in text
        (d,) = recorder.to_dicts()
        assert d["name"] == "root"
        assert d["metric_deltas"] == {"x": 1}
        recorder.clear()
        assert recorder.format_trees() == "(no spans recorded)"


class TestObservabilityGating:
    def test_disabled_hub_records_nothing(self):
        obs = Observability(timer=FakeTimer(), enabled=False)
        obs.inc("c")
        obs.set_gauge("g", 1)
        obs.observe("h", 0.1)
        with obs.span("root") as span:
            assert span is None
        assert obs.metrics.snapshot() == {}
        assert list(obs.spans.roots) == []

    def test_disabled_span_is_shared_noop(self):
        obs = Observability(enabled=False)
        assert obs.span("a") is obs.span("b")

    def test_enable_disable_roundtrip(self):
        obs = Observability(timer=FakeTimer())
        obs.disable()
        obs.inc("c")
        obs.enable()
        obs.inc("c")
        assert obs.metrics.counter("c") == 1

    def test_reset_keeps_collectors(self):
        obs = Observability(timer=FakeTimer())
        obs.metrics.register_collector("p", lambda: {"x": 1})
        obs.inc("c")
        with obs.span("root"):
            pass
        obs.reset()
        assert obs.metrics.counter("c") == 0
        assert list(obs.spans.roots) == []
        assert obs.metrics.snapshot() == {"p.x": 1}
