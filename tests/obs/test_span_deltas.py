"""How spans collect their metric deltas, and what a span costs.

Counter increments reach only the spans open on the thread that made
them; a child hands its deltas to its parent when it closes; only the
root diffs gauges and pull collectors; consecutive folded calls share
one span; and a statement on a disabled hub reads no clock.
"""

import threading

import pytest

from repro.datablade import register_grtree_blade
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.server import DatabaseServer, executor

from .test_metrics import FakeTimer


@pytest.fixture
def recorder():
    return SpanRecorder(MetricsRegistry(timer=FakeTimer()))


class TestThreadDeltas:
    def test_other_threads_increments_stay_out_of_a_span(self):
        obs = Observability()
        opened, counted = threading.Event(), threading.Event()

        def other_thread():
            opened.wait(timeout=10)
            obs.inc("net.busy_rejections", 5)
            counted.set()

        thread = threading.Thread(target=other_thread)
        thread.start()
        with obs.span("sql.select") as root:
            opened.set()
            assert counted.wait(timeout=10)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert root.metric_deltas == {}
        assert obs.metrics.counter("net.busy_rejections") == 5

    def test_each_thread_keeps_its_own_increments(self):
        obs = Observability()
        roots, errors = {}, []
        barrier = threading.Barrier(4, timeout=10)

        def worker(index):
            try:
                with obs.span("sql.select", thread=index) as root:
                    barrier.wait()
                    for _ in range(index + 1):
                        obs.inc("am.calls")
                    barrier.wait()
                roots[index] = root
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors and not any(t.is_alive() for t in threads)
        assert {i: r.metric_deltas for i, r in roots.items()} == {
            i: {"am.calls": i + 1} for i in range(4)
        }
        assert obs.metrics.counter("am.calls") == 10

    def test_totals_take_a_statements_counters_when_its_root_closes(
        self, recorder
    ):
        registry = recorder.registry
        with recorder.span("root"):
            with recorder.span("child"):
                registry.inc("am.calls", 2)
            registry.inc("am.calls")
            assert registry.counter("am.calls") == 0
        assert registry.counter("am.calls") == 3
        assert registry.snapshot() == {"am.calls": 3}

    def test_increments_outside_any_span_count_only_in_totals(self, recorder):
        recorder.registry.inc("x", 2)
        with recorder.span("root") as root:
            pass
        assert root.metric_deltas == {}
        assert recorder.registry.counter("x") == 2


class TestWhoCarriesWhat:
    def test_children_carry_push_counters_the_root_everything(self, recorder):
        registry = recorder.registry
        pool = {"reads": 0}
        registry.register_collector("buffer.p", lambda: dict(pool))
        with recorder.span("root") as root:
            with recorder.span("child") as child:
                registry.inc("am.calls")
                pool["reads"] += 4
                registry.set_gauge("g", 2)
        assert child.metric_deltas == {"am.calls": 1}
        assert root.metric_deltas == {
            "am.calls": 1, "buffer.p.reads": 4, "g": 2,
        }

    def test_zero_increments_leave_no_delta(self, recorder):
        with recorder.span("root") as root:
            with recorder.span("child") as child:
                recorder.registry.inc("locks.released", 0)
        assert child.metric_deltas == {} and root.metric_deltas == {}

    def test_collector_names_are_built_once(self):
        registry = MetricsRegistry()
        keys = []

        class Key(str):
            def __format__(self, spec):
                keys.append(str(self))
                return str.__format__(self, spec)

        registry.register_collector("p", lambda: {Key("x"): 1})
        for _ in range(3):
            assert registry.snapshot() == {"p.x": 1}
        registry.register_collector("p", lambda: {Key("x"): 2})
        assert registry.pull_snapshot() == {"p.x": 2}
        assert keys == ["x"]


class TestFold:
    def test_consecutive_calls_share_one_span(self, recorder):
        registry = recorder.registry
        with recorder.span("scan") as scan:
            for _ in range(3):
                with recorder.fold("am.am_getnext", am="t") as span:
                    registry.inc("rows.seen")
            with recorder.span("am.am_endscan"):
                pass
            with recorder.fold("am.am_getnext", am="t"):
                pass
        names = [(c.name, c.attrs.get("calls")) for c in scan.children]
        assert names == [
            ("am.am_getnext", 3), ("am.am_endscan", None), ("am.am_getnext", 1),
        ]
        assert span.attrs == {"am": "t", "calls": 3}
        assert span.metric_deltas == {"rows.seen": 3}
        assert scan.metric_deltas == {"rows.seen": 3}

    def test_duration_covers_only_the_calls(self):
        clock = FakeTimer()
        recorder = SpanRecorder(MetricsRegistry(timer=clock))
        with recorder.span("scan") as scan:
            for _ in range(3):
                with recorder.fold("am.am_getnext") as span:
                    clock.now += 10.0  # inside the call
                clock.now += 100.0  # between calls: the parent's
        # Each call: 10 inside plus the one tick of its end reading.
        assert span.duration == pytest.approx(3 * 11.0)
        assert scan.duration > 300.0

    def test_spans_opened_inside_a_call_nest_under_the_fold(self, recorder):
        registry = recorder.registry
        with recorder.span("scan") as scan:
            with recorder.fold("am.am_getnext") as span:
                with recorder.span("hblade.scan") as inner:
                    registry.inc("hblade.point_lookups")
            with recorder.fold("am.am_getnext"):
                pass
        assert [c.name for c in scan.children] == ["am.am_getnext"]
        assert span.children == [inner] and span.attrs["calls"] == 2
        assert span.metric_deltas == {"hblade.point_lookups": 1}
        assert scan.metric_deltas == {"hblade.point_lookups": 1}

    def test_without_an_open_span_a_fold_is_a_root(self, recorder):
        with recorder.fold("am.am_getnext") as span:
            recorder.registry.inc("x")
        assert list(recorder.roots) == [span]
        assert span.metric_deltas == {"x": 1} and "calls" not in span.attrs

    def test_a_raising_call_still_closes(self, recorder):
        with recorder.span("scan"):
            with pytest.raises(RuntimeError):
                with recorder.fold("am.am_getnext") as span:
                    raise RuntimeError("x")
            assert recorder.current.name == "scan"
        assert span.finished and recorder.current is None


class TestScanSpans:
    @pytest.fixture
    def server(self):
        server = DatabaseServer()
        server.create_sbspace("spc")
        register_grtree_blade(server)
        server.prefer_virtual_index = True
        server.execute("SET SLOW QUERY THRESHOLD 0")  # keep every tree
        server.execute("CREATE TABLE e (n LVARCHAR, te GRT_TimeExtent_t)")
        server.execute("CREATE INDEX gi ON e(te) USING grtree_am IN spc")
        server.clock.set_text("01/01/98")
        for i in range(5):
            server.execute(
                f"INSERT INTO e VALUES ('r{i}', '01/01/98, UC, 01/01/98, NOW')"
            )
        return server

    def _getnext_calls(self, server):
        """The SELECT's folded ``am_getnext`` span's ``calls`` and the
        ``am.calls.am_getnext`` counter's increase."""
        calls = server.obs.metrics.counter("am.calls.am_getnext")
        rows = server.execute(
            "SELECT n FROM e WHERE Overlaps(te, '01/01/98, UC, 01/01/98, NOW')"
        )
        root = server.obs.spans.last_root("sql.select")
        getnext = [c for c in root.children if c.name == "am.am_getnext"]
        assert len(rows) == 5 and len(getnext) == 1
        assert getnext[0].attrs["am"] == "grtree_am"
        assert "am.am_getnext [" in server.execute("SHOW SPANS LIMIT 1")
        folded = getnext[0].attrs["calls"]
        assert f"calls={folded}" in server.execute("SHOW SPANS LIMIT 1")
        return folded, server.obs.metrics.counter("am.calls.am_getnext") - calls

    def test_one_getnext_span_per_scan(self, server):
        # One call returns all five rows (budget NIOROWS), one more ends
        # the scan, each counted.
        assert self._getnext_calls(server) == (2, 2)

    def test_one_row_budget_folds_every_call(self, server, monkeypatch):
        # One call per row plus the call that ends the scan, each counted.
        monkeypatch.setattr(executor, "NIOROWS", 1)
        assert self._getnext_calls(server) == (6, 6)

    def test_disabled_hub_reads_no_clock(self, server):
        reads = []

        def timer():
            reads.append(1)
            return 0.0

        server.obs.metrics.timer = timer
        server.obs.events.timer = timer
        server.obs.disable()
        extent = "'01/01/98, UC, 01/01/98, NOW'"
        server.execute(f"SELECT n FROM e WHERE Overlaps(te, {extent})")
        server.execute(f"INSERT INTO e VALUES ('x', {extent})")
        assert reads == []
        server.obs.enable()
        server.execute("SELECT n FROM e")
        assert reads
