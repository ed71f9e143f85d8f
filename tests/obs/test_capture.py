"""Which statements keep their span tree, and what a root-only record
holds.

The server decides once per statement: a statement carrying a wire
trace context keeps its tree; with ``SET SLOW QUERY THRESHOLD`` set,
every statement builds its tree and keeps it only if it was slow or
failed; by default every root is recorded alone.  A root-only record
still carries its name, attributes, duration, error and full
metric-delta map.  Also here: the collectors' fresh-map rule, and the
workload model's one fingerprint per statement shape.
"""

import pytest

from repro.bblade import register_btree_blade
from repro.datablade import register_grtree_blade
from repro.faults import FaultRegistry
from repro.hblade import register_hybrid_blade
from repro.net import NetServer, ReproClient
from repro.obs import workload
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.server import DatabaseServer, ServerError

from .test_metrics import FakeTimer

SELECT = "SELECT v FROM t WHERE k = {}"


def make_server(**kwargs):
    server = DatabaseServer(**kwargs)
    server.create_sbspace("spc")
    register_btree_blade(server)
    server.prefer_virtual_index = True
    server.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
    server.execute("CREATE INDEX bi ON t(k) USING btree_am IN spc")
    for k in range(4):
        server.execute(f"INSERT INTO t VALUES ({k}, {10 * k})")
    return server


def below(root):
    return {span.name for span in root.children}


class TestCaptureRule:
    def test_by_default_a_statement_is_root_only(self):
        server = make_server()
        assert server.execute(SELECT.format(2)) == [{"v": 20}]
        root = server.obs.spans.last_root()
        assert root.name == "sql.select" and root.children == []
        assert root.attrs == {"sql": SELECT.format(2)}
        assert root.duration > 0
        assert root.metric_deltas["am.calls.am_getnext"] == 2
        assert root.metric_deltas["buffer.index.bi.logical_reads"] == 1
        assert server.system_session.last_root_span is root

    def test_a_traced_wire_statement_keeps_its_tree(self):
        server = make_server()
        net = NetServer(server, workers=2, queue_depth=4).start()
        try:
            with ReproClient(net.host, net.port, read_timeout=10.0) as client:
                client.execute(SELECT.format(2))  # the client traces by default
                traced = client.last_trace_id
                client.tracing = False
                profiled = client.execute(SELECT.format(1), explain_profile=True)
                client.execute(SELECT.format(3))
        finally:
            net.shutdown()
        assert profiled.value == [{"v": 10}]
        spans = server.obs.spans
        for trace_id in (traced, profiled.trace_id):
            (root,) = spans.select(trace_id=trace_id)
            assert {"sql.parse", "plan.choose", "am.am_getnext"} <= below(root)
        untraced = spans.last_root()
        assert "trace_id" not in untraced.attrs and untraced.children == []

    def test_with_a_threshold_a_fast_statement_is_root_only(self):
        server = make_server()
        server.execute("SET SLOW QUERY THRESHOLD 60000")
        server.execute(SELECT.format(1))
        assert server.obs.spans.last_root().children == []
        assert len(server.obs.events) == 0

    def test_with_a_threshold_a_slow_statement_keeps_its_tree(self):
        server = make_server()
        server.execute("SET SLOW QUERY THRESHOLD 500")
        server.obs.metrics.timer = FakeTimer(step=1.0)  # every read: +1 s
        server.execute(SELECT.format(1))
        root = server.obs.spans.last_root()
        assert {"sql.parse", "plan.choose", "am.am_getnext"} <= below(root)
        (event,) = server.obs.events.tail()
        assert event.type == "slow_query"

    def test_with_a_threshold_a_failing_statement_keeps_its_tree(self):
        server = make_server()
        server.execute("SET SLOW QUERY THRESHOLD 60000")
        with pytest.raises(ServerError):
            server.execute("INSERT INTO t VALUES ('not a number', 1)")
        root = server.obs.spans.last_root()
        assert "error" in root.attrs
        assert "sql.parse" in below(root)

    def test_without_a_threshold_a_failing_statement_is_root_only(self):
        server = make_server()
        with pytest.raises(ServerError):
            server.execute("INSERT INTO t VALUES ('not a number', 1)")
        root = server.obs.spans.last_root()
        assert "error" in root.attrs and root.children == []

    def test_threshold_zero_keeps_every_tree(self):
        server = make_server()
        server.execute("SET SLOW QUERY THRESHOLD 0")
        server.execute(SELECT.format(1))
        assert "am.am_getnext" in below(server.obs.spans.last_root())


class TestBareStatements:
    @pytest.fixture
    def recorder(self):
        return SpanRecorder(MetricsRegistry(timer=FakeTimer()))

    def test_nothing_below_a_bare_root_and_every_counter_on_it(self, recorder):
        registry = recorder.registry
        with recorder.statement("sql.select", {"sql": "s"}, False) as root:
            with recorder.span("plan.choose") as child:
                assert child is None
                registry.inc("plan.indexscan")
            for _ in range(3):
                with recorder.fold("am.am_getnext"):
                    registry.inc("am.calls")
            assert recorder.add_completed_child("sql.parse", 0.0, 1.0) is None
        assert root.children == []
        assert root.metric_deltas == {"plan.indexscan": 1, "am.calls": 3}
        assert registry.counter("am.calls") == 3

    def test_spans_record_again_after_a_bare_statement(self, recorder):
        with recorder.statement("sql.select", {}, False):
            pass
        with recorder.span("root") as root:
            with recorder.span("child"):
                pass
        assert below(root) == {"child"}

    def test_a_statement_with_a_tree_records_its_children(self, recorder):
        with recorder.statement("sql.select", {}, True) as root:
            with recorder.span("plan.choose"):
                pass
        assert below(root) == {"plan.choose"}


class TestFreshMaps:
    def test_every_collector_returns_a_fresh_map(self, tmp_path):
        """A root keeps the maps pulled at its start: a collector that
        handed back one map and mutated it would show no deltas."""
        server = DatabaseServer(faults=FaultRegistry())
        server.create_sbspace("spc")
        register_grtree_blade(server)
        register_btree_blade(server)
        register_hybrid_blade(server)
        server.ensure_wal_shipper()
        net = NetServer(server, workers=1, queue_depth=2).start()
        try:
            server.execute("CREATE TABLE e (te GRT_TimeExtent_t, k INTEGER)")
            server.execute("CREATE INDEX gi ON e(te) USING grtree_am IN spc")
            server.execute("CREATE INDEX hi ON e(k) USING hblade_am IN spc")
            server.execute("CREATE INDEX bi ON e(k) USING btree_am IN spc")
            registry = server.obs.metrics
            first, second = registry.pull(), registry.pull()
        finally:
            net.shutdown()
        prefixes = {"buffer.index.gi", "buffer.index.hi.hash", "faults",
                    "locks", "net", "repl", "sbspace.spc", "sql.stmtcache",
                    "wal"}
        assert prefixes <= set(first)
        for prefix in first:
            assert first[prefix] is not second[prefix], prefix
            assert first[prefix] == second[prefix], prefix

    def test_root_deltas_compare_collector_by_collector(self):
        registry = MetricsRegistry()
        pool, gone = {"reads": 1, "frames": 4}, {"x": 1}
        registry.register_collector("buffer.p", lambda: dict(pool))
        registry.register_collector("gone", lambda: dict(gone))
        before = registry.pull()
        flat = registry.pull_snapshot()
        pool["reads"] += 2
        gone["x"] += 1
        registry.unregister_collector("gone")
        registry.register_collector("new", lambda: {"n": 5, "zero": 0})
        registry.set_gauge("g", 3)
        deltas = {}
        registry.pull_deltas(before, deltas)
        assert deltas == MetricsRegistry.delta(flat, registry.pull_snapshot())
        assert deltas == {"buffer.p.reads": 2, "new.n": 5, "g": 3}


class TestFingerprintPerShape:
    @pytest.fixture
    def normalized(self, monkeypatch):
        texts = []
        normalize = workload.normalize

        def counting(sql):
            texts.append(sql)
            return normalize(sql)

        monkeypatch.setattr(workload, "normalize", counting)
        return texts

    def test_the_fingerprinter_runs_once_per_shape(self, normalized):
        server = make_server()
        del normalized[:]
        for k in range(4):
            server.execute(SELECT.format(k))
        server.execute("SELECT  v FROM t WHERE k=7")  # same shape
        assert normalized == [SELECT.format(0)]
        (stats,) = [
            s for s in server.obs.workload.top() if s.statement.startswith("SELECT")
        ]
        assert stats.calls == 5 and stats.example == SELECT.format(0)
        assert stats.fingerprint == workload.fingerprint(SELECT.format(9))

    def test_without_the_statement_cache_every_text_is_fingerprinted(
        self, normalized
    ):
        server = make_server(statement_cache_size=0)
        del normalized[:]
        for k in range(4):
            server.execute(SELECT.format(k))
        assert normalized == [SELECT.format(k) for k in range(4)]

    def test_shapes_are_bounded_and_evicted_with_their_fingerprint(self):
        model = workload.WorkloadModel(max_fingerprints=2)
        for name in ("a", "b", "c"):
            model.observe(f"SELECT {name} FROM t", 0.001, shape=("SELECT", name))
        assert len(model) == 2 and model.evicted == 1
        assert set(model._shapes) == {("SELECT", "b"), ("SELECT", "c")}
        model.reset()
        assert model._shapes == {}
