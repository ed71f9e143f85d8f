"""End-to-end tests for the observability layer: SHOW STATS / SHOW SPANS
/ SET TRACE CLASS, span trees over a GR-tree workload, the satellite
invariant tying span page-read deltas to BufferPool miss counts, and the
``repro.cli stats`` subcommand."""

import io
import json

import pytest

from repro.cli import Shell, main, stats_main
from repro.datablade import register_grtree_blade
from repro.server import DatabaseServer

EXTENT = "'01/01/98, UC, 01/01/98, NOW'"

WORKLOAD = [
    "CREATE TABLE e (n LVARCHAR, te GRT_TimeExtent_t)",
    "CREATE INDEX gi ON e(te) USING grtree_am IN spc",
]


@pytest.fixture
def server():
    s = DatabaseServer()
    s.create_sbspace("spc")
    register_grtree_blade(s)
    s.prefer_virtual_index = True
    for statement in WORKLOAD:
        s.execute(statement)
    s.clock.set_text("01/01/98")
    for i in range(8):
        s.execute(f"INSERT INTO e VALUES ('r{i}', {EXTENT})")
        s.clock.advance(1)
    return s


class TestShowStats:
    def test_text_report_has_nonzero_sections(self, server):
        server.execute(f"SELECT n FROM e WHERE Overlaps(te, {EXTENT})")
        report = server.execute("SHOW STATS")
        assert "repro observability" in report
        assert "am.calls" in report
        assert "buffer hit ratio:" in report
        assert "acquires" in report
        # the workload really moved the counters
        obs = server.obs
        assert obs.metrics.counter("am.calls") > 0
        assert obs.metrics.counter("am.calls.am_insert") >= 8
        assert obs.metrics.counter("grtree.inserts") >= 8
        assert obs.metrics.snapshot()["locks.acquires"] > 0

    def test_json_matches_text_data(self, server):
        server.execute(f"SELECT n FROM e WHERE Overlaps(te, {EXTENT})")
        payload = json.loads(server.execute("SHOW STATS JSON"))
        assert payload["enabled"] is True
        counters = payload["metrics"]["counters"]
        assert counters["am.calls"] == server.obs.metrics.counter("am.calls")
        assert payload["buffer_totals"]["logical_reads"] > 0
        assert 0.0 <= payload["buffer_totals"]["hit_ratio"] <= 1.0

    def test_statement_latency_histogram_fills(self, server):
        h = server.obs.metrics.histogram("sql.statement_seconds")
        assert h.count >= len(WORKLOAD) + 8


class TestSpans:
    def test_select_produces_a_span_tree(self, server):
        server.execute("SET SLOW QUERY THRESHOLD 0")  # keep every tree
        rows = server.execute(f"SELECT n FROM e WHERE Overlaps(te, {EXTENT})")
        assert len(rows) == 8
        root = server.obs.spans.last_root("sql.select")
        assert root is not None
        assert root.find("sql.parse") is not None
        assert root.find("plan.choose") is not None
        assert root.find("am.am_getnext") is not None
        rendered = server.execute("SHOW SPANS")
        assert "sql.select" in rendered
        assert "am.am_getnext" in rendered

    def test_show_spans_json(self, server):
        server.execute(f"SELECT n FROM e WHERE Overlaps(te, {EXTENT})")
        trees = json.loads(server.execute("SHOW SPANS JSON"))
        names = {tree["name"] for tree in trees}
        assert "sql.select" in names and "sql.insert" in names

    def test_introspection_statements_are_unspanned(self, server):
        before = len(server.obs.spans.roots)
        server.execute("SHOW STATS")
        server.execute("SHOW SPANS")
        server.execute("SET TRACE CLASS am LEVEL 1")
        assert len(server.obs.spans.roots) == before

    def test_span_page_reads_match_buffer_pool_misses(self, server):
        """Satellite: the root span's buffer-pool deltas must agree with
        the IOStats counters of the pool the query ran against.

        The blade's handle cache keeps the pool (and its warm frames)
        alive across statements, so the query's own I/O is the snapshot
        diff over the SELECT -- and warm frames legitimately mean zero
        physical reads."""
        pool = server.obs.pools["index.gi"]
        before = pool.stats.snapshot()
        server.execute(f"SELECT n FROM e WHERE Overlaps(te, {EXTENT})")
        assert server.obs.pools["index.gi"] is pool  # handle cache reuse
        io = pool.stats - before
        root = server.obs.spans.last_root("sql.select")
        deltas = root.metric_deltas
        assert io.logical_reads > 0
        assert deltas["buffer.index.gi.logical_reads"] == io.logical_reads
        # zero-delta metrics are omitted from the span's delta map
        assert deltas.get("buffer.index.gi.physical_reads", 0) == io.physical_reads

    def test_disabled_obs_records_nothing_but_sql_still_runs(self, server):
        server.obs.disable()
        before = len(server.obs.spans.roots)
        calls = server.obs.metrics.counter("am.calls")
        rows = server.execute(f"SELECT n FROM e WHERE Overlaps(te, {EXTENT})")
        assert len(rows) == 8
        assert len(server.obs.spans.roots) == before
        assert server.obs.metrics.counter("am.calls") == calls


class TestSetTraceClass:
    def test_sets_level(self, server):
        message = server.execute("SET TRACE CLASS am LEVEL 2")
        assert "am" in message and "2" in message
        assert server.trace.levels()["am"] == 2
        assert "am=2" in server.execute("SHOW STATS")


SCRIPT = """\
\\sbspace spc
\\install grtree
\\prefer on
CREATE TABLE e (n LVARCHAR, te GRT_TimeExtent_t);
CREATE INDEX gi ON e(te) USING grtree_am IN spc;
\\clock set 01/01/98
INSERT INTO e VALUES ('a', '01/01/98, UC, 01/01/98, NOW');
SELECT n FROM e WHERE Overlaps(te, '01/01/98, UC, 01/01/98, NOW');
"""


class TestCli:
    @pytest.fixture
    def script(self, tmp_path):
        path = tmp_path / "workload.sql"
        path.write_text(SCRIPT)
        return str(path)

    def test_stats_subcommand_emits_valid_json(self, script):
        out = io.StringIO()
        assert stats_main(["-f", script], out=out) == 0
        payload = json.loads(out.getvalue())
        assert payload["metrics"]["counters"]["am.calls"] > 0
        assert payload["buffer_totals"]["logical_reads"] > 0
        assert "spans" not in payload  # only with --spans

    def test_stats_subcommand_spans_and_text(self, script):
        out = io.StringIO()
        stats_main(["-f", script, "--spans"], out=out)
        assert "sql.select" in json.dumps(json.loads(out.getvalue())["spans"])
        out = io.StringIO()
        stats_main(["-f", script, "--format", "text", "--spans"], out=out)
        assert "buffer hit ratio:" in out.getvalue()
        assert "am.am_getnext" in out.getvalue()

    def test_main_dispatches_stats(self, script, capsys):
        assert main(["stats", "-f", script]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("{")
        payload = json.loads("\n".join(lines[start:]))
        assert payload["enabled"] is True

    def test_shell_meta_commands(self):
        shell = Shell()
        out = io.StringIO()
        shell.run_line("CREATE TABLE t (a INTEGER)", out)
        shell.run_line("\\stats", out)
        shell.run_line("\\stats json", out)
        shell.run_line("\\spans", out)
        text = out.getvalue()
        assert "repro observability" in text
        assert '"sql.statements"' in text
        assert "sql.createtable" in text
