"""Server-side caching: the parsed-statement cache, configurable
buffer pool sizes (server-wide and per ``CREATE INDEX ... WITH``), the
blade's handle cache, and their SHOW STATS surfacing."""

import pytest

from repro.datablade import register_grtree_blade
from repro.server import DatabaseServer
from repro.server import sql as ast

EXTENT = "'01/01/98, UC, 01/01/98, NOW'"


@pytest.fixture
def server():
    s = DatabaseServer()
    s.create_sbspace("spc")
    register_grtree_blade(s)
    s.prefer_virtual_index = True
    s.execute("CREATE TABLE e (n LVARCHAR, te GRT_TimeExtent_t)")
    s.execute("CREATE INDEX gi ON e(te) USING grtree_am IN spc")
    s.clock.set_text("01/01/98")
    return s


class TestStatementCache:
    def test_repeated_sql_text_hits_the_cache(self, server):
        sql = f"SELECT n FROM e WHERE Overlaps(te, {EXTENT})"
        before_hits = server._stmt_cache_hits
        server.execute(sql)
        server.execute(sql)
        server.execute(sql)
        assert server._stmt_cache_hits == before_hits + 2

    def test_cached_statement_reexecutes_correctly(self, server):
        sql = f"SELECT n FROM e WHERE Overlaps(te, {EXTENT})"
        assert server.execute(sql) == []
        server.execute(f"INSERT INTO e VALUES ('a', {EXTENT})")
        # Same text, cached parse tree, fresh data.
        assert [r["n"] for r in server.execute(sql)] == ["a"]

    def test_introspection_statements_bypass_the_cache(self, server):
        before = len(server._statement_cache)
        server.execute("SHOW STATS")
        server.execute("SHOW SPANS")
        server.execute("SET TRACE CLASS am LEVEL 1")
        assert len(server._statement_cache) == before
        assert all(
            not isinstance(stmt, ast.Admin)
            for stmt in server._statement_cache.values()
        )

    def test_lru_bound_is_enforced(self):
        s = DatabaseServer(statement_cache_size=2)
        s.execute("CREATE TABLE a (x INTEGER)")
        s.execute("CREATE TABLE b (x INTEGER)")
        s.execute("CREATE TABLE c (x INTEGER)")
        assert len(s._statement_cache) == 2

    def test_zero_size_disables_caching(self):
        s = DatabaseServer(statement_cache_size=0)
        s.execute("CREATE TABLE a (x INTEGER)")
        s.execute("INSERT INTO a VALUES (1)")
        s.execute("INSERT INTO a VALUES (1)")
        assert len(s._statement_cache) == 0
        assert s._stmt_cache_hits == 0

    def test_counters_surface_in_show_stats(self, server):
        sql = f"SELECT n FROM e WHERE Overlaps(te, {EXTENT})"
        server.execute(sql)
        server.execute(sql)
        snapshot = server.obs.metrics.snapshot()
        assert snapshot["sql.stmtcache.hits"] >= 1
        assert snapshot["sql.stmtcache.misses"] >= 1
        report = server.execute("SHOW STATS")
        assert "sql.stmtcache.hits" in report


class TestCreateIndexWith:
    def test_with_clause_parses_into_parameters(self):
        stmt = ast.parse(
            "CREATE INDEX hi ON e(k) USING hblade_am IN spc "
            "WITH (buffer_capacity = 8, hash_path = 0)"
        )
        assert stmt.parameters == {"buffer_capacity": 8, "hash_path": 0}

    def test_with_clause_sizes_the_caches(self, server):
        server.execute(
            "CREATE TABLE t2 (n LVARCHAR, te GRT_TimeExtent_t)"
        )
        server.execute(
            "CREATE INDEX gi2 ON t2(te) USING grtree_am IN spc "
            "WITH (buffer_capacity = 8)"
        )
        server.execute(f"INSERT INTO t2 VALUES ('a', {EXTENT})")
        pool = server.obs.pools["index.gi2"]
        assert pool.capacity == 8
        info = server.catalog.get_index("gi2")
        assert info.parameters["buffer_capacity"] == 8

    def test_server_wide_defaults_apply(self):
        s = DatabaseServer(buffer_capacity=24)
        s.create_sbspace("spc")
        register_grtree_blade(s)
        s.prefer_virtual_index = True
        s.execute("CREATE TABLE e (n LVARCHAR, te GRT_TimeExtent_t)")
        s.execute("CREATE INDEX gi ON e(te) USING grtree_am IN spc")
        assert s.obs.pools["index.gi"].capacity == 24

    def test_capacity_column_in_show_stats(self, server):
        server.execute(f"INSERT INTO e VALUES ('a', {EXTENT})")
        report = server.execute("SHOW STATS")
        assert "frames" in report   # buffer-pool capacity column
        assert "decodes" in report  # decoded-page column


class TestHandleCache:
    def test_pool_survives_across_statements(self, server):
        server.execute(f"INSERT INTO e VALUES ('a', {EXTENT})")
        pool = server.obs.pools["index.gi"]
        server.execute(f"SELECT n FROM e WHERE Overlaps(te, {EXTENT})")
        assert server.obs.pools["index.gi"] is pool

    def test_handle_cache_off_rebuilds_per_statement(self):
        s = DatabaseServer()
        s.create_sbspace("spc")
        register_grtree_blade(s, handle_cache=False)
        s.prefer_virtual_index = True
        s.execute("CREATE TABLE e (n LVARCHAR, te GRT_TimeExtent_t)")
        s.execute("CREATE INDEX gi ON e(te) USING grtree_am IN spc")
        s.execute(f"INSERT INTO e VALUES ('a', {EXTENT})")
        pool = s.obs.pools["index.gi"]
        s.execute(f"SELECT n FROM e WHERE Overlaps(te, {EXTENT})")
        assert s.obs.pools["index.gi"] is not pool

    def test_drop_and_recreate_does_not_reuse_stale_handle(self, server):
        server.execute(f"INSERT INTO e VALUES ('a', {EXTENT})")
        server.execute("DROP INDEX gi")
        server.execute("CREATE INDEX gi ON e(te) USING grtree_am IN spc")
        rows = server.execute(f"SELECT n FROM e WHERE Overlaps(te, {EXTENT})")
        assert [r["n"] for r in rows] == ["a"]
        server.execute("CHECK INDEX gi")

    def test_rollback_invalidates_cached_handles(self, server):
        session = server.create_session()
        server.execute(f"INSERT INTO e VALUES ('kept', {EXTENT})", session)
        server.execute("BEGIN WORK", session)
        server.execute(f"INSERT INTO e VALUES ('doomed', {EXTENT})", session)
        server.execute("ROLLBACK WORK", session)
        rows = server.execute(
            f"SELECT n FROM e WHERE Overlaps(te, {EXTENT})", session
        )
        assert [r["n"] for r in rows] == ["kept"]
        server.execute("CHECK INDEX gi", session)
