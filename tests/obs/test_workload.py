"""Unit tests for statement fingerprinting and the workload model
(literal normalization, stable hashing, delta extraction, orderings,
bounded eviction, text/JSON rendering)."""

import json
import threading

import pytest

from repro.obs.workload import (
    ORDERINGS,
    WorkloadModel,
    fingerprint,
    normalize,
)
from repro.server import DatabaseServer


class TestNormalize:
    def test_strings_and_numbers_become_placeholders(self):
        sql = "SELECT n FROM e WHERE Overlaps(te, '01/01/98, NOW') AND n = 42"
        assert (
            normalize(sql)
            == "SELECT N FROM E WHERE OVERLAPS(TE, ?) AND N = ?"
        )

    def test_whitespace_collapses_and_case_folds(self):
        assert normalize("select  *\n from   t ") == "SELECT * FROM T"

    def test_doubled_quote_escapes_stay_inside_the_literal(self):
        assert normalize("SELECT 'it''s, NOW' FROM t") == "SELECT ? FROM T"

    def test_identifiers_with_digits_survive(self):
        # The number pattern must not eat the "1" out of "t1" or "x2y".
        assert normalize("SELECT x2y FROM t1") == "SELECT X2Y FROM T1"

    def test_negative_and_decimal_numbers(self):
        assert normalize("SELECT -3.25, 7 FROM t") == "SELECT ?, ? FROM T"


class TestFingerprint:
    def test_literal_insensitive(self):
        a = fingerprint("SELECT n FROM e WHERE n = 1")
        b = fingerprint("select n from e where n = 999")
        assert a == b

    def test_distinct_shapes_differ(self):
        assert fingerprint("SELECT a FROM t") != fingerprint("SELECT b FROM t")

    def test_stable_twelve_hex_digits(self):
        fp = fingerprint("SELECT 1")
        assert fp == fingerprint("SELECT  2")
        assert len(fp) == 12
        int(fp, 16)  # all hex


class TestObserve:
    def test_counts_latency_and_rows(self):
        model = WorkloadModel()
        model.observe("SELECT n FROM t WHERE n = 1", 0.010, rows=3)
        model.observe("SELECT n FROM t WHERE n = 2", 0.030, rows=5)
        stats = model.get(fingerprint("SELECT n FROM t WHERE n = 0"))
        assert stats.calls == 2
        assert stats.rows_returned == 8
        assert stats.total_time == pytest.approx(0.040)
        assert stats.mean_time == pytest.approx(0.020)
        assert stats.latency.count == 2

    def test_deltas_extracted_by_suffix(self):
        model = WorkloadModel()
        stats = model.observe(
            "SELECT * FROM t",
            0.001,
            deltas={
                "pool.logical_reads": 4,
                "sbspace.logical_reads": 2,
                "pool.logical_writes": 1,
                "buffer.index.gi.decode_hits": 6,
                "buffer.index.gi.decodes": 2,
                "locks.conflicts": 3,
                "locks.wait_seconds": 0.25,
                "wal.records": 9,  # unrelated: must not be counted
                # neither failpoint nor statement-cache hits are cache hits
                "faults.wal.append.hits": 3,
                "sql.stmtcache.hits": 4,
                "sql.stmtcache.misses": 5,
            },
        )
        assert stats.pages_read == 6
        assert stats.pages_written == 1
        assert stats.cache_hits == 6
        assert stats.cache_misses == 2
        assert stats.cache_hit_ratio == pytest.approx(0.75)
        assert stats.lock_waits == 3
        assert stats.lock_wait_seconds == pytest.approx(0.25)

    def test_cache_ratio_defaults_to_one_without_lookups(self):
        model = WorkloadModel()
        stats = model.observe("SELECT 1", 0.001)
        assert stats.cache_hit_ratio == 1.0

    def test_failpoint_hits_are_not_cache_hits(self):
        server = DatabaseServer()
        server.enable_wal_shipping()  # each INSERT logs its row
        server.execute("CREATE TABLE t (a INTEGER)")
        server.execute("SET FAULT wal.append RAISE HIT 1000000")
        for i in range(3):
            server.execute(f"INSERT INTO t VALUES ({i})")
        (entry,) = [
            entry
            for entry in json.loads(server.execute("SHOW WORKLOAD JSON"))[
                "fingerprints"
            ]
            if entry["statement"] == "INSERT INTO T VALUES (?)"
        ]
        # BEGIN, ROW_INSERT and COMMIT per statement.
        assert server.faults.armed()["wal.append"].endswith("hits=9 triggers=0")
        assert entry["calls"] == 3
        assert entry["cache_hit_ratio"] == 1.0
        stats = server.obs.workload.get(entry["fingerprint"])
        assert (stats.cache_hits, stats.cache_misses) == (0, 0)

    def test_errors_counted(self):
        model = WorkloadModel()
        model.observe("DELETE FROM t", 0.001, error=True)
        model.observe("DELETE FROM t", 0.001)
        stats = model.get(fingerprint("DELETE FROM t"))
        assert stats.errors == 1
        assert stats.calls == 2


class TestEvictionAndOrdering:
    def test_least_recently_executed_shape_evicted(self):
        model = WorkloadModel(max_fingerprints=2)
        model.observe("SELECT a FROM t", 0.001)
        model.observe("SELECT b FROM t", 0.001)
        model.observe("SELECT a FROM t", 0.001)  # refresh a
        model.observe("SELECT c FROM t", 0.001)  # evicts b
        assert len(model) == 2
        assert model.evicted == 1
        assert model.get(fingerprint("SELECT b FROM t")) is None
        assert model.get(fingerprint("SELECT a FROM t")) is not None

    def test_top_orderings(self):
        model = WorkloadModel()
        for _ in range(3):
            model.observe("SELECT fast FROM t", 0.001)
        model.observe("SELECT slow FROM t", 0.100)
        by_calls = model.top(1, by="calls")[0]
        assert by_calls.statement == "SELECT FAST FROM T"
        by_total = model.top(1, by="total_time")[0]
        assert by_total.statement == "SELECT SLOW FROM T"
        by_mean = model.top(1, by="mean_time")[0]
        assert by_mean.statement == "SELECT SLOW FROM T"

    def test_unknown_ordering_rejected(self):
        model = WorkloadModel()
        with pytest.raises(ValueError, match="unknown workload ordering"):
            model.top(5, by="rows")
        assert "rows" not in ORDERINGS

    def test_to_dict_shape(self):
        model = WorkloadModel()
        model.observe("SELECT 1", 0.002, rows=1)
        payload = model.to_dict(top=10, by="calls")
        assert payload["distinct_statements"] == 1
        assert payload["evicted"] == 0
        assert payload["ordered_by"] == "calls"
        (entry,) = payload["fingerprints"]
        assert entry["statement"] == "SELECT ?"
        assert entry["example"] == "SELECT 1"
        assert entry["calls"] == 1
        assert set(entry) >= {"p50", "p95", "p99", "cache_hit_ratio"}

    def test_report_lists_statements(self):
        model = WorkloadModel()
        model.observe("SELECT n FROM t WHERE n = 7", 0.004, rows=2)
        text = model.report()
        assert "workload model -- 1 fingerprint(s)" in text
        assert "SELECT N FROM T WHERE N = ?" in text

    def test_empty_report(self):
        assert WorkloadModel().report() == "(no statements recorded)"

    def test_reset(self):
        model = WorkloadModel(max_fingerprints=1)
        model.observe("SELECT a FROM t", 0.001)
        model.observe("SELECT b FROM t", 0.001)
        assert model.evicted == 1
        model.reset()
        assert len(model) == 0
        assert model.evicted == 0


class TestThreadSafety:
    def test_concurrent_observes_are_not_lost(self):
        model = WorkloadModel()
        rounds = 200

        def worker(i):
            for _ in range(rounds):
                model.observe(f"SELECT col{i} FROM t WHERE n = 1", 0.001)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(model) == 8
        assert all(s.calls == rounds for s in model.top())
