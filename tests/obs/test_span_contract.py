"""What each statement's root span and the workload model report, pinned.

A fixed single-thread script runs on a server with the ``grtree_am``,
``btree_am`` and ``hblade_am`` access methods: CREATE, LOAD, SELECT
through the hash path, the B+-tree and the GR-tree, INSERT, UPDATE and
DELETE.  After every statement this module checks, against constants:

* the root span's name and its full metric-delta map;
* the set of span names below the root;
* ``SHOW WORKLOAD JSON`` without its timing fields;
* the ``am.calls`` and ``am.calls.<slot>`` counters.

How spans collect their figures may change; these figures may not.  The
script runs twice: with ``SET SLOW QUERY THRESHOLD 0``, so every
statement keeps its span tree, and with no threshold, so every root is
recorded alone -- nothing below it, every other figure the same.  The
statement cache is off, so a statement's figures do not depend on which
statement texts ran before it.  Without numpy the GR-tree's
specialization counters (``spec.*``) stay at zero and drop out of the
deltas; nothing else differs.
"""

import json

from repro.bblade import register_btree_blade
from repro.datablade import register_grtree_blade
from repro.grtree.specialize import numpy_available
from repro.hblade import register_hybrid_blade
from repro.obs.workload import fingerprint, normalize
from repro.server import DatabaseServer

EXTENT = "'01/01/98, UC, 01/01/98, NOW'"
WINDOW = "'01/04/98, UC, 01/02/98, NOW'"
LOAD_FILE = "<load file>"

#: The workload model's fields that hold times.
TIMINGS = ("total_time", "mean_time", "p50", "p95", "p99")

SCRIPT = [
    "CREATE TABLE e (n LVARCHAR, te GRT_TimeExtent_t, k INTEGER, j INTEGER)",
    "CREATE INDEX gi ON e(te) USING grtree_am IN spc",
    "CREATE INDEX hi ON e(k) USING hblade_am IN spc",
    "CREATE INDEX bi ON e(j) USING btree_am IN spc",
    f"LOAD FROM '{LOAD_FILE}' INSERT INTO e",
    "SELECT n FROM e WHERE k = 3",
    "SELECT n FROM e WHERE j >= 20 AND j <= 50",
    f"SELECT n FROM e WHERE Overlaps(te, {WINDOW})",
    f"INSERT INTO e VALUES ('x', {EXTENT}, 100, 1000)",
    "UPDATE e SET j = 70 WHERE k = 4",
    "DELETE FROM e WHERE k = 5",
    f"SELECT n, k FROM e WHERE Overlaps(te, {EXTENT})",
]


def load_lines():
    """Twelve rows: ground and now-relative extents over four days."""
    lines = []
    for i in range(12):
        day = 1 + i % 4
        extent = (
            f"01/0{day}/98, UC, 01/0{day}/98, NOW"
            if i % 2
            else f"01/0{day}/98, UC, 01/01/98, 01/0{day}/98"
        )
        lines.append(f"r{i}|{extent}|{i}|{10 * i}")
    return lines


def run_script(tmp_path, threshold=None):
    """Run :data:`SCRIPT` under ``SET SLOW QUERY THRESHOLD`` *threshold*
    (none when ``None``); one record per statement."""
    path = tmp_path / "rows.unl"
    path.write_text("".join(line + "\n" for line in load_lines()))
    server = DatabaseServer(statement_cache_size=0)
    server.create_sbspace("spc")
    register_grtree_blade(server)
    register_btree_blade(server)
    register_hybrid_blade(server)
    server.prefer_virtual_index = True
    server.clock.set_text("01/05/98")
    server.obs.reset()
    if threshold is not None:
        server.execute(f"SET SLOW QUERY THRESHOLD {threshold}")
    records = []
    for sql in SCRIPT:
        server.execute(sql.replace(LOAD_FILE, str(path)))
        root = server.obs.spans.last_root()
        workload = json.loads(server.execute("SHOW WORKLOAD JSON"))
        records.append({
            "root": root.name,
            "deltas": root.metric_deltas,
            "below": _names_below(root),
            "workload": {
                entry["fingerprint"]: {
                    key: value.replace(str(path), LOAD_FILE)
                    if isinstance(value, str) else value
                    for key, value in entry.items()
                    if key not in TIMINGS
                }
                for entry in workload["fingerprints"]
            },
            "am_calls": {
                name: value
                for name, value in server.obs.metrics.snapshot().items()
                if name == "am.calls" or name.startswith("am.calls.")
            },
        })
    return records


def _names_below(span):
    names = set()
    for child in span.children:
        names.add(child.name)
        names |= _names_below(child)
    return names


def _workload_entry(sql, figures):
    """One statement's SHOW WORKLOAD JSON entry after its only call."""
    return {
        "fingerprint": fingerprint(sql),
        "statement": normalize(sql),
        "example": sql,
        "calls": 1,
        "errors": 0,
        "lock_waits": 0.0,
        "lock_wait_seconds": 0.0,
        **figures,
    }


def expected_records():
    """The records :func:`run_script` must return, built from
    :data:`EXPECTED`: the workload model holds one entry per statement
    so far, and the ``am.calls`` counters are the running sums of the
    root deltas (every purpose-function call runs under a root)."""
    records, workload, am_calls = [], {}, {}
    for sql, (root, deltas, below, figures) in zip(SCRIPT, EXPECTED):
        if not numpy_available():
            deltas = {
                name: value
                for name, value in deltas.items()
                if not name.startswith("spec.")
            }
        entry = _workload_entry(sql, figures)
        workload[entry["fingerprint"]] = entry
        for name, value in deltas.items():
            if name.startswith("am.calls"):
                am_calls[name] = am_calls.get(name, 0) + value
        records.append({
            "root": root,
            "deltas": deltas,
            "below": set(below),
            "workload": dict(workload),
            "am_calls": dict(am_calls),
        })
    return records


def test_every_statement_reports_what_it_did(tmp_path):
    records = run_script(tmp_path, threshold=0)
    expected = expected_records()
    assert len(records) == len(expected) == len(SCRIPT)
    for sql, got, want in zip(SCRIPT, records, expected):
        for field in want:
            assert got[field] == want[field], (sql, field)


def test_root_only_records_report_the_same_figures(tmp_path):
    """No threshold, no trace context: each root is recorded alone and
    still carries every figure of the captured leg."""
    records = run_script(tmp_path)
    expected = expected_records()
    assert len(records) == len(expected) == len(SCRIPT)
    for sql, got, want in zip(SCRIPT, records, expected):
        assert got["below"] == set(), sql
        for field in want:
            if field != "below":
                assert got[field] == want[field], (sql, field)


#: Per statement of :data:`SCRIPT`: the root span's name, its metric
#: deltas, the span names below it, and the workload figures of its
#: fingerprint.
EXPECTED = [
    # CREATE TABLE e (n LVARCHAR, te GRT_TimeExtent_t, k INTEGER, j INTEGER)
    (
        "sql.createtable",
        {},
        ["sql.parse"],
        {"rows_returned": 0,
         "pages_read": 0.0,
         "pages_written": 0.0,
         "cache_hit_ratio": 1.0},
    ),
    # CREATE INDEX gi ON e(te) USING grtree_am IN spc
    (
        "sql.createindex",
        {"am.calls": 3,
         "am.calls.am_close": 1,
         "am.calls.am_create": 1,
         "am.calls.am_open": 1,
         "buffer.index.gi.logical_writes": 2,
         "buffer.index.gi.physical_writes": 2,
         "buffer.index.gi.resident_pages": 2,
         "locks.acquires": 1,
         "locks.releases": 1,
         "sbspace.spc.closes": 1,
         "sbspace.spc.large_objects": 1,
         "sbspace.spc.opens": 1,
         "sbspace.spc.page_writes": 2,
         "spec.index.gi.vectorized": 1,
         "wal.commits": 1,
         "wal.kind.begin": 1,
         "wal.kind.commit": 1,
         "wal.kind.create_lo": 1,
         "wal.kind.page_alloc": 2,
         "wal.kind.page_write": 2,
         "wal.last_lsn": 7,
         "wal.records": 7},
        ["am.am_close", "am.am_create", "am.am_open", "sql.parse"],
        {"rows_returned": 0,
         "pages_read": 0.0,
         "pages_written": 2.0,
         "cache_hit_ratio": 1.0},
    ),
    # CREATE INDEX hi ON e(k) USING hblade_am IN spc
    (
        "sql.createindex",
        {"am.calls": 3,
         "am.calls.am_close": 1,
         "am.calls.am_create": 1,
         "am.calls.am_open": 1,
         "buffer.index.hi.hash.logical_writes": 10,
         "buffer.index.hi.hash.physical_writes": 10,
         "buffer.index.hi.hash.resident_pages": 10,
         "buffer.index.hi.tree.logical_writes": 2,
         "buffer.index.hi.tree.physical_writes": 2,
         "buffer.index.hi.tree.resident_pages": 2,
         "locks.acquires": 2,
         "locks.releases": 2,
         "sbspace.spc.closes": 2,
         "sbspace.spc.large_objects": 2,
         "sbspace.spc.opens": 2,
         "sbspace.spc.page_writes": 12,
         "wal.commits": 1,
         "wal.kind.begin": 1,
         "wal.kind.commit": 1,
         "wal.kind.create_lo": 2,
         "wal.kind.page_alloc": 12,
         "wal.kind.page_write": 12,
         "wal.last_lsn": 28,
         "wal.records": 28},
        ["am.am_close", "am.am_create", "am.am_open", "sql.parse"],
        {"rows_returned": 0,
         "pages_read": 0.0,
         "pages_written": 12.0,
         "cache_hit_ratio": 1.0},
    ),
    # CREATE INDEX bi ON e(j) USING btree_am IN spc
    (
        "sql.createindex",
        {"am.calls": 3,
         "am.calls.am_close": 1,
         "am.calls.am_create": 1,
         "am.calls.am_open": 1,
         "buffer.index.bi.logical_writes": 2,
         "buffer.index.bi.physical_writes": 2,
         "buffer.index.bi.resident_pages": 2,
         "locks.acquires": 1,
         "locks.releases": 1,
         "sbspace.spc.closes": 1,
         "sbspace.spc.large_objects": 1,
         "sbspace.spc.opens": 1,
         "sbspace.spc.page_writes": 2,
         "wal.commits": 1,
         "wal.kind.begin": 1,
         "wal.kind.commit": 1,
         "wal.kind.create_lo": 1,
         "wal.kind.page_alloc": 2,
         "wal.kind.page_write": 2,
         "wal.last_lsn": 7,
         "wal.records": 7},
        ["am.am_close", "am.am_create", "am.am_open", "sql.parse"],
        {"rows_returned": 0,
         "pages_read": 0.0,
         "pages_written": 2.0,
         "cache_hit_ratio": 1.0},
    ),
    # LOAD FROM '<load file>' INSERT INTO e
    (
        "sql.load",
        {"am.calls": 42,
         "am.calls.am_close": 3,
         "am.calls.am_insert": 36,
         "am.calls.am_open": 3,
         "buffer.index.bi.decode_hits": 12,
         "buffer.index.bi.logical_reads": 12,
         "buffer.index.bi.logical_writes": 13,
         "buffer.index.bi.physical_writes": 2,
         "buffer.index.gi.decode_hits": 12,
         "buffer.index.gi.logical_reads": 12,
         "buffer.index.gi.logical_writes": 13,
         "buffer.index.gi.physical_writes": 2,
         "buffer.index.hi.hash.decode_hits": 12,
         "buffer.index.hi.hash.logical_reads": 12,
         "buffer.index.hi.hash.logical_writes": 14,
         "buffer.index.hi.hash.physical_writes": 10,
         "buffer.index.hi.tree.decode_hits": 12,
         "buffer.index.hi.tree.logical_reads": 12,
         "buffer.index.hi.tree.logical_writes": 13,
         "buffer.index.hi.tree.physical_writes": 2,
         "grtree.inserts": 12,
         "hblade.inserts": 12,
         "locks.acquires": 8,
         "locks.releases": 4,
         "sbspace.spc.closes": 4,
         "sbspace.spc.opens": 4,
         "sbspace.spc.page_writes": 16,
         "wal.commits": 1,
         "wal.kind.begin": 1,
         "wal.kind.commit": 1,
         "wal.kind.page_write": 16,
         "wal.last_lsn": 18,
         "wal.records": 18},
        ["am.am_close", "am.am_insert", "am.am_open", "sql.parse"],
        {"rows_returned": 0,
         "pages_read": 48.0,
         "pages_written": 53.0,
         "cache_hit_ratio": 1.0},
    ),
    # SELECT n FROM e WHERE k = 3
    (
        "sql.select",
        {"am.calls": 7,
         "am.calls.am_beginscan": 1,
         "am.calls.am_close": 1,
         "am.calls.am_endscan": 1,
         "am.calls.am_getnext": 2,
         "am.calls.am_open": 1,
         "am.calls.am_scancost": 1,
         "buffer.index.hi.hash.decode_hits": 1,
         "buffer.index.hi.hash.logical_reads": 1,
         "hblade.hash_path": 1,
         "hblade.point_lookups": 1,
         "locks.acquires": 2,
         "locks.releases": 2,
         "plan.indexscan": 1,
         "sbspace.spc.closes": 2,
         "sbspace.spc.opens": 2},
        ["am.am_beginscan",
         "am.am_close",
         "am.am_endscan",
         "am.am_getnext",
         "am.am_open",
         "am.am_scancost",
         "hblade.scan",
         "plan.choose",
         "sql.parse"],
        {"rows_returned": 1,
         "pages_read": 1.0,
         "pages_written": 0.0,
         "cache_hit_ratio": 1.0},
    ),
    # SELECT n FROM e WHERE j >= 20 AND j <= 50
    (
        "sql.select",
        {"am.calls": 7,
         "am.calls.am_beginscan": 1,
         "am.calls.am_close": 1,
         "am.calls.am_endscan": 1,
         "am.calls.am_getnext": 2,
         "am.calls.am_open": 1,
         "am.calls.am_scancost": 1,
         "buffer.index.bi.decode_hits": 1,
         "buffer.index.bi.logical_reads": 1,
         "locks.acquires": 1,
         "locks.releases": 1,
         "plan.indexscan": 1,
         "sbspace.spc.closes": 1,
         "sbspace.spc.opens": 1},
        ["am.am_beginscan",
         "am.am_close",
         "am.am_endscan",
         "am.am_getnext",
         "am.am_open",
         "am.am_scancost",
         "plan.choose",
         "sql.parse"],
        {"rows_returned": 4,
         "pages_read": 1.0,
         "pages_written": 0.0,
         "cache_hit_ratio": 1.0},
    ),
    # SELECT n FROM e WHERE Overlaps(te, '01/04/98, UC, 01/02/98, NOW')
    (
        "sql.select",
        {"am.calls": 7,
         "am.calls.am_beginscan": 1,
         "am.calls.am_close": 1,
         "am.calls.am_endscan": 1,
         "am.calls.am_getnext": 2,
         "am.calls.am_open": 1,
         "am.calls.am_scancost": 1,
         "buffer.index.gi.decode_hits": 2,
         "buffer.index.gi.logical_reads": 2,
         "grtree.searches": 1,
         "locks.acquires": 1,
         "locks.releases": 1,
         "plan.indexscan": 1,
         "sbspace.spc.closes": 1,
         "sbspace.spc.opens": 1,
         "spec.index.gi.nodes_batched": 1,
         "spec.index.gi.scans_compiled": 1},
        ["am.am_beginscan",
         "am.am_close",
         "am.am_endscan",
         "am.am_getnext",
         "am.am_open",
         "am.am_scancost",
         "plan.choose",
         "sql.parse"],
        {"rows_returned": 9,
         "pages_read": 2.0,
         "pages_written": 0.0,
         "cache_hit_ratio": 1.0},
    ),
    # INSERT INTO e VALUES ('x', '01/01/98, UC, 01/01/98, NOW', 100, 1000)
    (
        "sql.insert",
        {"am.calls": 9,
         "am.calls.am_close": 3,
         "am.calls.am_insert": 3,
         "am.calls.am_open": 3,
         "buffer.index.bi.decode_hits": 1,
         "buffer.index.bi.logical_reads": 1,
         "buffer.index.bi.logical_writes": 2,
         "buffer.index.bi.physical_writes": 2,
         "buffer.index.gi.decode_hits": 1,
         "buffer.index.gi.logical_reads": 1,
         "buffer.index.gi.logical_writes": 2,
         "buffer.index.gi.physical_writes": 2,
         "buffer.index.hi.hash.decode_hits": 1,
         "buffer.index.hi.hash.logical_reads": 1,
         "buffer.index.hi.hash.logical_writes": 3,
         "buffer.index.hi.hash.physical_writes": 3,
         "buffer.index.hi.tree.decode_hits": 1,
         "buffer.index.hi.tree.logical_reads": 1,
         "buffer.index.hi.tree.logical_writes": 2,
         "buffer.index.hi.tree.physical_writes": 2,
         "grtree.inserts": 1,
         "hblade.inserts": 1,
         "locks.acquires": 8,
         "locks.releases": 4,
         "sbspace.spc.closes": 4,
         "sbspace.spc.opens": 4,
         "sbspace.spc.page_writes": 9,
         "wal.commits": 1,
         "wal.kind.begin": 1,
         "wal.kind.commit": 1,
         "wal.kind.page_write": 9,
         "wal.last_lsn": 11,
         "wal.records": 11},
        ["am.am_close", "am.am_insert", "am.am_open", "sql.parse"],
        {"rows_returned": 0,
         "pages_read": 4.0,
         "pages_written": 9.0,
         "cache_hit_ratio": 1.0},
    ),
    # UPDATE e SET j = 70 WHERE k = 4
    (
        "sql.update",
        {"am.calls": 14,
         "am.calls.am_beginscan": 1,
         "am.calls.am_close": 4,
         "am.calls.am_endscan": 1,
         "am.calls.am_getnext": 2,
         "am.calls.am_open": 4,
         "am.calls.am_scancost": 1,
         "am.calls.am_update": 1,
         "buffer.index.bi.decode_hits": 3,
         "buffer.index.bi.logical_reads": 3,
         "buffer.index.bi.logical_writes": 3,
         "buffer.index.bi.physical_writes": 2,
         "buffer.index.hi.hash.decode_hits": 1,
         "buffer.index.hi.hash.logical_reads": 1,
         "hblade.hash_path": 1,
         "hblade.point_lookups": 1,
         "locks.acquires": 7,
         "locks.releases": 6,
         "plan.indexscan": 1,
         "sbspace.spc.closes": 6,
         "sbspace.spc.opens": 6,
         "sbspace.spc.page_writes": 2,
         "wal.commits": 1,
         "wal.kind.begin": 1,
         "wal.kind.commit": 1,
         "wal.kind.page_write": 2,
         "wal.last_lsn": 4,
         "wal.records": 4},
        ["am.am_beginscan",
         "am.am_close",
         "am.am_endscan",
         "am.am_getnext",
         "am.am_open",
         "am.am_scancost",
         "am.am_update",
         "hblade.scan",
         "plan.choose",
         "sql.parse"],
        {"rows_returned": 0,
         "pages_read": 4.0,
         "pages_written": 3.0,
         "cache_hit_ratio": 1.0},
    ),
    # DELETE FROM e WHERE k = 5
    (
        "sql.delete",
        {"am.calls": 16,
         "am.calls.am_beginscan": 1,
         "am.calls.am_close": 4,
         "am.calls.am_delete": 3,
         "am.calls.am_endscan": 1,
         "am.calls.am_getnext": 2,
         "am.calls.am_open": 4,
         "am.calls.am_scancost": 1,
         "buffer.index.bi.decode_hits": 2,
         "buffer.index.bi.logical_reads": 2,
         "buffer.index.bi.logical_writes": 2,
         "buffer.index.bi.physical_writes": 2,
         "buffer.index.gi.decode_hits": 2,
         "buffer.index.gi.logical_reads": 2,
         "buffer.index.gi.logical_writes": 2,
         "buffer.index.gi.physical_writes": 2,
         "buffer.index.hi.hash.decode_hits": 2,
         "buffer.index.hi.hash.logical_reads": 2,
         "buffer.index.hi.hash.logical_writes": 3,
         "buffer.index.hi.hash.physical_writes": 3,
         "buffer.index.hi.tree.decode_hits": 2,
         "buffer.index.hi.tree.logical_reads": 2,
         "buffer.index.hi.tree.logical_writes": 2,
         "buffer.index.hi.tree.physical_writes": 2,
         "grtree.deletes": 1,
         "hblade.deletes": 1,
         "hblade.hash_path": 1,
         "hblade.point_lookups": 1,
         "locks.acquires": 10,
         "locks.releases": 6,
         "plan.indexscan": 1,
         "sbspace.spc.closes": 6,
         "sbspace.spc.opens": 6,
         "sbspace.spc.page_writes": 9,
         "wal.commits": 1,
         "wal.kind.begin": 1,
         "wal.kind.commit": 1,
         "wal.kind.page_write": 9,
         "wal.last_lsn": 11,
         "wal.records": 11},
        ["am.am_beginscan",
         "am.am_close",
         "am.am_delete",
         "am.am_endscan",
         "am.am_getnext",
         "am.am_open",
         "am.am_scancost",
         "hblade.scan",
         "plan.choose",
         "sql.parse"],
        {"rows_returned": 0,
         "pages_read": 8.0,
         "pages_written": 9.0,
         "cache_hit_ratio": 1.0},
    ),
    # SELECT n, k FROM e WHERE Overlaps(te, '01/01/98, UC, 01/01/98, NOW')
    (
        "sql.select",
        {"am.calls": 7,
         "am.calls.am_beginscan": 1,
         "am.calls.am_close": 1,
         "am.calls.am_endscan": 1,
         "am.calls.am_getnext": 2,
         "am.calls.am_open": 1,
         "am.calls.am_scancost": 1,
         "buffer.index.gi.decode_hits": 2,
         "buffer.index.gi.logical_reads": 2,
         "grtree.searches": 1,
         "locks.acquires": 1,
         "locks.releases": 1,
         "plan.indexscan": 1,
         "sbspace.spc.closes": 1,
         "sbspace.spc.opens": 1,
         "spec.index.gi.nodes_batched": 1,
         "spec.index.gi.scans_compiled": 1},
        ["am.am_beginscan",
         "am.am_close",
         "am.am_endscan",
         "am.am_getnext",
         "am.am_open",
         "am.am_scancost",
         "plan.choose",
         "sql.parse"],
        {"rows_returned": 12,
         "pages_read": 2.0,
         "pages_written": 0.0,
         "cache_hit_ratio": 1.0},
    ),

]
