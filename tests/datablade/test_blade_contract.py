"""The contract every access-method blade keeps with the server.

Two observable sequences, pinned here so that the blade code behind
them can be restructured freely:

* Figure 6 -- which ``am_*`` purpose functions the server calls, in what
  order, for CREATE INDEX / INSERT / SELECT / DELETE / DROP INDEX.  The
  sequence is the same for all five access methods.
* Table 5 -- the ordered step trace (``grt`` trace class, level 2) of the
  GR-tree blade's purpose functions over one script, with the handle
  cache on (the default) and off (the paper's literal ``grt_open``).
"""

import re

import pytest

from repro.bblade import register_btree_blade
from repro.datablade import register_grtree_blade
from repro.gist import register_gist_blade
from repro.hblade import register_hybrid_blade
from repro.rblade import register_rtree_blade
from repro.server import DatabaseServer
from repro.temporal.chronon import Clock, format_chronon


def extent(valid_from):
    return f"'{format_chronon(100)}, UC, {format_chronon(valid_from)}, NOW'"


BOXES = ["'(0, 0, 1, 1)'", "'(2, 2, 3, 3)'", "'(4, 4, 5, 5)'"]

#: access method -> (register, indexed column type, three values, a
#: predicate every value satisfies).
ACCESS_METHODS = {
    "grtree_am": (
        register_grtree_blade, "GRT_TimeExtent_t",
        [extent(95), extent(96), extent(97)], f"Overlaps(c, {extent(100)})",
    ),
    "rtree_am": (register_rtree_blade, "Box", BOXES, "Overlap(c, '(0, 0, 9, 9)')"),
    "btree_am": (register_btree_blade, "INTEGER", ["1", "2", "3"], "c >= 1"),
    "gist_am": (register_gist_blade, "Box", BOXES, "GS_Overlap(c, '(0, 0, 9, 9)')"),
    "hblade_am": (register_hybrid_blade, "INTEGER", ["1", "2", "3"], "c >= 1"),
}

SCAN = ["am_scancost", "am_open", "am_beginscan"] + ["am_getnext"] * 4 + [
    "am_endscan", "am_close",
]

#: Figure 6, extended to the statements that create and remove entries.
FIGURE_6 = {
    "create": ["am_create", "am_open", "am_insert", "am_close"],
    "insert": ["am_open", "am_insert", "am_close"],
    "select": SCAN,
    "delete": SCAN + ["am_open"] + ["am_delete"] * 3 + ["am_close"],
    "drop": ["am_drop"],
}


@pytest.mark.parametrize("am", sorted(ACCESS_METHODS))
def test_figure6_call_sequences(am):
    register, column_type, values, predicate = ACCESS_METHODS[am]
    server = DatabaseServer(clock=Clock(now=100))
    server.create_sbspace("spc")
    register(server)
    server.prefer_virtual_index = True
    server.execute(f"CREATE TABLE t (name LVARCHAR, c {column_type})")
    server.execute(f"INSERT INTO t VALUES ('seed', {values[0]})")
    server.trace.set_level("am", 1)

    def calls(statement):
        server.trace.clear()
        result = server.execute(statement)
        return result, [text.split(".", 1)[1] for text in server.trace.texts("am")]

    observed = {}
    _, observed["create"] = calls(f"CREATE INDEX i ON t(c) USING {am} IN spc")
    _, observed["insert"] = calls(f"INSERT INTO t VALUES ('a', {values[1]})")
    server.execute(f"INSERT INTO t VALUES ('b', {values[2]})")
    rows, observed["select"] = calls(f"SELECT name FROM t WHERE {predicate}")
    assert sorted(row["name"] for row in rows) == ["a", "b", "seed"]
    deleted, observed["delete"] = calls(f"DELETE FROM t WHERE {predicate}")
    assert deleted == 3
    _, observed["drop"] = calls("DROP INDEX i")
    assert observed == FIGURE_6


# ----------------------------------------------------------------------
# Table 5: the GR-tree blade's steps
# ----------------------------------------------------------------------

OPEN = {
    False: [
        "grt_open(2) create Tree object",
        "grt_open(3) got BLOB handle <h>",
        "grt_open(4) opened the BLOB",
    ],
    True: [
        "grt_open(2) reuse cached Tree object",
        "grt_open(4) opened the BLOB",
    ],
}
CLOSE = {
    False: [
        "grt_close(1) get Tree object pointer",
        "grt_close(2) closed the BLOB",
        "grt_close(3) deleted Tree object",
    ],
    True: [
        "grt_close(1) get Tree object pointer",
        "grt_close(2) closed the BLOB",
        "grt_close(3) cached Tree object for reuse",
    ],
}


def insert_steps(rowid):
    return [
        "grt_insert(1) get Tree object pointer",
        f"grt_insert(2) formed entry for rowid={rowid}",
        "grt_insert(3) inserted entry via Tree.insert()",
    ]


def scan_steps(*rowids):
    return [
        "grt_beginscan(1) get qualification descriptor qd",
        "grt_beginscan(2) get index descriptor td",
        "grt_beginscan(3) create Cursor (1 DNF branch(es))",
        "grt_beginscan(4) saved Cursor pointer in td",
        *(f"grt_getnext(4) formed retrowid from rowid={r}" for r in rowids),
        "grt_endscan(1) get index descriptor td",
        "grt_endscan(2) get Cursor pointer",
        "grt_endscan(3) deleted Cursor",
    ]


DELETE_STEPS = [
    "grt_delete(1) get Tree object pointer",
    "grt_delete(4) deleted entry via Tree.delete()",
]

#: (statement, steps); "open"/"close" stand for the mode's step lists.
TABLE_5 = [
    ("CREATE INDEX gi ON t(te) USING grtree_am IN spc", [
        "grt_create(1) create Tree object",
        "grt_create(2) column types accepted",
        "grt_create(3) operator class accepted",
        "grt_create(4) no equivalent index exists",
        "grt_create(5) created BLOB <h>",
        "grt_create(6) inserted record into grtree_indexdata",
        "grt_create(7) opened the BLOB",
        "grt_open(1) invoked right after grt_create; exit",
        *insert_steps(0),
        "close",
    ]),
    (f"INSERT INTO t VALUES ('a', {extent(96)})",
     ["open", *insert_steps(1), "close"]),
    (f"SELECT name FROM t WHERE Overlaps(te, {extent(100)})",
     ["open", *scan_steps(0, 1), "close"]),
    (f"DELETE FROM t WHERE Overlaps(te, {extent(100)})",
     ["open", *scan_steps(0, 1), "close",
      "open", *DELETE_STEPS, *DELETE_STEPS, "close"]),
    (f"INSERT INTO t VALUES ('u', {extent(100)})",
     ["open", *insert_steps(2), "close"]),
    (f"UPDATE t SET te = {extent(99)} WHERE Equal(te, {extent(100)})",
     ["open", *scan_steps(2), "close",
      "open",
      "grt_update(1) invoke grt_delete", *DELETE_STEPS,
      "grt_update(2) invoke grt_insert", *insert_steps(2),
      "close"]),
    ("UPDATE STATISTICS FOR INDEX gi", [
        "open",
        "grt_stats(1) collected statistics: ['avg_fill', 'dead_space', "
        "'height', 'leaves', 'nodes', 'sibling_overlap', 'size']",
        "close",
    ]),
    ("CHECK INDEX gi", ["open", "grt_check(1) index is consistent", "close"]),
    ("DROP INDEX gi", [
        "grt_drop(1) get Tree object pointer",
        "open",
        "grt_drop(2) drop BLOB <h>",
        "grt_drop(3) delete Tree object",
        "grt_drop(4) deleted record from grtree_indexdata",
    ]),
]


def normalise(step):
    """BLOB handles differ run to run; everything else is pinned."""
    step = re.sub(r"BLOB handle \S+", "BLOB handle <h>", step)
    return re.sub(r"BLOB (?!handle)\S+", "BLOB <h>", step)


@pytest.mark.parametrize("handle_cache", [False, True], ids=["literal", "cached"])
def test_table5_step_trace(handle_cache):
    server = DatabaseServer(clock=Clock(now=100))
    server.create_sbspace("spc")
    register_grtree_blade(server, handle_cache=handle_cache)
    server.prefer_virtual_index = True
    server.execute("CREATE TABLE t (name LVARCHAR, te GRT_TimeExtent_t)")
    server.execute(f"INSERT INTO t VALUES ('seed', {extent(95)})")
    server.trace.set_level("grt", 2)
    for statement, steps in TABLE_5:
        expected = []
        for step in steps:
            if step == "open":
                expected += OPEN[handle_cache]
            elif step == "close":
                expected += CLOSE[handle_cache]
            else:
                expected.append(step)
        server.trace.clear()
        server.execute(statement)
        observed = [normalise(text) for text in server.trace.texts("grt")]
        assert observed == expected, statement
