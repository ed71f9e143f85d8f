"""The contract every access-method blade keeps with the server.

Two observable sequences, pinned here so that the blade code behind
them can be restructured freely, and the row budget of ``am_getnext``:

* Figure 6 -- which ``am_*`` purpose functions the server calls, in what
  order, for CREATE INDEX / INSERT / UPDATE / SELECT / DELETE / LOAD /
  DROP INDEX.  The sequence is the same for all five access methods; at
  a row budget (``sd.niorows``) of 1 it is the paper's, one
  ``am_getnext`` per row.  On a table with two indexes every row write
  opens both, changes both, then closes both.
* The budget -- every ``am_getnext`` returns at most ``sd.niorows`` rows,
  only the last call returns none, and the answers are the seqscan's.
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
from repro.server import DatabaseServer, executor
from repro.server.executor import Executor
from repro.server.optimizer import IndexScanPlan
from repro.temporal.chronon import Clock, format_chronon


def extent(valid_from):
    return f"'{format_chronon(100)}, UC, {format_chronon(valid_from)}, NOW'"


QUOTE = "'"

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

def figure_6(getnexts):
    """Figure 6, extended to the statements that create and remove
    entries, for a SELECT that makes *getnexts* ``am_getnext`` calls."""
    scan = ["am_scancost", "am_open", "am_beginscan"] + [
        "am_getnext"
    ] * getnexts + ["am_endscan", "am_close"]
    return {
        "create": ["am_create", "am_open", "am_insert", "am_close"],
        "insert": ["am_open", "am_insert", "am_close"],
        "update": ["am_open", "am_update", "am_close"],
        "select": scan,
        "delete": scan + ["am_open"] + ["am_delete"] * 3 + ["am_close"],
        "load": ["am_open", "am_insert", "am_insert", "am_close"],
        "drop": ["am_drop"],
    }


#: Row budget -> Figure 6 over three rows: one call per row plus the
#: empty one at 1, one batch plus the empty one at 64.
FIGURE_6 = {1: figure_6(4), 64: figure_6(2)}


@pytest.mark.parametrize(
    "am, niorows",
    [
        pytest.param(am, niorows, id=am if niorows == 1 else f"{am}-niorows{niorows}")
        for am in sorted(ACCESS_METHODS)
        for niorows in sorted(FIGURE_6)
    ],
)
def test_figure6_call_sequences(am, niorows, monkeypatch, tmp_path):
    monkeypatch.setattr(executor, "NIOROWS", niorows)
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
    # A key-moving UPDATE (found by a seqscan on the unindexed name).
    _, observed["update"] = calls(f"UPDATE t SET c = {values[2]} WHERE name = 'a'")
    server.execute(f"INSERT INTO t VALUES ('b', {values[2]})")
    rows, observed["select"] = calls(f"SELECT name FROM t WHERE {predicate}")
    assert sorted(row["name"] for row in rows) == ["a", "b", "seed"]
    deleted, observed["delete"] = calls(f"DELETE FROM t WHERE {predicate}")
    assert deleted == 3
    path = tmp_path / "two.unl"
    path.write_text("".join(
        f"{name}|{value.strip(QUOTE)}\n" for name, value in zip("xy", values)
    ))
    loaded, observed["load"] = calls(f"LOAD FROM '{path}' INSERT INTO t")
    assert loaded == 2
    _, observed["drop"] = calls("DROP INDEX i")
    assert observed == FIGURE_6[niorows]


def two_index_server(server, ddl=True):
    """*server* with table ``t2`` indexed twice: ``ia`` (``btree_am`` on
    ``k``) and ``ib`` (``rtree_am`` on ``b``).  Without *ddl* only the
    space and the blades (a replica gets the DDL from the log)."""
    server.create_sbspace("spc")
    register_btree_blade(server)
    register_rtree_blade(server)
    server.prefer_virtual_index = True
    if not ddl:
        return server
    server.execute("CREATE TABLE t2 (name LVARCHAR, k INTEGER, b Box)")
    server.execute("CREATE INDEX ia ON t2(k) USING btree_am IN spc")
    server.execute("CREATE INDEX ib ON t2(b) USING rtree_am IN spc")
    return server


def test_figure6_on_two_indexes(tmp_path):
    """Each row write brackets both indexes once: open A, open B, the
    row operations on A then B, close A, close B."""
    server = two_index_server(DatabaseServer(clock=Clock(now=100)))
    server.trace.set_level("am", 1)

    def calls(statement):
        server.trace.clear()
        server.execute(statement)
        return [
            text.replace("btree_am.", "A.").replace("rtree_am.", "B.")
            for text in server.trace.texts("am")
        ]

    def bracket(*steps):
        return ["A.am_open", "B.am_open", *steps, "A.am_close", "B.am_close"]

    assert calls("INSERT INTO t2 VALUES ('a', 1, '(0, 0, 1, 1)')") == bracket(
        "A.am_insert", "B.am_insert"
    )
    assert calls(
        "UPDATE t2 SET k = 2, b = '(2, 2, 3, 3)' WHERE name = 'a'"
    ) == bracket("A.am_update", "B.am_update")
    # Only the index whose key moved is updated.
    assert calls("UPDATE t2 SET k = 3 WHERE name = 'a'") == bracket("A.am_update")
    assert calls("DELETE FROM t2 WHERE name = 'a'") == bracket(
        "A.am_delete", "B.am_delete"
    )
    path = tmp_path / "two.unl"
    path.write_text("x|1|(0, 0, 1, 1)\ny|2|(2, 2, 3, 3)\n")
    assert calls(f"LOAD FROM '{path}' INSERT INTO t2") == bracket(
        "A.am_insert", "B.am_insert", "A.am_insert", "B.am_insert"
    )


# ----------------------------------------------------------------------
# The am_getnext row budget
# ----------------------------------------------------------------------

ROWS = 200


def budget_value(am, i):
    """Row *i*'s value for *am*: four rows in five satisfy the access
    method's predicate in :data:`ACCESS_METHODS`."""
    if am == "grtree_am":
        if i % 5:
            return extent(90 + i % 7)
        # The fifth row lies in valid time [10, 20], before the query.
        return f"'{format_chronon(100)}, UC, {format_chronon(10)}, {format_chronon(20)}'"
    if am in ("rtree_am", "gist_am"):
        # The fifth row lies outside the query box (0, 0, 9, 9).
        x = i % 9 if i % 5 else 20 + i
        return f"'({x}, {x}, {x + 0.5}, {x + 0.5})'"
    # The fifth row is 0, below the range c >= 1.
    return str(i) if i % 5 else "0"


def budget_server(am):
    """*am* over :data:`ROWS` rows in ``t``, the same rows in the
    unindexed ``s`` (the seqscan oracle)."""
    register, column_type, _, _ = ACCESS_METHODS[am]
    server = DatabaseServer(clock=Clock(now=100))
    server.create_sbspace("spc")
    register(server)
    server.prefer_virtual_index = True
    for table in ("t", "s"):
        server.execute(f"CREATE TABLE {table} (name LVARCHAR, c {column_type})")
    server.execute(f"CREATE INDEX i ON t(c) USING {am} IN spc")
    for i in range(ROWS):
        for table in ("t", "s"):
            server.execute(
                f"INSERT INTO {table} VALUES ('r{i}', {budget_value(am, i)})"
            )
    return server


def scan_with_budget(server, monkeypatch, niorows, where, rescan=False):
    """``SELECT name FROM t WHERE`` *where* at budget *niorows*: the
    names, in order, and the row count of each ``am_getnext`` call.
    *rescan* issues ``am_rescan`` right after the first call."""
    monkeypatch.setattr(executor, "NIOROWS", niorows)
    batches = []
    call_purpose = Executor.call_purpose

    def spy(self, am, slot, *args):
        result = call_purpose(self, am, slot, *args)
        if slot == "am_getnext":
            batches.append(len(result))
            if rescan and len(batches) == 1:
                call_purpose(self, am, "am_rescan", *args)
        return result

    monkeypatch.setattr(Executor, "call_purpose", spy)
    rows = server.execute(f"SELECT name FROM t WHERE {where}")
    monkeypatch.setattr(Executor, "call_purpose", call_purpose)
    assert isinstance(server.last_plan, IndexScanPlan)
    return [row["name"] for row in rows], batches


def check_batches(batches, niorows):
    """At most *niorows* rows a call, full batches until the scan runs
    dry, and only the last call empty."""
    assert batches[-1] == 0
    assert all(0 < n <= niorows for n in batches[:-1])
    assert all(n == niorows for n in batches[:-2])


@pytest.mark.parametrize("niorows", [1, 7, 64])
@pytest.mark.parametrize("am", sorted(ACCESS_METHODS))
def test_getnext_row_budget(am, niorows, monkeypatch):
    server = budget_server(am)
    predicate = ACCESS_METHODS[am][3]
    expected = sorted(
        row["name"]
        for row in server.execute(f"SELECT name FROM s WHERE {predicate}")
    )
    assert len(expected) > 150
    names, batches = scan_with_budget(server, monkeypatch, niorows, predicate)
    assert sorted(names) == expected
    check_batches(batches, niorows)
    assert len(batches) == -(-len(expected) // niorows) + 1
    # am_rescan between two calls, in the middle of the scan: the rows of
    # the first batch, then the whole answer again from the start.
    names, batches = scan_with_budget(
        server, monkeypatch, niorows, predicate, rescan=True
    )
    assert sorted(names[niorows:]) == expected
    assert set(names[:niorows]) <= set(expected)
    check_batches(batches, niorows)


@pytest.mark.parametrize("niorows", [1, 7, 64])
def test_grtree_or_repeats_no_row_across_batches(niorows, monkeypatch):
    """Two overlapping ``OR`` branches select most rows twice; each is
    returned once, wherever the batch boundaries fall."""
    server = budget_server("grtree_am")
    where = f"Overlaps(c, {extent(100)}) OR Overlaps(c, {extent(93)})"
    expected = sorted(
        row["name"]
        for row in server.execute(f"SELECT name FROM s WHERE {where}")
    )
    assert len(expected) > 150
    names, batches = scan_with_budget(server, monkeypatch, niorows, where)
    assert sorted(names) == expected
    assert len(names) == len(set(names))
    check_batches(batches, niorows)


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
