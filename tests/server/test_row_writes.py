"""One row-write path: every index first, then the heap.

``Executor.writing`` opens each index of a table once, and its row
operations (INSERT, UPDATE, DELETE, LOAD, CREATE INDEX's backfill and
replica apply all use them) change every index before the heap.  A
lock conflict comes on an index's first write, so a statement that
fails on it leaves heap and index agreeing; an ``am_open`` that fails
closes the indexes opened before it; and the read-to-write upgrade of
an open BLOB is not a second sbspace open.
"""

import pytest

from repro.faults import FaultInjected, FaultRegistry
from repro.net import protocol
from repro.net.client import ReproClient, RemoteStatementError
from repro.net.server import NetServer
from repro.server import DatabaseServer
from repro.server.optimizer import IndexScanPlan
from repro.storage.locks import LockConflictError
from repro.storage.sbspace import SbspaceError
from repro.temporal.chronon import Clock
from tests.datablade.test_blade_contract import ACCESS_METHODS, two_index_server


def indexed_server(am, faults=None):
    """Table t (name, c) with index i on c by *am*, rows 'a' and 'b'."""
    register, column_type, values, _ = ACCESS_METHODS[am]
    server = DatabaseServer(clock=Clock(now=100), faults=faults)
    server.create_sbspace("spc")
    register(server)
    server.prefer_virtual_index = True
    server.execute(f"CREATE TABLE t (name LVARCHAR, c {column_type})")
    server.execute(f"CREATE INDEX i ON t(c) USING {am} IN spc")
    server.execute(f"INSERT INTO t VALUES ('a', {values[0]})")
    server.execute(f"INSERT INTO t VALUES ('b', {values[1]})")
    return server


def hold_index(server, predicate, session=None):
    """A REPEATABLE READ reader in BEGIN WORK keeps its shared lock on
    the index it read through."""
    session = session or server.create_session()
    server.execute("SET ISOLATION TO REPEATABLE READ", session)
    server.execute("BEGIN WORK", session)
    server.execute(f"SELECT name FROM t WHERE {predicate}", session)
    assert isinstance(server.last_plan, IndexScanPlan)
    return session


def heap_rows(server):
    return sorted(
        (row["name"], repr(row["c"]))
        for _, row in server.catalog.get_table("t").scan()
    )


def index_rows(server, predicate):
    rows = server.execute(f"SELECT * FROM t WHERE {predicate}")
    assert isinstance(server.last_plan, IndexScanPlan)
    return sorted((row["name"], repr(row["c"])) for row in rows)


@pytest.mark.parametrize("statement", ["insert", "update", "delete"])
@pytest.mark.parametrize("am", sorted(ACCESS_METHODS))
def test_a_lock_conflict_leaves_heap_and_index_agreeing(am, statement):
    values, predicate = ACCESS_METHODS[am][2], ACCESS_METHODS[am][3]
    server = indexed_server(am)
    before = heap_rows(server)
    reader = hold_index(server, predicate)
    sql = {
        "insert": f"INSERT INTO t VALUES ('c', {values[2]})",
        "update": f"UPDATE t SET c = {values[2]} WHERE name = 'a'",
        "delete": "DELETE FROM t WHERE name = 'a'",
    }[statement]
    with pytest.raises(LockConflictError):
        server.execute(sql, server.create_session())
    server.execute("COMMIT WORK", reader)

    assert heap_rows(server) == before
    assert index_rows(server, predicate) == before
    assert "consistent" in server.execute("CHECK INDEX i")
    # Every heap row's key is the one its index entry has: a DELETE
    # through the index finds and removes each entry.
    assert server.execute(f"DELETE FROM t WHERE {predicate}") == len(before)
    assert heap_rows(server) == index_rows(server, predicate) == []


def test_a_wire_insert_that_times_out_adds_no_heap_row():
    """The server retries a conflicting statement until ``lock_timeout``;
    no attempt may leave its row in the heap."""
    values, predicate = ACCESS_METHODS["grtree_am"][2:4]
    db = indexed_server("grtree_am")
    table = db.catalog.get_table("t")
    net = NetServer(db, workers=2, queue_depth=8, lock_timeout=0.3).start()
    try:
        with ReproClient(net.host, net.port, read_timeout=10.0) as reader:
            reader.execute("SET ISOLATION TO REPEATABLE READ")
            reader.execute("BEGIN WORK")
            reader.execute(f"SELECT name FROM t WHERE {predicate}")
            with ReproClient(net.host, net.port, read_timeout=10.0) as writer:
                with pytest.raises(RemoteStatementError) as info:
                    writer.execute(f"INSERT INTO t VALUES ('c', {values[2]})")
                assert info.value.code == protocol.LOCK_TIMEOUT
            assert table.row_count == 2
            reader.execute("COMMIT WORK")
    finally:
        net.shutdown()
    assert db.locks.locked_resources == 0


def all_blobs(server):
    return [
        (space, blob)
        for space in server.sbspaces.values()
        for blob in space._objects.values()
    ]


@pytest.mark.parametrize("am", sorted(ACCESS_METHODS))
def test_every_blob_is_closed_after_statements(am):
    values, predicate = ACCESS_METHODS[am][2], ACCESS_METHODS[am][3]
    server = indexed_server(am)
    session = server.create_session()
    statements = [
        f"INSERT INTO t VALUES ('c', {values[2]})",
        f"SELECT name FROM t WHERE {predicate}",
        f"UPDATE t SET c = {values[1]} WHERE name = 'a'",
        "BEGIN WORK",
        f"INSERT INTO t VALUES ('d', {values[0]})",
        "DELETE FROM t WHERE name = 'b'",
        "COMMIT WORK",
        "CHECK INDEX i",
        "UPDATE STATISTICS FOR INDEX i",
    ]
    for sql in statements:
        server.execute(sql, session)
    blobs = all_blobs(server)
    assert blobs
    for space, blob in blobs:
        assert blob.open_count == 0, blob.handle
        with pytest.raises(SbspaceError, match="is not open"):
            space.close(blob.handle)


def test_a_failing_am_open_closes_the_indexes_opened_before_it():
    """DELETE on two indexes: the scan opens ``ia`` (hit 1), the writer
    opens ``ia`` (hit 2) and fails opening ``ib`` (hit 3)."""
    registry = FaultRegistry()
    server = two_index_server(DatabaseServer(clock=Clock(now=100), faults=registry))
    server.execute("INSERT INTO t2 VALUES ('a', 1, '(0, 0, 1, 1)')")
    space = server.get_sbspace("spc")
    opens, closes = space.stats_opens, space.stats_closes
    registry.set_fault("sbspace.open", "raise", hit=3)
    with pytest.raises(FaultInjected):
        server.execute("DELETE FROM t2 WHERE k >= 1")
    assert isinstance(server.last_plan, IndexScanPlan)
    assert server.last_plan.index.name == "ia"
    registry.clear_all()
    assert (space.stats_opens - opens, space.stats_closes - closes) == (2, 2)
    assert all(blob.open_count == 0 for _, blob in all_blobs(server))
    assert server.execute("DELETE FROM t2 WHERE k >= 1") == 1
