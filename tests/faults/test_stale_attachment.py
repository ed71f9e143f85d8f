"""An index close interrupted by an injected error must not leave an
attachment the next statement trusts.

``am_close`` flushes the pool into the BLOB; a failing page write there
unwinds past the cleanup, so ``td.user_data`` still holds the tree, the
pool and the BLOB.  ``ROLLBACK WORK`` then rewrites the pages underneath
them.  Every access method must notice (the attachment carries the
storage epoch), reopen the BLOB, and serve the pre-transaction entries
-- not the rolled-back ones its stale tree object still remembers.

The comparison is on index contents, through index scans: the heap is
not transactional, so the rolled-back rows are still in the table, and
an index that still pointed at them would return them.
"""

import pytest

from repro.faults import FaultRegistry
from repro.server import DatabaseServer
from repro.temporal.chronon import Clock
from tests.datablade.test_blade_contract import ACCESS_METHODS


@pytest.mark.parametrize("am", sorted(ACCESS_METHODS))
def test_rollback_after_interrupted_close_reopens_the_index(am):
    register, column_type, values, predicate = ACCESS_METHODS[am]
    registry = FaultRegistry()
    server = DatabaseServer(clock=Clock(now=100), faults=registry)
    space = server.create_sbspace("spc")
    register(server)
    server.prefer_virtual_index = True
    server.execute(f"CREATE TABLE t (name LVARCHAR, c {column_type})")
    server.execute(f"CREATE INDEX i ON t(c) USING {am} IN spc")
    session = server.create_session()

    def indexed_names():
        rows = server.execute(f"SELECT name FROM t WHERE {predicate}", session)
        assert getattr(server.last_plan, "index", None) is not None
        return sorted(row["name"] for row in rows)

    server.execute(f"INSERT INTO t VALUES ('kept', {values[0]})", session)
    assert indexed_names() == ["kept"]

    server.execute("BEGIN WORK", session)
    server.execute(f"INSERT INTO t VALUES ('doomed0', {values[1]})", session)
    registry.set_fault("sbspace.page_write", "raise")
    with pytest.raises(Exception, match="sbspace.page_write"):
        server.execute(f"INSERT INTO t VALUES ('doomed1', {values[2]})", session)
    registry.clear_all()
    descriptor = server.catalog.get_index("i").descriptor
    assert descriptor.user_data, "the close was interrupted: still attached"
    server.execute("ROLLBACK WORK", session)

    opens = space.stats_opens
    assert indexed_names() == ["kept"]
    assert space.stats_opens > opens, "the scan never reopened the BLOB"
    assert "consistent" in server.execute("CHECK INDEX i", session)
    # The index takes new work, and a clean close leaves nothing attached.
    server.execute(f"INSERT INTO t VALUES ('after', {values[2]})", session)
    assert indexed_names() == ["after", "kept"]
    assert not descriptor.user_data
