"""Integration: rollback, crash recovery, and storage options (§5.3)."""

import pytest

from repro.datablade import register_grtree_blade
from repro.server import DatabaseServer
from repro.temporal.chronon import Clock, format_chronon


def day(chronon):
    return format_chronon(chronon)


def make_server(now=100):
    server = DatabaseServer(clock=Clock(now=now))
    server.create_sbspace("spc")
    register_grtree_blade(server)
    server.execute("CREATE TABLE t (name LVARCHAR, te GRT_TimeExtent_t)")
    server.execute("CREATE INDEX gi ON t(te) USING grtree_am IN spc")
    server.prefer_virtual_index = True
    return server


QUERY = "SELECT name FROM t WHERE Overlaps(te, '{q}')"


class TestRollback:
    def test_rolled_back_insert_leaves_index_unchanged(self):
        server = make_server()
        server.execute(
            f"INSERT INTO t VALUES ('keep', '{day(100)}, UC, {day(95)}, NOW')"
        )
        session = server.create_session()
        server.execute("BEGIN WORK", session)
        server.execute(
            f"INSERT INTO t VALUES ('gone', '{day(100)}, UC, {day(95)}, NOW')",
            session,
        )
        server.execute("ROLLBACK WORK", session)
        rows = server.execute(
            QUERY.format(q=f"{day(100)}, UC, {day(100)}, NOW")
        )
        # The index pages were rolled back from before-images; only the
        # committed entry remains reachable.
        names = {r["name"] for r in rows}
        assert "keep" in names
        server.execute("CHECK INDEX gi")


class TestCrashRecovery:
    def test_index_blob_survives_crash(self):
        server = make_server()
        for i in range(50):
            server.execute(
                f"INSERT INTO t VALUES ('r{i}', '{day(100)}, UC, {day(95)}, NOW')"
            )
        space = server.get_sbspace("spc")
        objects_before = space.object_count
        pages_before = {
            handle: blob.page_count for handle, blob in space._objects.items()
        }
        # Crash: volatile sbspace state is lost, the WAL survives.
        space._reset_for_recovery()
        assert space.object_count == 0
        server.wal.recover(space)
        assert space.object_count == objects_before
        assert {
            handle: blob.page_count for handle, blob in space._objects.items()
        } == pages_before

    def test_uncommitted_transaction_discarded_by_recovery(self):
        server = make_server()
        server.execute(
            f"INSERT INTO t VALUES ('a', '{day(100)}, UC, {day(95)}, NOW')"
        )
        space = server.get_sbspace("spc")
        committed_pages = {
            handle: dict(blob._pages) for handle, blob in space._objects.items()
        }
        session = server.create_session()
        server.execute("BEGIN WORK", session)
        server.execute(
            f"INSERT INTO t VALUES ('b', '{day(100)}, UC, {day(95)}, NOW')",
            session,
        )
        # Crash before commit.
        server.wal.recover(space)
        recovered_pages = {
            handle: dict(blob._pages) for handle, blob in space._objects.items()
        }
        assert recovered_pages == committed_pages


class TestStorageOptions:
    """Section 5.3: one LO per index vs LO per node vs OS file."""

    def test_single_lo_locks_whole_index(self):
        server = make_server()
        server.execute(
            f"INSERT INTO t VALUES ('a', '{day(100)}, UC, {day(95)}, NOW')"
        )
        space = server.get_sbspace("spc")
        # The whole index is one large object.
        meta = server.catalog.get_table("grtree_indexdata")
        assert meta.row_count == 1
        assert space.object_count == 1

    def test_lo_handles_are_heavy(self):
        # The paper's argument against one-LO-per-node: handles stored in
        # parent entries are large relative to a page-id pointer (8 bytes).
        server = make_server()
        space = server.get_sbspace("spc")
        blob = next(iter(space._objects.values()))
        assert blob.handle.size_bytes > 4 * 8

    def test_os_file_store_offers_no_services(self, tmp_path):
        """The OS-file option works as a page store but provides neither
        locking nor logging -- the developer would build both."""
        from repro.grtree.node import GRNodeStore
        from repro.grtree.tree import GRTree
        from repro.storage.buffer import BufferPool
        from repro.storage.osfile import OSFilePageStore
        from repro.temporal.extent import TimeExtent
        from repro.temporal.variables import NOW, UC

        clock = Clock(now=100)
        path = str(tmp_path / "index.grt")
        with OSFilePageStore(path, page_size=2048) as store:
            pool = BufferPool(store)
            tree = GRTree.create(GRNodeStore(pool), clock)
            meta_page = tree.meta_page
            for i in range(100):
                tree.insert(TimeExtent(100, UC, 95, NOW), rowid=i)
            tree.flush()
        # Reopen from the file: the index is durable without any WAL.
        with OSFilePageStore(path, page_size=2048) as store:
            pool = BufferPool(store)
            tree = GRTree.open(GRNodeStore(pool), clock, meta_page=meta_page)
            assert tree.size == 100
            hits = tree.search_all(TimeExtent(100, UC, 100, NOW))
            assert len(hits) == 100
