"""Tests for the smart-blob space, WAL, rollback, and crash recovery."""

import pytest

from repro.server import DatabaseServer
from repro.storage.locks import (
    IsolationLevel,
    LockConflictError,
    LockManager,
    LockMode,
)
from repro.storage.sbspace import (
    LargeObjectHandle,
    OpenMode,
    Sbspace,
    SbspaceError,
)
from repro.storage.wal import WriteAheadLog


@pytest.fixture
def space():
    return Sbspace(page_size=128)


@pytest.fixture
def logged_space():
    wal = WriteAheadLog()
    space = Sbspace(page_size=128, wal=wal)
    return space, wal


class TestLargeObjects:
    def test_create_get_drop(self, space):
        blob = space.create()
        assert space.get(blob.handle) is blob
        assert blob.handle in space
        space.drop(blob.handle)
        assert blob.handle not in space
        with pytest.raises(SbspaceError):
            space.get(blob.handle)

    def test_handles_are_unique_and_bulky(self, space):
        a, b = space.create(), space.create()
        assert a.handle != b.handle
        # The paper: LO handles are "relatively large" -- a real cost when
        # embedded per child pointer in index nodes.
        assert a.handle.size_bytes >= 32

    def test_blob_is_a_page_store(self, space):
        blob = space.create()
        pid = blob.allocate_page()
        blob.write_page(pid, b"node-0")
        assert blob.read_page(pid).startswith(b"node-0")
        assert blob.page_count == 1

    def test_byte_range_io_spans_pages(self, space):
        blob = space.create()
        payload = bytes(range(200))  # > one 128-byte page
        blob.write_bytes(100, payload)
        assert blob.read_bytes(100, 200) == payload
        assert blob.page_count == 3  # pages 0, 1, 2 touched

    def test_read_past_end_zero_filled(self, space):
        blob = space.create()
        blob.write_bytes(0, b"xy")
        assert blob.read_bytes(0, 4) == b"xy\x00\x00"
        assert blob.read_bytes(1000, 3) == b"\x00\x00\x00"

    def test_page_io_statistics(self, space):
        blob = space.create()
        pid = blob.allocate_page()
        blob.write_page(pid, b"a")
        blob.read_page(pid)
        assert space.stats_page_writes == 1
        assert space.stats_page_reads == 1


class TestObjectLevelLocking:
    """The paper's sbspace locking semantics (Section 5.3)."""

    def make(self):
        locks = LockManager()
        space = Sbspace(page_size=128, lock_manager=locks)
        blob = space.create()
        return space, locks, blob

    def test_open_for_write_locks_exclusively(self):
        space, locks, blob = self.make()
        space.open(blob.handle, OpenMode.WRITE, txn_id=1)
        with pytest.raises(LockConflictError):
            space.open(blob.handle, OpenMode.READ, txn_id=2)

    def test_readers_share(self):
        space, locks, blob = self.make()
        space.open(blob.handle, OpenMode.READ, txn_id=1)
        space.open(blob.handle, OpenMode.READ, txn_id=2)
        assert locks.holders(("lo", blob.handle.value)) == {1, 2}

    def test_shared_lock_released_on_close_at_committed_read(self):
        space, locks, blob = self.make()
        space.open(blob.handle, OpenMode.READ, txn_id=1,
                   isolation=IsolationLevel.COMMITTED_READ)
        space.close(blob.handle, OpenMode.READ, txn_id=1,
                    isolation=IsolationLevel.COMMITTED_READ)
        assert locks.holders(("lo", blob.handle.value)) == set()

    def test_shared_lock_kept_at_repeatable_read(self):
        # "If the repeatable-read isolation level is set, even the shared
        # locks ... will be released only when a transaction commits."
        space, locks, blob = self.make()
        space.open(blob.handle, OpenMode.READ, txn_id=1,
                   isolation=IsolationLevel.REPEATABLE_READ)
        space.close(blob.handle, OpenMode.READ, txn_id=1,
                    isolation=IsolationLevel.REPEATABLE_READ)
        assert locks.holders(("lo", blob.handle.value)) == {1}
        space.end_transaction(1)
        assert locks.holders(("lo", blob.handle.value)) == set()

    def test_exclusive_lock_never_released_before_txn_end(self):
        space, locks, blob = self.make()
        space.open(blob.handle, OpenMode.WRITE, txn_id=1)
        space.close(blob.handle, OpenMode.WRITE, txn_id=1)
        assert locks.mode_held(1, ("lo", blob.handle.value)) is LockMode.EXCLUSIVE

    def test_dirty_read_skips_locking(self):
        space, locks, blob = self.make()
        space.open(blob.handle, OpenMode.WRITE, txn_id=1)
        # A dirty reader does not even ask for a lock.
        space.open(blob.handle, OpenMode.READ, txn_id=2,
                   isolation=IsolationLevel.DIRTY_READ)

    def test_close_unopened_raises(self):
        space, locks, blob = self.make()
        with pytest.raises(SbspaceError):
            space.close(blob.handle, OpenMode.READ, txn_id=1)

    def test_open_close_statistics(self):
        space, locks, blob = self.make()
        space.open(blob.handle, OpenMode.READ, txn_id=1)
        space.close(blob.handle, OpenMode.READ, txn_id=1)
        assert space.stats_opens == 1
        assert space.stats_closes == 1


class TestRollback:
    def test_page_write_undone(self, logged_space):
        space, wal = logged_space
        space.set_transaction(1)
        wal.log_begin(1)
        blob = space.create()
        pid = blob.allocate_page()
        blob.write_page(pid, b"v1")
        wal.log_commit(1)

        space.set_transaction(2)
        wal.log_begin(2)
        blob.write_page(pid, b"v2")
        space.rollback(2)
        wal.log_abort(2)
        assert blob.read_page(pid).startswith(b"v1")

    def test_created_object_removed_on_rollback(self, logged_space):
        space, wal = logged_space
        space.set_transaction(1)
        wal.log_begin(1)
        blob = space.create()
        space.rollback(1)
        wal.log_abort(1)
        assert blob.handle not in space

    def test_allocated_page_released_on_rollback(self, logged_space):
        space, wal = logged_space
        space.set_transaction(1)
        wal.log_begin(1)
        blob = space.create()
        wal.log_commit(1)

        space.set_transaction(2)
        wal.log_begin(2)
        blob.allocate_page()
        space.rollback(2)
        wal.log_abort(2)
        assert blob.page_count == 0

    @pytest.mark.parametrize("records", [100, 10_000])
    def test_empty_rollback_visits_no_record(self, records):
        """A transaction that logged nothing is still pending in the
        log; rolling it back reads no record however long the log is."""
        server = DatabaseServer()
        server.create_sbspace("spc")
        server.create_sbspace("spc2")
        wal = server.wal
        txn = server.next_txn_id()
        wal.log_begin(txn)
        for page in range(records - 2):
            wal.log_page_alloc(txn, "lo", page)
        wal.log_commit(txn)
        wal._records = VisitCounter(wal._records)
        assert wal.last_lsn() == records - 1
        epoch = server.storage_epoch
        server.execute("BEGIN WORK")
        server.execute("ROLLBACK WORK")
        assert wal._records.visited == 0
        # Dirty frames a failed statement left behind have no record:
        # cached index handles must still drop their pools.
        assert server.storage_epoch == epoch + 1
        assert len(wal.records_for(txn)) == records
        assert wal._records.visited == records


class VisitCounter(list):
    """A record list that counts the records iterated over."""

    visited = 0

    def __iter__(self):
        for record in list.__iter__(self):
            self.visited += 1
            yield record


class TestCrashRecovery:
    def test_committed_state_survives(self, logged_space):
        space, wal = logged_space
        space.set_transaction(1)
        wal.log_begin(1)
        blob = space.create()
        pid = blob.allocate_page()
        blob.write_page(pid, b"durable")
        wal.log_commit(1)
        handle = blob.handle

        space._reset_for_recovery()  # crash: volatile state gone
        wal.recover(space)
        recovered = space.get(handle)
        assert recovered.read_page(pid).startswith(b"durable")

    def test_uncommitted_work_lost(self, logged_space):
        space, wal = logged_space
        space.set_transaction(1)
        wal.log_begin(1)
        blob = space.create()
        pid = blob.allocate_page()
        blob.write_page(pid, b"v1")
        wal.log_commit(1)
        handle = blob.handle

        space.set_transaction(2)
        wal.log_begin(2)
        blob.write_page(pid, b"v2-uncommitted")
        # crash before commit
        wal.recover(space)
        assert space.get(handle).read_page(pid).startswith(b"v1")
        assert not wal.is_active(2)

    def test_dropped_object_stays_dropped(self, logged_space):
        space, wal = logged_space
        space.set_transaction(1)
        wal.log_begin(1)
        blob = space.create()
        wal.log_commit(1)
        space.set_transaction(2)
        wal.log_begin(2)
        space.drop(blob.handle)
        wal.log_commit(2)

        wal.recover(space)
        assert blob.handle not in space

    def test_recovery_is_idempotent(self, logged_space):
        space, wal = logged_space
        space.set_transaction(1)
        wal.log_begin(1)
        blob = space.create()
        pid = blob.allocate_page()
        blob.write_page(pid, b"x")
        wal.log_commit(1)
        handle = blob.handle

        wal.recover(space)
        first = space.get(handle).read_page(pid)
        wal.recover(space)
        assert space.get(handle).read_page(pid) == first


class TestWalDiscipline:
    def test_double_begin_rejected(self):
        wal = WriteAheadLog()
        wal.log_begin(1)
        with pytest.raises(ValueError):
            wal.log_begin(1)

    def test_commit_requires_active(self):
        wal = WriteAheadLog()
        with pytest.raises(ValueError):
            wal.log_commit(7)

    def test_txn_ids_not_reusable(self):
        wal = WriteAheadLog()
        wal.log_begin(1)
        wal.log_commit(1)
        with pytest.raises(ValueError):
            wal.log_begin(1)

    def test_records_are_lsn_ordered(self):
        wal = WriteAheadLog()
        wal.log_begin(1)
        wal.log_create_lo(1, "LO:x")
        wal.log_commit(1)
        lsns = [r.lsn for r in wal.records()]
        assert lsns == sorted(lsns) == [0, 1, 2]
