"""The smart-blob space (*sbspace*) and its large objects.

An sbspace stores *large objects* (smart blobs).  Per the paper's Section
5.3, the server provides automatic two-phase locking at large-object
granularity: a lock is acquired when an object is opened for reading or
writing, and released either when the object is closed or at transaction
end, depending on the lock mode and the isolation level.  The DataBlade
developer can vary only the *number* of large objects used for an index --
one for the whole tree (least concurrency, the paper's and our default),
one per node (large handles, costly opens), or something in between.

A :class:`SmartBlob` doubles as a :class:`~repro.storage.pages.PageStore`,
so an index can layer a buffer pool directly over a single large object.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from repro.storage.locks import IsolationLevel, LockManager, LockMode
from repro.storage.pages import PAGE_SIZE, PageStore
from repro.storage.wal import RecordKind, WriteAheadLog


class SbspaceError(RuntimeError):
    """Misuse of the smart-blob space (bad handle, closed object, ...)."""


#: Large-object handles are deliberately bulky strings: the paper points
#: out that storing one per child pointer in index nodes is a real cost
#: of the "one large object per node" design.
_HANDLE_PREFIX = "LO:"
_HANDLE_PAD = 56


@dataclass(frozen=True)
class LargeObjectHandle:
    """An opaque handle identifying a large object in an sbspace."""

    value: str

    @staticmethod
    def fresh(sequence: int) -> "LargeObjectHandle":
        body = f"{_HANDLE_PREFIX}{sequence:012d}"
        return LargeObjectHandle(body.ljust(_HANDLE_PAD, "f"))

    def __str__(self) -> str:
        return self.value

    @property
    def size_bytes(self) -> int:
        """Size of the handle when embedded in an index entry."""
        return len(self.value)


class OpenMode(enum.Enum):
    READ = "r"
    WRITE = "w"

    @property
    def lock_mode(self) -> LockMode:
        return LockMode.SHARED if self is OpenMode.READ else LockMode.EXCLUSIVE


class SmartBlob(PageStore):
    """A large object: a growable array of pages plus a byte-range API."""

    def __init__(self, space: "Sbspace", handle: LargeObjectHandle) -> None:
        super().__init__(space.page_size)
        self._space = space
        self.handle = handle
        self._pages: Dict[int, bytes] = {}
        self._free: list[int] = []
        self._next_id = 0
        #: Open descriptors by transaction id (None key = no transaction).
        self.open_count = 0

    # -- PageStore interface -------------------------------------------

    def read_page(self, page_id: int) -> bytes:
        faults = self._space.faults
        if faults is not None:
            faults.hit("sbspace.page_read")
        self._space.stats_page_reads += 1
        try:
            return self._pages[page_id]
        except KeyError:
            raise SbspaceError(
                f"page {page_id} not allocated in {self.handle}"
            ) from None

    def write_page(self, page_id: int, data: bytes) -> None:
        if page_id not in self._pages:
            raise SbspaceError(f"page {page_id} not allocated in {self.handle}")
        data = self._check_data(data)
        stored = data
        faults = self._space.faults
        if faults is not None:
            # A torn/corrupt write mangles what lands on the page, but
            # the WAL keeps the *intended* after-image: redo heals it.
            stored = faults.on_write("sbspace.page_write", data, self._pages[page_id])
        self._space.stats_page_writes += 1
        self._space._log_page_write(
            self.handle, page_id, before=self._pages[page_id], after=data
        )
        self._pages[page_id] = stored

    def allocate_page(self) -> int:
        page_id = self._free.pop() if self._free else self._next_id
        if page_id == self._next_id:
            self._next_id += 1
        self._pages[page_id] = b"\x00" * self.page_size
        self._space._log_page_alloc(self.handle, page_id)
        return page_id

    def free_page(self, page_id: int) -> None:
        if page_id not in self._pages:
            raise SbspaceError(f"page {page_id} not allocated in {self.handle}")
        self._space._log_page_free(self.handle, page_id, self._pages[page_id])
        del self._pages[page_id]
        self._free.append(page_id)

    @property
    def page_count(self) -> int:
        return len(self._pages)

    # -- Byte-range convenience API (generic BLOB usage) ---------------

    def write_bytes(self, offset: int, data: bytes) -> None:
        """Write *data* at byte *offset*, growing the object as needed."""
        if not data:
            return
        last_page = (offset + len(data) - 1) // self.page_size
        for page_id in range(last_page + 1):
            if page_id not in self._pages:
                self._pages[page_id] = b"\x00" * self.page_size
                self._next_id = max(self._next_id, page_id + 1)
                self._space._log_page_alloc(self.handle, page_id)
        pos = offset
        remaining = data
        while remaining:
            page_id = pos // self.page_size
            in_page = pos % self.page_size
            chunk = remaining[: self.page_size - in_page]
            page = bytearray(self._pages[page_id])
            page[in_page : in_page + len(chunk)] = chunk
            self.write_page(page_id, bytes(page))
            pos += len(chunk)
            remaining = remaining[len(chunk) :]

    def read_bytes(self, offset: int, length: int) -> bytes:
        """Read *length* bytes at *offset* (zero-filled past the end)."""
        result = bytearray()
        pos = offset
        while len(result) < length:
            page_id = pos // self.page_size
            in_page = pos % self.page_size
            page = self._pages.get(page_id)
            chunk_len = min(self.page_size - in_page, length - len(result))
            if page is None:
                result.extend(b"\x00" * chunk_len)
            else:
                self._space.stats_page_reads += 1
                result.extend(page[in_page : in_page + chunk_len])
            pos += chunk_len
        return bytes(result)


class Sbspace:
    """A smart-blob space: a named collection of large objects.

    Locking (when a :class:`LockManager` is attached) follows the paper's
    description: opening acquires an object-level lock; closing releases a
    *shared* lock only below the repeatable-read isolation level, while
    exclusive locks are always held until transaction end (strict 2PL).
    """

    def __init__(
        self,
        name: str = "sbspace1",
        page_size: int = PAGE_SIZE,
        lock_manager: Optional[LockManager] = None,
        wal: Optional[WriteAheadLog] = None,
        faults=None,
    ) -> None:
        self.name = name
        self.page_size = page_size
        self.locks = lock_manager
        self.wal = wal
        #: Optional :class:`repro.faults.FaultRegistry`.
        self.faults = faults
        self._objects: Dict[str, SmartBlob] = {}
        self._sequence = itertools.count(1)
        self._current_txn: Optional[int] = None
        # Statistics surfaced to the storage-option benchmarks.
        self.stats_opens = 0
        self.stats_closes = 0
        self.stats_page_reads = 0
        self.stats_page_writes = 0

    # ------------------------------------------------------------------
    # Transaction context (set by the session layer)
    # ------------------------------------------------------------------

    def set_transaction(self, txn_id: Optional[int]) -> None:
        """Associate subsequent operations with a transaction id."""
        self._current_txn = txn_id

    def _log_page_write(self, handle, page_id, before, after) -> None:
        if self.wal is not None and self._current_txn is not None:
            self.wal.log_page_write(
                self._current_txn, handle.value, page_id, before, after
            )

    def _log_page_alloc(self, handle, page_id) -> None:
        if self.wal is not None and self._current_txn is not None:
            self.wal.log_page_alloc(self._current_txn, handle.value, page_id)

    def _log_page_free(self, handle, page_id, before) -> None:
        if self.wal is not None and self._current_txn is not None:
            self.wal.log_page_free(self._current_txn, handle.value, page_id, before)

    # ------------------------------------------------------------------
    # Large-object lifecycle
    # ------------------------------------------------------------------

    def create(self) -> SmartBlob:
        handle = LargeObjectHandle.fresh(next(self._sequence))
        blob = SmartBlob(self, handle)
        self._objects[handle.value] = blob
        if self.wal is not None and self._current_txn is not None:
            self.wal.log_create_lo(self._current_txn, handle.value)
        return blob

    def drop(self, handle: LargeObjectHandle) -> None:
        if handle.value not in self._objects:
            raise SbspaceError(f"no large object {handle}")
        if self.wal is not None and self._current_txn is not None:
            self.wal.log_drop_lo(self._current_txn, handle.value)
        del self._objects[handle.value]

    def get(self, handle: LargeObjectHandle) -> SmartBlob:
        try:
            return self._objects[handle.value]
        except KeyError:
            raise SbspaceError(f"no large object {handle}") from None

    def __contains__(self, handle: LargeObjectHandle) -> bool:
        return handle.value in self._objects

    @property
    def object_count(self) -> int:
        return len(self._objects)

    def stats(self) -> Dict[str, int]:
        """Counters pulled by the observability metrics collectors."""
        return {
            "opens": self.stats_opens,
            "closes": self.stats_closes,
            "page_reads": self.stats_page_reads,
            "page_writes": self.stats_page_writes,
            "large_objects": len(self._objects),
        }

    # ------------------------------------------------------------------
    # Open/close with automatic locking (the paper's sbspace semantics)
    # ------------------------------------------------------------------

    def open(
        self,
        handle: LargeObjectHandle,
        mode: OpenMode = OpenMode.READ,
        txn_id: Optional[int] = None,
        isolation: IsolationLevel = IsolationLevel.COMMITTED_READ,
    ) -> SmartBlob:
        """Open a large object, acquiring its object-level lock."""
        blob = self.lock(handle, mode, txn_id, isolation)
        blob.open_count += 1
        self.stats_opens += 1
        return blob

    def lock(
        self,
        handle: LargeObjectHandle,
        mode: OpenMode,
        txn_id: Optional[int],
        isolation: IsolationLevel,
    ) -> SmartBlob:
        """Acquire the object-level lock for *mode*: the locking step of
        :meth:`open`, and on its own the upgrade of an open object from
        read to write (which is not a second open)."""
        if self.faults is not None:
            self.faults.hit("sbspace.open")
        blob = self.get(handle)
        if self.locks is not None and txn_id is not None:
            if not (mode is OpenMode.READ and isolation is IsolationLevel.DIRTY_READ):
                self.locks.acquire(txn_id, ("lo", handle.value), mode.lock_mode)
        return blob

    def close(
        self,
        handle: LargeObjectHandle,
        mode: OpenMode = OpenMode.READ,
        txn_id: Optional[int] = None,
        isolation: IsolationLevel = IsolationLevel.COMMITTED_READ,
    ) -> None:
        """Close a large object.

        A shared lock is released here only below repeatable read; an
        exclusive lock is never released before transaction end.
        """
        blob = self.get(handle)
        if blob.open_count <= 0:
            raise SbspaceError(f"{handle} is not open")
        blob.open_count -= 1
        self.stats_closes += 1
        if (
            self.locks is not None
            and txn_id is not None
            and mode is OpenMode.READ
            and isolation is not IsolationLevel.REPEATABLE_READ
        ):
            held = self.locks.mode_held(txn_id, ("lo", handle.value))
            if held is LockMode.SHARED:
                self.locks.release(txn_id, ("lo", handle.value))

    def end_transaction(self, txn_id: int) -> None:
        """Release every lock the transaction holds (two-phase release)."""
        if self.locks is not None:
            self.locks.release_all(txn_id)

    # ------------------------------------------------------------------
    # Runtime rollback and crash recovery (driven by the WAL)
    # ------------------------------------------------------------------

    def rollback(self, txn_id: int) -> None:
        """Undo the transaction's effects from before-images, in reverse."""
        if self.wal is None:
            raise SbspaceError("rollback requires a write-ahead log")
        for record in reversed(self.wal.records_for(txn_id)):
            if record.kind is RecordKind.PAGE_WRITE:
                blob = self._objects.get(record.lo_handle)
                if blob is not None and record.page_id in blob._pages:
                    blob._pages[record.page_id] = record.before
            elif record.kind is RecordKind.PAGE_ALLOC:
                blob = self._objects.get(record.lo_handle)
                if blob is not None:
                    blob._pages.pop(record.page_id, None)
                    blob._free.append(record.page_id)
            elif record.kind is RecordKind.PAGE_FREE:
                blob = self._objects.get(record.lo_handle)
                if blob is not None:
                    blob._pages[record.page_id] = record.before
                    if record.page_id in blob._free:
                        blob._free.remove(record.page_id)
            elif record.kind is RecordKind.CREATE_LO:
                self._objects.pop(record.lo_handle, None)
            elif record.kind is RecordKind.DROP_LO:
                # Dropped objects cannot be resurrected with content here;
                # drops are therefore deferred to commit by callers that
                # need abort-safety.  Recreate an empty shell.
                handle = LargeObjectHandle(record.lo_handle)
                self._objects.setdefault(record.lo_handle, SmartBlob(self, handle))

    def _reset_for_recovery(self) -> None:
        self._objects.clear()

    def _finish_recovery(self) -> None:
        """Rebuild derived state the log does not record directly.

        Without this, a recovered space would hand out handle sequence
        numbers starting from 1 again: the next ``create()`` would mint
        a handle colliding with a recovered large object and silently
        replace it in ``_objects`` -- committed data lost to a *new*
        transaction after a perfectly good recovery.  (Found by the WAL
        replay idempotency test.)  Free lists are likewise rebuilt so a
        recovered blob allocates pages the same way a live one would.
        """
        max_seq = 0
        for value, blob in self._objects.items():
            if value.startswith(_HANDLE_PREFIX):
                digits = value[len(_HANDLE_PREFIX) :].rstrip("f")
                if digits.isdigit():
                    max_seq = max(max_seq, int(digits))
            blob._free = sorted(
                set(range(blob._next_id)) - set(blob._pages), reverse=True
            )
        self._sequence = itertools.count(max_seq + 1)

    def _redo(self, record) -> None:
        """Apply one committed log record during recovery."""
        if record.kind is RecordKind.CREATE_LO:
            handle = LargeObjectHandle(record.lo_handle)
            self._objects[record.lo_handle] = SmartBlob(self, handle)
        elif record.kind is RecordKind.DROP_LO:
            self._objects.pop(record.lo_handle, None)
        elif record.kind is RecordKind.PAGE_ALLOC:
            blob = self._objects[record.lo_handle]
            blob._pages[record.page_id] = b"\x00" * self.page_size
            blob._next_id = max(blob._next_id, record.page_id + 1)
        elif record.kind is RecordKind.PAGE_FREE:
            blob = self._objects[record.lo_handle]
            blob._pages.pop(record.page_id, None)
        elif record.kind is RecordKind.PAGE_WRITE:
            blob = self._objects[record.lo_handle]
            blob._pages[record.page_id] = record.after
