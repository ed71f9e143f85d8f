"""BLOB manipulation functions (Section 6.3, "280 LOC" in Table 4).

The GR-tree stores a whole index in one smart blob (the Section 5.3
choice: "In our implementation, we chose a single large object for the
whole index").  This layer wraps the sbspace API with the Create/Drop/
Open/Close/Read/Write surface the paper lists, wiring locks to the
session's transaction and isolation level, and exposing the blob as the
page store the GR-tree's buffer pool sits on.
"""

from __future__ import annotations

from typing import Optional

from repro.server.errors import AccessMethodError
from repro.storage.locks import IsolationLevel
from repro.storage.sbspace import LargeObjectHandle, OpenMode, Sbspace, SmartBlob


class BladeBlob:
    """One open large object, tracked with its lock context."""

    def __init__(self, space: Sbspace, handle: LargeObjectHandle) -> None:
        self.space = space
        self.handle = handle
        self._open_mode: Optional[OpenMode] = None
        self._txn_id: Optional[int] = None
        self._isolation = IsolationLevel.COMMITTED_READ

    # -- the Create/Drop/Open/Close/Read/Write surface -------------------

    @classmethod
    def create(cls, space: Sbspace) -> "BladeBlob":
        blob = space.create()
        return cls(space, blob.handle)

    def drop(self) -> None:
        if self._open_mode is not None:
            self.close()
        self.space.drop(self.handle)

    def open(self, session, mode: OpenMode = OpenMode.READ) -> SmartBlob:
        """Open with the automatic object-level lock (Section 5.3)."""
        if self._open_mode is not None:
            raise AccessMethodError(f"{self.handle} is already open")
        txn = session.transaction if session is not None else None
        self._txn_id = txn.txn_id if txn is not None else None
        self._isolation = (
            session.isolation if session is not None
            else IsolationLevel.COMMITTED_READ
        )
        blob = self.space.open(
            self.handle, mode, txn_id=self._txn_id, isolation=self._isolation
        )
        self._open_mode = mode
        return blob

    def ensure_writable(self) -> None:
        """Upgrade a read open to write before the first modification."""
        if self._open_mode is OpenMode.WRITE:
            return
        if self._open_mode is None:
            raise AccessMethodError(f"{self.handle} is not open")
        # Re-acquire at exclusive strength (upgrade by the sole holder).
        self.space.lock(self.handle, OpenMode.WRITE, self._txn_id, self._isolation)
        self._open_mode = OpenMode.WRITE

    def close(self) -> None:
        if self._open_mode is None:
            raise AccessMethodError(f"{self.handle} is not open")
        self.space.close(
            self.handle,
            self._open_mode,
            txn_id=self._txn_id,
            isolation=self._isolation,
        )
        self._open_mode = None
        self._txn_id = None

    @property
    def is_open(self) -> bool:
        return self._open_mode is not None

    @property
    def is_writable(self) -> bool:
        return self._open_mode is OpenMode.WRITE

    def read(self, offset: int, length: int) -> bytes:
        return self.space.get(self.handle).read_bytes(offset, length)

    def write(self, offset: int, data: bytes) -> None:
        self.ensure_writable()
        self.space.get(self.handle).write_bytes(offset, data)

    def page_store(self) -> SmartBlob:
        """The blob as a page store for the GR-tree's buffer pool."""
        return self.space.get(self.handle)
