"""Write-ahead logging and recovery for the smart-blob space.

The paper (Section 5.3) notes that when index data lives in an sbspace,
the server's log manager -- not the DataBlade -- provides recovery.  This
module is that log manager: smart-blob page writes and large-object
lifecycle events are logged before they are applied, transactions can be
rolled back from before-images at runtime, and :meth:`WriteAheadLog.recover`
reconstructs the committed state after a simulated crash (redo from the
log onto an emptied space).

For replication (``repro.repl``) the log additionally carries *logical*
records: DDL statement text and row-level insert/delete/update images.
Logical records are only appended while :attr:`WriteAheadLog.ship_rows`
is on (a served primary); an embedded engine pays nothing for them.
Physical sbspace records and logical records share one LSN sequence, so
a replica sees a gap-free stream and can detect drops by LSN alone.
"""

from __future__ import annotations

import base64
import enum
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional

#: Reserved transaction id for auto-committed records (DDL): statement
#: text is logged only after the statement succeeded, so these records
#: are committed by construction.  Real transaction ids start at 1.
DDL_TXN = 0


class RecordKind(enum.Enum):
    BEGIN = "begin"
    COMMIT = "commit"
    ABORT = "abort"
    CREATE_LO = "create_lo"
    DROP_LO = "drop_lo"
    PAGE_ALLOC = "page_alloc"
    PAGE_FREE = "page_free"
    PAGE_WRITE = "page_write"
    # Logical replication records (never replayed into an sbspace).
    ROW_INSERT = "row_insert"
    ROW_DELETE = "row_delete"
    ROW_UPDATE = "row_update"
    DDL = "ddl"


#: The exported ``stats`` name of each kind's record count.
_KIND_STAT = {kind: "kind." + kind.value for kind in RecordKind}

#: Kinds that :meth:`WriteAheadLog.recover` and ``Sbspace.rollback``
#: replay/undo physically; everything else is logical shipping payload.
SPACE_KINDS = frozenset(
    {
        RecordKind.CREATE_LO,
        RecordKind.DROP_LO,
        RecordKind.PAGE_ALLOC,
        RecordKind.PAGE_FREE,
        RecordKind.PAGE_WRITE,
    }
)


@dataclass(frozen=True)
class LogRecord:
    lsn: int
    txn_id: int
    kind: RecordKind
    lo_handle: Optional[str] = None
    page_id: Optional[int] = None
    before: Optional[bytes] = None
    after: Optional[bytes] = None
    #: Logical fields (ROW_* / DDL records only).
    table: Optional[str] = None
    rowid: Optional[int] = None
    #: Column values in wire-text form (each via ``data_type.export_text``).
    row: Optional[dict] = None
    sql: Optional[str] = None

    # -- wire form ---------------------------------------------------------
    #
    # Replication ships records as JSON; bytes fields travel base64-coded.
    # ``from_dict`` is strict about the kind: an unknown kind means the
    # peer speaks a newer log format, and silently skipping records would
    # corrupt the replica, so it must be an explicit error.

    def to_dict(self) -> dict:
        payload = {
            "lsn": self.lsn,
            "txn_id": self.txn_id,
            "kind": self.kind.value,
        }
        if self.lo_handle is not None:
            payload["lo_handle"] = self.lo_handle
        if self.page_id is not None:
            payload["page_id"] = self.page_id
        if self.before is not None:
            payload["before"] = base64.b64encode(self.before).decode("ascii")
        if self.after is not None:
            payload["after"] = base64.b64encode(self.after).decode("ascii")
        if self.table is not None:
            payload["table"] = self.table
        if self.rowid is not None:
            payload["rowid"] = self.rowid
        if self.row is not None:
            payload["row"] = dict(self.row)
        if self.sql is not None:
            payload["sql"] = self.sql
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "LogRecord":
        try:
            kind = RecordKind(payload["kind"])
        except (KeyError, ValueError):
            raise ValueError(
                f"unknown log record kind: {payload.get('kind')!r}"
            ) from None
        before = payload.get("before")
        after = payload.get("after")
        return cls(
            lsn=int(payload["lsn"]),
            txn_id=int(payload["txn_id"]),
            kind=kind,
            lo_handle=payload.get("lo_handle"),
            page_id=payload.get("page_id"),
            before=None if before is None else base64.b64decode(before),
            after=None if after is None else base64.b64decode(after),
            table=payload.get("table"),
            rowid=payload.get("rowid"),
            row=payload.get("row"),
            sql=payload.get("sql"),
        )


class WriteAheadLog:
    """An append-only log with runtime rollback and crash recovery.

    A transaction's BEGIN record is appended with its first change
    record, so a transaction that changes nothing (a read) leaves no
    record: its end appends no COMMIT or ABORT either.
    """

    def __init__(self, faults=None) -> None:
        self._records: List[LogRecord] = []
        #: Begun, but no record logged yet (BEGIN comes with the first).
        self._pending: set[int] = set()
        self._active: set[int] = set()
        self._committed: set[int] = set()
        self._aborted: set[int] = set()
        #: The highest transaction id begun: ids are issued in increasing
        #: order, so one at or below it was already used.
        self._last_txn = 0
        #: Record counts under their ``stats`` names (``kind.<kind>``).
        self._kind_counts: dict[str, int] = {}
        #: Optional :class:`repro.faults.FaultRegistry`; ``None`` keeps
        #: the append path free of any fault-injection cost.
        self.faults = faults
        #: When on, the executor logs row images and the server logs DDL
        #: text, making the log a complete logical history from LSN 0.
        #: Served primaries turn this on at boot; embedded engines don't.
        self.ship_rows = False
        self._listeners: List[Callable[[LogRecord], None]] = []

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def add_listener(self, listener: Callable[[LogRecord], None]) -> None:
        """Call *listener* after every append (the shipper's wake-up)."""
        self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[LogRecord], None]) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def _append(self, txn_id: int, kind: RecordKind, **fields) -> LogRecord:
        if self.faults is not None:
            self.faults.hit("wal.append")
        record = LogRecord(lsn=len(self._records), txn_id=txn_id, kind=kind, **fields)
        self._records.append(record)
        key = _KIND_STAT[kind]
        self._kind_counts[key] = self._kind_counts.get(key, 0) + 1
        for listener in self._listeners:
            listener(record)
        return record

    def log_begin(self, txn_id: int) -> None:
        """Begin *txn_id*; its BEGIN record waits for its first change."""
        if txn_id in self._active or txn_id in self._pending:
            raise ValueError(f"transaction {txn_id} already active")
        if txn_id <= self._last_txn:
            raise ValueError(f"transaction id {txn_id} was already used")
        self._last_txn = txn_id
        self._pending.add(txn_id)

    def log_commit(self, txn_id: int) -> None:
        if txn_id in self._pending:
            self._pending.discard(txn_id)  # logged nothing: nothing to commit
            return
        self._require_active(txn_id)
        # The 'fsync' failpoint models the flush that makes the COMMIT
        # record durable: a crash here leaves the transaction active in
        # the log, so recovery discards it -- the commit never happened.
        if self.faults is not None:
            self.faults.hit("wal.fsync")
        self._active.discard(txn_id)
        self._committed.add(txn_id)
        self._append(txn_id, RecordKind.COMMIT)

    def log_abort(self, txn_id: int) -> None:
        if txn_id in self._pending:
            self._pending.discard(txn_id)
            return
        self._require_active(txn_id)
        self._active.discard(txn_id)
        self._aborted.add(txn_id)
        self._append(txn_id, RecordKind.ABORT)

    def log_create_lo(self, txn_id: int, lo_handle: str) -> None:
        self._change(txn_id)
        self._append(txn_id, RecordKind.CREATE_LO, lo_handle=lo_handle)

    def log_drop_lo(self, txn_id: int, lo_handle: str) -> None:
        self._change(txn_id)
        self._append(txn_id, RecordKind.DROP_LO, lo_handle=lo_handle)

    def log_page_alloc(self, txn_id: int, lo_handle: str, page_id: int) -> None:
        self._change(txn_id)
        self._append(txn_id, RecordKind.PAGE_ALLOC, lo_handle=lo_handle, page_id=page_id)

    def log_page_free(
        self, txn_id: int, lo_handle: str, page_id: int, before: bytes
    ) -> None:
        self._change(txn_id)
        self._append(
            txn_id,
            RecordKind.PAGE_FREE,
            lo_handle=lo_handle,
            page_id=page_id,
            before=before,
        )

    def log_page_write(
        self, txn_id: int, lo_handle: str, page_id: int, before: bytes, after: bytes
    ) -> None:
        self._change(txn_id)
        self._append(
            txn_id,
            RecordKind.PAGE_WRITE,
            lo_handle=lo_handle,
            page_id=page_id,
            before=before,
            after=after,
        )

    # -- logical records (replication) ---------------------------------

    def log_row_insert(
        self, txn_id: int, table: str, rowid: int, row: dict
    ) -> None:
        self._change(txn_id)
        self._append(
            txn_id, RecordKind.ROW_INSERT, table=table, rowid=rowid, row=row
        )

    def log_row_delete(self, txn_id: int, table: str, rowid: int) -> None:
        self._change(txn_id)
        self._append(txn_id, RecordKind.ROW_DELETE, table=table, rowid=rowid)

    def log_row_update(
        self, txn_id: int, table: str, rowid: int, row: dict
    ) -> None:
        self._change(txn_id)
        self._append(
            txn_id, RecordKind.ROW_UPDATE, table=table, rowid=rowid, row=row
        )

    def log_ddl(self, sql: str) -> None:
        """Log a successful DDL statement verbatim (auto-committed)."""
        self._append(DDL_TXN, RecordKind.DDL, sql=sql)

    def _require_active(self, txn_id: int) -> None:
        if txn_id not in self._active:
            raise ValueError(f"transaction {txn_id} is not active")

    def _change(self, txn_id: int) -> None:
        """Before a change record of *txn_id*: its BEGIN, if still due."""
        if txn_id in self._pending:
            self._pending.discard(txn_id)
            self._active.add(txn_id)
            self._append(txn_id, RecordKind.BEGIN)
        else:
            self._require_active(txn_id)

    # ------------------------------------------------------------------
    # Reading back
    # ------------------------------------------------------------------

    def records(self) -> Iterable[LogRecord]:
        return iter(self._records)

    def records_from(self, lsn: int) -> List[LogRecord]:
        """Records with ``record.lsn >= lsn`` (the catch-up stream)."""
        if lsn <= 0:
            return list(self._records)
        return self._records[lsn:]

    def records_for(self, txn_id: int) -> List[LogRecord]:
        """*txn_id*'s records, oldest first; a transaction still pending
        (begun, nothing logged) has none, so the log is not scanned."""
        if txn_id in self._pending:
            return []
        return [r for r in self._records if r.txn_id == txn_id]

    def is_committed(self, txn_id: int) -> bool:
        return txn_id == DDL_TXN or txn_id in self._committed

    def is_active(self, txn_id: int) -> bool:
        return txn_id in self._active or txn_id in self._pending

    def active_transactions(self) -> frozenset[int]:
        """Transactions begun and not yet committed or aborted, logged
        anything or not.

        The crash harness reads this before recovery to model the lock
        table: locks are volatile, so whatever the crashed transactions
        held simply vanishes."""
        return frozenset(self._active | self._pending)

    def last_lsn(self) -> int:
        """LSN of the newest record; ``-1`` for an empty log."""
        return len(self._records) - 1

    def __len__(self) -> int:
        return len(self._records)

    def stats(self) -> dict:
        """Counters pulled by the observability metrics collectors."""
        return {
            "records": len(self._records),
            "commits": len(self._committed),
            "aborts": len(self._aborted),
            "active": len(self._active),
            "last_lsn": len(self._records) - 1,
            **self._kind_counts,
        }

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(self, space) -> int:
        """Rebuild *space* (an :class:`~repro.storage.sbspace.Sbspace`)
        to the committed state by redoing the log from the beginning.

        Transactions that were still active at the crash are treated as
        aborted (their records are skipped), and logical records are --
        they carry no sbspace state.  Returns the number of records
        replayed.
        """
        space._reset_for_recovery()
        replayed = 0
        for record in self._records:
            if record.kind not in SPACE_KINDS:
                continue
            if record.txn_id not in self._committed:
                continue
            space._redo(record)
            replayed += 1
        # Whatever was active at crash time is now aborted; a transaction
        # that had logged nothing leaves no trace.
        self._aborted |= self._active
        self._active.clear()
        self._pending.clear()
        space._finish_recovery()
        return replayed
