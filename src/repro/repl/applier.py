"""The replica's continuous-redo apply loop.

The applier is a socket-free state machine: frames of wire-form
``LogRecord`` dicts go in (from :class:`repro.repl.link.ReplicaLink`, or
directly from a test harness), committed state comes out.  Three
invariants define it:

**Idempotent by LSN.**  A strict cursor (``received_lsn``) advances one
record at a time.  Records at or below the cursor are duplicates and
are dropped; records beyond ``cursor + 1`` wait in a reorder buffer
until the gap fills.  Replaying any prefix, suffix, or shuffling of the
stream therefore converges to the same state.

**Commit-gated.**  Row records are buffered per primary transaction and
applied atomically -- under the engine lock, inside one local
transaction -- only when the COMMIT record arrives.  An ABORT drops the
buffer.  Reads on the replica can never see a torn transaction.

**Recoverable from the relay log.**  Every record accepted past the
cursor is retained in ``relay`` (the replica's durable relay log).  A
replica that crashes mid-apply restarts by replaying the relay log from
LSN 0 onto a fresh engine: since application is commit-gated and the
log is a committed-prefix record of the primary, recovery always lands
on a committed prefix of the primary's history.

DDL records (transaction id 0) are logged by the primary only after the
statement succeeded, so they are committed by construction and re-execute
immediately through the replica's own executor -- which is how the
replica builds its *own* physical GR-trees (physical sbspace records in
the stream are skipped; they describe the primary's pages, not ours).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from repro.storage.wal import DDL_TXN, RecordKind, LogRecord

#: Logical row kinds the applier buffers per transaction.
_ROW_KINDS = (RecordKind.ROW_INSERT, RecordKind.ROW_DELETE, RecordKind.ROW_UPDATE)


class ReplicationApplier:
    """Applies a primary's WAL stream onto a local DatabaseServer."""

    def __init__(self, db, name: str = "replica") -> None:
        self.db = db
        self.name = name
        db.read_only = True
        #: Wire-form records accepted in LSN order (the relay log).
        self.relay: List[dict] = []
        #: LSN cursor: the last record accepted into the relay log.
        self.received_lsn = -1
        #: The last record fully applied (equals the cursor except
        #: mid-apply; a crash between the two is what recovery fixes).
        self.applied_lsn = -1
        #: Primary progress, from frame headers (heartbeats included).
        self.primary_last_lsn = -1
        self.primary_now: Optional[float] = None
        #: Wall-clock time we were last fully caught up.
        self._caught_up_at = time.time()
        #: Out-of-order records parked until their gap fills.
        self.pending: Dict[int, dict] = {}
        #: Open primary transactions: txn_id -> buffered row records.
        self._txns: Dict[int, List[LogRecord]] = {}
        self._session = db.create_session()
        self._lock = threading.Lock()
        self._applied_cv = threading.Condition(self._lock)
        self.counters = {
            "frames": 0,
            "records": 0,
            "duplicates": 0,
            "reordered": 0,
            "txns_applied": 0,
            "rows_applied": 0,
            "ddl_applied": 0,
            "aborts_discarded": 0,
        }

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def ingest(
        self,
        records: List[dict],
        last_lsn: int,
        now: Optional[float] = None,
    ) -> bool:
        """Absorb one frame; returns True when a gap is outstanding.

        *records* are wire-form dicts; *last_lsn* is the primary's
        newest LSN at send time (heartbeats carry it with no records).
        """
        self.counters["frames"] += 1
        if last_lsn > self.primary_last_lsn:
            self.primary_last_lsn = last_lsn
        if now is not None:
            self.primary_now = now
        for payload in records:
            lsn = int(payload["lsn"])
            if lsn <= self.received_lsn:
                self.counters["duplicates"] += 1
                continue
            if lsn > self.received_lsn + 1:
                if lsn not in self.pending:
                    self.counters["reordered"] += 1
                    self.pending[lsn] = payload
                continue
            self._accept(payload)
            self._drain_pending()
        self._drain_pending()
        with self._lock:
            if self.applied_lsn >= self.primary_last_lsn:
                self._caught_up_at = time.time()
            self._applied_cv.notify_all()
        return bool(self.pending)

    def _drain_pending(self) -> None:
        while self.received_lsn + 1 in self.pending:
            self._accept(self.pending.pop(self.received_lsn + 1))

    def _accept(self, payload: dict) -> None:
        """Advance the cursor over one in-order record and process it."""
        record = LogRecord.from_dict(payload)
        self.relay.append(payload)
        self.received_lsn = record.lsn
        self.counters["records"] += 1
        self._process(record)
        self.applied_lsn = record.lsn

    # ------------------------------------------------------------------
    # Processing (commit-gated redo)
    # ------------------------------------------------------------------

    def _process(self, record: LogRecord) -> None:
        kind = record.kind
        if kind is RecordKind.BEGIN:
            self._txns[record.txn_id] = []
        elif kind in _ROW_KINDS:
            buffer = self._txns.get(record.txn_id)
            if buffer is not None:
                buffer.append(record)
        elif kind is RecordKind.COMMIT:
            rows = self._txns.pop(record.txn_id, [])
            self._apply_transaction(rows)
        elif kind is RecordKind.ABORT:
            if self._txns.pop(record.txn_id, None):
                self.counters["aborts_discarded"] += 1
        elif kind is RecordKind.DDL and record.txn_id == DDL_TXN:
            self._apply_ddl(record)
        # Physical sbspace records describe the primary's pages; the
        # replica maintains its own through re-executed DDL + row redo.

    def _apply_ddl(self, record: LogRecord) -> None:
        server = self.db
        if server.faults is not None:
            server.faults.hit("repl.apply")
        server.repl_applying = True
        try:
            server.execute(record.sql, self._session)
        finally:
            server.repl_applying = False
        self.counters["ddl_applied"] += 1

    def _apply_transaction(self, rows: List[LogRecord]) -> None:
        """Apply one committed transaction's row records atomically."""
        if not rows:
            return
        server = self.db
        with server._engine_lock:
            server.repl_applying = True
            session = self._session
            session.begin(explicit=True)
            try:
                for record in rows:
                    # Per-row failpoint: a "crash" here freezes a
                    # partially-applied, uncommitted local transaction --
                    # the worst case relay-log recovery must absorb.
                    if server.faults is not None:
                        server.faults.hit("repl.apply")
                    self._apply_row(record, session)
                session.commit()
            except BaseException as exc:
                # Catches BaseException on purpose, and always re-raises
                # (the bare `raise` below) -- the lint contract
                # bare-except-swallows-crash holds.  A SimulatedCrash
                # freezes state without rollback (recovery replays the
                # relay log); any other failure rolls the local
                # transaction back so a retry can re-apply it.
                from repro.faults import SimulatedCrash

                if not isinstance(exc, SimulatedCrash):
                    if session.in_transaction:
                        session.rollback()
                raise
            finally:
                server.repl_applying = False
        self.counters["txns_applied"] += 1
        self.counters["rows_applied"] += len(rows)

    def _apply_row(self, record: LogRecord, session) -> None:
        """Redo one row record through the executor's row writer, at the
        primary's rowid."""
        server = self.db
        table = server.catalog.get_table(record.table)
        with server.executor.writing(table, session) as writer:
            if record.kind is RecordKind.ROW_INSERT:
                writer.insert(table.import_row(record.row), record.rowid)
            elif record.kind is RecordKind.ROW_DELETE:
                writer.delete(record.rowid)
            else:  # ROW_UPDATE
                writer.update(record.rowid, table.import_row(record.row))

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def replay_relay_log(self, relay: List[dict]) -> None:
        """Crash recovery: re-apply a relay log from LSN 0.

        The applier must be fresh (a just-built engine); commit-gating
        makes the result exactly the committed prefix the log records.
        """
        if relay:
            self.ingest(list(relay), last_lsn=int(relay[-1]["lsn"]))

    # ------------------------------------------------------------------
    # Lag accounting
    # ------------------------------------------------------------------

    def lag_records(self) -> int:
        return max(0, self.primary_last_lsn - self.applied_lsn)

    def lag_seconds(self) -> float:
        """Wall-clock seconds since the replica was last fully caught
        up; 0 while no records are outstanding.  Heartbeats refresh the
        primary's position, so a silent link ages this value too."""
        if self.applied_lsn >= self.primary_last_lsn:
            return 0.0
        return max(0.0, time.time() - self._caught_up_at)

    def wait_for_lsn(self, min_lsn: int, timeout: float = 0.25) -> bool:
        """Block until ``applied_lsn >= min_lsn`` (read-your-writes)."""
        deadline = time.monotonic() + timeout
        with self._lock:
            while self.applied_lsn < min_lsn:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._applied_cv.wait(remaining)
        return True

    def stats(self) -> dict:
        out = dict(self.counters)
        out.update(
            {
                "applied_lsn": self.applied_lsn,
                "received_lsn": self.received_lsn,
                "primary_last_lsn": self.primary_last_lsn,
                "lag_records": self.lag_records(),
                "lag_ms": self.lag_seconds() * 1000.0,
                "pending": len(self.pending),
                "open_txns": len(self._txns),
            }
        )
        return out
