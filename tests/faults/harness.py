"""Crash-consistency harness: crash the engine at a failpoint, recover,
verify.

The harness drives a :class:`DatabaseServer` with an armed
:class:`~repro.faults.FaultRegistry` through scripted or randomized
workloads.  When a ``crash`` failpoint fires, :class:`SimulatedCrash`
propagates to the harness (nothing in the engine catches it -- a real
crash runs no rollback), the harness "restarts" the server by discarding
everything volatile and replaying the WAL, and then asserts the
three-part crash-consistency contract:

* every transaction that committed before the crash is readable through
  the recovered GR-tree index;
* every transaction still open at the crash has vanished;
* the recovered tree passes the full structural verification
  (:func:`repro.grtree.verify_tree`: reachability, MBR containment,
  stair-shape validity, entry counts, no orphan pages).

The crash model for an embedded engine (one process, simulated clock):

=========================== ======================================
volatile -- lost at crash   durable -- survives
=========================== ======================================
sbspace pages               the write-ahead log
buffer pools, node caches   system catalog and heap tables
the lock table              (modeled as dbspace-resident data the
open sessions/transactions  host server logs on its own, Section
                            5.3 of the paper)
=========================== ======================================
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Iterable, List, Optional, Set

from repro.datablade import register_grtree_blade
from repro.faults import FaultRegistry, SimulatedCrash
from repro.grtree import verify_tree
from repro.hblade import register_hybrid_blade, verify_hybrid
from repro.net import protocol
from repro.repl.applier import ReplicationApplier
from repro.server import DatabaseServer
from repro.storage.wal import RecordKind
from repro.temporal.chronon import Clock, format_chronon


def day(chronon: int) -> str:
    return format_chronon(chronon)


#: Overlaps the region of every extent the harness inserts.
QUERY = (
    "SELECT name FROM t WHERE "
    f"Overlaps(te, '{{tt}}, UC, {{vt}}, NOW')"
)

#: Outcomes of one workload step.
COMMITTED = "committed"
ROLLED_BACK = "rolled_back"
FAILED = "failed"
CRASHED = "crashed"


class CrashHarness:
    """One engine instance plus the oracle of what must survive a crash.

    A small per-index pool (``buffer_capacity=8``) keeps the buffer pool
    churning so page-level failpoints are traversed often.
    """

    def __init__(self, now: int = 100, ship: bool = False) -> None:
        self.registry = FaultRegistry()
        self.server = DatabaseServer(clock=Clock(now=now), faults=self.registry)
        if ship:
            # A replication primary: the WAL carries the full logical
            # history (DDL + row images) from the very first statement,
            # so a ReplicaCrashHarness can bootstrap from LSN 0.
            self.server.enable_wal_shipping()
        self.space = self.server.create_sbspace("spc")
        register_grtree_blade(self.server)
        self.server.execute("CREATE TABLE t (name LVARCHAR, te GRT_TimeExtent_t)")
        self.server.execute(
            "CREATE INDEX gi ON t(te) USING grtree_am IN spc "
            "WITH (buffer_capacity = 8)"
        )
        self.server.prefer_virtual_index = True
        self.session = self.server.create_session()
        #: Names of rows whose transaction committed (the oracle).
        self.committed: Set[str] = set()
        #: Failpoint name of the last crash, ``None`` while healthy.
        self.crashed: Optional[str] = None

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------

    def arm(self, name: str, action: str = "crash", **conditions):
        return self.registry.set_fault(name, action, **conditions)

    def disarm_all(self) -> None:
        self.registry.clear_all()

    # ------------------------------------------------------------------
    # Workload steps
    # ------------------------------------------------------------------

    def _insert(self, name: str, tt: int = 100, vt: int = 95) -> None:
        self.server.execute(
            f"INSERT INTO t VALUES ('{name}', '{day(tt)}, UC, {day(vt)}, NOW')",
            self.session,
        )

    def autocommit_insert(self, name: str, vt: int = 95) -> str:
        """One single-statement transaction; returns its outcome."""
        try:
            self._insert(name, vt=vt)
        except SimulatedCrash as crash:
            self.crashed = crash.point
            return CRASHED
        except Exception:
            # An ordinary injected failure: the engine already rolled the
            # autocommit transaction back.
            return FAILED
        self.committed.add(name)
        return COMMITTED

    def run_batch(self, names: Iterable[str], commit: bool = True) -> str:
        """Run *names* as one explicit transaction; returns the outcome.

        The oracle is updated only when ``COMMIT WORK`` returns: a crash
        anywhere earlier -- including during the commit itself, before
        the COMMIT record is durable -- means the transaction must NOT
        survive recovery.
        """
        names = list(names)
        try:
            self.server.execute("BEGIN WORK", self.session)
            for name in names:
                self._insert(name)
            if not commit:
                self.server.execute("ROLLBACK WORK", self.session)
                return ROLLED_BACK
            self.server.execute("COMMIT WORK", self.session)
        except SimulatedCrash as crash:
            self.crashed = crash.point
            return CRASHED
        except Exception:
            if self.session.in_transaction:
                self.server.execute("ROLLBACK WORK", self.session)
            return FAILED
        self.committed.update(names)
        return COMMITTED

    # ------------------------------------------------------------------
    # Crash and restart
    # ------------------------------------------------------------------

    def recover(self) -> None:
        """The restart after a crash: volatile state dies, the WAL replays.

        Mirrors what a real server does at boot -- locks held by crashed
        transactions simply do not exist in the fresh lock table, the log
        is replayed onto an empty space, and clients reconnect with new
        sessions (the old ones died with the process).
        """
        self.disarm_all()
        for txn_id in self.server.wal.active_transactions():
            self.server.locks.release_all(txn_id)
        self.server.wal.recover(self.space)
        self.space.set_transaction(None)
        # Cached index handles hold buffer pools over pre-crash blobs;
        # bumping the epoch makes grt_open rebuild them from disk state.
        self.server.storage_epoch += 1
        self.session = self.server.create_session()
        self.crashed = None

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def query_names(self, tt: int = 100, vt: int = 80) -> Set[str]:
        """Names reachable through the index (never a seqscan)."""
        rows = self.server.execute(
            QUERY.format(tt=day(tt), vt=day(vt)), self.session
        )
        plan = self.server.last_plan
        assert getattr(plan, "index", None) is not None, (
            f"expected an index scan, optimizer chose {type(plan).__name__}"
        )
        return {row["name"] for row in rows}

    @contextmanager
    def open_tree(self, index_name: str = "gi"):
        """Open the live GR-tree the way a statement would (am_open)."""
        info = self.server.catalog.get_index(index_name)
        am = self.server.catalog.access_methods.get(info.am_name)
        session = self.server.system_session
        td = self.server.executor._descriptor(info, session)
        with session.autocommit():
            self.server.executor.call_purpose(am, "am_open", td)
            try:
                yield td.user_data["tree"]
            finally:
                self.server.executor.call_purpose(am, "am_close", td)

    def verify(self) -> None:
        """Assert the full crash-consistency contract."""
        names = self.query_names()
        lost = self.committed - names
        resurrected = names - self.committed
        assert not lost, f"committed rows lost by recovery: {sorted(lost)}"
        assert not resurrected, (
            f"uncommitted rows resurrected by recovery: {sorted(resurrected)}"
        )
        self.server.execute("CHECK INDEX gi", self.session)
        with self.open_tree() as tree:
            verify_tree(tree)


# ----------------------------------------------------------------------
# Hybrid-AM crash consistency
# ----------------------------------------------------------------------


class HybridCrashHarness:
    """A :class:`CrashHarness` analogue over the hybrid hash + B+-tree AM.

    The interesting new failure window is *between* the two structure
    writes of one mutation (``hblade.hash_write`` fires before the hash
    directory is touched, ``hblade.tree_write`` between the hash and
    tree halves).  A crash there leaves the volatile pools disagreeing;
    recovery must heal it because the enclosing transaction never
    committed.  Verification therefore checks committed rows through
    *both* paths -- a tree-side range scan and hash-side point probes --
    plus the structural hash/tree agreement verifier.
    """

    def __init__(self) -> None:
        self.registry = FaultRegistry()
        self.server = DatabaseServer(faults=self.registry)
        self.space = self.server.create_sbspace("spc")
        register_hybrid_blade(self.server)
        self.server.execute("CREATE TABLE h (k INTEGER, name LVARCHAR)")
        self.server.execute(
            "CREATE INDEX hi ON h(k) USING hblade_am IN spc "
            "WITH (buffer_capacity = 8)"
        )
        self.server.prefer_virtual_index = True
        self.session = self.server.create_session()
        #: name -> key of rows whose transaction committed (the oracle).
        self.committed: dict = {}
        self.crashed: Optional[str] = None
        self._next_key = 0

    # -- arming --------------------------------------------------------

    def arm(self, name: str, action: str = "crash", **conditions):
        return self.registry.set_fault(name, action, **conditions)

    def disarm_all(self) -> None:
        self.registry.clear_all()

    # -- workload steps ------------------------------------------------

    def _fresh_key(self) -> int:
        self._next_key += 1
        return self._next_key

    def autocommit_insert(self, name: str) -> str:
        key = self._fresh_key()
        try:
            self.server.execute(
                f"INSERT INTO h VALUES ({key}, '{name}')", self.session
            )
        except SimulatedCrash as crash:
            self.crashed = crash.point
            return CRASHED
        except Exception:
            return FAILED
        self.committed[name] = key
        return COMMITTED

    def autocommit_delete(self, name: str) -> str:
        """Delete a committed row by its key (both write paths again).

        Only safe while no failpoint is armed: the heap model deletes
        rows eagerly and neither rollback nor WAL replay restores them
        (the same reason :func:`random_workload` is insert-only), so a
        fault mid-delete would strand a recovered index entry over a
        missing heap row.
        """
        key = self.committed[name]
        try:
            self.server.execute(
                f"DELETE FROM h WHERE k = {key}", self.session
            )
        except SimulatedCrash as crash:
            self.crashed = crash.point
            return CRASHED
        except Exception:
            return FAILED
        del self.committed[name]
        return COMMITTED

    def run_batch(self, names: Iterable[str], commit: bool = True) -> str:
        names = list(names)
        keys = {}
        try:
            self.server.execute("BEGIN WORK", self.session)
            for name in names:
                keys[name] = self._fresh_key()
                self.server.execute(
                    f"INSERT INTO h VALUES ({keys[name]}, '{name}')",
                    self.session,
                )
            if not commit:
                self.server.execute("ROLLBACK WORK", self.session)
                return ROLLED_BACK
            self.server.execute("COMMIT WORK", self.session)
        except SimulatedCrash as crash:
            self.crashed = crash.point
            return CRASHED
        except Exception:
            if self.session.in_transaction:
                self.server.execute("ROLLBACK WORK", self.session)
            return FAILED
        self.committed.update(keys)
        return COMMITTED

    # -- crash and restart ---------------------------------------------

    def recover(self) -> None:
        """Identical restart semantics to :meth:`CrashHarness.recover`."""
        self.disarm_all()
        for txn_id in self.server.wal.active_transactions():
            self.server.locks.release_all(txn_id)
        self.server.wal.recover(self.space)
        self.space.set_transaction(None)
        self.server.storage_epoch += 1
        self.session = self.server.create_session()
        self.crashed = None

    # -- verification --------------------------------------------------

    def tree_path_names(self) -> Set[str]:
        """Every name, through the tree side (a range scan)."""
        rows = self.server.execute(
            "SELECT name FROM h WHERE k >= 0", self.session
        )
        plan = self.server.last_plan
        assert getattr(plan, "index", None) is not None, (
            f"expected an index scan, optimizer chose {type(plan).__name__}"
        )
        return {row["name"] for row in rows}

    def hash_path_names(self) -> Set[str]:
        """The committed names, through hash-side point probes."""
        found: Set[str] = set()
        for name, key in self.committed.items():
            rows = self.server.execute(
                f"SELECT name FROM h WHERE k = {key}", self.session
            )
            found.update(row["name"] for row in rows)
        return found

    @contextmanager
    def open_hybrid(self, index_name: str = "hi"):
        info = self.server.catalog.get_index(index_name)
        am = self.server.catalog.access_methods.get(info.am_name)
        session = self.server.system_session
        td = self.server.executor._descriptor(info, session)
        with session.autocommit():
            self.server.executor.call_purpose(am, "am_open", td)
            try:
                yield td.user_data["tree"], td.user_data["directory"]
            finally:
                self.server.executor.call_purpose(am, "am_close", td)

    def verify(self) -> None:
        """Committed-rows oracle through both paths + structure checks."""
        expected = set(self.committed)
        tree_names = self.tree_path_names()
        lost = expected - tree_names
        resurrected = tree_names - expected
        assert not lost, f"committed rows lost by recovery: {sorted(lost)}"
        assert not resurrected, (
            f"uncommitted rows resurrected by recovery: {sorted(resurrected)}"
        )
        hash_names = self.hash_path_names()
        assert hash_names == expected, (
            f"hash path disagrees with the oracle: "
            f"missing {sorted(expected - hash_names)}, "
            f"extra {sorted(hash_names - expected)}"
        )
        self.server.execute("CHECK INDEX hi", self.session)
        with self.open_hybrid() as (tree, directory):
            verify_hybrid(tree, directory)


def hybrid_random_workload(
    harness: HybridCrashHarness, seed: int, steps: int = 40
) -> List[str]:
    """Seeded random inserts and batches; stops at the first crash.

    Insert-only while the failpoint is armed (see
    :meth:`HybridCrashHarness.autocommit_delete` for why), but inserts
    traverse both hybrid write paths, which is the window under test.
    """
    rng = random.Random(seed)
    outcomes: List[str] = []
    for step in range(steps):
        kind = rng.random()
        if kind < 0.45:
            outcome = harness.autocommit_insert(f"s{seed}.{step}")
        elif kind < 0.85:
            size = rng.randint(1, 5)
            outcome = harness.run_batch(
                [f"s{seed}.{step}.{i}" for i in range(size)]
            )
        else:
            size = rng.randint(1, 3)
            outcome = harness.run_batch(
                [f"s{seed}.{step}.{i}" for i in range(size)], commit=False
            )
        outcomes.append(outcome)
        if outcome == CRASHED:
            break
    return outcomes


# ----------------------------------------------------------------------
# Replica crash consistency
# ----------------------------------------------------------------------


class ReplicaCrashHarness:
    """A replica of a ``CrashHarness(ship=True)`` primary, socket-free.

    The harness plays the wire role of the shipper *and* the link: it
    chunks the primary's WAL into the exact frames ``wal_frame`` would
    carry (``LogRecord.to_dict`` payloads, encode/decode fidelity
    through ``protocol.encode_frame``) and feeds them to a real
    :class:`ReplicationApplier`.  Tests mangle the frame stream --
    drop, duplicate, reorder, tear -- and arm ``repl.apply`` crashes on
    the replica's own registry, then assert the committed-prefix
    contract with :meth:`verify`.
    """

    def __init__(self, primary: CrashHarness, frame_size: int = 8) -> None:
        assert primary.server.wal.ship_rows, (
            "the primary must be built with CrashHarness(ship=True)"
        )
        self.primary = primary
        self.frame_size = frame_size
        self.registry = FaultRegistry()
        self.server = self._fresh_engine()
        self.applier = ReplicationApplier(self.server)
        self.crashed: Optional[str] = None

    def _fresh_engine(self) -> DatabaseServer:
        server = DatabaseServer(
            clock=Clock(now=self.primary.server.clock.now),
            faults=self.registry,
        )
        server.create_sbspace("spc")
        register_grtree_blade(server)
        server.prefer_virtual_index = True
        return server

    # ------------------------------------------------------------------
    # The frame stream
    # ------------------------------------------------------------------

    def arm_apply(self, action: str = "crash", **conditions):
        """Arm the replica-side ``repl.apply`` failpoint (fires once per
        row of each committed transaction being applied)."""
        return self.registry.set_fault("repl.apply", action, **conditions)

    def outstanding_frames(self) -> List[List[dict]]:
        """The primary's log past our cursor, chunked like the shipper."""
        records = [
            record.to_dict()
            for record in self.primary.server.wal.records_from(
                self.applier.received_lsn + 1
            )
        ]
        return [
            records[start : start + self.frame_size]
            for start in range(0, len(records), self.frame_size)
        ]

    def deliver(self, frames: Iterable[List[dict]]) -> bool:
        """Feed frames through a wire round-trip; False after a crash.

        Every frame passes through ``encode_frame``/JSON decode, so what
        the applier sees is byte-for-byte what a socket would deliver.
        """
        import json

        last = self.primary.server.wal.last_lsn()
        for frame in frames:
            if self.crashed is not None:
                return False
            data = protocol.encode_frame(
                protocol.wal_frame(frame, last_lsn=last, now=0.0)
            )
            message = json.loads(data[4:].decode("utf-8"))
            try:
                self.applier.ingest(
                    message["records"], last_lsn=message["last_lsn"]
                )
            except SimulatedCrash as crash:
                self.crashed = crash.point
                return False
        return True

    def sync(self) -> bool:
        """Ship the whole outstanding log faithfully."""
        return self.deliver(self.outstanding_frames())

    def torn_frame(self, frame: List[dict]) -> None:
        """What a torn frame does: the truncated bytes fail to decode,
        the link severs, and nothing reaches the applier.  The caller
        then resubscribes via :meth:`sync`."""
        data = protocol.encode_frame(
            protocol.wal_frame(frame, last_lsn=0, now=0.0)
        )
        torn = data[: max(1, len(data) // 2)]
        try:
            body = torn[4:].decode("utf-8", errors="strict")
            import json

            json.loads(body)
        except Exception:
            return  # undecodable, as a torn frame must be
        raise AssertionError("torn frame unexpectedly decoded")

    # ------------------------------------------------------------------
    # Crash and restart
    # ------------------------------------------------------------------

    def recover(self) -> None:
        """Replica restart: fresh engine, replay the relay log from 0.

        Commit-gated replay lands exactly on the committed prefix the
        relay log records; the half-applied transaction a mid-apply
        crash froze never becomes visible.
        """
        self.registry.clear_all()
        relay = list(self.applier.relay)
        self.server = self._fresh_engine()
        self.applier = ReplicationApplier(self.server)
        self.applier.replay_relay_log(relay)
        self.crashed = None

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def prefix_oracle(self) -> Set[str]:
        """Names visible after applying the committed prefix at our
        applied LSN -- computed independently from the primary's log."""
        limit = self.applier.applied_lsn
        live: dict = {}
        staged: dict = {}
        for record in self.primary.server.wal.records_from(0):
            if record.lsn > limit:
                break
            if record.kind is RecordKind.BEGIN:
                staged[record.txn_id] = []
            elif record.kind is RecordKind.ROW_INSERT:
                staged.setdefault(record.txn_id, []).append(
                    ("insert", record.rowid, record.row["name"])
                )
            elif record.kind is RecordKind.ROW_DELETE:
                staged.setdefault(record.txn_id, []).append(
                    ("delete", record.rowid, None)
                )
            elif record.kind is RecordKind.COMMIT:
                for op, rowid, name in staged.pop(record.txn_id, []):
                    if op == "insert":
                        live[rowid] = name
                    else:
                        live.pop(rowid, None)
            elif record.kind is RecordKind.ABORT:
                staged.pop(record.txn_id, None)
        return set(live.values())

    def _has(self, kind: str, name: str) -> bool:
        try:
            getattr(self.server.catalog, f"get_{kind}")(name)
            return True
        except Exception:
            return False

    def query_names(self, tt: int = 100, vt: int = 80) -> Set[str]:
        """Names reachable on the replica, through the index once it
        exists.  A committed prefix may legitimately predate the
        ``CREATE TABLE`` / ``CREATE INDEX`` statements."""
        if not self._has("table", "t"):
            return set()
        rows = self.server.execute(QUERY.format(tt=day(tt), vt=day(vt)))
        if self._has("index", "gi"):
            plan = self.server.last_plan
            assert getattr(plan, "index", None) is not None, (
                f"expected an index scan, optimizer chose "
                f"{type(plan).__name__}"
            )
        return {row["name"] for row in rows}

    def verify(self) -> None:
        """The replica contract: a committed prefix, structurally valid.

        * everything visible is committed on the primary (no torn or
          resurrected transactions);
        * everything committed at or below our applied LSN is visible
          (the prefix is complete, nothing was lost);
        * the replica's own GR-tree passes CHECK INDEX and the full
          structural verification.
        """
        names = self.query_names()
        oracle = self.prefix_oracle()
        torn = names - self.primary.committed
        assert not torn, (
            f"replica shows rows the primary never committed: {sorted(torn)}"
        )
        lost = oracle - names
        assert not lost, (
            f"rows committed within the applied prefix are missing: "
            f"{sorted(lost)}"
        )
        extra = names - oracle
        assert not extra, (
            f"replica shows rows beyond its applied prefix: {sorted(extra)}"
        )
        if not self._has("index", "gi"):
            return  # the prefix ends before the index was created
        self.server.execute("CHECK INDEX gi")
        info = self.server.catalog.get_index("gi")
        am = self.server.catalog.access_methods.get(info.am_name)
        session = self.server.system_session
        td = self.server.executor._descriptor(info, session)
        with session.autocommit():
            self.server.executor.call_purpose(am, "am_open", td)
            try:
                verify_tree(td.user_data["tree"])
            finally:
                self.server.executor.call_purpose(am, "am_close", td)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def scripted_workload(harness: CrashHarness) -> None:
    """A canonical mixed history: autocommits, batches, a rollback."""
    for i in range(4):
        harness.autocommit_insert(f"auto{i}")
    harness.run_batch([f"batch0.{i}" for i in range(5)])
    harness.run_batch([f"gone{i}" for i in range(3)], commit=False)
    harness.run_batch([f"batch1.{i}" for i in range(5)])


def random_workload(
    harness: CrashHarness, seed: int, steps: int = 20
) -> List[str]:
    """Seeded random mix of workload steps; stops at the first crash.

    Returns the outcome of every step taken, so callers can assert the
    crash actually happened (or not).
    """
    rng = random.Random(seed)
    outcomes: List[str] = []
    for step in range(steps):
        kind = rng.random()
        if kind < 0.4:
            outcome = harness.autocommit_insert(
                f"s{seed}.{step}", vt=rng.randint(90, 99)
            )
        elif kind < 0.8:
            size = rng.randint(1, 6)
            outcome = harness.run_batch(
                [f"s{seed}.{step}.{i}" for i in range(size)]
            )
        else:
            size = rng.randint(1, 4)
            outcome = harness.run_batch(
                [f"s{seed}.{step}.{i}" for i in range(size)], commit=False
            )
        outcomes.append(outcome)
        if outcome == CRASHED:
            break
    return outcomes
