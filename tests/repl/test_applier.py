"""Applier semantics, socket-free: idempotency, commit gating, DDL.

These tests drive :class:`ReplicationApplier` directly with wire-form
record batches -- the same dicts a ``wal_frame`` carries -- so every
stream pathology (duplicate, reorder, replay) is exercised
deterministically, without timing.
"""

import pytest

from repro.repl.applier import ReplicationApplier
from repro.server import DatabaseServer
from repro.server.errors import ReadOnlyError


def make_primary():
    db = DatabaseServer()
    db.enable_wal_shipping()
    return db


def wire_records(db, from_lsn=0):
    return [record.to_dict() for record in db.wal.records_from(from_lsn)]


def feed(applier, db):
    """Ship the primary's whole log to the applier in one frame."""
    applier.ingest(wire_records(db), last_lsn=db.wal.last_lsn())


def select_ids(db, table="t"):
    rows = db.execute(f"SELECT * FROM {table}")
    return sorted(row["id"] for row in rows)


def test_ddl_and_rows_replicate():
    primary = make_primary()
    primary.execute("CREATE TABLE t (id INTEGER, val INTEGER)")
    for i in range(5):
        primary.execute(f"INSERT INTO t VALUES ({i}, {i * 10})")
    replica = DatabaseServer()
    applier = ReplicationApplier(replica)
    feed(applier, primary)
    assert select_ids(replica) == [0, 1, 2, 3, 4]
    assert applier.applied_lsn == primary.wal.last_lsn()
    assert applier.lag_records() == 0


def test_replica_is_read_only():
    primary = make_primary()
    primary.execute("CREATE TABLE t (id INTEGER)")
    replica = DatabaseServer()
    applier = ReplicationApplier(replica)
    feed(applier, primary)
    with pytest.raises(ReadOnlyError):
        replica.execute("INSERT INTO t VALUES (1)")
    with pytest.raises(ReadOnlyError):
        replica.execute("CREATE TABLE u (id INTEGER)")
    # Reads are fine.
    assert replica.execute("SELECT * FROM t") == []


def test_updates_and_deletes_replicate():
    primary = make_primary()
    primary.execute("CREATE TABLE t (id INTEGER, val INTEGER)")
    for i in range(6):
        primary.execute(f"INSERT INTO t VALUES ({i}, 0)")
    primary.execute("UPDATE t SET val = 99 WHERE id = 2")
    primary.execute("DELETE FROM t WHERE id = 4")
    replica = DatabaseServer()
    feed(ReplicationApplier(replica), primary)
    rows = {row["id"]: row["val"] for row in replica.execute("SELECT * FROM t")}
    assert rows == {0: 0, 1: 0, 2: 99, 3: 0, 5: 0}


def test_aborted_transactions_never_surface():
    primary = make_primary()
    primary.execute("CREATE TABLE t (id INTEGER)")
    session = primary.create_session()
    primary.execute("INSERT INTO t VALUES (1)")
    primary.execute("BEGIN WORK", session)
    primary.execute("INSERT INTO t VALUES (100)", session)
    primary.execute("INSERT INTO t VALUES (101)", session)
    primary.execute("ROLLBACK WORK", session)
    primary.execute("INSERT INTO t VALUES (2)")
    replica = DatabaseServer()
    applier = ReplicationApplier(replica)
    feed(applier, primary)
    assert select_ids(replica) == [1, 2]
    assert applier.counters["aborts_discarded"] == 1


def test_uncommitted_tail_is_not_applied():
    """Records of a still-open transaction buffer without applying --
    commit gating means readers never see a torn transaction."""
    primary = make_primary()
    primary.execute("CREATE TABLE t (id INTEGER)")
    session = primary.create_session()
    primary.execute("BEGIN WORK", session)
    primary.execute("INSERT INTO t VALUES (7)", session)
    replica = DatabaseServer()
    applier = ReplicationApplier(replica)
    feed(applier, primary)
    assert select_ids(replica) == []
    assert applier.stats()["open_txns"] == 1
    primary.execute("COMMIT WORK", session)
    feed(applier, primary)  # duplicates + the commit tail
    assert select_ids(replica) == [7]


def test_duplicate_frames_are_idempotent():
    primary = make_primary()
    primary.execute("CREATE TABLE t (id INTEGER)")
    for i in range(4):
        primary.execute(f"INSERT INTO t VALUES ({i})")
    replica = DatabaseServer()
    applier = ReplicationApplier(replica)
    records = wire_records(primary)
    last = primary.wal.last_lsn()
    for _ in range(3):  # the whole history, three times over
        applier.ingest(records, last_lsn=last)
    assert select_ids(replica) == [0, 1, 2, 3]
    assert applier.counters["duplicates"] == 2 * len(records)
    assert applier.counters["txns_applied"] == 4


def test_reordered_records_buffer_until_the_gap_fills():
    primary = make_primary()
    primary.execute("CREATE TABLE t (id INTEGER)")
    for i in range(4):
        primary.execute(f"INSERT INTO t VALUES ({i})")
    records = wire_records(primary)
    last = primary.wal.last_lsn()
    # Deterministic shuffle: reversed chunks of three.
    shuffled = []
    for start in range(0, len(records), 3):
        shuffled.extend(reversed(records[start : start + 3]))
    replica = DatabaseServer()
    applier = ReplicationApplier(replica)
    gap = applier.ingest(shuffled, last_lsn=last)
    assert not gap, "every record arrived, so no gap may remain"
    assert select_ids(replica) == [0, 1, 2, 3]
    assert applier.counters["reordered"] > 0
    assert applier.applied_lsn == last


def test_a_true_gap_is_reported_and_survives_resubscribe():
    primary = make_primary()
    primary.execute("CREATE TABLE t (id INTEGER)")
    for i in range(3):
        primary.execute(f"INSERT INTO t VALUES ({i})")
    records = wire_records(primary)
    last = primary.wal.last_lsn()
    dropped = records[5]  # lose one record mid-stream
    remaining = records[:5] + records[6:]
    replica = DatabaseServer()
    applier = ReplicationApplier(replica)
    gap = applier.ingest(remaining, last_lsn=last)
    assert gap, "the hole must be visible to the link layer"
    assert applier.received_lsn == 4
    # The link resubscribes from received_lsn + 1; the primary replays
    # the suffix, which includes the dropped record.
    applier.pending.clear()
    applier.ingest(
        [r for r in records if r["lsn"] > applier.received_lsn], last_lsn=last
    )
    assert select_ids(replica) == [0, 1, 2]
    assert applier.applied_lsn == last


def test_relay_log_replay_reaches_the_same_state():
    primary = make_primary()
    primary.execute("CREATE TABLE t (id INTEGER, val INTEGER)")
    for i in range(5):
        primary.execute(f"INSERT INTO t VALUES ({i}, {i})")
    primary.execute("UPDATE t SET val = 42 WHERE id = 3")
    replica = DatabaseServer()
    applier = ReplicationApplier(replica)
    feed(applier, primary)
    # "Crash": rebuild a fresh engine from the relay log alone.
    recovered = DatabaseServer()
    fresh = ReplicationApplier(recovered)
    fresh.replay_relay_log(applier.relay)
    assert replica.execute("SELECT * FROM t") == recovered.execute(
        "SELECT * FROM t"
    )
    assert fresh.applied_lsn == applier.applied_lsn


def test_read_your_writes_wait_for_lsn():
    primary = make_primary()
    primary.execute("CREATE TABLE t (id INTEGER)")
    replica = DatabaseServer()
    applier = ReplicationApplier(replica)
    feed(applier, primary)
    token = primary.wal.last_lsn()
    assert applier.wait_for_lsn(token, timeout=0.01)
    primary.execute("INSERT INTO t VALUES (1)")
    stale_token = primary.wal.last_lsn()
    assert not applier.wait_for_lsn(stale_token, timeout=0.01)
    feed(applier, primary)
    assert applier.wait_for_lsn(stale_token, timeout=0.01)


def test_replicated_grtree_index_answers_queries():
    """DDL replay builds the replica's own GR-tree; row redo maintains
    it; CHECK INDEX agrees."""
    from repro.datablade import register_grtree_blade
    from repro.temporal.chronon import Clock, format_chronon

    primary = DatabaseServer(clock=Clock(now=100))
    primary.enable_wal_shipping()
    primary.create_sbspace("spc")
    register_grtree_blade(primary)
    primary.execute("CREATE TABLE t (name LVARCHAR, te GRT_TimeExtent_t)")
    primary.execute(
        "CREATE INDEX gi ON t(te) USING grtree_am IN spc "
        "WITH (buffer_capacity = 8)"
    )
    primary.prefer_virtual_index = True
    for i in range(8):
        extent = f"{format_chronon(90 + i)}, UC, {format_chronon(90 + i)}, NOW"
        primary.execute(f"INSERT INTO t VALUES ('row{i}', '{extent}')")
    primary.execute("DELETE FROM t WHERE name = 'row3'")

    replica = DatabaseServer(clock=Clock(now=100))
    replica.create_sbspace("spc")
    register_grtree_blade(replica)
    replica.prefer_virtual_index = True
    applier = ReplicationApplier(replica)
    feed(applier, primary)

    query = (
        "SELECT name FROM t WHERE Overlaps(te, "
        f"'{format_chronon(92)}, UC, {format_chronon(92)}, NOW')"
    )
    primary_names = sorted(r["name"] for r in primary.execute(query))
    replica_names = sorted(r["name"] for r in replica.execute(query))
    assert primary_names == replica_names and primary_names
    assert replica.execute("CHECK INDEX gi") == "index gi is consistent"


def test_replica_keeps_two_indexes_in_step():
    """Row redo goes through the same writer as the primary's DML: after
    an INSERT, a key-moving UPDATE and a DELETE, the replica answers
    identically through both indexes and both pass CHECK INDEX."""
    from repro.server.optimizer import IndexScanPlan
    from repro.temporal.chronon import Clock
    from tests.datablade.test_blade_contract import two_index_server

    primary = DatabaseServer(clock=Clock(now=100))
    primary.enable_wal_shipping()
    two_index_server(primary)
    for i in range(4):
        primary.execute(
            f"INSERT INTO t2 VALUES ('r{i}', {i}, '({i}, {i}, {i + 1}, {i + 1})')"
        )
    primary.execute("UPDATE t2 SET k = 7, b = '(7, 7, 8, 8)' WHERE name = 'r1'")
    primary.execute("DELETE FROM t2 WHERE name = 'r2'")

    replica = DatabaseServer(clock=Clock(now=100))
    two_index_server(replica, ddl=False)
    feed(ReplicationApplier(replica), primary)

    for index, where in (("ia", "k >= 0"), ("ib", "Overlap(b, '(0, 0, 9, 9)')")):
        answers = []
        for db in (primary, replica):
            rows = db.execute(f"SELECT * FROM t2 WHERE {where}")
            assert isinstance(db.last_plan, IndexScanPlan)
            assert db.last_plan.index.name == index
            answers.append(sorted((r["name"], r["k"], repr(r["b"])) for r in rows))
            assert db.execute(f"CHECK INDEX {index}") == (
                f"index {index} is consistent"
            )
        assert answers[0] == answers[1]
        assert [name for name, _, _ in answers[0]] == ["r0", "r1", "r3"]


def test_staleness_bound_rejects_a_lagging_replica():
    from repro.server.errors import ReplicaStaleError

    primary = make_primary()
    primary.execute("CREATE TABLE t (id INTEGER)")
    replica = DatabaseServer()
    applier = ReplicationApplier(replica)
    feed(applier, primary)

    class FakeLink:
        def lag_records(self):
            return applier.lag_records()

        def lag_seconds(self):
            return applier.lag_seconds()

    replica.repl_link = FakeLink()
    session = replica.create_session()
    replica.execute("SET READ STALENESS LSN 0", session)
    assert replica.execute("SELECT * FROM t", session) == []
    primary.execute("INSERT INTO t VALUES (1)")
    applier.primary_last_lsn = primary.wal.last_lsn()  # heartbeat arrived
    with pytest.raises(ReplicaStaleError):
        replica.execute("SELECT * FROM t", session)
    replica.execute("SET READ STALENESS OFF", session)
    assert replica.execute("SELECT * FROM t", session) == []
