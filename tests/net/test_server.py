"""The serving layer: sessions, admission control, lock waits, teardown."""

import select
import socket
import threading
import time

import pytest

from repro.datablade import register_grtree_blade
from repro.net import NetServer, ReproClient, RemoteStatementError, protocol
from repro.server import DatabaseServer
from repro.temporal.chronon import Clock, format_chronon


def day(c):
    return format_chronon(c)


def wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture()
def db():
    server = DatabaseServer(clock=Clock(now=100))
    server.create_sbspace("spc")
    register_grtree_blade(server)
    return server


@pytest.fixture()
def served(db):
    net = NetServer(db, workers=4, queue_depth=16, lock_timeout=2.0).start()
    yield db, net
    net.shutdown()


def make_client(net, **kwargs):
    kwargs.setdefault("read_timeout", 10.0)
    return ReproClient(net.host, net.port, **kwargs).connect()


GRT_TABLE = (
    "CREATE TABLE emp (name LVARCHAR, te GRT_TimeExtent_t)"
)
GRT_INDEX = "CREATE INDEX e_te ON emp(te) USING grtree_am IN spc"


def insert_emp(client, name, begin=95):
    client.execute(
        f"INSERT INTO emp VALUES ('{name}', "
        f"'{day(100)}, UC, {day(begin)}, NOW')"
    )


class TestBasicServing:
    def test_each_connection_gets_its_own_session(self, served):
        db, net = served
        a = make_client(net)
        b = make_client(net)
        try:
            a.execute("BEGIN WORK")
            # b is not inside a's transaction: BEGIN succeeds over there.
            b.execute("BEGIN WORK")
            a.execute("ROLLBACK WORK")
            b.execute("ROLLBACK WORK")
            assert a.connection_id != b.connection_id
        finally:
            a.close()
            b.close()

    def test_result_rows_cross_the_wire(self, served):
        db, net = served
        with make_client(net) as client:
            client.execute("CREATE TABLE t (a INTEGER, b LVARCHAR)")
            client.execute("INSERT INTO t VALUES (1, 'x')")
            rows = client.execute("SELECT * FROM t")
            assert rows == [{"a": 1, "b": "x"}]

    def test_sql_error_is_typed_and_not_retried(self, served):
        db, net = served
        with make_client(net) as client:
            with pytest.raises(RemoteStatementError) as info:
                client.execute("SELECT * FROM missing_table")
            assert info.value.code == protocol.SQL_ERROR
            assert not info.value.retryable

    def test_show_stats_reports_serving_section(self, served):
        db, net = served
        with make_client(net) as client:
            client.execute("CREATE TABLE t (a INTEGER)")
            report = client.execute("SHOW STATS")
            assert "== serving ==" in report
            assert "connections_open" in report

    def test_spans_tagged_with_connection_id(self, served):
        db, net = served
        with make_client(net) as client:
            client.execute("CREATE TABLE t (a INTEGER)")
            client.execute("INSERT INTO t VALUES (1)")
        spans = db.obs.spans.to_dicts()
        tagged = [
            span for span in spans if span.get("attrs", {}).get("conn")
        ]
        assert tagged, f"no conn-tagged spans in {spans!r}"


class TestAdmissionControl:
    def test_overload_returns_server_busy_not_hang(self, db):
        net = NetServer(db, workers=1, queue_depth=1).start()
        try:
            # Stall the engine so jobs pile up: worker 1 blocks inside
            # execute, the queue holds one more, the rest must bounce.
            db._engine_lock.acquire()
            sockets = []
            try:
                jobs = net._jobs
                for index in range(4):
                    sock = socket.create_connection(
                        (net.host, net.port), timeout=5
                    )
                    sock.settimeout(5)
                    sockets.append(sock)
                    protocol.write_frame(sock, protocol.execute("SELECT 1"))
                    if index == 0:
                        # The worker has taken the first statement.
                        assert wait_until(
                            lambda: jobs.unfinished_tasks == 1
                            and jobs.qsize() == 0
                        )
                # Two statements are absorbed (one in flight, one queued);
                # the other two must be rejected immediately -- but which
                # two depends on reader-thread scheduling, so poll.
                busy = 0
                rejected = set()
                deadline = time.monotonic() + 3
                while busy < 2 and time.monotonic() < deadline:
                    pending = [s for s in sockets if s not in rejected]
                    ready, _, _ = select.select(pending, [], [], 0.1)
                    for sock in ready:
                        reply = protocol.read_frame(sock)
                        assert reply["kind"] == "error"
                        assert reply["code"] == protocol.SERVER_BUSY
                        assert reply["retryable"] is True
                        rejected.add(sock)
                        busy += 1
                assert busy == 2, "overloaded statements were not rejected"
            finally:
                db._engine_lock.release()
                for sock in sockets:
                    sock.close()
            assert db.obs.metrics.snapshot()["net.busy_rejections"] == 2
        finally:
            net.shutdown()

    def test_busy_is_transient_under_real_load(self, db):
        net = NetServer(db, workers=2, queue_depth=2).start()
        try:
            with make_client(net, max_retries=30) as client:
                client.execute("CREATE TABLE t (a INTEGER)")

            def hammer(n):
                with make_client(net, max_retries=50) as c:
                    for i in range(20):
                        c.execute(f"INSERT INTO t VALUES ({n * 100 + i})")

            threads = [
                threading.Thread(target=hammer, args=(n,)) for n in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            with make_client(net) as client:
                rows = client.execute("SELECT * FROM t")
            assert len(rows) == 120  # every retried statement landed once
        finally:
            net.shutdown()


class TestLockHandling:
    def test_conflicting_statement_waits_then_succeeds(self, served):
        db, net = served
        a = make_client(net)
        b = make_client(net)
        try:
            a.execute(GRT_TABLE)
            a.execute(GRT_INDEX)
            a.execute("BEGIN WORK")
            insert_emp(a, "holder")  # X lock on the index LO until commit

            done = threading.Event()
            errors = []

            def contender():
                try:
                    insert_emp(b, "waiter")  # blocks server-side
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                finally:
                    done.set()

            thread = threading.Thread(target=contender)
            thread.start()
            time.sleep(0.15)
            assert not done.is_set(), "contender should be lock-blocked"
            a.execute("COMMIT WORK")
            assert done.wait(timeout=5), "contender never unblocked"
            thread.join()
            assert errors == []
            rows = a.execute("SELECT name FROM emp")
            assert {row["name"] for row in rows} == {"holder", "waiter"}
        finally:
            a.close()
            b.close()

    def test_lock_timeout_aborts_and_reports(self, db):
        net = NetServer(db, workers=4, queue_depth=16, lock_timeout=0.2).start()
        try:
            a = make_client(net)
            b = make_client(net)
            try:
                a.execute(GRT_TABLE)
                a.execute(GRT_INDEX)
                a.execute("BEGIN WORK")
                insert_emp(a, "holder")
                b.execute("BEGIN WORK")
                with pytest.raises(RemoteStatementError) as info:
                    insert_emp(b, "victim")
                assert info.value.code == protocol.LOCK_TIMEOUT
                assert info.value.retryable
                assert info.value.aborted_transaction
                assert not b.in_transaction  # driver learned of the abort
                a.execute("COMMIT WORK")
                # b's transaction is gone; a fresh one works fine.
                b.execute("BEGIN WORK")
                insert_emp(b, "second_try")
                b.execute("COMMIT WORK")
            finally:
                a.close()
                b.close()
            assert db.locks.locked_resources == 0
        finally:
            net.shutdown()


class TestDroppedConnections:
    def test_killed_client_releases_its_locks(self, served):
        db, net = served
        a = make_client(net)
        with make_client(net) as setup:
            setup.execute(GRT_TABLE)
            setup.execute(GRT_INDEX)
        a.execute("BEGIN WORK")
        insert_emp(a, "doomed")
        assert db.locks.locked_resources > 0
        # Kill the socket without QUIT/ROLLBACK: the reader must roll the
        # transaction back and release every lock.
        a._sock.close()
        assert wait_until(lambda: db.locks.locked_resources == 0)
        assert wait_until(
            lambda: db.obs.metrics.snapshot()["net.aborted_on_disconnect"] >= 1
        )
        # The index rolled back (sbspace pages restored) and the server
        # keeps serving: a fresh client can write the same index without
        # tripping over leaked locks.
        with make_client(net) as checker:
            checker.execute("BEGIN WORK")
            insert_emp(checker, "survivor")
            checker.execute("COMMIT WORK")
            assert "consistent" in checker.execute("CHECK INDEX e_te")
        assert db.locks.locked_resources == 0

    def test_killed_client_unblocks_waiters_within_lock_timeout(self, db):
        lock_timeout = 3.0
        net = NetServer(
            db, workers=4, queue_depth=16, lock_timeout=lock_timeout
        ).start()
        try:
            a = make_client(net)
            b = make_client(net)
            try:
                a.execute(GRT_TABLE)
                a.execute(GRT_INDEX)
                a.execute("BEGIN WORK")
                insert_emp(a, "holder")

                blocked_at = time.monotonic()
                unblocked = []

                def contender():
                    insert_emp(b, "survivor")
                    unblocked.append(time.monotonic() - blocked_at)

                thread = threading.Thread(target=contender)
                thread.start()
                time.sleep(0.1)
                a._sock.close()  # kill the holder mid-transaction
                thread.join(timeout=lock_timeout + 2)
                assert unblocked, "survivor stayed blocked past the timeout"
                assert unblocked[0] <= lock_timeout + 1.0
            finally:
                a.close()
                b.close()
        finally:
            net.shutdown()


class TestGracefulShutdown:
    def test_drain_completes_inflight_and_aborts_idle_transactions(self, db):
        net = NetServer(db, workers=2, queue_depth=8).start()
        idle = make_client(net)
        with make_client(net) as setup:
            setup.execute(GRT_TABLE)
            setup.execute(GRT_INDEX)
        idle.execute("BEGIN WORK")
        insert_emp(idle, "abandoned")
        assert db.locks.locked_resources > 0
        net.shutdown()
        # The idle transaction was aborted and its locks released.
        assert db.locks.locked_resources == 0
        with db._engine_lock:
            pass  # engine is quiescent

    def test_statements_after_drain_get_shutting_down(self, db):
        net = NetServer(db, workers=2, queue_depth=8).start()
        sock = socket.create_connection((net.host, net.port), timeout=5)
        sock.settimeout(5)
        try:
            net._draining.set()
            protocol.write_frame(sock, protocol.execute("SELECT 1"))
            reply = protocol.read_frame(sock)
            assert reply["kind"] == "error"
            assert reply["code"] == protocol.SHUTTING_DOWN
        finally:
            sock.close()
            net.shutdown()

    def test_shutdown_is_idempotent(self, db):
        net = NetServer(db).start()
        net.shutdown()
        net.shutdown()
