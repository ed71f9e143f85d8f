"""Hammer tests for the shared structures the worker threads touch.

Each test throws 8 threads at one structure and then checks exact
invariants: lost updates, corrupted LRU bookkeeping, or leaked locks all
show up as hard assertion failures, not flakes.

Every test also runs under the ``lock_audit`` fixture
(:mod:`repro.analysis.lockgraph`): any lock-order cycle observed during
the hammer fails the test with both acquisition stacks.
"""

import random
import threading
import time

import pytest

from repro.gist.extensions import Interval, IntervalExtension
from repro.gist.tree import GistEntry, GistNodeStore
from repro.grtree.entries import GREntry
from repro.grtree.node import GRNodeStore
from repro.obs.metrics import MetricsRegistry
from repro.rtree.geometry import Rect
from repro.rtree.node import Entry, Node, NodeStore
from repro.server import DatabaseServer
from repro.storage.buffer import BufferPool
from repro.storage.locks import (
    LockManager,
    LockMode,
    LockTimeoutError,
)
from repro.storage.pages import InMemoryPageStore

THREADS = 8


def hammer(worker, threads=THREADS):
    """Run *worker(thread_index)* on N threads; re-raise any failure."""
    errors = []

    def run(index):
        try:
            worker(index)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    pool = [
        threading.Thread(target=run, args=(index,)) for index in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in pool), "hammer hung"
    if errors:
        raise errors[0]


class TestMetricsRegistry:
    def test_concurrent_increments_lose_nothing(self, lock_audit):
        registry = MetricsRegistry()
        rounds = 2000

        def worker(index):
            for i in range(rounds):
                registry.inc("hammer.count")
                registry.inc("hammer.weighted", 2)
                registry.observe("hammer.lat", 0.001 * (i % 7))

        hammer(worker)
        assert registry.counter("hammer.count") == THREADS * rounds
        assert registry.counter("hammer.weighted") == 2 * THREADS * rounds
        histogram = registry.histogram("hammer.lat")
        assert histogram.count == THREADS * rounds
        # Internal consistency: every observation landed in exactly one
        # bucket.
        assert sum(histogram.bucket_counts) == histogram.count

    def test_snapshots_during_mutation_stay_consistent(self, lock_audit):
        registry = MetricsRegistry()
        registry.register_collector("pull", lambda: {"constant": 42})
        stop = threading.Event()
        bad = []

        def snapshotter():
            while not stop.is_set():
                snap = registry.snapshot()
                if snap.get("pull.constant") != 42:
                    bad.append(snap)
                registry.to_dict()

        watcher = threading.Thread(target=snapshotter)
        watcher.start()

        def worker(index):
            for i in range(500):
                registry.inc("spin")
                registry.set_gauge(f"gauge.{index}", i)
                registry.observe("spin.lat", 0.0001)

        try:
            hammer(worker)
        finally:
            stop.set()
            watcher.join(timeout=10)
        assert bad == []
        assert registry.counter("spin") == THREADS * 500


class TestStatementCache:
    def test_parse_cache_stays_bounded_and_consistent(self, lock_audit):
        db = DatabaseServer(statement_cache_size=8)
        texts = [f"SELECT * FROM relation_{i}" for i in range(32)]

        def worker(index):
            rng = random.Random(index)
            for _ in range(400):
                sql = rng.choice(texts)
                statement, _ = db._parse(sql)
                assert statement is not None

        hammer(worker)
        stats = db.obs.metrics.snapshot()
        assert stats["sql.stmtcache.entries"] <= 8
        # Every _parse call resolved as exactly one hit or one miss.
        assert (
            stats["sql.stmtcache.hits"] + stats["sql.stmtcache.misses"]
            == THREADS * 400
        )
        # The cache still serves correct statements after the hammer.
        session = db.create_session()
        db.execute("CREATE TABLE relation_0 (a INTEGER)", session)
        db.execute("INSERT INTO relation_0 VALUES (5)", session)
        assert db.execute("SELECT * FROM relation_0", session) == [{"a": 5}]


#: Each R*-family store: its constructor, a leaf entry whose key
#: carries a page id, and how to read that page id back out of the key.
NODE_STORES = {
    "grtree": (
        GRNodeStore,
        lambda page_id, rowid: GREntry(page_id, page_id + 1, 0, 1, rowid=rowid),
        lambda entry: entry.tt_begin,
    ),
    "rtree": (
        NodeStore,
        lambda page_id, rowid: Entry(
            Rect((page_id, 0), (page_id + 1, 1)), rowid=rowid
        ),
        lambda entry: entry.rect.lo[0],
    ),
    "gist-interval": (
        lambda pool: GistNodeStore(pool, IntervalExtension()),
        lambda page_id, rowid: GistEntry(
            Interval(page_id, page_id + 1), rowid=rowid
        ),
        lambda entry: entry.key.lo,
    ),
}


@pytest.mark.parametrize("kind", list(NODE_STORES))
class TestNodeCacheStore:
    """A tree's node store over a pool too small for its pages: decoded
    nodes come and go with the frames while threads read and write."""

    PAGES = 48

    def build_store(self, kind):
        make_store, make_entry, page_of = NODE_STORES[kind]
        pool = BufferPool(InMemoryPageStore(page_size=512), capacity=8)
        store = make_store(pool)
        page_ids = []
        for i in range(self.PAGES):
            node = store.allocate(leaf=True)
            # The page id round-trips through the entry's key, so a
            # cross-wired frame is caught by content, not just key.
            node.entries.append(make_entry(node.page_id, i))
            store.write(node)
            page_ids.append(node.page_id)
        return store, page_ids, make_entry, page_of

    def test_concurrent_reads_return_correct_nodes(self, kind, lock_audit):
        store, page_ids, _, page_of = self.build_store(kind)
        pool = store.buffer
        pool.decode_hits = pool.decodes = 0
        reads_per_thread = 600

        def worker(index):
            rng = random.Random(index)
            for _ in range(reads_per_thread):
                page_id = rng.choice(page_ids)
                node = store.read(page_id)
                assert node.page_id == page_id
                assert page_of(node.entries[0]) == page_id

        hammer(worker)
        assert pool.resident_pages <= pool.capacity
        assert pool.decode_hits + pool.decodes == THREADS * reads_per_thread
        assert pool.decodes > 0

    def test_concurrent_read_write_mix_never_corrupts(self, kind, lock_audit):
        store, page_ids, make_entry, page_of = self.build_store(kind)

        def worker(index):
            rng = random.Random(100 + index)
            for _ in range(300):
                page_id = rng.choice(page_ids)
                if index % 2:
                    node = store.read(page_id)
                    assert page_of(node.entries[0]) == page_id
                else:
                    node = Node(page_id, leaf=True)
                    node.entries.append(make_entry(page_id, index))
                    store.write(node)

        hammer(worker)
        assert store.buffer.resident_pages <= store.buffer.capacity
        for page_id in page_ids:
            assert page_of(store.read(page_id).entries[0]) == page_id


class TestLockManager:
    def test_blocking_acquire_wakes_on_release(self, lock_audit):
        locks = LockManager()
        locks.acquire(1, "res", LockMode.EXCLUSIVE)
        granted_after = []

        def waiter():
            start = time.monotonic()
            locks.acquire(2, "res", LockMode.EXCLUSIVE, wait_timeout=5.0)
            granted_after.append(time.monotonic() - start)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        assert not granted_after, "waiter must block while the lock is held"
        locks.release_all(1)
        thread.join(timeout=5)
        assert granted_after and granted_after[0] < 4.0
        locks.release_all(2)
        assert locks.locked_resources == 0

    def test_blocking_acquire_times_out_and_counts(self, lock_audit):
        locks = LockManager()
        locks.acquire(1, "res", LockMode.EXCLUSIVE)
        with pytest.raises(LockTimeoutError) as info:
            locks.acquire(2, "res", LockMode.SHARED, wait_timeout=0.05)
        assert info.value.holders == {1}
        assert locks.timeouts == 1
        assert locks.conflicts >= 1
        locks.release_all(1)
        assert locks.locked_resources == 0

    def test_contended_mutual_exclusion_no_lost_updates(self, lock_audit):
        locks = LockManager()
        rounds = 150
        state = {"value": 0}

        def worker(index):
            txn_id = index + 1
            for _ in range(rounds):
                locks.acquire(
                    txn_id, "slot", LockMode.EXCLUSIVE, wait_timeout=30.0
                )
                try:
                    # Deliberately non-atomic read-modify-write: only
                    # mutual exclusion makes the final total exact.
                    current = state["value"]
                    time.sleep(0)
                    state["value"] = current + 1
                finally:
                    locks.release(txn_id, "slot")

        hammer(worker)
        assert state["value"] == THREADS * rounds
        assert locks.locked_resources == 0

    def test_shared_readers_interleave_with_writers(self, lock_audit):
        locks = LockManager()

        def worker(index):
            txn_id = index + 1
            rng = random.Random(index)
            for _ in range(100):
                mode = (
                    LockMode.EXCLUSIVE if rng.random() < 0.2
                    else LockMode.SHARED
                )
                locks.acquire(txn_id, "page", mode, wait_timeout=30.0)
                locks.release(txn_id, "page")

        hammer(worker)
        assert locks.locked_resources == 0
        assert locks.acquires == locks.releases
