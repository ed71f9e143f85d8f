"""Tests for page stores and the buffer pool."""

import random

import pytest

from repro.storage.buffer import BufferPool, IOStats
from repro.storage.pages import InMemoryPageStore
from repro.storage.osfile import OSFilePageStore


class TestInMemoryPageStore:
    def test_allocate_write_read(self):
        store = InMemoryPageStore(page_size=128)
        pid = store.allocate_page()
        store.write_page(pid, b"hello")
        data = store.read_page(pid)
        assert data.startswith(b"hello")
        assert len(data) == 128

    def test_pages_zero_initialised(self):
        store = InMemoryPageStore(page_size=64)
        pid = store.allocate_page()
        assert store.read_page(pid) == b"\x00" * 64

    def test_free_recycles_ids(self):
        store = InMemoryPageStore()
        a = store.allocate_page()
        store.free_page(a)
        b = store.allocate_page()
        assert b == a

    def test_read_unallocated_raises(self):
        store = InMemoryPageStore()
        with pytest.raises(KeyError):
            store.read_page(99)

    def test_write_overflow_rejected(self):
        store = InMemoryPageStore(page_size=16)
        pid = store.allocate_page()
        with pytest.raises(ValueError):
            store.write_page(pid, b"x" * 17)

    def test_page_count(self):
        store = InMemoryPageStore()
        ids = [store.allocate_page() for _ in range(3)]
        store.free_page(ids[1])
        assert store.page_count == 2


class TestOSFilePageStore:
    def test_persists_across_reopen(self, tmp_path):
        path = str(tmp_path / "index.grt")
        with OSFilePageStore(path, page_size=256) as store:
            pid = store.allocate_page()
            store.write_page(pid, b"durable")
        with OSFilePageStore(path, page_size=256) as store:
            assert store.read_page(pid).startswith(b"durable")
            assert store.page_count == 1

    def test_free_list_survives_reopen(self, tmp_path):
        path = str(tmp_path / "index.grt")
        with OSFilePageStore(path, page_size=256) as store:
            a = store.allocate_page()
            b = store.allocate_page()
            store.free_page(a)
            assert store.page_count == 1
        with OSFilePageStore(path, page_size=256) as store:
            assert store.page_count == 1
            reused = store.allocate_page()
            assert reused == a

    def test_page_size_mismatch_detected(self, tmp_path):
        path = str(tmp_path / "index.grt")
        OSFilePageStore(path, page_size=256).close()
        with pytest.raises(ValueError):
            OSFilePageStore(path, page_size=512)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"not a grt file at all" + b"\x00" * 100)
        with pytest.raises(ValueError):
            OSFilePageStore(str(path))


class TestBufferPool:
    def make(self, capacity=2, page_size=64):
        store = InMemoryPageStore(page_size=page_size)
        return store, BufferPool(store, capacity=capacity)

    def test_read_hits_cache(self):
        store, pool = self.make()
        pid = pool.allocate()
        store.write_page(pid, b"v1")
        pool.read(pid)
        pool.read(pid)
        assert pool.stats.physical_reads == 1
        assert pool.stats.logical_reads == 2

    def test_write_back_on_eviction(self):
        store, pool = self.make(capacity=1)
        a, b = pool.allocate(), pool.allocate()
        pool.write(a, b"aaa")
        pool.write(b, b"bbb")  # evicts a, forcing write-back
        assert store.read_page(a).startswith(b"aaa")
        assert pool.stats.physical_writes == 1

    def test_flush_writes_dirty_frames(self):
        store, pool = self.make()
        pid = pool.allocate()
        pool.write(pid, b"dirty")
        assert store.read_page(pid) == b"\x00" * 64
        pool.flush()
        assert store.read_page(pid).startswith(b"dirty")

    def test_flush_is_idempotent(self):
        store, pool = self.make()
        pid = pool.allocate()
        pool.write(pid, b"dirty")
        pool.flush()
        before = pool.stats.physical_writes
        pool.flush()
        assert pool.stats.physical_writes == before

    def test_flush_writes_every_dirty_page_after_any_mix(self):
        """The pool counts its dirty frames so a clean flush can return
        at once; writes, rereads, evictions, frees and recycled ids must
        never leave a dirty page unflushed."""
        rng = random.Random(7)
        store = InMemoryPageStore(page_size=64)
        pool = BufferPool(store, capacity=4)
        expected = {}
        for step in range(400):
            roll = rng.random()
            if not expected or roll < 0.2:
                pid = pool.allocate()
                expected[pid] = b"\x00" * 64
            pid = rng.choice(sorted(expected))
            if roll < 0.5:
                data = bytes([step % 251]) * 64
                pool.write(pid, data)
                expected[pid] = data
            elif roll < 0.6:
                pool.free(pid)
                del expected[pid]
            elif roll < 0.9:
                assert pool.read(pid) == expected[pid]
            else:
                pool.flush()
                assert store.snapshot() == expected

    def test_invalidate_discards_dirty_data(self):
        store, pool = self.make()
        pid = pool.allocate()
        pool.write(pid, b"lost")
        pool.invalidate()
        assert store.read_page(pid) == b"\x00" * 64

    def test_lru_order(self):
        store, pool = self.make(capacity=2)
        a, b, c = (pool.allocate() for _ in range(3))
        pool.read(a)
        pool.read(b)
        pool.read(a)  # a is now most recent
        pool.read(c)  # evicts b (a was touched more recently)
        pool.read(a)  # still resident: hit
        assert pool.stats.physical_reads == 3  # a, b, c each faulted once
        pool.read(b)  # b was evicted: physical again
        assert pool.stats.physical_reads == 4

    def test_free_drops_cached_frame(self):
        store, pool = self.make()
        pid = pool.allocate()
        pool.write(pid, b"gone")
        pool.free(pid)
        with pytest.raises(KeyError):
            store.read_page(pid)

    def test_recycled_page_id_does_not_resurrect_stale_frame(self):
        """Regression: free() + reallocate of the same page id (the
        store's LIFO free list) must not serve the old frame's bytes."""
        store, pool = self.make()
        pid = pool.allocate()
        pool.write(pid, b"old incarnation")
        pool.read(pid)  # frame is resident
        pool.free(pid)
        recycled = pool.allocate()
        assert recycled == pid  # LIFO recycling really happened
        assert pool.read(recycled) == b"\x00" * 64

    def test_recycled_id_drops_frame_even_if_freed_elsewhere(self):
        """Even when the free bypasses the pool (another pool over the
        same store), allocate() must not trust a stale resident frame."""
        store, pool = self.make()
        pid = pool.allocate()
        pool.write(pid, b"stale")
        pool.flush()
        pool.read(pid)
        store.free_page(pid)  # freed behind the pool's back
        recycled = pool.allocate()
        assert recycled == pid
        assert pool.read(recycled) == b"\x00" * 64

    def test_full_page_write_preserved_verbatim(self):
        """_check_data must pass exactly-page-sized bytes through
        unchanged (the serializer fast path emits full pages)."""
        store, pool = self.make()
        pid = pool.allocate()
        payload = bytes(range(64))
        pool.write(pid, payload)
        pool.flush()
        assert store.read_page(pid) == payload
        assert pool.read(pid) == payload

    def test_stats_snapshot_and_diff(self):
        store, pool = self.make()
        pid = pool.allocate()
        pool.read(pid)
        before = pool.stats.snapshot()
        pool.read(pid)
        delta = pool.stats - before
        assert delta.logical_reads == 1
        assert delta.physical_reads == 0

    def test_hit_ratio(self):
        stats = IOStats(logical_reads=10, physical_reads=2)
        assert stats.hit_ratio == pytest.approx(0.8)
        assert IOStats().hit_ratio == 1.0
