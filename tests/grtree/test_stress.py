"""Stress tests: tiny buffers, long mixed sessions, page churn."""

import random

import pytest

from repro.grtree.node import GRNodeStore
from repro.grtree.tree import GRTree
from repro.storage.buffer import BufferPool
from repro.storage.pages import InMemoryPageStore
from repro.temporal.chronon import Clock
from repro.temporal.extent import TimeExtent
from repro.temporal.variables import NOW, UC
from repro.workloads import BitemporalWorkload, WorkloadConfig


class TestTinyBuffer:
    """A two-frame buffer pool forces eviction and write-back inside
    every multi-node operation; correctness must not depend on
    residency."""

    def test_build_and_search_with_two_frames(self):
        clock = Clock(now=100)
        store = InMemoryPageStore(page_size=512)
        pool = BufferPool(store, capacity=2)
        tree = GRTree.create(GRNodeStore(pool), clock)
        workload = BitemporalWorkload(clock, WorkloadConfig(seed=61))
        workload.run(tree, 500)
        tree.check()
        assert pool.stats.physical_reads > 0  # evictions really happened
        assert pool.stats.physical_writes > 0
        query = workload.window_query(15, 15)
        got = sorted(r for r, _ in tree.search_all(query))
        assert got == workload.oracle_overlapping(query)

    def test_flush_then_invalidate_round_trip(self):
        clock = Clock(now=100)
        pool = BufferPool(InMemoryPageStore(page_size=512), capacity=4)
        tree = GRTree.create(GRNodeStore(pool), clock)
        for i in range(100):
            tree.insert(TimeExtent(100, UC, 90, NOW), rowid=i)
        tree.flush()
        pool.invalidate()  # drop every cached frame
        # Everything must be re-readable from the backing store.
        reopened = GRTree.open(GRNodeStore(pool), clock, tree.meta_page)
        assert reopened.size == 100
        assert len(reopened.search_all(TimeExtent(100, UC, 100, NOW))) == 100


class TestLongSession:
    @pytest.mark.parametrize("seed", [7, 77])
    def test_thousands_of_mixed_operations(self, seed):
        clock = Clock(now=100)
        pool = BufferPool(InMemoryPageStore(page_size=512), capacity=16)
        tree = GRTree.create(GRNodeStore(pool), clock)
        workload = BitemporalWorkload(
            clock,
            WorkloadConfig(
                seed=seed,
                delete_fraction=0.2,
                update_fraction=0.15,
                clock_advance_probability=0.4,
            ),
        )
        for step in range(3000):
            workload.step(tree)
            if step % 750 == 749:
                tree.check()
        tree.check()
        for _ in range(5):
            query = workload.window_query(12, 12)
            got = sorted(r for r, _ in tree.search_all(query))
            assert got == workload.oracle_overlapping(query)

    def test_page_recycling(self):
        """Deleting most of the tree then rebuilding reuses freed pages
        rather than leaking them."""
        clock = Clock(now=100)
        store = InMemoryPageStore(page_size=512)
        pool = BufferPool(store, capacity=32)
        tree = GRTree.create(GRNodeStore(pool), clock)
        extents = {}
        for i in range(600):
            extent = TimeExtent(clock.now, UC, clock.now - (i % 30), NOW)
            tree.insert(extent, i)
            extents[i] = extent
            if i % 20 == 0:
                clock.advance(1)
        peak_pages = store.page_count
        for i in range(550):
            assert tree.delete(extents[i], i)
        for i in range(600, 1150):
            tree.insert(TimeExtent(clock.now, UC, clock.now - (i % 30), NOW), i)
        tree.check()
        assert store.page_count <= peak_pages * 1.5
