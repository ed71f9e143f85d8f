"""Tests for the GR-tree: inserts, growth, searches, deletion, cursors."""

import contextlib
import random

import pytest

from repro.grtree.cursor import Cursor
from repro.grtree.entries import GREntry, Predicate
from repro.grtree.node import GRNodeStore
from repro.grtree.tree import GRTree
from repro.grtree.bulk import bulk_delete, bulk_load
from repro.storage.buffer import BufferPool
from repro.storage.pages import InMemoryPageStore
from repro.temporal.chronon import Clock
from repro.temporal.extent import TimeExtent
from repro.temporal.variables import NOW, UC

from tests.kernels import assert_kernels, assert_scalar, scalar_path


def make_tree(page_size=512, now=100, **kwargs):
    clock = Clock(now=now)
    store = GRNodeStore(BufferPool(InMemoryPageStore(page_size=page_size)))
    return GRTree.create(store, clock, **kwargs), clock


def random_extent(rng, clock, now_relative_prob=0.5):
    """An extent insertable at the current clock time."""
    now = clock.now
    tt_begin = now
    if rng.random() < now_relative_prob:
        vt_begin = now - rng.randint(0, 40)
        return TimeExtent(tt_begin, UC, vt_begin, NOW)
    vt_begin = now - rng.randint(-20, 40)
    vt_end = vt_begin + rng.randint(0, 30)
    return TimeExtent(tt_begin, UC, vt_begin, vt_end)


class Oracle:
    """Linear-scan reference for GR-tree searches."""

    def __init__(self):
        self.rows = {}  # rowid -> extent

    def insert(self, extent, rowid):
        self.rows[rowid] = extent

    def delete(self, rowid):
        del self.rows[rowid]

    def search(self, query, predicate, now):
        q = query.region(now)
        return sorted(
            rowid
            for rowid, extent in self.rows.items()
            if predicate.leaf_test(extent.region(now), q)
        )


class TestBasics:
    def test_empty_tree(self):
        tree, clock = make_tree()
        query = TimeExtent(100, UC, 100, NOW)
        assert tree.search_all(query) == []
        assert tree.size == 0

    def test_single_insert_and_search(self):
        tree, clock = make_tree()
        extent = TimeExtent(100, UC, 90, NOW)
        tree.insert(extent, rowid=1)
        assert tree.search_all(TimeExtent(100, UC, 100, NOW)) == [(1, 0)]
        assert tree.size == 1

    def test_search_respects_clock_growth(self):
        tree, clock = make_tree(now=100)
        tree.insert(TimeExtent(100, UC, 100, NOW), rowid=1)
        # A static query region in the future of the stair's current top.
        far_query = TimeExtent(100, 200, 150, 180)
        assert tree.search_all(far_query) == []
        clock.set(160)
        # The stair has grown past vt=150 by now.
        assert tree.search_all(far_query) == [(1, 0)]

    def test_meta_page_roundtrip(self):
        clock = Clock(now=100)
        pool = BufferPool(InMemoryPageStore(page_size=512))
        store = GRNodeStore(pool)
        tree = GRTree.create(store, clock, time_horizon=7)
        for i in range(50):
            tree.insert(TimeExtent(100, UC, 90, NOW), rowid=i)
        tree.flush()
        reopened = GRTree.open(store, clock, meta_page=tree.meta_page)
        assert reopened.size == 50
        assert reopened.height == tree.height
        assert reopened.time_horizon == 7
        assert sorted(reopened.search_all(TimeExtent(100, UC, 100, NOW))) == [
            (i, 0) for i in range(50)
        ]

    def test_open_rejects_garbage(self):
        pool = BufferPool(InMemoryPageStore(page_size=512))
        store = GRNodeStore(pool)
        page = pool.allocate()
        pool.write(page, b"not a tree")
        with pytest.raises(ValueError):
            GRTree.open(store, Clock(), meta_page=page)


class TestOracleEquivalence:
    @pytest.mark.parametrize("now_relative_prob", [0.0, 0.5, 1.0])
    def test_growing_workload_matches_oracle(self, now_relative_prob):
        rng = random.Random(42)
        tree, clock = make_tree(page_size=512)
        oracle = Oracle()
        for rowid in range(400):
            extent = random_extent(rng, clock, now_relative_prob)
            tree.insert(extent, rowid)
            oracle.insert(extent, rowid)
            if rng.random() < 0.3:
                clock.advance(1)
        tree.check()
        for predicate in Predicate:
            for _ in range(10):
                vt = clock.now - rng.randint(0, 150)
                query = TimeExtent(
                    clock.now - rng.randint(0, 100),
                    clock.now + rng.randint(0, 50),
                    vt,
                    vt + rng.randint(0, 80),
                )
                expected = oracle.search(query, predicate, clock.now)
                got = sorted(r for r, _ in tree.search_all(query, predicate))
                assert got == expected, (predicate, query)

    def test_growth_after_load_matches_oracle(self):
        """Regions keep growing after the tree is built; bounds with
        UC/NOW must keep up without any page updates."""
        rng = random.Random(7)
        tree, clock = make_tree(page_size=512)
        oracle = Oracle()
        for rowid in range(300):
            extent = random_extent(rng, clock, 0.7)
            tree.insert(extent, rowid)
            oracle.insert(extent, rowid)
        io_before = tree.store.buffer.stats.logical_writes
        clock.advance(500)  # half a career later, nothing rewritten
        assert tree.store.buffer.stats.logical_writes == io_before
        tree.check()
        query = TimeExtent(clock.now - 80, clock.now, clock.now - 300, clock.now - 100)
        expected = oracle.search(query, Predicate.OVERLAPS, clock.now)
        assert sorted(r for r, _ in tree.search_all(query)) == expected

    def test_query_as_of_open_time(self):
        """Searches honour an explicit 'now' (the statement time sampled
        at index open, Section 5.4)."""
        tree, clock = make_tree(now=100)
        tree.insert(TimeExtent(100, UC, 100, NOW), rowid=1)
        clock.set(200)
        frozen_query = TimeExtent(150, 160, 150, 155)
        # At the frozen time 120 the stair had not yet reached the query.
        assert tree.search_all(frozen_query, now=120) == []
        assert tree.search_all(frozen_query, now=200) == [(1, 0)]


class TestDeletion:
    def test_delete_roundtrip(self):
        tree, clock = make_tree()
        extent = TimeExtent(100, UC, 90, NOW)
        tree.insert(extent, rowid=1)
        assert tree.delete(extent, rowid=1)
        assert tree.size == 0
        assert tree.search_all(TimeExtent(100, UC, 100, NOW)) == []

    def test_delete_missing(self):
        tree, clock = make_tree()
        tree.insert(TimeExtent(100, UC, 90, NOW), rowid=1)
        assert not tree.delete(TimeExtent(100, UC, 90, NOW), rowid=2)
        assert not tree.delete(TimeExtent(100, UC, 89, NOW), rowid=1)

    def test_mass_delete_matches_oracle(self):
        rng = random.Random(3)
        tree, clock = make_tree(page_size=512)
        oracle = Oracle()
        extents = {}
        for rowid in range(400):
            extent = random_extent(rng, clock, 0.5)
            tree.insert(extent, rowid)
            oracle.insert(extent, rowid)
            extents[rowid] = extent
            if rng.random() < 0.2:
                clock.advance(1)
        victims = rng.sample(sorted(extents), 250)
        for rowid in victims:
            assert tree.delete(extents[rowid], rowid)
            oracle.delete(rowid)
        tree.check()
        query = TimeExtent(clock.now - 100, clock.now, clock.now - 100, clock.now)
        assert sorted(r for r, _ in tree.search_all(query)) == oracle.search(
            query, Predicate.OVERLAPS, clock.now
        )

    def test_update_is_delete_plus_insert(self):
        """A logical deletion replaces the UC entry with a frozen one."""
        tree, clock = make_tree(now=100)
        live = TimeExtent(100, UC, 90, NOW)
        tree.insert(live, rowid=1)
        clock.set(150)
        frozen = live.logically_deleted(150)
        assert tree.delete(live, rowid=1)
        tree.insert(frozen, rowid=1)
        tree.check()
        # The frozen stair no longer grows.
        assert tree.search_all(TimeExtent(200, 300, 200, 300), now=350) == []


class TestCursor:
    def test_cursor_returns_one_at_a_time(self):
        tree, clock = make_tree()
        for i in range(5):
            tree.insert(TimeExtent(100, UC, 90, NOW), rowid=i)
        cursor = tree.search(TimeExtent(100, UC, 100, NOW))
        seen = set()
        while True:
            entry = cursor.next()
            if entry is None:
                break
            seen.add(entry.rowid)
        assert seen == set(range(5))
        assert cursor.next() is None  # stays exhausted

    def test_reset_restarts_scan(self):
        tree, clock = make_tree()
        for i in range(5):
            tree.insert(TimeExtent(100, UC, 90, NOW), rowid=i)
        cursor = tree.search(TimeExtent(100, UC, 100, NOW))
        assert cursor.next() is not None
        cursor.reset()
        assert len(cursor.fetch_all()) == 5

    def test_retrieve_and_delete_loop(self):
        """The grt_delete pattern: fetch next qualifying entry, delete it,
        repeat -- across condensations (Section 5.5)."""
        rng = random.Random(11)
        tree, clock = make_tree(page_size=512)
        extents = {}
        for rowid in range(300):
            extent = random_extent(rng, clock, 0.6)
            tree.insert(extent, rowid)
            extents[rowid] = extent
        query = TimeExtent(clock.now, UC, clock.now - 200, NOW)
        expected = {
            rowid
            for rowid, ext in extents.items()
            if ext.region(clock.now).overlaps(query.region(clock.now))
        }
        cursor = tree.search(query)
        deleted = set()
        while True:
            entry = cursor.next()
            if entry is None:
                break
            assert tree.delete(entry.extent(), entry.rowid)
            deleted.add(entry.rowid)
        assert deleted == expected
        tree.check()

    def test_cursor_restart_only_on_condense(self):
        tree, clock = make_tree(page_size=512)
        for i in range(200):
            tree.insert(TimeExtent(100, UC, 90, NOW), rowid=i)
        cursor = tree.search(TimeExtent(100, UC, 100, NOW))
        version = tree.condense_version
        cursor.next()
        assert cursor._seen_version == version

    def test_node_access_accounting(self):
        tree, clock = make_tree(page_size=512)
        for i in range(400):
            tree.insert(TimeExtent(100, UC, 90, NOW), rowid=i)
        cursor = tree.search(TimeExtent(100, UC, 100, NOW))
        cursor.fetch_all()
        assert cursor.node_accesses >= tree.height

    # Section 5.5 for the leaf buffer: a leaf visit qualifies the leaf
    # once and buffers the hits not yet returned.  A write between two
    # calls that does not condense the tree must not let the buffer hand
    # out a stale entry, repeat one, or lose one.

    QUERY = TimeExtent(100, UC, 100, NOW)

    @pytest.fixture(params=[True, False], ids=["kernel", "scalar"])
    def leaf(self, request):
        """A one-leaf tree of twelve qualifying entries (enough for the
        batch kernel), and its entries by rowid; the scalar leg runs the
        whole test on the reference path."""
        kernel = request.param
        with contextlib.nullcontext() if kernel else scalar_path():
            tree, clock = make_tree(page_size=1024)
            extents = {i: TimeExtent(100, UC, 90 - i, NOW) for i in range(12)}
            for rowid, extent in extents.items():
                tree.insert(extent, rowid)
            assert tree.height == 1
            yield tree, extents
        if kernel:
            assert_kernels(tree.spec.stats, ("nodes_batched",))
        else:
            assert_scalar(tree.spec.stats)

    def drain(self, cursor):
        return [entry.rowid for entry in cursor.fetch_all()]

    def test_deleted_buffered_entry_is_never_returned(self, leaf):
        tree, extents = leaf
        cursor = tree.search(self.QUERY)
        first = cursor.next().rowid
        version = tree.condense_version
        victim = next(r for r in extents if r != first)
        assert tree.delete(extents[victim], victim)
        assert tree.condense_version == version
        rest = self.drain(cursor)
        assert victim not in rest
        assert sorted([first, *rest]) == sorted(set(extents) - {victim})

    def test_insert_into_current_leaf_repeats_and_misses_nothing(self, leaf):
        tree, extents = leaf
        cursor = tree.search(self.QUERY)
        first = [cursor.next().rowid for _ in range(3)]
        version = tree.condense_version
        tree.insert(TimeExtent(100, UC, 95, NOW), rowid=99)
        assert tree.condense_version == version and tree.height == 1
        returned = first + self.drain(cursor)
        assert len(returned) == len(set(returned))
        assert set(returned) == set(extents) | {99}

    def test_reset_drops_the_buffer(self, leaf):
        tree, extents = leaf
        cursor = tree.search(self.QUERY)
        cursor.next()
        victim = 5
        assert tree.delete(extents[victim], victim)
        cursor.reset()
        fresh = self.drain(tree.search(self.QUERY))
        assert self.drain(cursor) == fresh
        assert sorted(fresh) == sorted(set(extents) - {victim})

    def test_restart_keeping_history_drops_the_buffer(self, leaf):
        tree, extents = leaf
        cursor = tree.search(self.QUERY)
        first = cursor.next().rowid
        victim = next(r for r in extents if r != first)
        assert tree.delete(extents[victim], victim)
        cursor.restart_keeping_history()
        rest = self.drain(cursor)
        assert first not in rest and victim not in rest
        assert sorted([first, *rest]) == sorted(set(extents) - {victim})


class TestStatsAndQuality:
    def test_stats(self):
        tree, clock = make_tree(page_size=512)
        for i in range(300):
            tree.insert(TimeExtent(100, UC, 90, NOW), rowid=i)
        stats = tree.stats()
        assert stats["size"] == 300
        assert stats["height"] == tree.height > 1
        assert 0 < stats["avg_fill"] <= 1

    def test_quality_metrics_present(self):
        rng = random.Random(5)
        tree, clock = make_tree(page_size=512)
        for i in range(300):
            tree.insert(random_extent(rng, clock, 0.5), rowid=i)
            if i % 10 == 0:
                clock.advance(1)
        quality = tree.quality()
        assert quality["dead_space"] >= 0
        assert quality["sibling_overlap"] >= 0

    def test_scan_cost_monotone_in_query_size(self):
        rng = random.Random(5)
        tree, clock = make_tree(page_size=512)
        for i in range(400):
            tree.insert(random_extent(rng, clock, 0.5), rowid=i)
            if i % 10 == 0:
                clock.advance(1)
        small = TimeExtent(clock.now, clock.now + 1, clock.now, clock.now + 1)
        large = TimeExtent(clock.now - 100, clock.now + 100, 0, clock.now + 100)
        assert tree.scan_cost(small) <= tree.scan_cost(large)

    def test_dump_renders_structure(self):
        tree, clock = make_tree()
        tree.insert(TimeExtent(100, UC, 90, NOW), rowid=1)
        text = tree.dump()
        assert "leaf" in text and "rowid=1" in text


class TestBulk:
    def test_bulk_load_matches_incremental(self):
        rng = random.Random(21)
        clock = Clock(now=100)
        items = []
        for rowid in range(500):
            vt_begin = clock.now - rng.randint(0, 50)
            if rng.random() < 0.5:
                items.append((TimeExtent(clock.now, UC, vt_begin, NOW), rowid))
            else:
                items.append(
                    (TimeExtent(clock.now, UC, vt_begin, vt_begin + 10), rowid)
                )
        store = GRNodeStore(BufferPool(InMemoryPageStore(page_size=512)))
        tree = bulk_load(store, clock, items)
        tree.check()
        assert tree.size == 500
        clock.advance(50)
        query = TimeExtent(clock.now, UC, clock.now - 60, NOW)
        expected = sorted(
            rowid
            for extent, rowid in items
            if extent.region(clock.now).overlaps(query.region(clock.now))
        )
        assert sorted(r for r, _ in tree.search_all(query)) == expected

    def test_bulk_load_then_insert(self):
        clock = Clock(now=100)
        items = [(TimeExtent(100, UC, 90, NOW), i) for i in range(200)]
        store = GRNodeStore(BufferPool(InMemoryPageStore(page_size=512)))
        tree = bulk_load(store, clock, items)
        clock.advance(5)
        tree.insert(TimeExtent(105, UC, 100, NOW), rowid=999)
        tree.check()
        assert tree.size == 201

    def test_bulk_load_empty(self):
        clock = Clock(now=100)
        store = GRNodeStore(BufferPool(InMemoryPageStore(page_size=512)))
        tree = bulk_load(store, clock, [])
        assert tree.size == 0
        assert tree.search_all(TimeExtent(100, UC, 100, NOW)) == []

    def test_bulk_delete_vacuums_old_data(self):
        """Section 5.5: 'delete all data that is more than five years
        old' via drop-and-rebuild."""
        rng = random.Random(31)
        tree, clock = make_tree(page_size=512)
        extents = {}
        for rowid in range(300):
            extent = random_extent(rng, clock, 0.3)
            tree.insert(extent, rowid)
            extents[rowid] = extent
            clock.advance(1)
        cutoff = clock.now - 150
        old = {
            rowid
            for rowid, ext in extents.items()
            if ext.tt_end is not UC or ext.tt_begin < cutoff
        }
        tree, removed = bulk_delete(
            tree, lambda e: e.tt_end is not UC or e.tt_begin < cutoff
        )
        tree.check()
        assert removed == len(old)
        assert tree.size == 300 - len(old)
        # A static rectangle comfortably covering every region.
        everything = TimeExtent(0, clock.now + 200, 0, clock.now + 200)
        assert sorted(r for r, _ in tree.search_all(everything)) == sorted(
            set(extents) - old
        )
