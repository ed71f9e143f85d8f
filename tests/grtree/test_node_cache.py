"""GR-tree nodes decoded in the buffer pool: coherence and cursors.

The pool keeps each resident page's decoded node
(:meth:`~repro.storage.buffer.BufferPool.read_decoded`); that must be
invisible except for speed.  Every scenario here demands the answers and
I/O of the page bytes, including the hard cases -- condense under an
open cursor, crash-style buffer invalidation, page-id recycling after a
condense, and eviction pressure.  The same cases for all five structures
are in ``tests/storage/test_decoded_pages.py``.
"""

import random

from repro.grtree.node import GRNodeStore
from repro.grtree.tree import GRTree
from repro.storage.buffer import BufferPool
from repro.storage.pages import InMemoryPageStore
from repro.temporal.chronon import Clock
from repro.temporal.extent import TimeExtent
from repro.temporal.variables import NOW, UC


class DecodeEveryRead(GRNodeStore):
    """A store that decodes the page bytes on every read."""

    def read(self, page_id):
        return self.decode(page_id, self.buffer.read(page_id))


def make_tree(page_size=512, now=100, capacity=64, store_class=GRNodeStore):
    clock = Clock(now=now)
    pool = BufferPool(InMemoryPageStore(page_size=page_size), capacity=capacity)
    store = store_class(pool)
    return GRTree.create(store, clock), clock, pool, store


def extent(vt_begin, vt_end=NOW):
    return TimeExtent(100, UC, vt_begin, vt_end)


QUERY = TimeExtent(100, UC, 100, NOW)


class TestCacheCounters:
    def test_warm_reads_hit_the_cache(self):
        tree, clock, pool, store = make_tree()
        for i in range(200):
            tree.insert(extent(90 - (i % 7)), rowid=i)
        pool.decode_hits = pool.decodes = 0
        first = tree.search_all(QUERY)
        second = tree.search_all(QUERY)
        assert first == second
        assert len(first) == 200
        # The tree fits the pool and every write installed its node, so
        # the whole traversal is warm: no decodes, plenty of hits.
        assert pool.decodes == 0
        assert pool.decode_hits > 0

    def test_eviction_respects_bound(self):
        tree, clock, pool, store = make_tree(capacity=2)
        for i in range(300):
            tree.insert(extent(90 - (i % 11)), rowid=i)
        assert pool.resident_pages <= 2
        assert pool.decodes > 0
        # Correctness under heavy eviction: results match a twin whose
        # pool holds the whole tree.
        twin, _, _, _ = make_tree()
        for i in range(300):
            twin.insert(extent(90 - (i % 11)), rowid=i)
        assert tree.search_all(QUERY) == twin.search_all(QUERY)
        tree.check()

    def test_io_stats_identical_with_and_without_cache(self):
        """Decoded nodes remove deserialization, not page accesses:
        logical/physical read counts must be identical to a store that
        decodes every read."""
        runs = {}
        for store_class in (DecodeEveryRead, GRNodeStore):
            tree, clock, pool, store = make_tree(capacity=8, store_class=store_class)
            rng = random.Random(7)
            for i in range(250):
                tree.insert(extent(60 + rng.randint(0, 40)), rowid=i)
            pool.stats.reset()
            results = tree.search_all(QUERY)
            runs[store_class] = (results, pool.stats.to_dict())
        assert runs[DecodeEveryRead] == runs[GRNodeStore]


class TestWriteThrough:
    def test_write_updates_cached_node(self):
        tree, clock, pool, store = make_tree()
        tree.insert(extent(90), rowid=1)
        before = tree.search_all(QUERY)
        tree.insert(extent(90), rowid=2)
        after = tree.search_all(QUERY)
        assert [r for r, _ in before] == [1]
        assert sorted(r for r, _ in after) == [1, 2]

    def test_delete_and_condense_stay_coherent(self):
        tree, clock, pool, store = make_tree(page_size=512)
        rng = random.Random(3)
        live = {}
        for i in range(400):
            e = extent(60 + rng.randint(0, 40))
            tree.insert(e, rowid=i)
            live[i] = e
        for rowid in list(live)[::2]:
            assert tree.delete(live[rowid], rowid)
            del live[rowid]
        got = sorted(r for r, _ in tree.search_all(QUERY))
        assert got == sorted(live)
        tree.check()


class TestCursorOverCache:
    def test_condense_under_cursor_retrieve_and_delete(self):
        """Section 5.5: a retrieve-and-delete loop over a condensing
        tree must neither repeat nor miss entries -- with decoded nodes
        shared, the restarted cursor must see post-condense nodes, not
        pre-condense ones."""
        tree, clock, pool, store = make_tree(page_size=512)
        total = 300
        for i in range(total):
            tree.insert(extent(60 + (i % 40)), rowid=i)
        cursor = tree.search(QUERY)
        deleted = []
        while True:
            entry = cursor.next()
            if entry is None:
                break
            assert tree.delete(entry.extent(), entry.rowid, entry.fragid)
            deleted.append(entry.rowid)
        assert sorted(deleted) == list(range(total))
        assert len(deleted) == len(set(deleted))  # no repeats
        assert tree.search_all(QUERY) == []
        assert tree.size == 0
        tree.check()

    def test_crash_invalidate_discards_cached_nodes(self):
        """After flush + invalidate (crash simulation) the store must
        serve the *flushed* state -- unflushed inserts must vanish from
        decoded reads exactly as they vanish from the page level."""
        tree, clock, pool, store = make_tree()
        for i in range(100):
            tree.insert(extent(90), rowid=i)
        tree.flush()
        flushed_pages = set(pool.store.snapshot())
        for i in range(100, 140):
            tree.insert(extent(90), rowid=i)  # never flushed
        pool.invalidate()  # crash: frames and their decoded nodes dropped
        assert pool.resident_pages == 0
        reopened = GRTree.open(store, clock, tree.meta_page)
        got = sorted(r for r, _ in reopened.search_all(QUERY))
        assert got == list(range(100))
        # Without a log the pages the lost splits allocated stay
        # allocated: the walker reports exactly that leak, nothing else.
        leaked = sorted(set(pool.store.snapshot()) - flushed_pages)
        assert leaked
        assert reopened.violations() == [
            f"orphan pages not reachable from root: {leaked}"
        ]

    def test_recycled_page_after_condense_not_served_stale(self):
        """Condense frees pages; a later split may recycle their ids.
        The pool must never serve the freed node under the new id."""
        tree, clock, pool, store = make_tree(page_size=512)
        rng = random.Random(11)
        live = {}
        next_rowid = 0
        for _ in range(6):
            for _ in range(150):
                e = extent(60 + rng.randint(0, 40))
                tree.insert(e, rowid=next_rowid)
                live[next_rowid] = e
                next_rowid += 1
            victims = rng.sample(sorted(live), k=120)
            for rowid in victims:
                assert tree.delete(live.pop(rowid), rowid)
            got = sorted(r for r, _ in tree.search_all(QUERY))
            assert got == sorted(live)
            tree.check()
