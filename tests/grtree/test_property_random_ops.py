"""Randomized insert/delete/search runs checked against a naive oracle.

The oracle is a plain dict of live ``rowid -> TimeExtent``.  After every
batch of operations the tree must agree with it on several search
queries (computed geometrically, entry by entry, with no tree code
involved) and pass the full structural verification from
``repro.grtree.check`` -- the same verifier the crash harness trusts,
here exercised on trees that never crashed.

Plain seeded ``random`` rather than hypothesis: these runs are long
(hundreds of mutations), and a failing seed must replay exactly.
"""

import random

import pytest

from repro.grtree import verify_tree
from repro.grtree.entries import GREntry, Predicate
from repro.grtree.node import GRNodeStore
from repro.grtree.tree import GRTree
from repro.storage.buffer import BufferPool
from repro.storage.pages import InMemoryPageStore
from repro.temporal.chronon import Clock
from repro.temporal.extent import TimeExtent
from repro.temporal.variables import NOW, UC

NOW_BASE = 100


def make_tree(now=NOW_BASE, capacity=16):
    clock = Clock(now=now)
    pool = BufferPool(InMemoryPageStore(2048), capacity=capacity)
    return GRTree.create(GRNodeStore(pool), clock), clock


def random_extent(rng, now):
    """An insertable bitemporal extent around the current time."""
    tt_begin = rng.randint(now - 40, now)
    tt_end = UC if rng.random() < 0.5 else rng.randint(tt_begin, now)
    if rng.random() < 0.5:
        vt_begin = rng.randint(0, tt_begin)
        vt_end = NOW
    else:
        vt_begin = rng.randint(0, 160)
        vt_end = rng.randint(vt_begin, vt_begin + 60)
    return TimeExtent(tt_begin, tt_end, vt_begin, vt_end)


def oracle_search(oracle, query, now):
    """Expected rowids, computed geometrically with no tree involved."""
    region = query.region(now)
    expected = set()
    for rowid, extent in oracle.items():
        entry = GREntry.from_extent(extent, rowid=rowid)
        if region.overlaps(entry.region(now)):
            expected.add(rowid)
    return expected


def check_against_oracle(tree, oracle, rng, now):
    queries = [random_extent(rng, now) for _ in range(4)]
    # A wide query that must return everything alive.
    queries.append(TimeExtent(now - 40, UC, 0, NOW))
    for query in queries:
        got = {rowid for rowid, _ in tree.search_all(query, Predicate.OVERLAPS)}
        assert got == oracle_search(oracle, query, now), (
            f"tree disagrees with oracle on query {query}"
        )
    assert tree.size == len(oracle)
    verify_tree(tree)


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_random_inserts_and_deletes_agree_with_oracle(seed):
    rng = random.Random(seed)
    tree, clock = make_tree()
    oracle = {}
    next_rowid = 0
    for batch in range(6):
        for _ in range(50):
            # Deletions build up to ~40% of operations once the tree has
            # content, so condense/underflow paths run too.
            if oracle and rng.random() < 0.4:
                rowid = rng.choice(sorted(oracle))
                assert tree.delete(oracle.pop(rowid), rowid)
            else:
                extent = random_extent(rng, clock.now)
                tree.insert(extent, rowid=next_rowid)
                oracle[next_rowid] = extent
                next_rowid += 1
        check_against_oracle(tree, oracle, rng, clock.now)


def test_delete_everything_then_rebuild():
    rng = random.Random(7)
    tree, clock = make_tree()
    oracle = {}
    for rowid in range(120):
        extent = random_extent(rng, clock.now)
        tree.insert(extent, rowid=rowid)
        oracle[rowid] = extent
    check_against_oracle(tree, oracle, rng, clock.now)
    for rowid in sorted(oracle, key=lambda r: (r * 37) % 120):
        assert tree.delete(oracle.pop(rowid), rowid)
    assert tree.size == 0
    verify_tree(tree)
    # The emptied tree accepts a fresh generation.
    for rowid in range(200, 260):
        extent = random_extent(rng, clock.now)
        tree.insert(extent, rowid=rowid)
        oracle[rowid] = extent
    check_against_oracle(tree, oracle, rng, clock.now)


def test_advancing_clock_between_batches():
    """NOW/UC-relative entries grow as time passes; the oracle and the
    verifier must track the tree across clock advances."""
    rng = random.Random(31)
    tree, clock = make_tree()
    oracle = {}
    next_rowid = 0
    for batch in range(4):
        for _ in range(40):
            extent = random_extent(rng, clock.now)
            tree.insert(extent, rowid=next_rowid)
            oracle[next_rowid] = extent
            next_rowid += 1
        check_against_oracle(tree, oracle, rng, clock.now)
        clock.advance(5)
    check_against_oracle(tree, oracle, rng, clock.now)
