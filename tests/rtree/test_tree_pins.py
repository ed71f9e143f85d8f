"""Pinned outputs of the four dynamic trees: R*, Guttman, GR-tree, GiST.

Each test drives one tree through a seeded workload that forces node
splits, forced reinsertions (where the tree does them), condensation
and root shrink, then compares what it produced against constants
recorded from a known-good build:

* the sha256 of every live page of the page store;
* ``(root_id, height, size)``;
* the buffer pool's logical and physical reads and writes;
* the answers of a batch of searches;
* the outcome of ``check()`` on the healthy tree and after its recorded
  size is corrupted.

Each test also asserts that no node write left its page's bytes as they
were: AdjustTree writes an ancestor only when its entry changed.

The byte-identity suites elsewhere compare two code paths of the same
build; these constants catch a change that moves both paths at once
(a different split decision, page allocation order or buffer access
pattern).  A deliberate change of tree behaviour re-records them.
"""

import hashlib
import random
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.gist.extensions import (
    Interval,
    IntervalExtension,
    IntervalQuery,
    RectExtension,
    RectQuery,
)
from repro.gist.tree import GiST, GistNodeStore
from repro.grtree.entries import Predicate
from repro.grtree.node import GRNodeStore
from repro.grtree.tree import GRTree
from repro.rtree.geometry import Rect
from repro.rtree.guttman import GuttmanRTree
from repro.rtree.node import NodeStore
from repro.rtree.rstar import RStarTree
from repro.storage.buffer import BufferPool
from repro.storage.pages import InMemoryPageStore
from repro.temporal.chronon import Clock
from repro.temporal.extent import TimeExtent
from repro.temporal.variables import NOW, UC

from tests.kernels import assert_kernels, assert_scalar, scalar_path


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _pages(store: InMemoryPageStore) -> str:
    digest = hashlib.sha256()
    for page_id, data in sorted(store.snapshot().items()):
        digest.update(page_id.to_bytes(8, "little"))
        digest.update(data)
    return digest.hexdigest()[:16]


@contextmanager
def _idle_node_writes():
    """Collect the page ids of node writes whose bytes equal the page's."""
    idle = []
    write = BufferPool.write

    def recording(pool, page_id, data, decoded=None):
        if decoded is not None:
            frame = pool._frames.get(page_id)
            old = frame[0] if frame else pool.store.read_page(page_id)
            if pool.store._check_data(data) == old:
                idle.append(page_id)
        write(pool, page_id, data, decoded)

    with mock.patch.object(BufferPool, "write", recording):
        yield idle


def _check_outcome(tree) -> str:
    try:
        tree.check()
    except AssertionError:
        return "AssertionError"
    return "ok"


def _record(tree, pool, answers) -> dict:
    stats = pool.stats
    io = (
        stats.logical_reads,
        stats.logical_writes,
        stats.physical_reads,
        stats.physical_writes,
    )
    pool.flush()
    record = {
        "pages": _pages(pool.store),
        "shape": (tree.root_id, tree.height, tree.size),
        "io": io,
        "answers": _sha(answers),
        "check": _check_outcome(tree),
    }
    tree.size += 1
    record["corrupt_check"] = _check_outcome(tree)
    tree.size -= 1
    return record


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def _rect(rng, extent=1000.0, side=25.0) -> Rect:
    x, y = rng.uniform(0, extent), rng.uniform(0, extent)
    return Rect.of(x, x + rng.uniform(0, side), y, y + rng.uniform(0, side))


def _spatial_workload(tree, rng, make_key):
    """Insert 600 keys with interleaved deletes, then delete all but 12
    (condensation all the way down to a shrunk root)."""
    live = {}
    next_id = 0
    for _ in range(900):
        if live and rng.random() < 0.3:
            rowid = rng.choice(sorted(live))
            assert tree.delete(live.pop(rowid), rowid)
        else:
            live[next_id] = make_key(rng)
            tree.insert(live[next_id], next_id)
            next_id += 1
    peak_height = tree.height
    for rowid in sorted(live)[12:]:
        assert tree.delete(live.pop(rowid), rowid)
    assert tree.height < peak_height, "the workload must shrink the root"
    return live


def _rtree_record(cls) -> dict:
    rng = random.Random(2024)
    pool = BufferPool(InMemoryPageStore(page_size=512), capacity=12)
    tree = cls(NodeStore(pool, ndim=2))
    queries = [_rect(rng, side=200.0) for _ in range(20)]
    answers = []
    # Grow once without the final purge to search a tall tree too.
    live = {}
    for rowid in range(300):
        live[rowid] = _rect(rng)
        tree.insert(live[rowid], rowid)
    answers.append([sorted(tree.search(q)) for q in queries])
    for rowid in sorted(live):
        assert tree.delete(live[rowid], rowid)
    _spatial_workload(tree, rng, _rect)
    answers.append([sorted(tree.search(q)) for q in queries])
    return _record(tree, pool, answers)


def _gist_record(extension, make_key, queries) -> dict:
    rng = random.Random(77)
    pool = BufferPool(InMemoryPageStore(page_size=256), capacity=12)
    tree = GiST(GistNodeStore(pool, extension))
    _spatial_workload(tree, rng, make_key)
    answers = [sorted(tree.search(q)) for q in queries]
    return _record(tree, pool, answers)


def _interval(rng) -> Interval:
    value = float(rng.randint(0, 5000))
    return Interval(value, value)


def _extent(rng, now: int) -> TimeExtent:
    if rng.random() < 0.5:
        return TimeExtent(now, UC, max(0, now - rng.randint(0, 40)), NOW)
    vt_begin = max(0, now + rng.randint(-40, 15))
    return TimeExtent(now, UC, vt_begin, vt_begin + rng.randint(0, 30))


def _grtree_record() -> tuple:
    """The GR-tree's record, and its kernel bundle's counters."""
    rng = random.Random(1999)
    clock = Clock(now=100)
    pool = BufferPool(InMemoryPageStore(page_size=512), capacity=12)
    store = GRNodeStore(pool)
    tree = GRTree.create(store, clock, time_horizon=20)
    live = {}
    frozen = {}
    next_id = 0
    for _ in range(700):
        roll = rng.random()
        if live and roll < 0.2:
            # Logical deletion: freeze transaction time (delete + insert).
            rowid = rng.choice(sorted(live))
            old = live.pop(rowid)
            if clock.now <= old.tt_begin:
                clock.advance(1)
            assert tree.delete(old, rowid)
            frozen[rowid] = old.logically_deleted(clock.now)
            tree.insert(frozen[rowid], rowid)
        elif frozen and roll < 0.3:
            # Physical removal of a frozen entry.
            rowid = rng.choice(sorted(frozen))
            assert tree.delete(frozen.pop(rowid), rowid)
        else:
            live[next_id] = _extent(rng, clock.now)
            tree.insert(live[next_id], next_id)
            next_id += 1
        if rng.random() < 0.25:
            clock.advance(1)
    queries = []
    for _ in range(8):
        tt = rng.randint(90, clock.now)
        vt = rng.randint(60, clock.now)
        queries.append(TimeExtent(tt, tt + 15, vt, vt + 15))
    queries.append(TimeExtent(clock.now, UC, clock.now, NOW))
    answers = [
        [sorted(tree.search_all(q, predicate)) for q in queries]
        for predicate in Predicate
    ]
    peak_height = tree.height
    survivors = {**live, **frozen}
    for rowid in sorted(survivors)[10:]:
        assert tree.delete(survivors[rowid], rowid)
    assert tree.height < peak_height, "the workload must shrink the root"
    answers.append([sorted(tree.search_all(q)) for q in queries])
    tree.save_meta()  # the one meta-page write of the whole workload
    return _record(tree, pool, answers), tree.spec.stats


# ----------------------------------------------------------------------
# Recorded constants
# ----------------------------------------------------------------------

EXPECTED = {
    "rstar": {
        "pages": "56cfc92a7bc487b9",
        "shape": (27, 2, 12),
        "io": (8676, 4746, 1229, 1187),
        "answers": "1c5abfb8090df311",
        "check": "ok",
        "corrupt_check": "AssertionError",
    },
    "guttman": {
        "pages": "72d233c655c550e2",
        "shape": (41, 2, 12),
        "io": (7738, 3933, 1269, 1198),
        "answers": "1c5abfb8090df311",
        "check": "ok",
        "corrupt_check": "AssertionError",
    },
    "grtree": {
        "pages": "4365f16b9ae05ca5",
        "shape": (11, 1, 10),
        "io": (8811, 2691, 2157, 562),
        "answers": "e974f173747f6d74",
        "check": "ok",
        "corrupt_check": "AssertionError",
    },
    "gist_rect": {
        "pages": "12e8d4e7a3d8ae15",
        "shape": (141, 2, 12),
        "io": (6991, 3382, 2744, 2222),
        "answers": "c90973d478a70ed9",
        "check": "ok",
        "corrupt_check": "AssertionError",
    },
    "gist_interval": {
        "pages": "9e800048724da09b",
        "shape": (66, 2, 12),
        "io": (5014, 2100, 1296, 1147),
        "answers": "49bc626c83a38b16",
        "check": "ok",
        "corrupt_check": "AssertionError",
    },
}


def _rect_queries():
    rng = random.Random(5)
    return [RectQuery("overlap", _rect(rng, side=250.0)) for _ in range(15)]


def _interval_queries():
    return [
        IntervalQuery("between", float(lo), float(lo + 400))
        for lo in range(0, 5000, 350)
    ]


def test_rstar_tree_is_pinned():
    with _idle_node_writes() as idle:
        assert _rtree_record(RStarTree) == EXPECTED["rstar"]
    assert idle == []


def test_guttman_tree_is_pinned():
    with _idle_node_writes() as idle:
        assert _rtree_record(GuttmanRTree) == EXPECTED["guttman"]
    assert idle == []


@pytest.mark.parametrize("spec", [True, False], ids=["spec", "generic"])
def test_grtree_is_pinned(spec):
    """The kernels never change a byte or an I/O."""
    with _idle_node_writes() as idle:
        if spec:
            record, stats = _grtree_record()
            assert_kernels(stats)
        else:
            with scalar_path():
                record, stats = _grtree_record()
            assert_scalar(stats)
    assert record == EXPECTED["grtree"]
    assert idle == []


def test_gist_rect_tree_is_pinned():
    with _idle_node_writes() as idle:
        record = _gist_record(RectExtension(), _rect, _rect_queries())
    assert record == EXPECTED["gist_rect"]
    assert idle == []


def test_gist_interval_tree_is_pinned():
    with _idle_node_writes() as idle:
        record = _gist_record(IntervalExtension(), _interval, _interval_queries())
    assert record == EXPECTED["gist_interval"]
    assert idle == []
