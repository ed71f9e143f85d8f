"""The buffer pool's decoded pages stay equal to the page bytes.

Every structure reads its pages through
:meth:`~repro.storage.buffer.BufferPool.read_decoded`: the GR-tree, the
R*-tree, the GiST, the B+-tree and the hash directory's buckets.  Each
case changes the bytes under a structure in one of the ways this engine
does, then checks that what a read returns decodes from the new bytes:

* a freed page id that gets recycled;
* ``invalidate()`` after a partial flush (a crash drops unflushed
  frames);
* a mutating path that raises before its write;
* ``ROLLBACK WORK`` through SQL, which restores sbspace pages.

The GR-tree's condense under an open cursor is in
``tests/grtree/test_node_cache.py``, the ``hblade.tree_write`` fault
inside ``BEGIN WORK`` in ``tests/datablade/test_decoded_nodes.py``.
"""

from dataclasses import dataclass, field
from typing import Callable, List

import pytest

from repro.btree.node import BTreeEntry, BTreeNodeStore
from repro.btree.tree import BPlusTree
from repro.gist.extensions import RectExtension
from repro.gist.tree import GiST, GistEntry, GistNodeStore
from repro.grtree.entries import GREntry
from repro.grtree.node import GRNodeStore
from repro.grtree.tree import GRTree
from repro.hblade.directory import HashDirectory, _decode_bucket, fnv1a
from repro.rtree.geometry import Rect
from repro.rtree.node import Entry, NodeStore
from repro.rtree.rstar import RStarTree
from repro.server import DatabaseServer
from repro.server.optimizer import IndexScanPlan, SeqScanPlan
from repro.storage.buffer import BufferPool, own
from repro.storage.pages import InMemoryPageStore
from repro.temporal.chronon import Clock
from repro.temporal.extent import TimeExtent
from repro.temporal.variables import NOW, UC
from tests.datablade.test_blade_contract import ACCESS_METHODS


def extent(i: int) -> TimeExtent:
    return TimeExtent(100, UC, 50 + i % 40, NOW)


def rect(i: int) -> Rect:
    return Rect((i, i % 7), (i + 2, i % 7 + 3))


def key(i: int) -> bytes:
    return str(i).encode()


def natural(a: bytes, b: bytes) -> int:
    x, y = int(a), int(b)
    return (x > y) - (x < y)


@dataclass
class Bucket:
    page_id: int
    entries: list = field(default_factory=list)


class BucketStore:
    """The hash directory's bucket pages behind the node-store calls."""

    def __init__(self, directory: HashDirectory) -> None:
        self.directory = directory
        self.buffer = directory.pool

    def allocate(self, leaf: bool = True) -> Bucket:
        return Bucket(self.buffer.allocate())

    def write(self, bucket: Bucket) -> None:
        self.directory._write_bucket(bucket.page_id, bucket.entries, -1)

    def read(self, page_id: int):
        return self.directory._read_bucket(page_id)

    def free(self, page_id: int) -> None:
        self.buffer.free(page_id)


@dataclass
class Structure:
    """One structure over one pool, seen through its node store."""

    store: object
    entry: Callable[[int], object]
    decode: Callable[[int, bytes], object]
    insert: Callable[[int], None]
    delete: Callable[[int], object]
    pages: Callable[[], List[int]]


def tree_pages(tree) -> Callable[[], List[int]]:
    return lambda: [node.page_id for node in tree.iter_nodes()]


def grtree(pool) -> Structure:
    store = GRNodeStore(pool)
    tree = GRTree(store, Clock(now=100))
    return Structure(
        store, lambda i: GREntry.from_extent(extent(i), i), store.decode,
        lambda i: tree.insert(extent(i), i), lambda i: tree.delete(extent(i), i),
        tree_pages(tree),
    )


def rstar(pool) -> Structure:
    store = NodeStore(pool)
    tree = RStarTree(store)
    return Structure(
        store, lambda i: Entry(rect(i), rowid=i), store.decode,
        lambda i: tree.insert(rect(i), i), lambda i: tree.delete(rect(i), i),
        tree_pages(tree),
    )


def gist(pool) -> Structure:
    store = GistNodeStore(pool, RectExtension())
    tree = GiST(store)
    return Structure(
        store, lambda i: GistEntry(rect(i), rowid=i), store.decode,
        lambda i: tree.insert(rect(i), i), lambda i: tree.delete(rect(i), i),
        tree_pages(tree),
    )


def btree(pool) -> Structure:
    store = BTreeNodeStore(pool)
    tree = BPlusTree(store, natural)

    def pages() -> List[int]:
        found, stack = [], [tree.root_id]
        while stack:
            node = store.read(stack.pop())
            found.append(node.page_id)
            if not node.leaf:
                stack += [node.leftmost] + [e.child for e in node.entries]
        return found

    return Structure(
        store, lambda i: BTreeEntry(key(i), rowid=i), store._decode,
        lambda i: tree.insert(key(i), i), lambda i: tree.delete(key(i), i),
        pages,
    )


def hash_directory(pool) -> Structure:
    directory = HashDirectory.create(pool, fnv1a)
    store = BucketStore(directory)

    def pages() -> List[int]:
        found = []
        for page_id in directory.bucket_pages:
            while page_id != -1:
                found.append(page_id)
                page_id = directory._read_bucket(page_id)[1]
        return found

    return Structure(
        store, lambda i: (key(i), i, 0), _decode_bucket,
        lambda i: directory.insert(key(i), i), lambda i: directory.delete(key(i), i),
        pages,
    )


STRUCTURES = {
    "grtree": grtree,
    "rstar": rstar,
    "gist": gist,
    "btree": btree,
    "hash": hash_directory,
}

_FIELDS = (
    "leaf", "level", "next_leaf", "leftmost", "key", "rect", "rowid", "fragid",
    "child", "tt_begin", "tt_end", "vt_begin", "vt_end", "rectangle", "hidden",
)


def content(value):
    """A node (or bucket) as plain values: what its page encodes."""
    if isinstance(value, (tuple, list)):
        return [content(item) for item in value]
    if isinstance(value, (bytes, int, float)):
        return value
    fields = [getattr(value, name) for name in _FIELDS if hasattr(value, name)]
    entries = getattr(value, "entries", None)
    return fields + ([content(entries)] if entries is not None else [])


def entries(value) -> list:
    return value[0] if isinstance(value, tuple) else value.entries


def assert_reads_equal_pages(structure: Structure, page_ids) -> None:
    pool = structure.store.buffer
    for page_id in page_ids:
        shared = structure.store.read(page_id)
        fresh = structure.decode(page_id, pool.read(page_id))
        assert content(shared) == content(fresh), page_id


def make(name: str, capacity: int = 64) -> Structure:
    return STRUCTURES[name](BufferPool(InMemoryPageStore(page_size=512), capacity))


NAMES = sorted(STRUCTURES)


# ----------------------------------------------------------------------
# Store level
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_reads_share_one_decoded_object_per_load(name):
    structure = make(name)
    store, pool = structure.store, structure.store.buffer
    node = store.allocate(leaf=True)
    node.entries = [structure.entry(i) for i in range(3)]
    store.write(node)
    pool.decode_hits = pool.decodes = 0
    logical = pool.stats.logical_reads
    first, second = store.read(node.page_id), store.read(node.page_id)
    assert first is second
    assert (pool.decodes, pool.decode_hits) == (0, 2)  # the write installed it
    assert pool.stats.logical_reads == logical + 2
    pool.flush()
    pool.invalidate()
    third = store.read(node.page_id)
    assert third is not first and third is store.read(node.page_id)
    assert (pool.decodes, pool.decode_hits) == (1, 3)
    assert len(entries(third)) == 3


@pytest.mark.parametrize("name", NAMES)
def test_recycled_page_id_reads_the_new_page(name):
    structure = make(name, capacity=4)
    store = structure.store
    node = store.allocate(leaf=True)
    node.entries = [structure.entry(i) for i in range(3)]
    store.write(node)
    assert len(entries(store.read(node.page_id))) == 3
    store.free(node.page_id)
    again = store.allocate(leaf=True)
    assert again.page_id == node.page_id
    # Allocated but not yet written: a zeroed page, not the old node.
    assert entries(store.read(again.page_id)) == []
    again.entries = [structure.entry(7)]
    store.write(again)
    assert len(entries(store.read(again.page_id))) == 1
    assert_reads_equal_pages(structure, [again.page_id])


@pytest.mark.parametrize("name", NAMES)
def test_invalidate_after_a_partial_flush(name):
    structure = make(name, capacity=4)
    store, pool = structure.store, structure.store.buffer
    node = store.allocate(leaf=True)
    node.entries = [structure.entry(1)]
    store.write(node)
    pool.flush()
    node = own(node)
    node.entries.append(structure.entry(2))
    store.write(node)
    assert len(entries(store.read(node.page_id))) == 2
    pool.invalidate()
    assert len(entries(store.read(node.page_id))) == 1
    assert_reads_equal_pages(structure, [node.page_id])


@pytest.mark.parametrize("op", ["insert", "delete"])
@pytest.mark.parametrize("name", NAMES)
def test_mutating_path_that_raises_leaves_reads_equal_to_pages(
    name, op, monkeypatch
):
    structure = make(name)
    for i in range(80):
        structure.insert(i)
    pages = structure.pages()
    assert len(pages) > 3
    before = {page_id: content(structure.store.read(page_id)) for page_id in pages}

    def refuse(*args, **kwargs):
        raise RuntimeError("write refused")

    monkeypatch.setattr(structure.store.buffer, "write", refuse)
    with pytest.raises(RuntimeError, match="write refused"):
        if op == "insert":
            structure.insert(500)
        else:
            structure.delete(40)
    monkeypatch.undo()
    # A condense may free a page before its first write; the rest stay.
    pages = [p for p in pages if p in structure.store.buffer.store.snapshot()]
    assert {p: content(structure.store.read(p)) for p in pages} == {
        p: before[p] for p in pages
    }
    assert_reads_equal_pages(structure, pages)


# ----------------------------------------------------------------------
# Through SQL
# ----------------------------------------------------------------------


def make_server(am: str):
    """``t`` indexed by *am*, ``s`` unindexed, the same committed rows,
    over pools too small for the index."""
    register, column_type, values, _ = ACCESS_METHODS[am]
    server = DatabaseServer(clock=Clock(now=100), page_size=256, buffer_capacity=6)
    server.create_sbspace("spc")
    register(server)
    server.prefer_virtual_index = True
    for table in ("t", "s"):
        server.execute(f"CREATE TABLE {table} (name LVARCHAR, c {column_type})")
    server.execute(f"CREATE INDEX ti ON t(c) USING {am} IN spc")
    for i in range(90):
        for table in ("t", "s"):
            server.execute(
                f"INSERT INTO {table} VALUES ('r{i}', {values[i % len(values)]})"
            )
    return server


def assert_agrees_with_seqscan(server, am: str) -> None:
    predicate = ACCESS_METHODS[am][3]
    bags = {}
    for table, plan in (("t", IndexScanPlan), ("s", SeqScanPlan)):
        rows = server.execute(f"SELECT name FROM {table} WHERE {predicate}")
        assert isinstance(server.last_plan, plan), table
        bags[table] = sorted(row["name"] for row in rows)
    assert bags["t"] == bags["s"]
    assert "consistent" in server.execute("CHECK INDEX ti")


@pytest.mark.parametrize("am", sorted(ACCESS_METHODS))
def test_rollback_restores_pages_under_read_nodes(am):
    server = make_server(am)
    values = ACCESS_METHODS[am][2]
    assert_agrees_with_seqscan(server, am)
    server.execute("BEGIN WORK")
    # Heap inserts survive a rollback; the index entries do not, so the
    # rolled-back rows are never reached through the index.
    for i in range(40):
        server.execute(f"INSERT INTO t VALUES ('x{i}', {values[i % len(values)]})")
    server.execute("ROLLBACK WORK")
    assert_agrees_with_seqscan(server, am)
