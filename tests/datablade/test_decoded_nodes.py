"""Decoded B+-tree nodes stay coherent with the pages under them.

The buffer pool keeps each resident page's decoded node and hands the
same object to every reader; a path that changes a node changes a copy
(:func:`~repro.storage.buffer.own`).  Each test changes the bytes under
a B+-tree or hybrid index in one of the ways that happen in this engine,
then checks that what is read afterwards is the new state:

* a freed page id that gets recycled;
* ``BufferPool.invalidate()`` (a crash drops unflushed frames);
* ``ROLLBACK WORK``, which restores sbspace pages and bumps the storage
  epoch;
* a hybrid INSERT failing between its hash and tree writes
  (``SET FAULT 'hblade.tree_write' RAISE``) inside ``BEGIN WORK``, then
  rolled back.

Through SQL, answers must equal a seqscan's over an unindexed table that
holds the committed rows, and ``CHECK INDEX`` must be clean.  The
store-level cases for all five structures, and ``ROLLBACK WORK`` for all
five access methods, are in ``tests/storage/test_decoded_pages.py``.
"""

import random

import pytest

from repro.bblade import register_btree_blade
from repro.btree.node import BTreeEntry, BTreeNodeStore
from repro.btree.tree import BPlusTree
from repro.faults import FaultInjected
from repro.hblade import register_hybrid_blade
from repro.server import DatabaseServer
from repro.server.optimizer import IndexScanPlan, SeqScanPlan
from repro.storage.buffer import BufferPool, own
from repro.storage.pages import InMemoryPageStore


def natural(a: bytes, b: bytes) -> int:
    x, y = int(a), int(b)
    return (x > y) - (x < y)


def key(value: int) -> bytes:
    return str(value).encode()


def keys(node) -> list:
    return [int(entry.key) for entry in node.entries]


# ----------------------------------------------------------------------
# The store and the tree
# ----------------------------------------------------------------------


def test_reads_hand_out_independent_entry_lists():
    """Reads share one decoded node; a writer's copy has its own list."""
    store = BTreeNodeStore(BufferPool(InMemoryPageStore(page_size=256)))
    node = store.allocate(leaf=True)
    node.entries = [BTreeEntry(key(i), rowid=i) for i in range(3)]
    store.write(node)
    first, second = store.read(node.page_id), store.read(node.page_id)
    assert first is second
    mine = own(first)
    mine.entries.append(BTreeEntry(key(9), rowid=9))
    del mine.entries[0]
    assert keys(second) == keys(store.read(node.page_id)) == [0, 1, 2]


def test_recycled_page_id_reads_the_new_page():
    pool = BufferPool(InMemoryPageStore(page_size=256), capacity=4)
    store = BTreeNodeStore(pool)
    node = store.allocate(leaf=True)
    node.entries = [BTreeEntry(key(i), rowid=i) for i in range(3)]
    store.write(node)
    assert keys(store.read(node.page_id)) == [0, 1, 2]
    store.free(node.page_id)
    again = store.allocate(leaf=True)
    assert again.page_id == node.page_id
    # Allocated but not yet written: a zeroed page, not the old node.
    assert store.read(again.page_id).entries == []
    again.entries = [BTreeEntry(key(7), rowid=7)]
    store.write(again)
    assert keys(store.read(again.page_id)) == [7]


def test_tree_recycles_the_page_its_root_shrink_freed():
    store = InMemoryPageStore(page_size=128)
    tree = BPlusTree(BTreeNodeStore(BufferPool(store, capacity=4)), natural)
    live = {}
    for rowid in range(60):
        live[rowid] = rowid % 25
        tree.insert(key(live[rowid]), rowid)
    # An empty internal level over the root; the next delete frees it.
    root = tree.store.allocate(leaf=False)
    root.leftmost = tree.root_id
    tree.store.write(root)
    tree.root_id, tree.height = root.page_id, tree.height + 1
    assert tree.delete(key(live.pop(0)), 0)
    assert root.page_id not in store.snapshot()
    rng = random.Random(3)
    for rowid in range(60, 200):
        live[rowid] = rng.randint(0, 40)
        tree.insert(key(live[rowid]), rowid)
    assert root.page_id in store.snapshot(), "the freed id was not recycled"
    tree.check()
    for low, high in ((0, 40), (10, 10), (5, 17)):
        got = sorted(r for _, r, _ in tree.search_range(key(low), key(high)))
        assert got == sorted(r for r, k in live.items() if low <= k <= high)


def test_invalidate_drops_decoded_nodes_of_unflushed_pages():
    pool = BufferPool(InMemoryPageStore(page_size=256), capacity=4)
    store = BTreeNodeStore(pool)
    node = store.allocate(leaf=True)
    node.entries = [BTreeEntry(key(1), rowid=1)]
    store.write(node)
    pool.flush()
    node.entries.append(BTreeEntry(key(2), rowid=2))
    store.write(node)
    assert keys(store.read(node.page_id)) == [1, 2]
    pool.invalidate()
    assert keys(store.read(node.page_id)) == [1]


# ----------------------------------------------------------------------
# Through SQL
# ----------------------------------------------------------------------

QUERIES = ("k = 5", "k = 600", "k >= 10 AND k < 20", "k > 25", "k <= 3")


def make_server(am: str):
    """``t`` indexed by *am*, ``s`` unindexed, the same committed rows."""
    server = DatabaseServer(page_size=256, buffer_capacity=6)
    server.create_sbspace("spc")
    register_btree_blade(server)
    register_hybrid_blade(server)
    server.prefer_virtual_index = True
    for table in ("t", "s"):
        server.execute(f"CREATE TABLE {table} (k INTEGER, v LVARCHAR)")
    server.execute(f"CREATE INDEX ti ON t(k) USING {am} IN spc")
    for i in range(200):
        both(server, f"INSERT INTO {{t}} VALUES ({i % 30}, 'r{i}')")
    return server


def both(server, template: str) -> None:
    for table in ("t", "s"):
        server.execute(template.format(t=table))


def assert_agrees_with_seqscan(server) -> None:
    for where in QUERIES:
        bags = {}
        for table, plan in (("t", IndexScanPlan), ("s", SeqScanPlan)):
            rows = server.execute(f"SELECT k, v FROM {table} WHERE {where}")
            assert isinstance(server.last_plan, plan), (table, where)
            bags[table] = sorted((row["k"], row["v"]) for row in rows)
        assert bags["t"] == bags["s"], where
    assert "consistent" in server.execute("CHECK INDEX ti")


def index_pools(server, am: str):
    prefix = "bt" if am == "btree_am" else "hb"
    blade = server.catalog.routines.resolve_any(f"{prefix}_getnext").fn.__self__
    return blade._handles["ti"]["pools"].values()


AMS = ("btree_am", "hblade_am")


@pytest.mark.parametrize("am", AMS)
def test_invalidate_between_statements(am):
    server = make_server(am)
    assert_agrees_with_seqscan(server)
    for pool in index_pools(server, am):
        pool.invalidate()
    assert_agrees_with_seqscan(server)
    for i in range(200, 240):
        both(server, f"INSERT INTO {{t}} VALUES ({i % 7}, 'r{i}')")
    both(server, "DELETE FROM {t} WHERE k = 12")
    for pool in index_pools(server, am):
        pool.invalidate()
    assert_agrees_with_seqscan(server)


@pytest.mark.parametrize("am", AMS)
def test_rollback_restores_pages_under_read_nodes(am):
    server = make_server(am)
    assert_agrees_with_seqscan(server)
    epoch = server.storage_epoch
    server.execute("BEGIN WORK")
    # Heap inserts survive a rollback; the index entries do not, so the
    # rolled-back rows are never reached through the index.
    for i in range(40):
        server.execute(f"INSERT INTO t VALUES ({600 + i % 3}, 'x{i}')")
    rows = server.execute("SELECT v FROM t WHERE k >= 600")
    assert len(rows) == 40
    server.execute("ROLLBACK WORK")
    assert server.storage_epoch > epoch
    assert_agrees_with_seqscan(server)
    rows = server.execute("SELECT v FROM t WHERE k >= 600")
    assert isinstance(server.last_plan, IndexScanPlan) and rows == []


def test_failed_hybrid_insert_in_a_transaction_then_rollback():
    server = make_server("hblade_am")
    assert_agrees_with_seqscan(server)
    server.execute("BEGIN WORK")
    for i in range(30):
        server.execute(f"INSERT INTO t VALUES ({600 + i % 2}, 'x{i}')")
    assert len(server.execute("SELECT v FROM t WHERE k >= 600")) == 30
    server.execute("SET FAULT 'hblade.tree_write' RAISE")
    with pytest.raises(FaultInjected):
        server.execute("INSERT INTO t VALUES (600, 'torn')")
    server.execute("SET FAULT 'hblade.tree_write' OFF")
    server.execute("ROLLBACK WORK")
    assert_agrees_with_seqscan(server)
    rows = server.execute("SELECT v FROM t WHERE k >= 600")
    assert isinstance(server.last_plan, IndexScanPlan) and rows == []
