"""Pinned outputs of the B+-tree and the two access methods built on it.

``btree_am`` and ``hblade_am`` run the same B+-tree (``repro.btree``);
the hybrid adds a hash directory beside it.  Each SQL test drives one
index through a seeded INSERT/UPDATE/DELETE workload -- some of it in
committed transactions -- on 256-byte pages and an 8-frame pool, so
runs of duplicate keys straddle leaf splits and pages leave the pool.
A tree-level test drives the structure directly through duplicate runs,
every bound combination and a root shrink.  Each then compares what it
produced against constants recorded from a known-good build:

* the sha256 of every live page of each of the index's page stores;
* ``(root_id, height, size)`` of the tree;
* each buffer pool's logical and physical reads and writes;
* the answers of equality and range queries (exclusive, inclusive and
  open bounds, commuted constants, disjunctions), which must also equal
  an engine-free oracle's.

A change to how the tree is searched, decoded or compared must leave
all of these alone; a deliberate change of tree behaviour re-records
them.
"""

import hashlib
import random

from repro.bblade import register_btree_blade
from repro.btree.node import BTreeNodeStore
from repro.btree.tree import BPlusTree
from repro.hblade import register_hybrid_blade
from repro.server import DatabaseServer
from repro.storage.buffer import BufferPool
from repro.storage.pages import InMemoryPageStore


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _pages(pages: dict) -> str:
    digest = hashlib.sha256()
    for page_id, data in sorted(pages.items()):
        digest.update(page_id.to_bytes(8, "little"))
        digest.update(data)
    return digest.hexdigest()[:16]


def _io(pool: BufferPool) -> tuple:
    stats = pool.stats
    return (
        stats.logical_reads,
        stats.logical_writes,
        stats.physical_reads,
        stats.physical_writes,
    )


# ----------------------------------------------------------------------
# Through SQL
# ----------------------------------------------------------------------

#: (WHERE clause, oracle predicate) of the pinned queries.
QUERIES = [
    *((f"k = {c}", lambda k, c=c: k == c) for c in range(-1, 33)),
    ("k > 3 AND k < 9", lambda k: 3 < k < 9),
    ("k >= 3 AND k <= 9", lambda k: 3 <= k <= 9),
    ("k > 3 AND k <= 9", lambda k: 3 < k <= 9),
    ("k >= 15 AND k < 16", lambda k: k == 15),
    ("k > 15 AND k < 16", lambda k: False),
    ("k > 27", lambda k: k > 27),
    ("k >= 31", lambda k: k >= 31),
    ("k <= 2", lambda k: k <= 2),
    ("k < 0", lambda k: k < 0),
    ("20 < k", lambda k: k > 20),
    ("5 >= k", lambda k: k <= 5),
    ("k > 2 AND k > 6 AND k <= 12 AND k < 11", lambda k: 6 < k < 11),
    ("k = 4 OR k = 15", lambda k: k in (4, 15)),
    ("k < 3 OR k > 28", lambda k: k < 3 or k > 28),
]


def _workload(server, rng) -> dict:
    """Seeded writes through SQL; returns the oracle (v -> k)."""
    live = {}
    next_id = 0

    def insert(k):
        nonlocal next_id
        server.execute(f"INSERT INTO t VALUES ({k}, 'r{next_id}')")
        live[f"r{next_id}"] = k
        next_id += 1

    # A run of one key three leaves long, before anything else splits.
    for _ in range(40):
        insert(15)
    for step in range(700):
        if step % 50 == 0:
            server.execute("BEGIN WORK")
        roll = rng.random()
        if live and roll < 0.15:
            name = rng.choice(sorted(live))
            k = rng.randint(0, 30)
            server.execute(f"UPDATE t SET k = {k} WHERE v = '{name}'")
            live[name] = k
        elif live and roll < 0.3:
            name = rng.choice(sorted(live))
            server.execute(f"DELETE FROM t WHERE v = '{name}'")
            del live[name]
        else:
            insert(rng.randint(0, 30))
        if step % 50 == 49:
            server.execute("COMMIT WORK")
    # Range deletes through the index: empties whole leaves (lazily).
    server.execute("DELETE FROM t WHERE k >= 22 AND k < 26")
    server.execute("DELETE FROM t WHERE k = 15")
    for name in [n for n, k in live.items() if 22 <= k < 26 or k == 15]:
        del live[name]
    return live


def _sql_record(am: str) -> dict:
    server = DatabaseServer(page_size=256, buffer_capacity=8)
    server.create_sbspace("spc")
    register_btree_blade(server)
    register_hybrid_blade(server)
    server.prefer_virtual_index = True
    server.execute("CREATE TABLE t (k INTEGER, v LVARCHAR)")
    server.execute(f"CREATE INDEX ti ON t(k) USING {am} IN spc")
    live = _workload(server, random.Random(2028))
    answers = []
    for where, matches in QUERIES:
        rows = server.execute(f"SELECT v FROM t WHERE {where}")
        got = sorted(row["v"] for row in rows)
        assert got == sorted(v for v, k in live.items() if matches(k)), where
        answers.append(got)
    assert "consistent" in server.execute("CHECK INDEX ti")
    prefix = "bt" if am == "btree_am" else "hb"
    blade = server.catalog.routines.resolve_any(f"{prefix}_getnext").fn.__self__
    handle = blade._handles["ti"]
    tree = handle["tree"]
    return {
        "pages": {
            name: _pages(pool.store._pages)
            for name, pool in sorted(handle["pools"].items())
        },
        "shape": (tree.root_id, tree.height, tree.size),
        "io": {name: _io(pool) for name, pool in sorted(handle["pools"].items())},
        "answers": _sha(answers),
    }


# ----------------------------------------------------------------------
# The structure alone
# ----------------------------------------------------------------------


def natural(a: bytes, b: bytes) -> int:
    x, y = int(a), int(b)
    return (x > y) - (x < y)


def key(value: int) -> bytes:
    return str(value).encode()


def _tree_record() -> dict:
    rng = random.Random(31)
    store = InMemoryPageStore(page_size=128)
    pool = BufferPool(store, capacity=6)
    tree = BPlusTree(BTreeNodeStore(pool), natural)
    live = {}
    for rowid in range(900):
        if live and rng.random() < 0.25:
            victim = rng.choice(sorted(live))
            assert tree.delete(key(live.pop(victim)), victim)
        else:
            # Few distinct keys: every run spans several leaves.
            live[rowid] = rng.choice((3, 7, 7, 7, 11, 12, 40, 41, 95))
            tree.insert(key(live[rowid]), rowid)
    assert not tree.delete(key(7), 10_000)
    assert not tree.delete(key(8), 0)
    answers = []
    for low, high in ((7, 7), (3, 11), (7, 41), (0, 3), (95, 99), (8, 10)):
        for low_inc in (True, False):
            for high_inc in (True, False):
                answers.append(
                    tree.search_range(key(low), key(high), low_inc, high_inc)
                )
    for bound in (3, 7, 41, 95):
        answers.append(tree.search_range(None, key(bound)))
        answers.append(tree.search_range(None, key(bound), True, False))
        answers.append(tree.search_range(key(bound), None))
        answers.append(tree.search_range(key(bound), None, False))
    answers.append(tree.search_range(None, None))
    for got in answers:
        assert got == sorted(got, key=lambda e: int(e[0])), "out of order"
    assert sorted(r for _, r, _ in answers[-1]) == sorted(live)
    tree.check()
    grown = (tree.root_id, tree.height)
    # Root shrink: stack an empty internal level on the root; the next
    # delete collapses it.
    root = tree.store.allocate(leaf=False)
    root.leftmost = tree.root_id
    tree.store.write(root)
    tree.root_id, tree.height = root.page_id, tree.height + 1
    victim = min(live)
    assert tree.delete(key(live.pop(victim)), victim)
    assert (tree.root_id, tree.height) == grown
    tree.check()
    answers.append(tree.search_range(None, None))
    pool.flush()
    return {
        "pages": _pages(store.snapshot()),
        "shape": (tree.root_id, tree.height, tree.size),
        "io": _io(pool),
        "answers": _sha(answers),
    }


# ----------------------------------------------------------------------
# Recorded constants
# ----------------------------------------------------------------------

EXPECTED = {
    "btree_am": {
        "pages": {"blob": "90344a4642f89e84"},
        "shape": (25, 3, 347),
        "io": {"blob": (3425, 1754, 1055, 1695)},
        "answers": "b2773a4a61ec3210",
    },
    "hblade_am": {
        "pages": {"hash": "4ec6d67ff8bc1424", "tree": "f60eb536fbc0560f"},
        "shape": (25, 3, 347),
        "io": {
            "hash": (1356, 2806, 866, 2717),
            "tree": (3276, 1754, 1038, 1695),
        },
        "answers": "b2773a4a61ec3210",
    },
    "tree": {
        "pages": "375a63ef7cdb6ef5",
        "shape": (86, 4, 441),
        "io": (8400, 1249, 6804, 1044),
        "answers": "d3c71e6138af3a87",
    },
}


def test_btree_am_is_pinned():
    assert _sql_record("btree_am") == EXPECTED["btree_am"]


def test_hblade_am_is_pinned():
    assert _sql_record("hblade_am") == EXPECTED["hblade_am"]


def test_bplus_tree_is_pinned():
    assert _tree_record() == EXPECTED["tree"]
