"""The hybrid AM's differential battery (the tentpole's proof).

Three tables hold the same rows: one indexed by ``hblade_am``, one by
the plain B+-tree blade, one unindexed (the seqscan oracle).  Seeded
random workloads mutate all three identically and every query -- point,
range, mixed -- must return the same bag of rows from each, whichever
path (hash directory, B+-tree, heap walk) produced it.  A second
battery hammers one hybrid index from eight threads and re-checks the
oracle, and a third pins the optimizer's routing: equality probes take
the hash path, ranges the tree path, disjunctions mix, and disabling
the hash path or holding the precision guard falls back to the tree.

Also here: direct unit tests for the B+-tree node layer's split/merge
edge cases (min-occupancy underflow, rightmost-leaf appends), backfill
the hybrid blade's tree half relies on.
"""

import random
import threading

import pytest

from repro.bblade import register_btree_blade
from repro.btree.node import BTreeEntry, BTreeNode, BTreeNodeStore
from repro.btree.tree import BPlusTree
from repro.hblade import register_hybrid_blade
from repro.server import DatabaseServer
from repro.server.optimizer import IndexScanPlan, SeqScanPlan
from repro.storage.buffer import BufferPool
from repro.storage.pages import InMemoryPageStore

SEEDS = [7, 19, 101]


def make_server(key_type: str = "INTEGER"):
    """One server, three tables over the same schema: hybrid-indexed,
    B+-tree-indexed, and the unindexed seqscan oracle."""
    server = DatabaseServer()
    server.create_sbspace("spc")
    server.hblade = register_hybrid_blade(server)
    register_btree_blade(server)
    server.execute(f"CREATE TABLE th (k {key_type}, v LVARCHAR)")
    server.execute(f"CREATE TABLE tb (k {key_type}, v LVARCHAR)")
    server.execute(f"CREATE TABLE ts (k {key_type}, v LVARCHAR)")
    server.execute("CREATE INDEX hi ON th(k) USING hblade_am IN spc")
    server.execute("CREATE INDEX bi ON tb(k) USING btree_am IN spc")
    server.prefer_virtual_index = True
    return server


TABLES = ("th", "tb", "ts")


def run_everywhere(server, template: str):
    """Run one mutation statement against all three tables."""
    for table in TABLES:
        server.execute(template.format(t=table))


def compare_everywhere(server, where: str):
    """One query, three paths; the bags of rows must agree.

    Also asserts each table used the access path it should have: the
    indexed tables their virtual index, the oracle a seqscan.
    """
    bags = {}
    for table in TABLES:
        rows = server.execute(f"SELECT k, v FROM {table} WHERE {where}")
        plan = server.last_plan
        if table == "ts":
            assert isinstance(plan, SeqScanPlan)
        else:
            assert isinstance(plan, IndexScanPlan), (
                f"{table}: expected an index scan for {where!r}, "
                f"got {type(plan).__name__}"
            )
        bags[table] = sorted((row["k"], row["v"]) for row in rows)
    assert bags["th"] == bags["ts"], (
        f"hybrid path diverges from the seqscan oracle for {where!r}"
    )
    assert bags["tb"] == bags["ts"], (
        f"B+-tree path diverges from the seqscan oracle for {where!r}"
    )
    return bags["th"]


class TestHybridDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_workload_agrees_on_every_path(self, seed):
        server = make_server()
        rng = random.Random(seed)
        live = {}  # key -> count of rows carrying it
        serial = 0
        for step in range(120):
            roll = rng.random()
            if roll < 0.55 or not live:
                key = rng.randint(0, 60)
                serial += 1
                run_everywhere(
                    server,
                    f"INSERT INTO {{t}} VALUES ({key}, 's{seed}.{serial}')",
                )
                live[key] = live.get(key, 0) + 1
            elif roll < 0.75:
                key = rng.choice(sorted(live))
                run_everywhere(server, f"DELETE FROM {{t}} WHERE k = {key}")
                del live[key]
            else:
                old = rng.choice(sorted(live))
                new = rng.randint(0, 60)
                run_everywhere(
                    server, f"UPDATE {{t}} SET k = {new} WHERE k = {old}"
                )
                live[new] = live.get(new, 0) + live.pop(old)
            if step % 10 == 9:
                point = rng.randint(0, 60)
                lo = rng.randint(0, 50)
                hi = lo + rng.randint(0, 15)
                compare_everywhere(server, f"k = {point}")
                compare_everywhere(server, f"k >= {lo} AND k <= {hi}")
                compare_everywhere(server, f"k = {point} OR k > {hi}")
        # Full-content agreement plus both structural verifiers.
        compare_everywhere(server, "k >= 0")
        server.execute("CHECK INDEX hi")
        server.execute("CHECK INDEX bi")

    def test_signed_zero_floats_agree(self):
        """-0.0 and 0.0 are comparator-equal; the hash side must agree
        (the canonicalization clause of the codec contract)."""
        server = make_server(key_type="FLOAT")
        run_everywhere(server, "INSERT INTO {t} VALUES (-0.0, 'neg')")
        run_everywhere(server, "INSERT INTO {t} VALUES (0.0, 'pos')")
        run_everywhere(server, "INSERT INTO {t} VALUES (1.5, 'other')")
        for probe in ("0.0", "-0.0"):
            rows = compare_everywhere(server, f"k = {probe}")
            assert sorted(v for _, v in rows) == ["neg", "pos"]
        compare_everywhere(server, "k >= -1.0 AND k <= 1.0")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_hammering_from_eight_threads(self, seed, lock_audit):
        """Eight sessions hammer one hybrid index on disjoint key
        stripes; every thread's point probes must match its own oracle
        mid-flight, and the final state must match the union.  The
        ``lock_audit`` fixture additionally fails the test if the run
        observes any lock-order cycle."""
        server = make_server()
        errors = []
        oracles = [dict() for _ in range(8)]

        def hammer(stripe: int) -> None:
            try:
                session = server.create_session()
                rng = random.Random(seed * 100 + stripe)
                oracle = oracles[stripe]
                base = stripe * 1000
                for step in range(60):
                    roll = rng.random()
                    if roll < 0.6 or not oracle:
                        key = base + rng.randint(0, 40)
                        if key in oracle:
                            continue
                        server.execute(
                            f"INSERT INTO th VALUES ({key}, 't{stripe}.{step}')",
                            session,
                        )
                        oracle[key] = f"t{stripe}.{step}"
                    elif roll < 0.8:
                        key = rng.choice(sorted(oracle))
                        server.execute(
                            f"DELETE FROM th WHERE k = {key}", session
                        )
                        del oracle[key]
                    else:
                        key = base + rng.randint(0, 40)
                        rows = server.execute(
                            f"SELECT v FROM th WHERE k = {key}", session
                        )
                        got = sorted(row["v"] for row in rows)
                        want = [oracle[key]] if key in oracle else []
                        assert got == want, (
                            f"stripe {stripe} probe k={key}: "
                            f"got {got}, oracle says {want}"
                        )
            except Exception as exc:  # surfaced by the main thread
                errors.append((stripe, exc))

        threads = [
            threading.Thread(target=hammer, args=(stripe,))
            for stripe in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, f"thread failures: {errors}"
        expected = sorted(
            (key, value)
            for oracle in oracles
            for key, value in oracle.items()
        )
        rows = server.execute("SELECT k, v FROM th WHERE k >= 0")
        assert sorted((row["k"], row["v"]) for row in rows) == expected
        server.execute("CHECK INDEX hi")


class TestPlanRouting:
    """The optimizer + scan-routing contract, asserted on span
    attributes and plan objects -- never on timing."""

    @staticmethod
    def spanned_server():
        """:func:`make_server`, keeping every statement's span tree."""
        server = make_server()
        server.execute("SET SLOW QUERY THRESHOLD 0")
        return server

    def scan_span(self, server):
        root = server.obs.spans.last_root("sql.select")
        assert root is not None
        span = root.find("hblade.scan")
        assert span is not None, "the hybrid AM never began a scan"
        return span

    def test_equality_takes_the_hash_path(self):
        server = self.spanned_server()
        server.execute("INSERT INTO th VALUES (5, 'five')")
        rows = server.execute("SELECT v FROM th WHERE k = 5")
        assert [row["v"] for row in rows] == ["five"]
        assert isinstance(server.last_plan, IndexScanPlan)
        assert server.last_plan.index.name == "hi"
        span = self.scan_span(server)
        assert span.attrs["path"] == "hash"
        assert "path='hash'" in server.execute("SHOW SPANS")

    def test_range_takes_the_tree_path(self):
        server = self.spanned_server()
        for i in range(10):
            server.execute(f"INSERT INTO th VALUES ({i}, 'r{i}')")
        rows = server.execute("SELECT v FROM th WHERE k >= 3 AND k <= 6")
        assert len(rows) == 4
        assert self.scan_span(server).attrs["path"] == "tree"
        assert "path='tree'" in server.execute("SHOW SPANS")

    def test_disjunction_mixes_both_paths(self):
        server = self.spanned_server()
        for i in range(10):
            server.execute(f"INSERT INTO th VALUES ({i}, 'r{i}')")
        rows = server.execute("SELECT v FROM th WHERE k = 1 OR k > 7")
        assert sorted(row["v"] for row in rows) == ["r1", "r8", "r9"]
        span = self.scan_span(server)
        assert span.attrs["path"] == "mixed"
        assert span.attrs["hash_branches"] == 1
        assert span.attrs["tree_branches"] == 1

    def test_point_probe_is_costed_below_the_tree(self):
        """The cost-model hook: with the hash path available an
        equality probe is cheaper than the tree descent, so the hybrid
        index must win the plan choice without the optimizer directive."""
        server = make_server()
        for i in range(50):
            server.execute(f"INSERT INTO th VALUES ({i}, 'c{i}')")
        server.prefer_virtual_index = False
        server.execute("SELECT v FROM th WHERE k = 25")
        plan = server.last_plan
        assert isinstance(plan, IndexScanPlan) and plan.index.name == "hi"

    def test_hash_path_off_routes_equality_to_the_tree(self):
        server = self.spanned_server()
        server.execute(
            "CREATE INDEX hoff ON ts(k) USING hblade_am IN spc "
            "WITH (hash_path = 'off')"
        )
        server.execute("INSERT INTO ts VALUES (9, 'nine')")
        rows = server.execute("SELECT v FROM ts WHERE k = 9")
        assert [row["v"] for row in rows] == ["nine"]
        assert self.scan_span(server).attrs["path"] == "tree"

    def test_guard_conflict_falls_back_to_the_tree(self):
        """A point probe racing an in-flight structure modification on
        the same key must not trust the hash directory: the precision
        guard forces the tree path, which still finds the row."""
        server = self.spanned_server()
        server.execute("INSERT INTO th VALUES (3, 'three')")
        guard = server.hblade._guard("hi")
        key = server.catalog.types.get("INTEGER").send(3)
        before = guard.fallbacks
        with guard.publishing(key):
            rows = server.execute("SELECT v FROM th WHERE k = 3")
        assert [row["v"] for row in rows] == ["three"]
        assert guard.fallbacks == before + 1
        assert self.scan_span(server).attrs["path"] == "tree"


# ----------------------------------------------------------------------
# B+-tree node split/merge edge cases (direct unit backfill)
# ----------------------------------------------------------------------


def natural(a: bytes, b: bytes) -> int:
    x, y = int(a), int(b)
    return (x > y) - (x < y)


def key(value: int) -> bytes:
    return str(value).encode()


def make_tree(page_size=128, capacity=64):
    pool = BufferPool(InMemoryPageStore(page_size=page_size), capacity=capacity)
    return BPlusTree(BTreeNodeStore(pool), natural)


class TestNodeSplitMergeEdgeCases:
    def test_rightmost_leaf_ascending_appends(self):
        """Ascending inserts split the rightmost leaf repeatedly; every
        separator promotion must keep the leaf chain ordered and whole."""
        tree = make_tree()
        for i in range(400):
            tree.insert(key(i), rowid=i)
        tree.check()
        assert tree.height >= 3
        # The next_leaf chain covers everything, in order, exactly once.
        node = tree._leftmost_leaf()
        seen = []
        while True:
            seen.extend(int(e.key) for e in node.entries)
            if node.next_leaf == -1:
                break
            node = tree.store.read(node.next_leaf)
        assert seen == list(range(400))

    def test_underflow_below_min_occupancy_is_lazy(self):
        """Deleting most of a populated tree empties leaves below any
        min-occupancy threshold; lazy deletion tolerates them (check()
        stays green) instead of merging eagerly."""
        tree = make_tree()
        for i in range(300):
            tree.insert(key(i), rowid=i)
        grown_height = tree.height
        for i in range(299):
            assert tree.delete(key(i), rowid=i)
        tree.check()
        assert tree.size == 1
        assert [int(k) for k, _, _ in tree.iter_all()] == [299]
        # Structure survives: the survivor is still reachable by probe.
        assert tree.search_equal(key(299)) == [(299, 0)]
        assert tree.height <= grown_height

    def test_emptied_tree_keeps_structure_but_stays_correct(self):
        """Lazy deletion never merges, so draining a grown tree leaves
        its internal skeleton (separators survive); correctness and
        re-insertability must survive the hollowed-out shape."""
        tree = make_tree()
        for i in range(200):
            tree.insert(key(i), rowid=i)
        grown_height = tree.height
        assert grown_height > 1
        for i in range(200):
            assert tree.delete(key(i), rowid=i)
        tree.check()
        assert tree.size == 0
        assert tree.height == grown_height  # separators keep the spine
        assert tree.search_range(None, None) == []
        # And the hollow tree still takes inserts.
        tree.insert(key(7), rowid=0)
        assert tree.search_equal(key(7)) == [(0, 0)]

    def test_shrink_root_collapses_an_empty_internal_chain(self):
        """The root-collapse path itself: an internal root with no
        separators (only a leftmost child) must give its page back and
        drop the height, repeatedly, until a populated node appears."""
        tree = make_tree(page_size=256)
        for i in range(5):
            tree.insert(key(i), rowid=i)
        leaf_id = tree.root_id
        # Stack two empty internal levels above the real leaf.
        for _ in range(2):
            root = tree.store.allocate(leaf=False)
            root.leftmost = tree.root_id
            tree.store.write(root)
            tree.root_id = root.page_id
            tree.height += 1
        assert tree.height == 3
        tree._shrink_root()
        assert tree.height == 1
        assert tree.root_id == leaf_id
        tree.check()
        assert [int(k) for k, _, _ in tree.iter_all()] == list(range(5))

    def test_duplicate_run_straddles_a_split(self):
        """A duplicate run longer than one page must stay reachable by
        search_equal and deletable entry-by-entry across the split."""
        tree = make_tree(page_size=128)
        for i in range(120):
            tree.insert(key(42), rowid=i)
        tree.check()
        assert tree.height > 1
        assert sorted(r for r, _ in tree.search_equal(key(42))) == list(
            range(120)
        )
        # Delete from the *middle* of the run (exercises the sibling
        # chain walk in delete's left-biased descent).
        for i in range(40, 80):
            assert tree.delete(key(42), rowid=i)
        remaining = sorted(r for r, _ in tree.search_equal(key(42)))
        assert remaining == list(range(40)) + list(range(80, 120))

    def test_oversized_key_is_rejected_before_any_write(self):
        tree = make_tree(page_size=128)
        big = b"x" * (128 // 4 + 1)
        with pytest.raises(ValueError):
            tree.insert(big, rowid=0)
        assert tree.size == 0

    def test_node_overflow_raises_on_write(self):
        pool = BufferPool(InMemoryPageStore(page_size=128), capacity=8)
        store = BTreeNodeStore(pool)
        node = store.allocate(leaf=True)
        for i in range(200):
            node.entries.append(BTreeEntry(key(i), rowid=i))
        assert not store.write_if_fits(node)
        assert pool.stats.logical_writes == 0
        with pytest.raises(ValueError, match="node overflow"):
            store.write(node)

    def test_node_serialization_round_trip(self):
        pool = BufferPool(InMemoryPageStore(page_size=256), capacity=8)
        store = BTreeNodeStore(pool)
        leaf = store.allocate(leaf=True)
        leaf.entries = [BTreeEntry(key(i), rowid=i, fragid=i % 3) for i in range(5)]
        leaf.next_leaf = 77
        store.write(leaf)
        back = store.read(leaf.page_id)
        assert back.leaf and back.next_leaf == 77
        assert [(e.key, e.rowid, e.fragid) for e in back.entries] == [
            (key(i), i, i % 3) for i in range(5)
        ]
        inner = store.allocate(leaf=False)
        inner.leftmost = leaf.page_id
        inner.entries = [BTreeEntry(key(9), child=42)]
        store.write(inner)
        back = store.read(inner.page_id)
        assert not back.leaf
        assert back.leftmost == leaf.page_id
        assert back.entries[0].child == 42
