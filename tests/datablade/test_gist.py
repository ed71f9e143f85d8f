"""Tests for the generalized search tree and its DataBlade."""

import random

import pytest

from repro.gist import (
    GiST,
    IntervalExtension,
    RectExtension,
    register_gist_blade,
)
from repro.gist.extensions import Interval, IntervalQuery, RectQuery
from repro.gist.tree import GistNodeStore
from repro.rblade.blade import box_output
from repro.rtree.geometry import Rect
from repro.server import DatabaseServer
from repro.server.optimizer import IndexScanPlan
from repro.storage.buffer import BufferPool
from repro.storage.pages import InMemoryPageStore


def make_tree(extension, page_size=512):
    pool = BufferPool(InMemoryPageStore(page_size=page_size), capacity=64)
    return GiST(GistNodeStore(pool, extension))


def random_rect(rng, extent=1000.0, side=15.0):
    x, y = rng.uniform(0, extent), rng.uniform(0, extent)
    return Rect((x, y), (x + rng.uniform(0, side), y + rng.uniform(0, side)))


class TestRectGist:
    """The R-tree recovered as a GiST instance [HNP95]."""

    def test_search_matches_oracle(self):
        rng = random.Random(17)
        tree = make_tree(RectExtension())
        data = []
        for rowid in range(500):
            rect = random_rect(rng)
            tree.insert(rect, rowid)
            data.append(rect)
        tree.check()
        assert tree.height > 1
        for _ in range(15):
            query = RectQuery("overlap", random_rect(rng, side=120))
            expected = sorted(
                i for i, r in enumerate(data) if r.intersects(query.rect)
            )
            assert sorted(r for r, _ in tree.search(query)) == expected

    def test_all_strategies(self):
        tree = make_tree(RectExtension())
        big = Rect((0, 0), (10, 10))
        small = Rect((2, 2), (3, 3))
        far = Rect((50, 50), (60, 60))
        for i, rect in enumerate([big, small, far]):
            tree.insert(rect, i)
        assert sorted(
            r for r, _ in tree.search(RectQuery("overlap", Rect((1, 1), (4, 4))))
        ) == [0, 1]
        assert sorted(
            r for r, _ in tree.search(RectQuery("contains", small))
        ) == [0, 1]
        assert sorted(
            r for r, _ in tree.search(RectQuery("within", Rect((0, 0), (20, 20))))
        ) == [0, 1]
        assert sorted(
            r for r, _ in tree.search(RectQuery("equal", far))
        ) == [2]

    def test_delete_and_condense(self):
        rng = random.Random(19)
        tree = make_tree(RectExtension())
        data = [(random_rect(rng), i) for i in range(300)]
        for rect, rowid in data:
            tree.insert(rect, rowid)
        rng.shuffle(data)
        for rect, rowid in data[:250]:
            assert tree.delete(rect, rowid)
        tree.check()
        assert tree.size == 50

    def test_search_prunes(self):
        rng = random.Random(23)
        tree = make_tree(RectExtension())
        for rowid in range(600):
            tree.insert(random_rect(rng), rowid)
        tree.search(RectQuery("overlap", Rect((0, 0), (50, 50))))
        assert tree.last_node_accesses < tree.node_count() / 2


class TestIntervalGist:
    """The B+-tree recovered as a GiST instance [HNP95]."""

    def test_range_queries_match_oracle(self):
        rng = random.Random(29)
        tree = make_tree(IntervalExtension())
        values = {}
        for rowid in range(500):
            v = rng.randint(0, 1000)
            values[rowid] = v
            tree.insert(Interval(v, v), rowid)
        tree.check()
        query = IntervalQuery("between", 200.0, 400.0)
        expected = sorted(r for r, v in values.items() if 200 <= v <= 400)
        assert sorted(r for r, _ in tree.search(query)) == expected

    def test_open_and_exclusive_bounds(self):
        tree = make_tree(IntervalExtension())
        for v in range(20):
            tree.insert(Interval(v, v), v)
        ext = IntervalExtension()
        gt = ext.query_for("GS_GreaterThan", 15)
        assert sorted(r for r, _ in tree.search(gt)) == [16, 17, 18, 19]
        le = ext.query_for("GS_LessThanOrEqual", 3)
        assert sorted(r for r, _ in tree.search(le)) == [0, 1, 2, 3]
        eq = ext.query_for("GS_NumEqual", 7)
        assert sorted(r for r, _ in tree.search(eq)) == [7]

    def test_a_node_write_compresses_each_key_once(self):
        """``fits`` and ``write`` share one encoding: a node write (or a
        write refused for overflow) compresses each of its keys once."""
        extension = IntervalExtension()
        tree = make_tree(extension)
        compress, write_if_fits = extension.compress, tree.store.write_if_fits
        calls, writes = [], []

        def counted_compress(key):
            calls.append(key)
            return compress(key)

        def counted_write(node):
            before = len(calls)
            written = write_if_fits(node)
            writes.append((len(node.entries), len(calls) - before))
            return written

        extension.compress = counted_compress
        tree.store.write_if_fits = counted_write
        rng = random.Random(7)
        for rowid in range(500):
            lo = rng.uniform(0, 5000)
            tree.insert(Interval(lo, lo + rng.uniform(0, 200)), rowid)
        assert len(writes) > 600
        assert all(keys == compressed for keys, compressed in writes)
        # Inserting compresses keys nowhere but in node writes.
        assert len(calls) == sum(keys for keys, _ in writes)

    def test_delete(self):
        tree = make_tree(IntervalExtension())
        for v in range(200):
            tree.insert(Interval(v, v), v)
        for v in range(0, 200, 2):
            assert tree.delete(Interval(v, v), v)
        tree.check()
        q = IntervalQuery("between", 0.0, 10.0)
        assert sorted(r for r, _ in tree.search(q)) == [1, 3, 5, 7, 9]


@pytest.fixture()
def server():
    s = DatabaseServer()
    s.create_sbspace("spc")
    register_gist_blade(s)
    s.prefer_virtual_index = True
    return s


class TestGistBlade:
    """One access method, two data types, selected by operator class --
    the paper's closing proposal made executable."""

    def test_rect_opclass(self, server):
        server.execute("CREATE TABLE shapes (label LVARCHAR, geom Box)")
        server.execute(
            "CREATE INDEX gr ON shapes(geom gist_rect_ops) USING gist_am IN spc"
        )
        rng = random.Random(31)
        rects = []
        for i in range(150):
            x, y = rng.uniform(0, 100), rng.uniform(0, 100)
            rect = Rect((x, y), (x + 5, y + 5))
            rects.append(rect)
            server.execute(
                f"INSERT INTO shapes VALUES ('s{i}', '{box_output(rect)}')"
            )
        query = Rect((20, 20), (50, 50))
        rows = server.execute(
            f"SELECT label FROM shapes WHERE GS_Overlap(geom, '{box_output(query)}')"
        )
        assert isinstance(server.last_plan, IndexScanPlan)
        expected = sorted(
            f"s{i}" for i, r in enumerate(rects) if r.intersects(query)
        )
        assert sorted(r["label"] for r in rows) == expected
        assert "consistent" in server.execute("CHECK INDEX gr")

    def test_interval_opclass_serves_comparisons(self, server):
        server.execute("CREATE TABLE nums (name LVARCHAR, v INTEGER)")
        server.execute(
            "CREATE INDEX gn ON nums(v gist_interval_ops) USING gist_am IN spc"
        )
        rng = random.Random(37)
        values = {}
        for i in range(150):
            v = rng.randint(0, 500)
            values[f"n{i}"] = v
            server.execute(f"INSERT INTO nums VALUES ('n{i}', {v})")
        # Plain SQL comparisons route into the GiST via the opclass.
        rows = server.execute("SELECT name FROM nums WHERE v >= 450")
        assert isinstance(server.last_plan, IndexScanPlan)
        expected = sorted(n for n, v in values.items() if v >= 450)
        assert sorted(r["name"] for r in rows) == expected

    def test_both_instantiations_in_one_am(self, server):
        server.execute("CREATE TABLE shapes (geom Box)")
        server.execute("CREATE TABLE nums (v INTEGER)")
        server.execute(
            "CREATE INDEX a ON shapes(geom gist_rect_ops) USING gist_am IN spc"
        )
        server.execute(
            "CREATE INDEX b ON nums(v gist_interval_ops) USING gist_am IN spc"
        )
        assert {
            oc.name
            for oc in server.catalog.opclasses.for_access_method("gist_am")
        } == {"gist_rect_ops", "gist_interval_ops"}
        server.execute("INSERT INTO shapes VALUES ('(0,0,1,1)')")
        server.execute("INSERT INTO nums VALUES (7)")
        assert "consistent" in server.execute("CHECK INDEX a")
        assert "consistent" in server.execute("CHECK INDEX b")

    def test_unregistered_opclass_rejected(self, server):
        server.execute("CREATE TABLE t (v FLOAT)")
        server.execute(
            "CREATE OPCLASS gist_mystery_ops FOR gist_am "
            "STRATEGIES(GS_NumEqual)"
        )
        from repro.server.errors import AccessMethodError

        with pytest.raises(AccessMethodError):
            server.execute(
                "CREATE INDEX m ON t(v gist_mystery_ops) USING gist_am IN spc"
            )

    def test_custom_extension_plugs_in(self, server):
        """A downstream developer adds a brand-new instantiation by
        registering an opclass plus an extension object -- no purpose
        functions touched."""
        from repro.gist.extensions import IntervalExtension

        class EvenOddExtension(IntervalExtension):
            """Orders numbers by (parity, value)."""

            name = "evenodd"

            def key_for_value(self, value):
                v = float(value)
                rank = (v % 2) * 10_000 + v
                return Interval(rank, rank)

            def query_for(self, strategy, constant):
                base = super().query_for(strategy, constant)
                rank = (float(constant) % 2) * 10_000 + float(constant)
                return IntervalQuery(
                    base.strategy, rank if base.low is not None else None,
                    rank if base.high is not None else None,
                    base.low_inclusive, base.high_inclusive,
                )

        server.execute(
            "CREATE OPCLASS gist_evenodd_ops FOR gist_am "
            "STRATEGIES(GS_NumEqual)"
        )
        blade = server.catalog.routines.resolve_any("gs_getnext").fn.__self__
        blade.register_extension("gist_evenodd_ops", EvenOddExtension())
        server.execute("CREATE TABLE parity (v INTEGER)")
        server.execute(
            "CREATE INDEX p ON parity(v gist_evenodd_ops) USING gist_am IN spc"
        )
        for v in (1, 2, 3, 4):
            server.execute(f"INSERT INTO parity VALUES ({v})")
        rows = server.execute("SELECT v FROM parity WHERE GS_NumEqual(v, 3)")
        assert [r["v"] for r in rows] == [3]
