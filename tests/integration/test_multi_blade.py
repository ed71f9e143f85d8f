"""Integration: all four DataBlades coexisting in one server."""

import pytest

from repro.bblade import register_btree_blade
from repro.datablade import register_grtree_blade
from repro.gist import register_gist_blade
from repro.rblade import register_rtree_blade
from repro.server import DatabaseServer
from repro.server.optimizer import IndexScanPlan
from repro.temporal.chronon import Clock, format_chronon


def day(c):
    return format_chronon(c)


@pytest.fixture()
def server():
    s = DatabaseServer(clock=Clock(now=100))
    s.create_sbspace("spc")
    register_grtree_blade(s)
    register_rtree_blade(s)
    register_btree_blade(s)
    register_gist_blade(s)
    s.prefer_virtual_index = True
    return s


@pytest.mark.parametrize(
    "first,second",
    [
        (register_rtree_blade, register_gist_blade),
        (register_gist_blade, register_rtree_blade),
    ],
    ids=["rtree-then-gist", "gist-then-rtree"],
)
def test_box_blades_install_in_either_order(first, second):
    """Both blades index Box; whichever comes second reuses the type."""
    s = DatabaseServer(clock=Clock(now=100))
    s.create_sbspace("spc")
    first(s)
    second(s)
    s.prefer_virtual_index = True
    s.execute("CREATE TABLE b (name LVARCHAR, c Box)")
    s.execute("CREATE INDEX br ON b(c) USING rtree_am IN spc")
    s.execute("CREATE INDEX bg ON b(c) USING gist_am IN spc")
    for i in range(20):
        s.execute(f"INSERT INTO b VALUES ('b{i}', '({i}, 0, {i + 1}, 1)')")
    for predicate, index in (
        ("Overlap(c, '(0, 0, 4.5, 1)')", "br"),
        ("GS_Overlap(c, '(0, 0, 4.5, 1)')", "bg"),
    ):
        rows = s.execute(f"SELECT name FROM b WHERE {predicate}")
        assert s.last_plan.index.name == index
        assert sorted(row["name"] for row in rows) == [f"b{i}" for i in range(5)]


class TestFourBlades:
    def test_catalog_holds_all_access_methods(self, server):
        assert set(server.catalog.access_methods.names()) == {
            "btree_am", "gist_am", "grtree_am", "rtree_am",
        }

    def test_two_indexes_on_one_table(self, server):
        """A bitemporal column and an integer column on the same table,
        each with its own access method; every INSERT maintains both."""
        server.execute(
            "CREATE TABLE emp (name LVARCHAR, salary INTEGER, "
            "te GRT_TimeExtent_t)"
        )
        server.execute("CREATE INDEX e_te ON emp(te) USING grtree_am IN spc")
        server.execute("CREATE INDEX e_sal ON emp(salary) USING btree_am IN spc")
        for i in range(60):
            server.execute(
                f"INSERT INTO emp VALUES ('p{i}', {1000 + i * 10}, "
                f"'{day(100)}, UC, {day(95)}, NOW')"
            )
        rows = server.execute("SELECT name FROM emp WHERE salary >= 1550")
        assert isinstance(server.last_plan, IndexScanPlan)
        assert server.last_plan.index.name == "e_sal"
        assert len(rows) == 5
        rows = server.execute(
            f"SELECT name FROM emp WHERE "
            f"Overlaps(te, '{day(100)}, UC, {day(100)}, NOW')"
        )
        assert server.last_plan.index.name == "e_te"
        assert len(rows) == 60
        assert "consistent" in server.execute("CHECK INDEX e_te")
        assert "consistent" in server.execute("CHECK INDEX e_sal")

    def test_mixed_predicate_picks_one_index_keeps_residual(self, server):
        server.execute(
            "CREATE TABLE emp (name LVARCHAR, salary INTEGER, "
            "te GRT_TimeExtent_t)"
        )
        server.execute("CREATE INDEX e_te ON emp(te) USING grtree_am IN spc")
        server.execute("CREATE INDEX e_sal ON emp(salary) USING btree_am IN spc")
        for i in range(60):
            server.execute(
                f"INSERT INTO emp VALUES ('p{i}', {1000 + i * 10}, "
                f"'{day(100)}, UC, {day(95)}, NOW')"
            )
        rows = server.execute(
            f"SELECT name FROM emp WHERE salary >= 1550 AND "
            f"Overlaps(te, '{day(100)}, UC, {day(100)}, NOW')"
        )
        assert isinstance(server.last_plan, IndexScanPlan)
        assert server.last_plan.residual is not None
        assert len(rows) == 5

    def test_delete_maintains_every_index(self, server):
        server.execute(
            "CREATE TABLE emp (name LVARCHAR, salary INTEGER, "
            "te GRT_TimeExtent_t)"
        )
        server.execute("CREATE INDEX e_te ON emp(te) USING grtree_am IN spc")
        server.execute("CREATE INDEX e_sal ON emp(salary) USING btree_am IN spc")
        for i in range(40):
            server.execute(
                f"INSERT INTO emp VALUES ('p{i}', {i}, "
                f"'{day(100)}, UC, {day(95)}, NOW')"
            )
        deleted = server.execute("DELETE FROM emp WHERE salary < 20")
        assert deleted == 20
        assert "consistent" in server.execute("CHECK INDEX e_te")
        assert "consistent" in server.execute("CHECK INDEX e_sal")
        assert len(server.execute("SELECT name FROM emp")) == 20

    def test_udr_namespaces_do_not_collide(self, server):
        """Equal(GRT_TimeExtent_t, ...) and Equal(Box, Box) overload the
        same name; resolution picks by signature."""
        overloads = server.catalog.routines.overloads("Equal")
        signatures = {tuple(r.arg_types) for r in overloads}
        assert ("GRT_TIMEEXTENT_T", "GRT_TIMEEXTENT_T") in signatures
        assert ("BOX", "BOX") in signatures

    def test_shared_sbspace_hosts_all_indexes(self, server):
        server.execute("CREATE TABLE a (te GRT_TimeExtent_t)")
        server.execute("CREATE TABLE b (geom Box)")
        server.execute("CREATE TABLE c (v INTEGER)")
        server.execute("CREATE INDEX ia ON a(te) USING grtree_am IN spc")
        server.execute("CREATE INDEX ib ON b(geom) USING rtree_am IN spc")
        server.execute("CREATE INDEX ic ON c(v) USING btree_am IN spc")
        space = server.get_sbspace("spc")
        assert space.object_count == 3  # one large object per index
