"""What every blade inherits from the kit (:mod:`repro.datablade.kit`):
one pool factory, one typed ``WITH`` parser that runs before any side
effect, one handle cache."""

import pytest

from repro.server import DatabaseServer
from repro.server.errors import AccessMethodError
from repro.temporal.chronon import Clock
from tests.datablade.test_blade_contract import ACCESS_METHODS

AMS = sorted(ACCESS_METHODS)


def make_server(am, **server_options):
    register, column_type, values, predicate = ACCESS_METHODS[am]
    server = DatabaseServer(clock=Clock(now=100), **server_options)
    server.create_sbspace("spc")
    server.blade = register(server)
    server.prefer_virtual_index = True
    server.execute(f"CREATE TABLE t (name LVARCHAR, c {column_type})")
    server.execute(f"INSERT INTO t VALUES ('seed', {values[0]})")
    return server


def index_pools(server, name="i"):
    return [
        pool for attached, pool in server.obs.pools.items()
        if attached == f"index.{name}" or attached.startswith(f"index.{name}.")
    ]


@pytest.mark.parametrize("am", AMS)
def test_with_buffer_capacity_sizes_every_pool(am):
    server = make_server(am)
    server.execute(
        f"CREATE INDEX i ON t(c) USING {am} IN spc WITH (buffer_capacity = 7)"
    )
    pools = index_pools(server)
    assert pools and all(pool.capacity == 7 for pool in pools)
    # ... and a reopen (the next statement) keeps it.
    values = ACCESS_METHODS[am][2]
    server.execute(f"INSERT INTO t VALUES ('a', {values[1]})")
    assert all(pool.capacity == 7 for pool in index_pools(server))


@pytest.mark.parametrize("am", AMS)
def test_server_wide_capacity_is_the_default(am):
    server = make_server(am, buffer_capacity=24)
    server.execute(f"CREATE INDEX i ON t(c) USING {am} IN spc")
    pools = index_pools(server)
    assert pools and all(pool.capacity == 24 for pool in pools)


@pytest.mark.parametrize("am", AMS)
def test_handle_cache_keeps_the_pool_across_statements(am):
    server = make_server(am)
    server.execute(f"CREATE INDEX i ON t(c) USING {am} IN spc")
    before = index_pools(server)
    predicate = ACCESS_METHODS[am][3]
    rows = server.execute(f"SELECT name FROM t WHERE {predicate}")
    assert [row["name"] for row in rows] == ["seed"]
    after = index_pools(server)
    assert before and all(a is b for a, b in zip(before, after))


ABSURD = [
    (am, option)
    for am in AMS
    for option in ("buffer_capacity = 'abc'", "buffer_capacity = 0")
] + [
    ("grtree_am", "node_cache = 'x'"),
    ("grtree_am", "node_cache = -1"),
    ("grtree_am", "node_cache = 16"),
    ("grtree_am", "no_such_key = 1"),
    ("grtree_am", "specialize = 'maybe'"),
    ("hblade_am", "split_threshold = 'x'"),
    ("hblade_am", "buckets = 0"),
    ("hblade_am", "hash_path = 'maybe'"),
]


@pytest.mark.parametrize("am,option", ABSURD)
def test_absurd_with_option_is_refused_before_any_side_effect(am, option):
    server = make_server(am)
    space = server.get_sbspace("spc")
    table = server.catalog.get_table(server.blade.METADATA_TABLE)
    objects = space.object_count
    with pytest.raises(AccessMethodError):
        server.execute(f"CREATE INDEX i ON t(c) USING {am} IN spc WITH ({option})")
    assert table.row_count == 0
    assert space.object_count == objects
    assert not server.catalog.has_index("i")
    # The name is free again: a valid statement works and serves scans.
    server.execute(f"CREATE INDEX i ON t(c) USING {am} IN spc")
    assert table.row_count == 1
    predicate = ACCESS_METHODS[am][3]
    rows = server.execute(f"SELECT name FROM t WHERE {predicate}")
    assert [row["name"] for row in rows] == ["seed"]
    server.execute("CHECK INDEX i")


@pytest.mark.parametrize("am", AMS)
def test_drop_index_detaches_its_observability(am):
    server = make_server(am)
    values, predicate = ACCESS_METHODS[am][2], ACCESS_METHODS[am][3]
    server.execute(f"CREATE INDEX i ON t(c) USING {am} IN spc")
    server.execute(f"SELECT name FROM t WHERE {predicate}")
    assert index_pools(server)

    def index_collectors():
        return [
            prefix for prefix in server.obs.metrics.collector_prefixes()
            if prefix.endswith(".index.i") or ".index.i." in prefix
        ]

    assert index_collectors()
    server.execute("DROP INDEX i")
    assert index_collectors() == []
    assert index_pools(server) == []
    assert "index.i" not in server.execute("SHOW STATS")
    # A re-created index of the same name counts from zero: what it
    # exports is its own objects' counters, nothing carried over.
    server.execute(f"CREATE INDEX i ON t(c) USING {am} IN spc")
    server.execute(f"INSERT INTO t VALUES ('a', {values[1]})")
    snapshot = server.obs.metrics.snapshot()
    for name, pool in server.obs.pools.items():
        if pool in index_pools(server):
            for key in ("logical_reads", "logical_writes"):
                assert snapshot[f"buffer.{name}.{key}"] == getattr(pool.stats, key)


def test_unknown_with_key_names_the_accepted_keys():
    server = make_server("grtree_am")
    # Both keys were removed: node_cache and specialize.
    for option in ("node_cache = 16", "specialize = 'on'"):
        key = option.split()[0]
        with pytest.raises(
            AccessMethodError,
            match=rf"grtree_am does not accept WITH {key}; "
            r"its keys are buffer_capacity$",
        ):
            server.execute(
                f"CREATE INDEX i ON t(c) USING grtree_am IN spc WITH ({option})"
            )
