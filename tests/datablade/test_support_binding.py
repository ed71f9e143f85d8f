"""Support functions are resolved once per index open, and rebound at
every open.

``btree_am`` orders its tree with the operator class's ``Compare``;
``hblade_am`` orders its tree with ``HB_Compare`` and places hash
entries with ``HB_Hash``.  Each is resolved by name and signature when
the index opens -- whether the open builds the structures or reuses them
from the handle cache -- and the bound routine serves every call until
the close.  So a ``DROP FUNCTION`` fails the next statement that needs
the routine with a typed error (the stale routine never runs), a
re-created function serves the next open, and the registry's resolution
count grows by at most one per support function per ``am_open``.
"""

import random

import pytest

from repro.bblade import register_btree_blade
from repro.bblade.blade import natural
from repro.hblade import register_hybrid_blade
from repro.server import DatabaseServer
from repro.server.errors import UdrError
from repro.server.optimizer import IndexScanPlan

#: am -> (library path, support functions: SQL name -> (symbol, arity)).
SUPPORTS = {
    "btree_am": (
        "usr/functions/btree.bld",
        {"Compare": ("bt_compare_udr", 2)},
    ),
    "hblade_am": (
        "usr/functions/hblade.bld",
        {"HB_Compare": ("hb_compare_udr", 2), "HB_Hash": ("hb_hash_udr", 1)},
    ),
}

QUERIES = ("k = 5", "k = 77", "k >= 10 AND k < 20", "k > 25", "k <= 3")


def make_server(am: str):
    server = DatabaseServer()
    server.create_sbspace("spc")
    register_btree_blade(server)
    register_hybrid_blade(server)
    server.prefer_virtual_index = True
    server.execute("CREATE TABLE t (k INTEGER, v LVARCHAR)")
    server.execute(f"CREATE INDEX ti ON t(k) USING {am} IN spc")
    for i in range(150):
        server.execute(f"INSERT INTO t VALUES ({i % 30}, 'r{i}')")
    return server


def answers(server):
    result = {}
    for where in QUERIES:
        rows = server.execute(f"SELECT v FROM t WHERE {where}")
        assert isinstance(server.last_plan, IndexScanPlan), where
        result[where] = sorted(row["v"] for row in rows)
    return result


def create_function(server, am: str, name: str, symbol: str = None) -> None:
    library, supports = SUPPORTS[am]
    default_symbol, arity = supports[name]
    arguments = ", ".join(["INTEGER"] * arity)
    server.execute(
        f"CREATE FUNCTION {name}({arguments}) RETURNING int "
        f"EXTERNAL NAME '{library}({symbol or default_symbol})' LANGUAGE c"
    )


@pytest.mark.parametrize("am", sorted(SUPPORTS))
def test_each_support_resolves_at_most_once_per_open(am, monkeypatch):
    """From CREATE INDEX on, through inserts, scans, updates, deletes
    and CHECK INDEX: never more resolutions of a support function than
    ``am_open`` calls."""
    server = DatabaseServer()
    server.create_sbspace("spc")
    register_btree_blade(server)
    register_hybrid_blade(server)
    server.prefer_virtual_index = True
    server.execute("CREATE TABLE t (k INTEGER, v LVARCHAR)")
    routines = server.catalog.routines
    resolved = []
    resolve = routines.resolve

    def recording(name, arg_types):
        resolved.append(name)
        return resolve(name, arg_types)

    monkeypatch.setattr(routines, "resolve", recording)
    counter = server.obs.metrics.counter
    opens = counter("am.calls.am_open")
    server.execute(f"CREATE INDEX ti ON t(k) USING {am} IN spc")
    rng = random.Random(4)
    for i in range(120):
        server.execute(f"INSERT INTO t VALUES ({rng.randint(0, 40)}, 'r{i}')")
    answers(server)
    server.execute("UPDATE t SET k = 41 WHERE k = 7")
    server.execute("DELETE FROM t WHERE k = 41")
    assert "consistent" in server.execute("CHECK INDEX ti")
    opens = counter("am.calls.am_open") - opens
    assert opens >= 120
    for name in SUPPORTS[am][1]:
        assert 0 < resolved.count(name) <= opens, name


@pytest.mark.parametrize("am", sorted(SUPPORTS))
def test_a_warm_select_resolves_each_support_once(am):
    """Once purpose functions are resolved and cached, an equality
    SELECT adds one resolution per support function to the registry's
    count, however many keys its probe compares."""
    server = make_server(am)
    answers(server)
    routines = server.catalog.routines
    before = routines.resolutions
    for k in range(20):
        server.execute(f"SELECT v FROM t WHERE k = {k}")
    assert routines.resolutions - before == 20 * len(SUPPORTS[am][1])


@pytest.mark.parametrize(
    "am, name, where",
    [
        ("btree_am", "Compare", "k = 5"),
        ("btree_am", "Compare", "k > 25"),
        ("hblade_am", "HB_Compare", "k > 25"),  # ranges walk the tree
        ("hblade_am", "HB_Hash", "k = 5"),  # equality probes the hash
    ],
)
def test_drop_function_fails_the_next_select_and_recreate_restores(am, name, where):
    server = make_server(am)
    before = answers(server)
    server.execute(f"DROP FUNCTION {name}")
    with pytest.raises(UdrError, match=f"no routine named {name}"):
        server.execute(f"SELECT v FROM t WHERE {where}")
    create_function(server, am, name)
    assert answers(server) == before
    assert "consistent" in server.execute("CHECK INDEX ti")


@pytest.mark.parametrize("am", sorted(SUPPORTS))
def test_recreated_compare_is_bound_at_the_next_open(am):
    """The handle cache keeps the tree across statements; the routine
    it compares with is still the one resolved at the latest open."""
    server = make_server(am)
    before = answers(server)
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return natural(a, b)

    library, supports = SUPPORTS[am]
    name = next(n for n in supports if n.lower().endswith("compare"))
    server.library.register(library, "counting_compare", counting)
    server.execute(f"DROP FUNCTION {name}")
    create_function(server, am, name, symbol="counting_compare")
    assert answers(server) == before
    assert calls, "the re-created routine did not serve the next open"


@pytest.mark.parametrize("am", sorted(SUPPORTS))
def test_index_with_a_dropped_support_can_still_be_dropped(am):
    server = make_server(am)
    for name in SUPPORTS[am][1]:
        server.execute(f"DROP FUNCTION {name}")
    server.execute("DROP INDEX ti")
    rows = server.execute("SELECT v FROM t WHERE k = 5")
    assert sorted(row["v"] for row in rows) == sorted(
        f"r{i}" for i in range(150) if i % 30 == 5
    )
