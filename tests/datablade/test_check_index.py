"""CHECK INDEX on the R-tree and GiST blades walks the whole structure.

Both trees run the R*-tree skeleton's walker (the one the GR-tree's
crash harness trusts), so ``CHECK INDEX`` refuses an index with a leaked
page, an underfull non-root node or a parent bound that does not cover
its child -- naming the page, not just the first symptom.  Each test
builds a two-level index through SQL, plants one defect straight into
its pages, and reads the refusal.
"""

import contextlib
import random

import pytest

from repro.gist import register_gist_blade
from repro.rblade import register_rtree_blade
from repro.rblade.blade import box_output
from repro.rtree.geometry import Rect
from repro.server import DatabaseServer
from repro.server.errors import AccessMethodError

#: AM -> (registration, opclass clause, the tree's bound-check message).
BLADES = {
    "rtree_am": (register_rtree_blade, "", "bound is not the exact MBR of child"),
    "gist_am": (register_gist_blade, " gist_rect_ops", "bound does not cover child"),
}


def make_server(am):
    register, opclass, _ = BLADES[am]
    server = DatabaseServer()
    server.create_sbspace("spc")
    register(server)
    server.execute("CREATE TABLE shapes (label LVARCHAR, geom Box)")
    server.execute(f"CREATE INDEX ix ON shapes(geom{opclass}) USING {am} IN spc")
    rng = random.Random(11)
    for i in range(120):
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        rect = Rect((x, y), (x + 2, y + 2))
        server.execute(f"INSERT INTO shapes VALUES ('s{i}', '{box_output(rect)}')")
    assert "consistent" in server.execute("CHECK INDEX ix")
    return server


@contextlib.contextmanager
def opened_tree(server):
    """The index's tree between ``am_open`` and ``am_close`` (which
    flushes whatever was planted into the BLOB)."""
    info = server.catalog.get_index("ix")
    am = server.catalog.access_methods.get(info.am_name)
    session = server.system_session
    td = server.executor._descriptor(info, session)
    with session.autocommit():
        server.executor.call_purpose(am, "am_open", td)
        try:
            tree = td.user_data["tree"]
            assert tree.height == 2, "the defects need a two-level tree"
            yield tree
        finally:
            server.executor.call_purpose(am, "am_close", td)


def refusal(server) -> str:
    with pytest.raises(AccessMethodError, match="index ix corrupt") as info:
        server.execute("CHECK INDEX ix")
    return str(info.value)


@pytest.mark.parametrize("am", sorted(BLADES))
def test_leaked_page_is_refused(am):
    server = make_server(am)
    with opened_tree(server) as tree:
        leaked = tree.store.buffer.allocate()
    assert f"orphan pages not reachable from root: [{leaked}]" in refusal(server)


@pytest.mark.parametrize("am", sorted(BLADES))
def test_underfull_node_is_refused(am):
    server = make_server(am)
    with opened_tree(server) as tree:
        leaf = next(n for n in tree.iter_nodes() if n.leaf)
        removed = len(leaf.entries) - 1
        del leaf.entries[1:]
        tree.store.write(leaf)
        tree.size -= removed
        minimum = tree.min_entries
    assert f"page {leaf.page_id} underfull: 1 < {minimum}" in refusal(server)


@pytest.mark.parametrize("am", sorted(BLADES))
def test_parent_bound_not_covering_its_child_is_refused(am):
    server = make_server(am)
    with opened_tree(server) as tree:
        root = tree.store.read(tree.root_id)
        child = root.entries[0].child
        far = Rect((500.0, 500.0), (501.0, 501.0))
        if am == "rtree_am":
            root.entries[0].rect = far
        else:
            root.entries[0].key = far
        tree.store.write(root)
    message = BLADES[am][2]
    assert f"page {tree.root_id} entry 0: {message} {child}" in refusal(server)
