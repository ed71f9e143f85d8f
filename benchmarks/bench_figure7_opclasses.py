"""Figure 7: one access method, several operator classes -- and the cost
of extensibility.

Reconstructs the figure's association (an AM with multiple opclasses,
including an extension adding a new strategy function), then measures
the paper's stated trade-off: hard-coded strategy dispatch versus
dynamic resolution of strategy UDRs per index entry (Section 5.2).
"""

import random

import pytest

from repro.rblade import register_rtree_blade
from repro.rblade.blade import box_output
from repro.rtree.geometry import Rect
from repro.server import DatabaseServer


@pytest.fixture()
def server():
    server = DatabaseServer()
    server.create_sbspace("spc")
    register_rtree_blade(server)
    server.execute("CREATE TABLE shapes (label LVARCHAR, geom Box)")
    server.execute("CREATE INDEX rti ON shapes(geom) USING rtree_am IN spc")
    server.prefer_virtual_index = True
    rng = random.Random(77)
    for i in range(400):
        x, y = rng.uniform(0, 500), rng.uniform(0, 500)
        rect = Rect((x, y), (x + rng.uniform(1, 6), y + rng.uniform(1, 6)))
        server.execute(
            f"INSERT INTO shapes VALUES ('s{i}', '{box_output(rect)}')"
        )
    return server


def blade_of(server):
    return server.catalog.routines.resolve_any("rt_getnext").fn.__self__


def test_figure7_multiple_opclasses(server, benchmark, write_artifact):
    """An AM can have several opclasses; extensions add strategies."""
    # A second operator class for the same AM: the paper's example adds
    # a Neighbour() strategy to the R-tree (close but not overlapping).
    server.library.register(
        "usr/functions/rtree.bld",
        "rt_neighbour_udr",
        lambda a, b: not a.intersects(b) and a.distance_to_center(b) < 400,
    )
    server.execute(
        "CREATE FUNCTION Neighbour(Box, Box) RETURNING boolean "
        "EXTERNAL NAME 'usr/functions/rtree.bld(rt_neighbour_udr)' LANGUAGE c"
    )
    server.execute(
        "CREATE OPCLASS rtree_extended FOR rtree_am "
        "STRATEGIES(Overlap, Equal, Contains, Within, Neighbour) "
        "SUPPORT(RT_Union, RT_Size, RT_Inter)"
    )
    opclasses = benchmark(
        server.catalog.opclasses.for_access_method, "rtree_am"
    )
    assert {oc.name for oc in opclasses} == {"rtree_ops", "rtree_extended"}
    extended = server.catalog.opclasses.get("rtree_extended")
    assert extended.is_strategy("Neighbour")
    # The default opclass is unchanged.
    am = server.catalog.access_methods.get("rtree_am")
    assert am.default_opclass == "rtree_ops"

    lines = [
        "Figure 7 reproduction: access method <-> operator classes",
        f"  access method: rtree_am",
    ]
    for oc in opclasses:
        lines.append(
            f"  opclass {oc.name}: strategies={list(oc.strategies)}"
        )
    write_artifact("figure7_opclasses.txt", "\n".join(lines) + "\n")


@pytest.mark.parametrize("dynamic", [False, True], ids=["hardcoded", "dynamic"])
def test_figure7_dispatch_cost(server, benchmark, dynamic, write_artifact):
    """The 'cost of this extensibility is the overhead of dynamic
    resolution and execution of strategy and support functions'."""
    blade = blade_of(server)
    blade.dynamic_dispatch = dynamic
    query = "SELECT label FROM shapes WHERE Overlap(geom, '(0, 0, 400, 400)')"

    benchmark(server.execute, query)
    # The artifact counts one statement, whatever number of timing
    # rounds ran before it.
    before = server.catalog.routines.resolutions
    rows = server.execute(query)
    assert len(rows) > 100

    resolutions = server.catalog.routines.resolutions - before
    mode = "dynamic" if dynamic else "hardcoded"
    write_artifact(
        f"figure7_dispatch_{mode}.txt",
        f"dispatch={mode}: rows={len(rows)}, "
        f"UDR resolutions during one statement={resolutions}\n",
    )
