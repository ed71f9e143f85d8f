"""The SQL surface of the GR-tree kernels.

Every ``grtree_am`` index runs its tree's kernels whenever numpy is
importable; there is no switch.  What SQL sees of them is ``SHOW
STATS``: the bundle's counters, exported under ``spec.index.<name>``,
following the bundle when a handle is rebuilt.
"""

from repro.datablade import register_grtree_blade
from repro.grtree.specialize import numpy_available
from repro.server import DatabaseServer
from repro.temporal.chronon import Clock, format_chronon


def day(chronon):
    return format_chronon(chronon)


def make_server():
    server = DatabaseServer(clock=Clock(now=100))
    server.create_sbspace("spc")
    blade = register_grtree_blade(server)
    server.execute("CREATE TABLE t (name LVARCHAR, te GRT_TimeExtent_t)")
    server.execute("CREATE INDEX gi ON t(te) USING grtree_am IN spc")
    server.prefer_virtual_index = True
    return server, blade


def populate(server, count=30):
    for i in range(count):
        server.execute(
            f"INSERT INTO t VALUES ('r{i}', "
            f"'{day(100)}, UC, {day(95 - i % 5)}, NOW')"
        )


QUERY = (
    "SELECT name FROM t WHERE "
    f"Overlaps(te, '{day(100)}, UC, {day(95)}, NOW')"
)


class TestSpecializeObservability:
    def test_metrics_and_report(self):
        server, blade = make_server()
        populate(server)
        server.execute(QUERY)
        snapshot = server.obs.metrics.snapshot()
        assert "spec.index.gi.scans_compiled" in snapshot
        assert snapshot["spec.index.gi.vectorized"] == int(numpy_available())
        report = server.obs.report()
        assert "specialization" in report
        assert "index.gi" in report
        if numpy_available():
            assert snapshot["spec.index.gi.scans_compiled"] > 0

    def test_stats_survive_handle_revival(self):
        server, blade = make_server()
        populate(server)
        server.execute(QUERY)
        # A storage-epoch bump (e.g. crash recovery) rebuilds the handle
        # and its bundle; the obs collector must follow the new bundle.
        server.storage_epoch += 1
        server.execute(QUERY)
        snapshot = server.obs.metrics.snapshot()
        assert "spec.index.gi.scans_compiled" in snapshot
