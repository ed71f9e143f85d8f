"""Admin statements refuse values that would silently mean something
else: negative or fractional counts, failpoints that could never fire,
negative trace levels."""

import pytest

from repro.faults import FaultRegistry
from repro.server import DatabaseServer
from repro.server.errors import SqlError


@pytest.fixture
def server():
    s = DatabaseServer()
    s.execute("CREATE TABLE t (a INTEGER)")
    s.execute("INSERT INTO t VALUES (1)")
    s.execute("SET SLOW QUERY THRESHOLD 0")
    s.execute("INSERT INTO t VALUES (2)")
    return s


@pytest.mark.parametrize(
    "sql",
    [
        # Negative counts used to mean "everything" (LIMIT) or "nothing"
        # (TOP, which then claimed no statements were recorded).
        "SHOW SPANS LIMIT -1",
        "SHOW EVENTS LIMIT -1",
        "SHOW WORKLOAD TOP -1 BY calls",
        "SHOW SPANS WHERE CONNECTION = -1",
        # Fractions used to be truncated.
        "SET TRACE CLASS am LEVEL 1.7",
        "SET FAULT 'wal.append' RAISE HIT 1.5",
        "SET FAULT 'wal.append' RAISE TIMES 2.5",
        "SET FAULT 'wal.append' RAISE SEED 0.5",
        "SHOW SPANS WHERE CONNECTION = 1.5",
        "SHOW SPANS LIMIT 0.5",
        "SHOW EVENTS LIMIT 2.5",
        "SHOW WORKLOAD TOP 1.5 BY calls",
        "SET READ STALENESS LSN 1.5",
    ],
)
def test_negative_and_fractional_counts_are_refused(server, sql):
    with pytest.raises(SqlError, match="non-negative integer"):
        server.execute(sql)


def test_refused_counts_change_nothing(server):
    with pytest.raises(SqlError):
        server.execute("SET TRACE CLASS am LEVEL 1.7")
    assert server.trace.levels() == {}
    with pytest.raises(SqlError):
        server.execute("SET FAULT 'wal.append' RAISE HIT 1.5")
    assert server.faults is None or server.faults.armed() == {}


def test_zero_counts_keep_their_meaning(server):
    assert server.execute("SHOW SPANS LIMIT 0") == "(no spans recorded)"
    assert server.execute("SHOW WORKLOAD TOP 0 BY calls") == (
        "(no statements recorded)"
    )
    assert server.execute("SHOW EVENTS LIMIT 0") == "(no events recorded)"


@pytest.mark.parametrize("times", ["0", "-1"])
def test_a_failpoint_that_cannot_fire_is_refused(server, times):
    with pytest.raises(SqlError):
        server.execute(f"SET FAULT 'wal.append' RAISE TIMES {times}")
    assert server.faults is None or server.faults.armed() == {}
    # The next write is unaffected.
    assert server.execute("INSERT INTO t VALUES (3)") == 1


@pytest.mark.parametrize("times", [0, -1])
def test_registry_refuses_times_below_one(times):
    registry = FaultRegistry()
    with pytest.raises(ValueError, match="times"):
        registry.set_fault("wal.append", "raise", times=times)
    assert registry.armed() == {}


def test_registry_still_takes_forever_and_one():
    registry = FaultRegistry()
    assert registry.set_fault("wal.append", times=None).times is None
    assert registry.set_fault("wal.append", times=1).times == 1


def test_negative_trace_level_is_refused(server):
    server.execute("SET TRACE CLASS am LEVEL 2")
    with pytest.raises(SqlError):
        server.execute("SET TRACE CLASS am LEVEL -3")
    assert server.trace.levels() == {"am": 2}
    assert server.execute("SET TRACE CLASS am LEVEL 0") == (
        "trace class am set to level 0"
    )
    assert server.trace.levels() == {}
