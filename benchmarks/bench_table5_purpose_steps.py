"""Table 5 / Appendix A: the steps of each purpose function.

Enables step-level tracing (the ``grt`` trace class at level 2), drives
every purpose function through SQL, and asserts the traced steps match
the paper's step lists: grt_create's seven steps, grt_open's fast path
after create and its full path later, the Cursor life cycle, and the
delete-reuses-cursor behaviour of Section 5.5.
"""

import pytest

from repro.datablade import register_grtree_blade
from repro.server import DatabaseServer
from repro.temporal.chronon import Clock, format_chronon


def day(chronon):
    return format_chronon(chronon)


@pytest.fixture()
def server():
    server = DatabaseServer(clock=Clock(now=100))
    server.create_sbspace("spc")
    # This benchmark asserts the paper's literal "long way" grt_open
    # step list, so the handle cache (which skips those steps on a
    # reopen) is turned off here.
    register_grtree_blade(server, handle_cache=False)
    server.execute("CREATE TABLE t (name LVARCHAR, te GRT_TimeExtent_t)")
    server.prefer_virtual_index = True
    server.trace.set_level("grt", 2)
    return server


def steps(server, function):
    prefix = function + "("
    return [t for t in server.trace.texts("grt") if t.startswith(prefix)]


def test_table5_create_and_open_steps(server, benchmark, write_artifact):
    benchmark.pedantic(
        lambda: server.execute("CREATE INDEX gi ON t(te) USING grtree_am IN spc"),
        rounds=1, iterations=1,
    )
    create_steps = steps(server, "grt_create")
    # The seven steps of Table 5 (checks, BLOB, metadata record, open).
    assert len(create_steps) == 7
    assert "create Tree object" in create_steps[0]
    assert "column types accepted" in create_steps[1]
    assert "operator class accepted" in create_steps[2]
    assert "no equivalent index exists" in create_steps[3]
    assert "created BLOB" in create_steps[4]
    assert "grtree_indexdata" in create_steps[5]
    assert "opened the BLOB" in create_steps[6]

    # grt_open invoked right after grt_create: step (1), exit.
    open_steps = steps(server, "grt_open")
    assert any("right after grt_create" in s for s in open_steps)

    # A later statement opens the index the long way: steps 2-4.
    server.trace.clear()
    server.execute(
        f"INSERT INTO t VALUES ('a', '{day(100)}, UC, {day(95)}, NOW')"
    )
    open_steps = steps(server, "grt_open")
    assert any("create Tree object" in s for s in open_steps)
    assert any("BLOB handle" in s for s in open_steps)
    assert any("opened the BLOB" in s for s in open_steps)

    write_artifact(
        "table5_create_open.txt",
        "grt_create steps:\n" + "\n".join(f"  {s}" for s in create_steps)
        + "\n\ngrt_open (subsequent statement) steps:\n"
        + "\n".join(f"  {s}" for s in open_steps) + "\n",
    )


def test_table5_scan_and_update_steps(server, benchmark, write_artifact):
    server.execute("CREATE INDEX gi ON t(te) USING grtree_am IN spc")
    for i in range(30):
        server.execute(
            f"INSERT INTO t VALUES ('r{i}', '{day(100)}, UC, {day(95)}, NOW')"
        )
    q = f"'{day(100)}, UC, {day(100)}, NOW'"

    select = f"SELECT name FROM t WHERE Overlaps(te, {q})"
    benchmark(server.execute, select)
    # The artifact is one statement's steps, whatever number of timing
    # rounds ran before it.
    server.trace.clear()
    rows = server.execute(select)
    assert len(rows) == 30

    begin = steps(server, "grt_beginscan")
    assert any("qualification descriptor" in s for s in begin)
    assert any("create Cursor" in s for s in begin)
    getnext = steps(server, "grt_getnext")
    assert len(getnext) >= 30  # one retrowid formed per returned row
    end = steps(server, "grt_endscan")
    assert any("deleted Cursor" in s for s in end)

    # Deletion: Table 5's grt_delete plus the Section 5.5 condense note.
    server.trace.clear()
    deleted = server.execute(f"DELETE FROM t WHERE Overlaps(te, {q})")
    assert deleted == 30
    delete_steps = steps(server, "grt_delete")
    assert any("Tree.delete()" in s for s in delete_steps)

    # grt_update = grt_delete + grt_insert (Table 5's last row).
    server.execute(
        f"INSERT INTO t VALUES ('u', '{day(100)}, UC, {day(100)}, NOW')"
    )
    server.trace.clear()
    server.execute(
        f"UPDATE t SET te = '{day(100)}, UC, {day(99)}, NOW' "
        f"WHERE Equal(te, {q})"
    )
    update_steps = steps(server, "grt_update")
    assert any("invoke grt_delete" in s for s in update_steps)
    assert any("invoke grt_insert" in s for s in update_steps)

    write_artifact(
        "table5_scan_update.txt",
        "grt_beginscan steps:\n" + "\n".join(f"  {s}" for s in begin)
        + "\n\ngrt_delete steps (first row):\n"
        + "\n".join(f"  {s}" for s in delete_steps[:4])
        + "\n\ngrt_update steps:\n"
        + "\n".join(f"  {s}" for s in update_steps) + "\n",
    )
