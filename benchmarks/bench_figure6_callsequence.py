"""Figure 6: purpose functions called for INSERT and SELECT statements.

Runs both statements against a GR-tree-indexed table with purpose-
function tracing on, asserts the exact call sequences of the figure --
for SELECT at the paper's row budget of 1 (one ``am_getnext`` per row)
and at the engine's (one batch) -- and benchmarks each statement end to
end (parser, optimizer, descriptors, purpose functions, DataBlade,
storage).
"""

import itertools

import pytest

from repro.datablade import register_grtree_blade
from repro.server import DatabaseServer, executor
from repro.temporal.chronon import Clock, format_chronon

FIGURE_6A = ["am_open", "am_insert", "am_close"]
FIGURE_6B_PREFIX = ["am_open", "am_beginscan", "am_getnext"]
FIGURE_6B_SUFFIX = ["am_endscan", "am_close"]


def day(chronon):
    return format_chronon(chronon)


@pytest.fixture()
def server():
    server = DatabaseServer(clock=Clock(now=100))
    server.create_sbspace("spc")
    register_grtree_blade(server)
    server.execute("CREATE TABLE t (name LVARCHAR, te GRT_TimeExtent_t)")
    server.execute("CREATE INDEX gi ON t(te) USING grtree_am IN spc")
    server.prefer_virtual_index = True
    for i in range(50):
        server.execute(
            f"INSERT INTO t VALUES ('seed{i}', '{day(100)}, UC, {day(95)}, NOW')"
        )
    return server


def calls(server):
    return [text.split(".", 1)[1] for text in server.trace.texts("am")]


def test_figure6a_insert_sequence(server, benchmark, write_artifact):
    counter = itertools.count()

    def do_insert():
        i = next(counter)
        server.execute(
            f"INSERT INTO t VALUES ('x{i}', '{day(100)}, UC, {day(95)}, NOW')"
        )

    benchmark.pedantic(do_insert, rounds=10, iterations=1)

    server.trace.set_level("am", 1)
    server.execute(
        f"INSERT INTO t VALUES ('traced', '{day(100)}, UC, {day(95)}, NOW')"
    )
    sequence = calls(server)
    assert sequence == FIGURE_6A
    write_artifact(
        "figure6a_insert.txt",
        "Figure 6(a): purpose functions called for INSERT\n"
        + "\n".join(f"  {i + 1}. {c}" for i, c in enumerate(sequence))
        + "\n",
    )


def traced_select(server, query):
    """The rows and the purpose functions called for *query*."""
    server.trace.set_level("am", 1)
    server.trace.clear()
    rows = server.execute(query)
    sequence = calls(server)
    # The optimizer's am_scancost probe precedes the figure's sequence.
    assert sequence[0] == "am_scancost"
    body = sequence[1:]
    assert body[:3] == FIGURE_6B_PREFIX
    assert body[-2:] == FIGURE_6B_SUFFIX
    assert all(c == "am_getnext" for c in body[3:-2])
    return rows, sequence


def test_figure6b_select_sequence(server, benchmark, write_artifact, monkeypatch):
    query = (
        f"SELECT name FROM t WHERE "
        f"Overlaps(te, '{day(100)}, UC, {day(100)}, NOW')"
    )
    rows = benchmark(server.execute, query)
    assert len(rows) >= 50

    # At the engine's row budget (64) one am_getnext returns every row
    # and a second, empty one ends the scan.
    _, sequence = traced_select(server, query)
    assert sequence.count("am_getnext") == 2
    # The paper's protocol is the budget-1 case: one am_getnext per
    # returned row plus the final empty call.
    monkeypatch.setattr(executor, "NIOROWS", 1)
    rows, sequence = traced_select(server, query)
    assert sequence.count("am_getnext") == len(rows) + 1
    write_artifact(
        "figure6b_select.txt",
        "Figure 6(b): purpose functions called for SELECT\n"
        + "\n".join(f"  {i + 1}. {c}" for i, c in enumerate(sequence))
        + "\n",
    )
