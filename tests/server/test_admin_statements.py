"""The admin statements in every documented form.

``SHOW STATS/SPANS/TRACE/WORKLOAD/EVENTS/REPLICAS`` and ``SET TRACE
CLASS/FAULT/SLOW QUERY THRESHOLD/READ STALENESS`` inspect or reconfigure
the server; they must not disturb what they inspect.  For each form this
module pins what it returns, and that it leaves the span history, the
statement cache, the workload model and the statement counter exactly as
they were (``SET ISOLATION``, a normal statement, is the control).  It
also pins the layout of ``SHOW STATS`` on a fixed script and checks that
each shell alias prints what its SQL statement returns.
"""

import io
import json

import pytest

from repro.bblade import register_btree_blade
from repro.cli import Shell
from repro.datablade import register_grtree_blade
from repro.grtree.specialize import numpy_available
from repro.hblade import register_hybrid_blade
from repro.net import NetServer
from repro.server import DatabaseServer
from repro.server.errors import SqlError

EXTENT = "'01/01/98, UC, 01/01/98, NOW'"
TRACE_ID = "0a1b2c"


def _json(value):
    return json.dumps(value, indent=2, sort_keys=True, default=str)


def build():
    """A primary with three access methods, spans from two sessions (one
    tagged with a connection and a trace id), workload entries, slow-query
    and error events, and one armed failpoint."""
    server = DatabaseServer()
    server.enable_wal_shipping()
    server.ensure_wal_shipper()
    server.create_sbspace("spc")
    register_grtree_blade(server)
    register_btree_blade(server)
    register_hybrid_blade(server)
    server.prefer_virtual_index = True
    server.clock.set_text("01/01/98")
    server.execute("CREATE TABLE e (n LVARCHAR, te GRT_TimeExtent_t, k INTEGER)")
    server.execute("CREATE INDEX gi ON e(te) USING grtree_am IN spc")
    server.execute("CREATE INDEX bi ON e(k) USING btree_am IN spc")
    server.execute("CREATE INDEX hi ON e(k) USING hblade_am IN spc")
    server.execute("SET FAULT 'wal.append' RAISE HIT 1000000")
    for i in range(3):
        server.execute(f"INSERT INTO e VALUES ('r{i}', {EXTENT}, {i})")
    session = server.create_session()
    session.connection_id = 7
    session.trace_id = TRACE_ID
    server.execute("SELECT n FROM e WHERE k = 1", session)
    server.execute("SET SLOW QUERY THRESHOLD 0")
    server.execute("SELECT n FROM e WHERE k = 2", session)
    with pytest.raises(Exception):
        server.execute("SELECT n FROM missing")
    server.execute("SET SLOW QUERY THRESHOLD OFF")
    return server, session


@pytest.fixture
def built():
    return build()


def _state(server):
    """Everything an admin statement must leave alone."""
    return (
        list(server.obs.spans.roots),
        list(server._statement_cache.items()),
        server._stmt_cache_hits,
        server._stmt_cache_misses,
        _json(server.obs.workload.to_dict()),
        server.obs.metrics.counter("sql.statements"),
    )


def _levels(server, session):
    return server.trace.levels()


def _armed(server, session):
    return server.faults.armed()


def _threshold(server, session):
    return server.obs.events.slow_query_threshold_ms


def _staleness(server, session):
    return session.read_staleness


#: (statement, its result as a function of the server, the side effect
#: to check and its expected value).  Results of SHOW forms are pinned to
#: the observability call they render, at the same moment.
FORMS = [
    ("SHOW STATS", lambda s: s.obs.report(), None, None),
    ("show stats;", lambda s: s.obs.report(), None, None),
    ("SHOW STATS JSON", lambda s: _json(s.obs.to_dict()), None, None),
    ("SHOW SPANS", lambda s: s.obs.spans.format_trees(), None, None),
    ("SHOW SPANS JSON", lambda s: _json(s.obs.spans.to_dicts()), None, None),
    (
        "SHOW SPANS WHERE CONNECTION = 7",
        lambda s: s.obs.spans.format_trees(connection=7), None, None,
    ),
    ("SHOW SPANS LIMIT 2", lambda s: s.obs.spans.format_trees(2), None, None),
    ("SHOW SPANS LIMIT 0", lambda s: "(no spans recorded)", None, None),
    (
        "SHOW SPANS JSON WHERE CONNECTION = 7 LIMIT 1",
        lambda s: _json(s.obs.spans.to_dicts(connection=7, limit=1)),
        None, None,
    ),
    (
        "SHOW SPANS LIMIT 1 WHERE CONNECTION = 7",
        lambda s: s.obs.spans.format_trees(1, connection=7), None, None,
    ),
    (
        f"SHOW TRACE {TRACE_ID}",
        lambda s: s.obs.spans.format_trees(trace_id=TRACE_ID), None, None,
    ),
    (
        f"SHOW TRACE '{TRACE_ID}' JSON",
        lambda s: _json(s.obs.spans.to_dicts(trace_id=TRACE_ID)), None, None,
    ),
    (
        "SHOW TRACE feedface",
        lambda s: "(no spans recorded for trace feedface)", None, None,
    ),
    ("SHOW WORKLOAD", lambda s: s.obs.workload.report(20, "total_time"), None, None),
    (
        "SHOW WORKLOAD JSON",
        lambda s: _json(s.obs.workload.to_dict(None, "total_time")), None, None,
    ),
    (
        "SHOW WORKLOAD TOP 2 BY calls",
        lambda s: s.obs.workload.report(2, "calls"), None, None,
    ),
    (
        "SHOW WORKLOAD JSON TOP 3 BY mean_time",
        lambda s: _json(s.obs.workload.to_dict(3, "mean_time")), None, None,
    ),
    (
        "SHOW WORKLOAD TOP 1 BY total_time",
        lambda s: s.obs.workload.report(1, "total_time"), None, None,
    ),
    ("SHOW EVENTS", lambda s: s.obs.events.report(20), None, None),
    ("SHOW EVENTS JSON", lambda s: _json(s.obs.events.to_dicts(None)), None, None),
    ("SHOW EVENTS LIMIT 1", lambda s: s.obs.events.report(1), None, None),
    (
        "SHOW EVENTS JSON LIMIT 1",
        lambda s: _json(s.obs.events.to_dicts(1)), None, None,
    ),
    ("SHOW REPLICAS", lambda s: [], None, None),
    ("SHOW REPLICAS JSON", lambda s: "[]", None, None),
    (
        "SET TRACE CLASS am LEVEL 2",
        lambda s: "trace class am set to level 2", _levels, {"am": 2},
    ),
    (
        "SET TRACE CLASS am LEVEL 0",
        lambda s: "trace class am set to level 0", _levels, {},
    ),
    (
        "SET FAULT 'sbspace.page_write' RAISE",
        lambda s: "fault 'sbspace.page_write' armed: raise times=1 hits=0 "
        "triggers=0",
        _armed,
        {
            "sbspace.page_write": "raise times=1 hits=0 triggers=0",
            "wal.append": "raise hit=1000000 times=1 hits=36 triggers=0",
        },
    ),
    (
        "SET FAULT wal.append crash HIT 5000000 PROBABILITY 0.5 SEED 7 TIMES 3",
        lambda s: "fault 'wal.append' armed: crash hit=5000000 p=0.5 times=3 "
        "hits=0 triggers=0",
        _armed,
        {"wal.append": "crash hit=5000000 p=0.5 times=3 hits=0 triggers=0"},
    ),
    (
        "SET FAULT 'wal.append' TORN FOREVER HIT 5000000",
        lambda s: "fault 'wal.append' armed: torn hit=5000000 hits=0 triggers=0",
        _armed,
        {"wal.append": "torn hit=5000000 hits=0 triggers=0"},
    ),
    (
        "SET FAULT 'wal.append' OFF",
        lambda s: "fault 'wal.append' cleared", _armed, {},
    ),
    ("SET FAULT ALL OFF", lambda s: "all faults cleared", _armed, {}),
    (
        "SET SLOW QUERY THRESHOLD 25",
        lambda s: "slow query threshold set to 25 ms", _threshold, 25.0,
    ),
    (
        "SET SLOW QUERY THRESHOLD 2.5",
        lambda s: "slow query threshold set to 2.5 ms", _threshold, 2.5,
    ),
    (
        "SET SLOW QUERY THRESHOLD OFF",
        lambda s: "slow query logging off", _threshold, None,
    ),
    (
        "SET READ STALENESS 5000",
        lambda s: "read staleness bound set to 5000 ms",
        _staleness, ("ms", 5000.0),
    ),
    (
        "SET READ STALENESS LSN 3",
        lambda s: "read staleness bound set to 3 records", _staleness, ("lsn", 3),
    ),
    (
        "SET READ STALENESS OFF",
        lambda s: "read staleness bound off", _staleness, None,
    ),
]


@pytest.mark.parametrize(
    "sql,result,effect,expected", FORMS, ids=[form[0] for form in FORMS]
)
def test_form_returns_its_report_and_disturbs_nothing(
    built, sql, result, effect, expected
):
    server, session = built
    before = _state(server)
    answer = server.execute(sql, session)
    assert _state(server) == before
    assert answer == result(server)
    if effect is not None:
        assert effect(server, session) == expected


def test_set_isolation_is_the_spanned_cached_control(built):
    server, session = built
    before = _state(server)
    assert server.execute("SET ISOLATION TO DIRTY READ", session) == (
        "isolation set to dirty read"
    )
    roots, cache, hits, misses, workload, statements = _state(server)
    assert len(roots) == len(before[0]) + 1
    assert roots[-1].name == "sql.setisolation"
    assert cache[-1][0] == ("SET", "ISOLATION", "TO", "DIRTY", "READ")
    assert misses == before[3] + 1
    assert workload != before[4]
    assert statements == before[5] + 1


MALFORMED = [
    "SHOW",
    "SHOW NOTHING",
    "SHOW STATS XML",
    "SHOW SPANS WHERE CONNECTION 7",
    "SHOW SPANS SIDEWAYS",
    "SHOW TRACE",
    "SHOW WORKLOAD TOP 3",
    "SHOW WORKLOAD TOP 3 BY colour",
    "SHOW EVENTS LIMIT",
    "SHOW REPLICAS NOW",
    "SET TRACE CLASS am",
    "SET TRACE CLASS am LEVEL high",
    "SET FAULT",
    "SET FAULT 'wal.append'",
    "SET FAULT 'no.such.point' RAISE",
    "SET FAULT 'wal.append' EXPLODE",
    "SET FAULT 'wal.append' RAISE HIT 0",
    "SET FAULT 'wal.append' RAISE PROBABILITY 2",
    "SET FAULT 'wal.append' RAISE SOMETIMES",
    "SET FAULT ALL",
    "SET SLOW QUERY THRESHOLD",
    "SET SLOW QUERY THRESHOLD -5",
    "SET READ STALENESS -1",
    "SET READ STALENESS LSN -1",
    "SET ISOLATION TO SOMETIMES",
]


@pytest.mark.parametrize("sql", MALFORMED)
def test_malformed_forms_are_sql_errors(built, sql):
    server, session = built
    before = _state(server)
    with pytest.raises(SqlError):
        server.execute(sql, session)
    if not sql.startswith("SET ISOLATION"):
        assert _state(server) == before


# ----------------------------------------------------------------------
# SHOW STATS on a fixed script
# ----------------------------------------------------------------------

STATS = """\
repro observability -- onstat-style report

== counters ==
am.calls                           52
am.calls.am_beginscan              2
am.calls.am_close                  14
am.calls.am_create                 3
am.calls.am_endscan                2
am.calls.am_getnext                4
am.calls.am_insert                 9
am.calls.am_open                   14
am.calls.am_scancost               4
grtree.inserts                     3
plan.indexscan                     2
sql.errors_total                   1
sql.statements                     120
sql.statements.createaccessmethod  3
sql.statements.createfunction      101
sql.statements.createindex         3
sql.statements.createopclass       3
sql.statements.createtable         4
sql.statements.insert              3
sql.statements.select              3
sql.stmtcache.entries              13
sql.stmtcache.hits                 3
sql.stmtcache.misses               117
sql.stmtcache.size                 64

== buffer pools ==
pool                       lreads   preads  lwrites  pwrites    hit%  resident  frames  decodes    dhits
index.bi                        3        0        8        8  100.0%         2      64        0        3
index.gi                        3        0        8        8  100.0%         2      64        0        3
index.hi.hash                   5        0       19       19  100.0%        10      64        0        5
index.hi.tree                   3        0        8        8  100.0%         2      64        0        3
(total)                        14        0       43       43  100.0%
buffer hit ratio: 1.0000

== specialization ==
index                      scans  batched  fallbk  maskhit  choices  bounds  vec
index.gi                       0        0       0        0        0       0  {vec:>3}

== locks ==
acquires 32  releases 20  conflicts 0  timeouts 0  held 0

== serving ==
aborted_on_disconnect 0  busy_rejections 0  connections_open 0  connections_total 0  lock_timeouts 0  queue_capacity 32  queue_depth 0  stale_rejections 0  statement_errors 0  statements 0  workers 1

== hybrid ==
hash_path 2  inserts 3  point_lookups 2

== replication ==
role 1  subscribers 0

== write-ahead log ==
records 82  commits 6  aborts 0  active 0

== sbspaces ==
spc: closes 20  large_objects 4  opens 20  page_reads 0  page_writes 43

== faults ==
wal.append  raise hit=1000000 times=1 hits=36 triggers=0

== trace classes ==
(all disabled)

== latency histograms ==
histogram               count   mean_ms    p50_ms    p95_ms    p99_ms  buckets

spans recorded: 120 (SHOW SPANS to display)
workload fingerprints: 117 (SHOW WORKLOAD to display)
events recorded: 3 (SHOW EVENTS to display; slow-query threshold off)"""


def _untimed(report):
    """The report without the latency histogram rows (the only lines
    that carry timings)."""
    lines, section = [], None
    for line in report.splitlines():
        if line.startswith("== ") or not line:
            section = line
        elif (
            section == "== latency histograms =="
            and not line.startswith("histogram")
        ):
            continue
        lines.append(line)
    return lines


def test_show_stats_layout_on_a_fixed_script():
    server, _ = build()
    NetServer(server, workers=1).start().shutdown()
    server.ensure_wal_shipper()  # the shutdown stopped the first one
    report = server.execute("SHOW STATS")
    expected = STATS.format(vec="yes" if numpy_available() else "no")
    assert _untimed(report) == expected.splitlines()
    headers = [line for line in report.splitlines() if line.startswith("== ")]
    assert headers == [
        line for line in expected.splitlines() if line.startswith("== ")
    ]


# ----------------------------------------------------------------------
# Shell aliases
# ----------------------------------------------------------------------

ALIASES = [
    ("\\stats", "SHOW STATS"),
    ("\\stats json", "SHOW STATS JSON"),
    ("\\spans", "SHOW SPANS"),
    ("\\spans json", "SHOW SPANS JSON"),
    ("\\spans limit 1", "SHOW SPANS LIMIT 1"),
    ("\\spans conn 7", "SHOW SPANS WHERE CONNECTION = 7"),
    ("\\spans json limit 1 conn 7", "SHOW SPANS JSON WHERE CONNECTION = 7 LIMIT 1"),
    ("\\workload", "SHOW WORKLOAD"),
    ("\\workload json", "SHOW WORKLOAD JSON"),
    ("\\events", "SHOW EVENTS"),
    ("\\events 1", "SHOW EVENTS LIMIT 1"),
]


@pytest.fixture
def shell():
    shell = Shell()
    shell.session.connection_id = 7
    for line in (
        "CREATE TABLE t (a INTEGER)",
        "SET SLOW QUERY THRESHOLD 0",
        "INSERT INTO t VALUES (7)",
        "SELECT * FROM missing",
        "SELECT * FROM t",
    ):
        shell.run_line(line, io.StringIO())
    return shell


@pytest.mark.parametrize("alias,sql", ALIASES)
def test_shell_alias_prints_what_its_statement_returns(shell, alias, sql):
    via_alias, via_sql = io.StringIO(), io.StringIO()
    shell.run_line(alias, via_alias)
    shell.run_line(sql, via_sql)
    assert via_alias.getvalue() == via_sql.getvalue()
    assert via_alias.getvalue().strip()


def test_shell_trace_alias_sets_what_its_statement_sets(shell):
    shell.run_line("\\trace am 2", io.StringIO())
    via_alias = shell.server.trace.levels()
    shell.run_line("SET TRACE CLASS am LEVEL 0", io.StringIO())
    shell.run_line("SET TRACE CLASS am LEVEL 2", io.StringIO())
    assert via_alias == shell.server.trace.levels() == {"am": 2}
