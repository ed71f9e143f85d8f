"""Tests for the SQL shell."""

import io

import pytest

from repro.cli import Shell


@pytest.fixture()
def shell():
    return Shell()


def run(shell, *lines):
    out = io.StringIO()
    for line in lines:
        shell.run_line(line, out)
    return out.getvalue()


class TestShell:
    def test_sql_roundtrip(self, shell):
        output = run(
            shell,
            "CREATE TABLE t (a INTEGER)",
            "INSERT INTO t VALUES (7)",
            "SELECT * FROM t",
        )
        assert "table t created" in output
        assert "7" in output
        assert "(1 row(s))" in output

    def test_errors_are_reported_not_raised(self, shell):
        output = run(shell, "SELECT * FROM missing")
        assert output.startswith("error:")

    def test_install_and_query_blade(self, shell):
        output = run(
            shell,
            "\\sbspace spc",
            "\\install grtree",
            "\\prefer on",
            "CREATE TABLE e (n LVARCHAR, te GRT_TimeExtent_t)",
            "CREATE INDEX gi ON e(te) USING grtree_am IN spc",
            "\\clock set 01/01/98",
            "INSERT INTO e VALUES ('a', '01/01/98, UC, 01/01/98, NOW')",
            "SELECT n FROM e WHERE Overlaps(te, '01/01/98, UC, 01/01/98, NOW')",
        )
        assert "DataBlade grtree registered" in output
        assert "(1 row(s))" in output

    def test_install_twice_is_friendly(self, shell):
        output = run(shell, "\\install btree", "\\install btree")
        assert "already installed" in output

    def test_clock_commands(self, shell):
        output = run(shell, "\\clock", "\\clock +5", "\\clock")
        assert "now = 0" in output
        assert "now = 5" in output

    def test_trace_and_messages(self, shell):
        output = run(
            shell,
            "\\sbspace spc",
            "\\install grtree",
            "\\trace am 1",
            "CREATE TABLE e (te GRT_TimeExtent_t)",
            "CREATE INDEX gi ON e(te) USING grtree_am IN spc",
            "\\messages am",
        )
        assert "grtree_am.am_create" in output

    def test_catalog_listing(self, shell):
        output = run(shell, "CREATE TABLE t (a INTEGER)", "\\catalog")
        assert "tables     : t" in output

    def test_unknown_meta_command(self, shell):
        assert "unknown command" in run(shell, "\\frobnicate")

    def test_quit_raises_eof(self, shell):
        with pytest.raises(EOFError):
            shell.run_line("\\quit", io.StringIO())

    def test_empty_result(self, shell):
        output = run(shell, "CREATE TABLE t (a INTEGER)", "SELECT * FROM t")
        assert "(no rows)" in output

    def test_workload_and_events_commands(self, shell):
        output = run(
            shell,
            "CREATE TABLE t (a INTEGER)",
            "SET SLOW QUERY THRESHOLD 0",
            "INSERT INTO t VALUES (7)",
            "\\workload",
            "\\events",
        )
        assert "workload model" in output
        assert "INSERT INTO T VALUES (?)" in output
        assert "slow_query" in output

    def test_spans_filter_arguments(self, shell):
        output = run(
            shell,
            "CREATE TABLE t (a INTEGER)",
            "INSERT INTO t VALUES (7)",
            "\\spans limit 1",
        )
        assert "sql.insert" in output
        # limit 1 keeps only the most recent tree
        assert "sql.create" not in output
        assert "usage:" in run(shell, "\\spans sideways")

    def test_script_runner(self, shell, tmp_path):
        script = tmp_path / "s.sql"
        script.write_text(
            "-- comment\n"
            "CREATE TABLE t (a INTEGER);\n"
            "INSERT INTO t\n  VALUES (1);\n"
            "\\catalog\n"
        )
        shell.run_script(str(script))
        assert shell.server.catalog.get_table("t").row_count == 1

    def test_admin_aliases_answer_like_their_statements(self, shell):
        assert run(shell, "\\trace am 1") == "trace class am set to level 1\n"
        assert shell.server.trace.levels() == {"am": 1}
        assert "usage: \\trace CLASS LEVEL" in run(shell, "\\trace am")
        assert "usage: \\events [json] [N]" in run(shell, "\\events -1")
        assert run(shell, "\\events 0") == "(no events recorded)\n"
