"""The statement cache keyed on a text's shape, the plan analysis it
carries, and reads that log nothing.

A cached shape's statement is rebuilt from the text's literals by a
binder compiled once per shape; it must equal what a fresh parse of the
text gives, for every text.  The plan analysis cached with the shape
must follow the catalog, and a transaction that changes nothing must
leave the write-ahead log as it was.
"""

import random
import sys
from pathlib import Path

import pytest

from repro.bblade import register_btree_blade
from repro.server import DatabaseServer
from repro.server import sql as ast
from repro.server.errors import SqlError
from repro.server.optimizer import IndexScanPlan, SeqScanPlan
from tests.obs.test_span_contract import SCRIPT

LEDGER = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger"


# ----------------------------------------------------------------------
# A seeded DML generator
# ----------------------------------------------------------------------

COLUMNS = ("k", "v", "te", "j2", "_x")
FUNCTIONS = ("Overlaps", "Equal", "bt_lessthan", "contains")
OPERATORS = ("=", "<>", "!=", "<", "<=", ">", ">=")


def _number(rng):
    whole = str(rng.choice((0, 1, 7, 42, 1000, 123456)))
    sign = rng.choice(("", "", "-"))
    return sign + whole + rng.choice(("", "", ".5", ".0", ".25"))


def _string(rng):
    body = rng.choice(("a", "it's", "x''y", "01/01/98, UC, 01/01/98, NOW", "", '"q"'))
    if rng.random() < 0.7:
        return "'" + body.replace("'", "''") + "'"
    return '"' + body.replace('"', '""') + '"'


def _literal(rng, kind):
    return _number(rng) if kind == "n" else _string(rng)


class Skeleton:
    """One statement with ``{}`` for each literal and the literals'
    kinds (``n`` or ``s``): rendered again and again, one shape."""

    def __init__(self, rng):
        self.kinds = []
        self.text = self._statement(rng)

    def slot(self, rng):
        self.kinds.append(rng.choice("ns"))
        return "{}"

    def render(self, rng):
        return self.text.format(*(_literal(rng, kind) for kind in self.kinds))

    def _operand(self, rng):
        return rng.choice(COLUMNS) if rng.random() < 0.3 else self.slot(rng)

    def _predicate(self, rng, depth=0):
        roll = rng.random()
        if depth < 2 and roll < 0.25:
            joiner = rng.choice((" AND ", " OR ", " and "))
            return joiner.join(self._predicate(rng, depth + 1) for _ in range(2))
        if depth < 2 and roll < 0.35:
            return "NOT " + self._predicate(rng, depth + 1)
        if depth < 2 and roll < 0.45:
            return "(" + self._predicate(rng, depth + 1) + ")"
        if roll < 0.7:
            column, operand = rng.choice(COLUMNS), self._operand(rng)
            sides = (column, operand) if rng.random() < 0.5 else (operand, column)
            space = rng.choice((" ", ""))
            return f"{sides[0]}{space}{rng.choice(OPERATORS)}{space}{sides[1]}"
        args = [rng.choice(COLUMNS)]
        if rng.random() < 0.8:
            args.insert(rng.randrange(2), self.slot(rng))
        return f"{rng.choice(FUNCTIONS)}({', '.join(args)})"

    def _where(self, rng):
        return " WHERE " + self._predicate(rng) if rng.random() < 0.85 else ""

    def _statement(self, rng):
        table = rng.choice(("t", "tg", "th"))
        kind = rng.choice(("select", "insert", "update", "delete"))
        if kind == "select":
            columns = "*" if rng.random() < 0.3 else ", ".join(
                rng.sample(COLUMNS, rng.randint(1, 3))
            )
            return f"SELECT {columns} FROM {table}{self._where(rng)}"
        if kind == "insert":
            values = ", ".join(self.slot(rng) for _ in range(rng.randint(1, 4)))
            columns = "" if rng.random() < 0.5 else " (k, v)"
            return f"INSERT INTO {table}{columns} VALUES ({values})"
        if kind == "update":
            sets = ", ".join(
                f"{column} = {self.slot(rng)}"
                for column in rng.sample(COLUMNS, rng.randint(1, 2))
            )
            return f"UPDATE {table} SET {sets}{self._where(rng)};"
        return f"DELETE FROM {table}{self._where(rng)}"


def generated_texts(seed, shapes=150, renders=3):
    rng = random.Random(seed)
    texts = []
    for _ in range(shapes):
        skeleton = Skeleton(rng)
        texts += [skeleton.render(rng) for _ in range(renders)]
    return texts


def ledger_texts():
    sys.path.insert(0, str(LEDGER))
    try:
        import workloads
    finally:
        sys.path.remove(str(LEDGER))
    texts = []
    for table in ("th", "tb"):
        model = workloads.KeyedModel(table, [100, 200, 300])
        texts += [
            model.select(200).sql, model.insert(201).sql,
            model.move(201, 251).sql, model.delete(251).sql, model.dump().sql,
        ]
    grt = workloads.ExtentModel()
    texts += [
        grt.insert(1, (35000, None, 34990, None)).sql,
        grt.select((35001, 35002, 34000, 35002), 35002).sql,
        grt.freeze(1, 35003).sql,
        "BEGIN WORK", "COMMIT WORK", "ROLLBACK WORK",
    ]
    return texts


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_bound_statement_equals_a_fresh_parse(seed):
    server = DatabaseServer()
    texts = generated_texts(seed)
    for text in texts:
        assert server._parse(text)[0] == ast.parse(text), text
    # Each skeleton's second and third renders are bound, not parsed.
    assert server._stmt_cache_hits >= len(texts) * 2 // 3


def test_contract_and_ledger_texts_bind_to_their_parse():
    server = DatabaseServer()
    texts = [sql.replace("<load file>", "rows.unl") for sql in SCRIPT]
    texts += ledger_texts()
    for text in texts + texts:
        assert server._parse(text)[0] == ast.parse(text), text
    # LOAD keeps a path, not a literal: its shape is parsed every time.
    assert server._stmt_cache_hits == len(texts) - 1


def test_shape_keeps_words_and_tells_literal_kinds_apart():
    key, literals = ast.shape("select v FROM t WHERE k = -5 AND v = 'it''s'")
    assert key == (
        "select", "v", "FROM", "t", "WHERE", "k", "=", ast.NUMBER,
        "AND", "v", "=", ast.STRING,
    )
    assert literals == ["-5", "it's"]
    assert ast.shape("SELECT v FROM t WHERE k = '5'")[0] != ast.shape(
        "SELECT v FROM t WHERE k = 5"
    )[0]
    # The tokenizer reads ``a-5`` as a word and a number.
    assert ast.shape("SELECT a-5 FROM t") == (
        ("SELECT", "a", ast.NUMBER, "FROM", "t"), ["-5"]
    )


@pytest.mark.parametrize(
    "text",
    [
        "SELECT v FROM t WHERE k = ?",
        "SELECT v FROM t WHERE k = 'unterminated",
        "SELECT v FROM t WHERE k = 5 @",
        "SELECT v FROM t WHERE k = 5 AND v = {}",
    ],
)
@pytest.mark.parametrize("size", [0, 64])
def test_an_untokenizable_text_still_raises(text, size):
    server = DatabaseServer(statement_cache_size=size)
    server.execute("CREATE TABLE t (k INTEGER, v LVARCHAR)")
    server.execute("SELECT v FROM t WHERE k = 5")  # the shape is cached
    with pytest.raises(SqlError) as raised:
        server.execute(text)
    with pytest.raises(SqlError) as parsed:
        ast.parse(text)
    assert str(raised.value) == str(parsed.value)
    assert str(raised.value).startswith("cannot tokenize near:")


# ----------------------------------------------------------------------
# The plan analysis follows the catalog
# ----------------------------------------------------------------------


@pytest.fixture
def keyed():
    server = DatabaseServer()
    server.create_sbspace("spc")
    register_btree_blade(server)
    server.execute("CREATE TABLE t (k INTEGER, v LVARCHAR)")
    for key in range(400):
        server.execute(f"INSERT INTO t VALUES ({key}, 'v{key}')")
    return server


def _plan(server, key):
    hits = server._stmt_cache_hits
    assert server.execute(f"SELECT v FROM t WHERE k = {key}") == [{"v": f"v{key}"}]
    assert server._stmt_cache_hits == hits + 1  # one shape throughout
    return server.last_plan


def test_create_and_drop_index_change_a_cached_shapes_plan(keyed):
    keyed.execute("SELECT v FROM t WHERE k = 0")
    assert isinstance(_plan(keyed, 1), SeqScanPlan)
    keyed.execute("CREATE INDEX bi ON t(k) USING btree_am IN spc")
    plan = _plan(keyed, 2)
    assert isinstance(plan, IndexScanPlan) and plan.index.name == "bi"
    assert plan.qualification.constant == 2
    assert _plan(keyed, 3).qualification.constant == 3
    keyed.execute("DROP INDEX bi")
    assert isinstance(_plan(keyed, 4), SeqScanPlan)


def test_drop_and_create_function_change_a_cached_shapes_plan(keyed):
    keyed.execute("CREATE INDEX bi ON t(k) USING btree_am IN spc")
    keyed.execute("SELECT v FROM t WHERE k = 0")
    assert isinstance(_plan(keyed, 1), IndexScanPlan)
    keyed.library.register("usr/functions/costly.bld", "scancost", lambda sd: 1e9)
    keyed.execute("DROP FUNCTION bt_scancost")
    keyed.execute(
        "CREATE FUNCTION bt_scancost(POINTER) RETURNING INT "
        "EXTERNAL NAME 'usr/functions/costly.bld(scancost)' LANGUAGE c"
    )
    assert isinstance(_plan(keyed, 2), SeqScanPlan)


def test_every_catalog_change_moves_the_version(keyed):
    catalog = keyed.catalog
    seen = [catalog.version]
    for sql in (
        "CREATE TABLE u (k INTEGER)",
        "CREATE INDEX bu ON u(k) USING btree_am IN spc",
        "DROP INDEX bu",
        "DROP TABLE u",
        "DROP FUNCTION bt_check",
    ):
        keyed.execute(sql)
        seen.append(catalog.version)
    catalog.routines.set_negator("bt_equal", "bt_notequal")
    seen.append(catalog.version)
    assert seen == sorted(set(seen))


# ----------------------------------------------------------------------
# Reads log nothing
# ----------------------------------------------------------------------


def test_a_read_only_transaction_appends_no_wal_record(keyed):
    keyed.execute("CREATE INDEX bi ON t(k) USING btree_am IN spc")
    session = keyed.create_session()
    before = len(keyed.wal)
    for end in ("COMMIT WORK", "ROLLBACK WORK"):
        keyed.execute("BEGIN WORK", session)
        keyed.execute("SELECT v FROM t WHERE k = 7", session)
        keyed.execute("SELECT v FROM t WHERE k >= 390", session)
        keyed.execute(end, session)
    keyed.execute("SELECT v FROM t WHERE k = 8")  # autocommit
    assert len(keyed.wal) == before
    assert keyed.wal.stats()["active"] == 0


def test_a_writing_transaction_logs_begin_with_its_first_change(keyed):
    keyed.execute("CREATE INDEX bi ON t(k) USING btree_am IN spc")
    session = keyed.create_session()
    first = len(keyed.wal)
    keyed.execute("BEGIN WORK", session)
    keyed.execute("SELECT v FROM t WHERE k = 7", session)
    assert len(keyed.wal) == first
    keyed.execute("INSERT INTO t VALUES (1000, 'new')", session)
    keyed.execute("COMMIT WORK", session)
    kinds = [record.kind.value for record in keyed.wal.records_from(first)]
    assert kinds[0] == "begin" and kinds[-1] == "commit"
    assert "begin" not in kinds[1:] and len(kinds) > 2
    txn = session.server.wal.records_from(first)[0].txn_id
    assert keyed.wal.is_committed(txn)
