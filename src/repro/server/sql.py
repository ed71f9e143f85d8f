"""A small SQL front end covering the paper's statement set.

DDL: ``CREATE TABLE``, ``CREATE FUNCTION`` (with ``EXTERNAL NAME`` and
``LANGUAGE C``), ``CREATE SECONDARY ACCESS_METHOD``, ``CREATE OPCLASS``
(with ``STRATEGIES``/``SUPPORT``), ``CREATE INDEX ... USING am IN space``,
and the matching ``DROP`` statements.  DML: ``INSERT``, ``SELECT``,
``DELETE``, ``UPDATE`` with WHERE clauses combining strategy-function
predicates and comparisons with AND/OR/NOT.  Transactions: ``BEGIN WORK``,
``COMMIT WORK``, ``ROLLBACK WORK``, ``SET ISOLATION TO ...``.  Utility:
``CHECK INDEX`` and ``UPDATE STATISTICS FOR INDEX`` map onto ``am_check``
and ``am_stats``; ``LOAD``/``UNLOAD`` drive the opaque types' text-file
support functions.  Every other ``SHOW`` and ``SET`` -- the observability,
fault-injection and replication surface, including ``SET TRACE CLASS``,
the SQL face of the Section 6.4 trace facility -- is an admin statement:
:mod:`repro.server.admin` parses it into one :class:`Admin` node.

:func:`shape` and :func:`binder` serve the server's statement cache: a
text's shape is its token sequence with each literal a placeholder, and
a binder builds the statement of a cached shape from a text's literals
without parsing it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.server import admin
from repro.server.errors import SqlError

# ----------------------------------------------------------------------
# AST
# ----------------------------------------------------------------------


@dataclass
class ColumnRef:
    name: str


@dataclass
class Literal:
    text: str                 # raw text (string literals keep their body)
    is_string: bool           # True when quoted
    number: Optional[float] = None

    @property
    def python_value(self) -> Any:
        if self.is_string:
            return self.text
        if self.number is None:
            return self.text
        if self.number == int(self.number):
            return int(self.number)
        return self.number


@dataclass
class FunctionCall:
    name: str
    args: List[Union[ColumnRef, Literal]]


@dataclass
class Comparison:
    op: str  # '=', '<>', '<', '<=', '>', '>='
    left: Union[ColumnRef, Literal]
    right: Union[ColumnRef, Literal]


@dataclass
class And:
    children: List["Expr"]


@dataclass
class Or:
    children: List["Expr"]


@dataclass
class Not:
    child: "Expr"


Expr = Union[FunctionCall, Comparison, And, Or, Not]


@dataclass
class CreateTable:
    name: str
    columns: List[Tuple[str, str]]


@dataclass
class DropTable:
    name: str


@dataclass
class CreateFunction:
    name: str
    arg_types: Tuple[str, ...]
    return_type: str
    external_name: str
    language: str
    #: Informix's inter-routine association hints (Section 5.2): the
    #: only relationships the optimizer can be told about.
    negator: Optional[str] = None
    commutator: Optional[str] = None


@dataclass
class DropFunction:
    name: str


@dataclass
class CreateAccessMethod:
    name: str
    slots: Dict[str, str]
    sptype: str


@dataclass
class DropAccessMethod:
    name: str


@dataclass
class CreateOpclass:
    name: str
    am_name: str
    strategies: Tuple[str, ...]
    supports: Tuple[str, ...]
    default: bool = False


@dataclass
class DropOpclass:
    name: str


@dataclass
class CreateIndex:
    name: str
    table: str
    columns: List[Tuple[str, Optional[str]]]  # (column, opclass or None)
    am_name: Optional[str]
    space: Optional[str]
    #: ``WITH (key = value, ...)`` tuning parameters, e.g. the per-index
    #: ``buffer_capacity``.
    parameters: Dict[str, Any] = field(default_factory=dict)


@dataclass
class DropIndex:
    name: str


@dataclass
class Insert:
    table: str
    columns: Optional[List[str]]
    values: List[Literal]


@dataclass
class Select:
    columns: List[str]  # ['*'] for all
    table: str
    where: Optional[Expr]
    #: The optimizer's cache for every statement of this one's shape
    #: (``repro.server.optimizer.PlanCache``); ``None`` plans afresh.
    plan_cache: Any = field(default=None, compare=False, repr=False)


@dataclass
class Delete:
    table: str
    where: Optional[Expr]
    plan_cache: Any = field(default=None, compare=False, repr=False)


@dataclass
class Update:
    table: str
    assignments: List[Tuple[str, Literal]]
    where: Optional[Expr]
    plan_cache: Any = field(default=None, compare=False, repr=False)


@dataclass
class BeginWork:
    pass


@dataclass
class CommitWork:
    pass


@dataclass
class RollbackWork:
    pass


@dataclass
class SetIsolation:
    level: str


@dataclass
class Load:
    """``LOAD FROM 'file' [DELIMITER 'c'] INSERT INTO table`` -- drives
    the opaque type's text-file *import* support function."""

    path: str
    table: str
    delimiter: str = "|"


@dataclass
class Unload:
    """``UNLOAD TO 'file' [DELIMITER 'c'] SELECT ...`` -- drives the
    text-file *export* support function."""

    path: str
    select: "Select"
    delimiter: str = "|"


@dataclass
class CheckIndex:
    name: str


@dataclass
class UpdateStatistics:
    index_name: str


@dataclass
class Admin:
    """A ``SHOW`` or ``SET`` admin statement (:mod:`repro.server.admin`):
    ``run(server, session)`` executes it."""

    run: admin.Run


Statement = Union[
    CreateTable, DropTable, CreateFunction, DropFunction, CreateAccessMethod,
    DropAccessMethod, CreateOpclass, DropOpclass, CreateIndex, DropIndex,
    Insert, Select, Delete, Update, BeginWork, CommitWork, RollbackWork,
    SetIsolation, CheckIndex, UpdateStatistics, Load, Unload, Admin,
]

#: Catalog changes: a primary logs their text for replicas to re-execute.
DDL = (
    CreateTable, DropTable, CreateFunction, DropFunction, CreateAccessMethod,
    DropAccessMethod, CreateOpclass, DropOpclass, CreateIndex, DropIndex,
)
#: Statements a read-only replica refuses from clients.
WRITES = DDL + (Insert, Delete, Update, Load)

# ----------------------------------------------------------------------
# Tokenizer
# ----------------------------------------------------------------------

#: One token after optional whitespace.  ``bad`` takes any character no
#: token starts with, so a scan of a text never skips one.
_TOKEN = re.compile(
    r"""
    \s*(?:
        (?P<string>'(?:[^']|'')*'|"(?:[^"]|"")*")
      | (?P<number>-?\d+(?:\.\d+)?)
      | (?P<word>[A-Za-z_][A-Za-z0-9_./]*)
      | (?P<op><=|>=|<>|!=|[(),=<>*;])
      | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str  # 'string' | 'number' | 'word' | 'op'
    value: str


def _unquote(value: str) -> str:
    quote = value[0]
    return value[1:-1].replace(quote * 2, quote)


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            break  # only whitespace is left
        kind = match.lastgroup
        if kind == "bad":
            raise SqlError(f"cannot tokenize near: {text[pos:pos + 25]!r}")
        pos = match.end()
        value = match.group(kind)
        tokens.append(Token(kind, _unquote(value) if kind == "string" else value))
    return tokens


# ----------------------------------------------------------------------
# Statement shapes
# ----------------------------------------------------------------------

#: The placeholders a shape has for a quoted and a numeric literal; no
#: token reads like either.
STRING, NUMBER = "<string>", "<number>"

#: A statement's literals (strings unquoted) -> the statement.
Binder = Callable[[List[str]], "Statement"]


def shape(text: str) -> Tuple[Optional[tuple], List[str]]:
    """*text*'s shape -- its tokens with every literal a placeholder --
    and its literals in order, or ``(None, [])`` when *text* does not
    tokenize (:func:`parse` raises the error).  Keywords and identifiers
    stay verbatim."""
    key: List[str] = []
    literals: List[str] = []
    for string, number, word, op, bad in _TOKEN.findall(text):
        if word or op:
            key.append(word or op)
        elif number:
            key.append(NUMBER)
            literals.append(number)
        elif string:
            key.append(STRING)
            literals.append(_unquote(string))
        else:
            return None, []
    return tuple(key), literals


def _literal_nodes(value: Any) -> List[Literal]:
    """*value*'s ``Literal`` nodes in field order -- the text order."""
    if isinstance(value, Literal):
        return [value]
    if is_dataclass(value):
        value = [getattr(value, f.name) for f in fields(value)]
    if isinstance(value, (list, tuple)):
        return [node for item in value for node in _literal_nodes(item)]
    return []


def _template(value: Any, constants: List[Any], slot: List[int]) -> str:
    """Python source that rebuilds *value* with literal ``L[i]`` in each
    literal's place; literal-free parts are shared ``K[j]`` constants."""
    if isinstance(value, Literal):
        i = slot[0]
        slot[0] += 1
        if value.is_string:
            return f"Literal(L[{i}], True)"
        return f"Literal(L[{i}], False, float(L[{i}]))"
    if not _literal_nodes(value):
        constants.append(value)
        return f"K[{len(constants) - 1}]"
    if isinstance(value, list):
        return "[" + ", ".join(_template(v, constants, slot) for v in value) + "]"
    if isinstance(value, tuple):
        return "(" + "".join(_template(v, constants, slot) + ", " for v in value) + ")"
    args = ", ".join(
        _template(getattr(value, f.name), constants, slot) for f in fields(value)
    )
    return f"{type(value).__name__}({args})"


def binder(
    statement: "Statement", key: tuple, literals: List[str]
) -> Optional[Binder]:
    """A function that builds the statement of *statement*'s shape (its
    text's shape *key*, with literals *literals*) for other literals, or
    ``None`` when the shape cannot be cached: when the statement's
    ``Literal`` nodes are not exactly the text's literal tokens, in
    order (a ``LOAD`` path, a ``WITH`` value).  The function is compiled
    once, here; it shares every literal-free part of *statement*."""
    kinds = [token == STRING for token in key if token in (STRING, NUMBER)]
    nodes = _literal_nodes(statement)
    if [(n.text, n.is_string) for n in nodes] != list(zip(literals, kinds)):
        return None
    if not nodes:
        return lambda _literals: statement
    constants: List[Any] = []
    # The source names only AST classes, literal slots and constants:
    # no text of the statement reaches it.
    source = "lambda L: " + _template(statement, constants, [0])
    return eval(source, {**_NODES, "K": constants})


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # -- primitives -----------------------------------------------------

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise SqlError("unexpected end of statement")
        self.pos += 1
        return token

    def at_keyword(self, *words: str) -> bool:
        token = self.peek()
        return (
            token is not None
            and token.kind == "word"
            and token.value.upper() in {w.upper() for w in words}
        )

    def expect_keyword(self, word: str) -> str:
        token = self.next()
        if token.kind != "word" or token.value.upper() != word.upper():
            raise SqlError(f"expected {word}, got {token.value!r}")
        return token.value

    def accept_keyword(self, word: str) -> bool:
        if self.at_keyword(word):
            self.next()
            return True
        return False

    def expect_op(self, op: str) -> None:
        token = self.next()
        if token.kind != "op" or token.value != op:
            raise SqlError(f"expected {op!r}, got {token.value!r}")

    def accept_op(self, op: str) -> bool:
        token = self.peek()
        if token is not None and token.kind == "op" and token.value == op:
            self.next()
            return True
        return False

    def identifier(self) -> str:
        token = self.next()
        if token.kind != "word":
            raise SqlError(f"expected identifier, got {token.value!r}")
        return token.value

    def done(self) -> None:
        self.accept_op(";")
        if self.peek() is not None:
            raise SqlError(f"trailing input: {self.peek().value!r}")

    # -- statements -------------------------------------------------------

    def statement(self) -> Statement:
        if self.at_keyword("CREATE"):
            return self._create()
        if self.at_keyword("DROP"):
            return self._drop()
        if self.at_keyword("INSERT"):
            return self._insert()
        if self.at_keyword("SELECT"):
            return self._select()
        if self.at_keyword("DELETE"):
            return self._delete()
        if self.at_keyword("UPDATE"):
            return self._update()
        if self.at_keyword("BEGIN"):
            self.next()
            self.accept_keyword("WORK")
            self.done()
            return BeginWork()
        if self.at_keyword("COMMIT"):
            self.next()
            self.accept_keyword("WORK")
            self.done()
            return CommitWork()
        if self.at_keyword("ROLLBACK"):
            self.next()
            self.accept_keyword("WORK")
            self.done()
            return RollbackWork()
        if self.accept_keyword("SET"):
            if not self.accept_keyword("ISOLATION"):
                return Admin(admin.parse(self, "SET"))
            self.expect_keyword("TO")
            words = []
            while self.peek() is not None and self.peek().kind == "word":
                words.append(self.next().value)
            self.done()
            return SetIsolation(" ".join(words))
        if self.accept_keyword("SHOW"):
            return Admin(admin.parse(self, "SHOW"))
        if self.at_keyword("CHECK"):
            self.next()
            self.expect_keyword("INDEX")
            name = self.identifier()
            self.done()
            return CheckIndex(name)
        if self.at_keyword("LOAD"):
            return self._load()
        if self.at_keyword("UNLOAD"):
            return self._unload()
        raise SqlError(f"unsupported statement start: {self.peek().value!r}")

    def _load(self) -> Load:
        self.expect_keyword("LOAD")
        self.expect_keyword("FROM")
        path_token = self.next()
        if path_token.kind != "string":
            raise SqlError("LOAD FROM needs a quoted file path")
        delimiter = "|"
        if self.accept_keyword("DELIMITER"):
            delim_token = self.next()
            if delim_token.kind != "string" or len(delim_token.value) != 1:
                raise SqlError("DELIMITER needs a one-character string")
            delimiter = delim_token.value
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.identifier()
        self.done()
        return Load(path_token.value, table, delimiter)

    def _unload(self) -> Unload:
        self.expect_keyword("UNLOAD")
        self.expect_keyword("TO")
        path_token = self.next()
        if path_token.kind != "string":
            raise SqlError("UNLOAD TO needs a quoted file path")
        delimiter = "|"
        if self.accept_keyword("DELIMITER"):
            delim_token = self.next()
            if delim_token.kind != "string" or len(delim_token.value) != 1:
                raise SqlError("DELIMITER needs a one-character string")
            delimiter = delim_token.value
        select = self._select()
        return Unload(path_token.value, select, delimiter)

    # -- CREATE family ----------------------------------------------------

    def _create(self) -> Statement:
        self.expect_keyword("CREATE")
        if self.at_keyword("TABLE"):
            return self._create_table()
        if self.at_keyword("FUNCTION"):
            return self._create_function()
        if self.at_keyword("SECONDARY"):
            return self._create_access_method()
        if self.at_keyword("OPCLASS") or self.at_keyword("DEFAULT"):
            return self._create_opclass()
        if self.at_keyword("INDEX"):
            return self._create_index()
        raise SqlError(f"unsupported CREATE object: {self.peek().value!r}")

    def _create_table(self) -> CreateTable:
        self.expect_keyword("TABLE")
        name = self.identifier()
        self.expect_op("(")
        columns: List[Tuple[str, str]] = []
        while True:
            col = self.identifier()
            type_name = self.identifier()
            columns.append((col, type_name))
            if not self.accept_op(","):
                break
        self.expect_op(")")
        self.done()
        return CreateTable(name, columns)

    def _create_function(self) -> CreateFunction:
        self.expect_keyword("FUNCTION")
        name = self.identifier()
        self.expect_op("(")
        arg_types: List[str] = []
        if not self.accept_op(")"):
            while True:
                arg_types.append(self.identifier())
                if not self.accept_op(","):
                    break
            self.expect_op(")")
        self.expect_keyword("RETURNING")
        return_type = self.identifier()
        self.expect_keyword("EXTERNAL")
        self.expect_keyword("NAME")
        token = self.next()
        if token.kind != "string":
            raise SqlError("EXTERNAL NAME needs a quoted path(symbol)")
        external = token.value
        self.expect_keyword("LANGUAGE")
        language = self.identifier()
        negator = commutator = None
        if self.accept_keyword("WITH"):
            self.expect_op("(")
            while True:
                hint = self.identifier().lower()
                self.expect_op("=")
                value = self.identifier()
                if hint == "negator":
                    negator = value
                elif hint == "commutator":
                    commutator = value
                else:
                    raise SqlError(
                        f"unknown function hint {hint!r} "
                        "(only NEGATOR and COMMUTATOR exist, Section 5.2)"
                    )
                if not self.accept_op(","):
                    break
            self.expect_op(")")
        self.done()
        return CreateFunction(
            name, tuple(arg_types), return_type, external, language,
            negator=negator, commutator=commutator,
        )

    def _create_access_method(self) -> CreateAccessMethod:
        self.expect_keyword("SECONDARY")
        self.expect_keyword("ACCESS_METHOD")
        name = self.identifier()
        self.expect_op("(")
        slots: Dict[str, str] = {}
        sptype = "S"
        while True:
            key = self.identifier()
            self.expect_op("=")
            token = self.next()
            value = token.value
            if key.lower() == "am_sptype":
                sptype = value.strip('"')
            else:
                slots[key.lower()] = value
            if not self.accept_op(","):
                break
        self.expect_op(")")
        self.done()
        return CreateAccessMethod(name, slots, sptype)

    def _create_opclass(self) -> CreateOpclass:
        default = self.accept_keyword("DEFAULT")
        self.expect_keyword("OPCLASS")
        name = self.identifier()
        self.expect_keyword("FOR")
        am_name = self.identifier()
        strategies: List[str] = []
        supports: List[str] = []
        self.expect_keyword("STRATEGIES")
        self.expect_op("(")
        while True:
            strategies.append(self.identifier())
            if not self.accept_op(","):
                break
        self.expect_op(")")
        if self.at_keyword("SUPPORT"):
            self.next()
            self.expect_op("(")
            while True:
                supports.append(self.identifier())
                if not self.accept_op(","):
                    break
            self.expect_op(")")
        self.done()
        return CreateOpclass(name, am_name, tuple(strategies), tuple(supports), default)

    def _create_index(self) -> CreateIndex:
        self.expect_keyword("INDEX")
        name = self.identifier()
        self.expect_keyword("ON")
        table = self.identifier()
        self.expect_op("(")
        columns: List[Tuple[str, Optional[str]]] = []
        while True:
            col = self.identifier()
            opclass = None
            if self.peek() is not None and self.peek().kind == "word" and not (
                self.at_keyword("USING") or self.at_keyword("IN")
            ):
                opclass = self.identifier()
            columns.append((col, opclass))
            if not self.accept_op(","):
                break
        self.expect_op(")")
        am_name = None
        if self.accept_keyword("USING"):
            am_name = self.identifier()
        space = None
        if self.accept_keyword("IN"):
            space = self.identifier()
        parameters: Dict[str, Any] = {}
        if self.accept_keyword("WITH"):
            self.expect_op("(")
            while True:
                key = self.identifier().lower()
                self.expect_op("=")
                token = self.next()
                if token.kind == "number":
                    number = float(token.value)
                    value: Any = int(number) if number.is_integer() else number
                elif token.kind in ("string", "word"):
                    value = token.value
                else:
                    raise SqlError(
                        f"CREATE INDEX WITH needs a literal value for "
                        f"{key!r}, got {token.value!r}"
                    )
                parameters[key] = value
                if not self.accept_op(","):
                    break
            self.expect_op(")")
        self.done()
        return CreateIndex(name, table, columns, am_name, space, parameters)

    # -- DROP family --------------------------------------------------------

    def _drop(self) -> Statement:
        self.expect_keyword("DROP")
        if self.accept_keyword("TABLE"):
            name = self.identifier()
            self.done()
            return DropTable(name)
        if self.accept_keyword("FUNCTION"):
            name = self.identifier()
            self.done()
            return DropFunction(name)
        if self.accept_keyword("SECONDARY"):
            self.expect_keyword("ACCESS_METHOD")
            name = self.identifier()
            self.done()
            return DropAccessMethod(name)
        if self.accept_keyword("OPCLASS"):
            name = self.identifier()
            self.done()
            return DropOpclass(name)
        if self.accept_keyword("INDEX"):
            name = self.identifier()
            self.done()
            return DropIndex(name)
        raise SqlError(f"unsupported DROP object: {self.peek().value!r}")

    # -- DML -----------------------------------------------------------------

    def _insert(self) -> Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.identifier()
        columns = None
        if self.accept_op("("):
            columns = []
            while True:
                columns.append(self.identifier())
                if not self.accept_op(","):
                    break
            self.expect_op(")")
        self.expect_keyword("VALUES")
        self.expect_op("(")
        values: List[Literal] = []
        while True:
            values.append(self._literal())
            if not self.accept_op(","):
                break
        self.expect_op(")")
        self.done()
        return Insert(table, columns, values)

    def _select(self) -> Select:
        self.expect_keyword("SELECT")
        columns: List[str] = []
        if self.accept_op("*"):
            columns = ["*"]
        else:
            while True:
                columns.append(self.identifier())
                if not self.accept_op(","):
                    break
        self.expect_keyword("FROM")
        table = self.identifier()
        where = self._where()
        self.done()
        return Select(columns, table, where)

    def _delete(self) -> Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.identifier()
        where = self._where()
        self.done()
        return Delete(table, where)

    def _update(self) -> Statement:
        self.expect_keyword("UPDATE")
        if self.at_keyword("STATISTICS"):
            self.next()
            self.expect_keyword("FOR")
            self.expect_keyword("INDEX")
            name = self.identifier()
            self.done()
            return UpdateStatistics(name)
        table = self.identifier()
        self.expect_keyword("SET")
        assignments: List[Tuple[str, Literal]] = []
        while True:
            col = self.identifier()
            self.expect_op("=")
            assignments.append((col, self._literal()))
            if not self.accept_op(","):
                break
        where = self._where()
        self.done()
        return Update(table, assignments, where)

    # -- expressions -----------------------------------------------------------

    def _where(self) -> Optional[Expr]:
        if self.accept_keyword("WHERE"):
            return self._or_expr()
        return None

    def _or_expr(self) -> Expr:
        children = [self._and_expr()]
        while self.accept_keyword("OR"):
            children.append(self._and_expr())
        return children[0] if len(children) == 1 else Or(children)

    def _and_expr(self) -> Expr:
        children = [self._unary_expr()]
        while self.accept_keyword("AND"):
            children.append(self._unary_expr())
        return children[0] if len(children) == 1 else And(children)

    def _unary_expr(self) -> Expr:
        if self.accept_keyword("NOT"):
            return Not(self._unary_expr())
        if self.accept_op("("):
            inner = self._or_expr()
            self.expect_op(")")
            return inner
        return self._atom()

    def _atom(self) -> Expr:
        token = self.peek()
        if token is None:
            raise SqlError("unexpected end of WHERE clause")
        if token.kind == "word":
            # Lookahead: word '(' -> function call; else column comparison.
            after = (
                self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
            )
            if after is not None and after.kind == "op" and after.value == "(":
                name = self.identifier()
                self.expect_op("(")
                args: List[Union[ColumnRef, Literal]] = []
                while True:
                    args.append(self._value_or_column())
                    if not self.accept_op(","):
                        break
                self.expect_op(")")
                return FunctionCall(name, args)
        left = self._value_or_column()
        op_token = self.next()
        if op_token.kind != "op" or op_token.value not in (
            "=", "<>", "!=", "<", "<=", ">", ">=",
        ):
            raise SqlError(f"expected comparison operator, got {op_token.value!r}")
        op = "<>" if op_token.value == "!=" else op_token.value
        right = self._value_or_column()
        return Comparison(op, left, right)

    def _value_or_column(self) -> Union[ColumnRef, Literal]:
        token = self.peek()
        if token is None:
            raise SqlError("unexpected end of expression")
        if token.kind == "word":
            return ColumnRef(self.next().value)
        return self._literal()

    def _literal(self) -> Literal:
        token = self.next()
        if token.kind == "string":
            return Literal(token.value, is_string=True)
        if token.kind == "number":
            return Literal(token.value, is_string=False, number=float(token.value))
        raise SqlError(f"expected a literal, got {token.value!r}")


#: The AST classes a binder's source may name.
_NODES = {
    cls.__name__: cls
    for cls in (
        ColumnRef, Literal, FunctionCall, Comparison, And, Or, Not,
        Insert, Select, Delete, Update,
    )
}


def parse(text: str) -> Statement:
    """Parse one SQL statement."""
    parser = _Parser(tokenize(text))
    return parser.statement()
