"""Admin statements: every ``SHOW`` and every ``SET`` but ``SET
ISOLATION``, each defined once.

``SHOW STATS [JSON]``, ``SHOW SPANS [JSON] [WHERE CONNECTION = n] [LIMIT
n]``, ``SHOW TRACE <id> [JSON]``, ``SHOW WORKLOAD [JSON] [TOP n BY
calls|total_time|mean_time]``, ``SHOW EVENTS [JSON] [LIMIT n]`` and
``SHOW REPLICAS [JSON]`` inspect the observability hub and replication.
``SET TRACE CLASS <class> LEVEL <n>`` (the Section 6.4 trace facility as
SQL), ``SET FAULT ...``, ``SET SLOW QUERY THRESHOLD <ms>|OFF`` and ``SET
READ STALENESS <ms>|LSN <n>|OFF`` reconfigure the server or the session.

Each statement is one function: it reads the words after its keywords
from the SQL parser and returns what runs it against ``(server,
session)``.  The parser wraps that in :class:`repro.server.sql.Admin`,
and the server runs an ``Admin`` unspanned, uncached and outside the
workload model, so inspecting the server never changes what it shows.
Adding a statement is one function here plus its entry in
:data:`STATEMENTS`.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict

from repro.server.errors import SqlError

#: A parsed admin statement: ``run(server, session) -> result``.
Run = Callable[[Any, Any], Any]


def render(value: Any) -> str:
    """The output of every ``... JSON`` form."""
    return json.dumps(value, indent=2, sort_keys=True, default=str)


def _json(p) -> bool:
    """The optional ``JSON`` keyword."""
    return p.accept_keyword("JSON")


def _number(p, context: str, integral: bool = True):
    """A non-negative number, an integer unless *integral* is off: a
    negative count or a fraction where an integer is due is refused,
    never clamped or truncated."""
    token = p.next()
    if token.kind != "number":
        raise SqlError(f"{context} needs a number, got {token.value!r}")
    value = float(token.value)
    if value < 0 or (integral and not value.is_integer()):
        wanted = "a non-negative integer" if integral else "a value >= 0"
        raise SqlError(f"{context} needs {wanted}, got {token.value}")
    return int(value) if integral else value


# ----------------------------------------------------------------------
# SHOW
# ----------------------------------------------------------------------


def _show_stats(p) -> Run:
    as_json = _json(p)
    return lambda server, session: (
        render(server.obs.to_dict()) if as_json else server.obs.report()
    )


def _show_spans(p) -> Run:
    as_json = _json(p)
    where: Dict[str, Any] = {"connection": None, "limit": None}
    while p.peek() is not None and p.peek().kind == "word":
        if p.accept_keyword("WHERE"):
            p.expect_keyword("CONNECTION")
            p.expect_op("=")
            where["connection"] = _number(p, "SHOW SPANS WHERE CONNECTION")
        elif p.accept_keyword("LIMIT"):
            where["limit"] = _number(p, "SHOW SPANS LIMIT")
        else:
            raise SqlError(f"unexpected SHOW SPANS option {p.peek().value!r}")
    return lambda server, session: (
        render(server.obs.spans.to_dicts(**where))
        if as_json
        else server.obs.spans.format_trees(**where)
    )


def _show_trace(p) -> Run:
    # Trace ids are hex strings that may start with a digit, so the
    # tokenizer can split one into number/word runs: accept a quoted
    # string, or join the adjacent pieces back together.
    parts = []
    while (
        p.peek() is not None
        and p.peek().kind in ("word", "number", "string")
        and not p.at_keyword("JSON")
    ):
        parts.append(p.next().value)
    if not parts:
        raise SqlError("SHOW TRACE needs a trace id")
    trace_id = "".join(parts)
    as_json = _json(p)

    def run(server, session):
        spans = server.obs.spans
        if as_json:
            return render(spans.to_dicts(trace_id=trace_id))
        rendered = spans.format_trees(trace_id=trace_id)
        if rendered == "(no spans recorded)":
            return f"(no spans recorded for trace {trace_id})"
        return rendered

    return run


def _show_workload(p) -> Run:
    as_json = _json(p)
    top, by = None, "total_time"
    if p.accept_keyword("TOP"):
        top = _number(p, "SHOW WORKLOAD TOP")
        p.expect_keyword("BY")
        by = p.identifier().lower()

    def run(server, session):
        workload = server.obs.workload
        try:
            if as_json:
                return render(workload.to_dict(top, by))
            return workload.report(20 if top is None else top, by)
        except ValueError as exc:  # an unknown ordering
            raise SqlError(str(exc)) from None

    return run


def _show_events(p) -> Run:
    as_json = _json(p)
    limit = _number(p, "SHOW EVENTS LIMIT") if p.accept_keyword("LIMIT") else None
    return lambda server, session: (
        render(server.obs.events.to_dicts(limit))
        if as_json
        else server.obs.events.report(20 if limit is None else limit)
    )


def _show_replicas(p) -> Run:
    as_json = _json(p)
    return lambda server, session: (
        render(server.replication_status())
        if as_json
        else server.replication_status()
    )


# ----------------------------------------------------------------------
# SET
# ----------------------------------------------------------------------


def _set_trace_class(p) -> Run:
    trace_class = p.identifier()
    p.expect_keyword("LEVEL")
    level = _number(p, "SET TRACE CLASS ... LEVEL")

    def run(server, session):
        server.trace.set_level(trace_class, level)
        return f"trace class {trace_class} set to level {level}"

    return run


def _set_fault(p) -> Run:
    """``SET FAULT '<name>' <action> [HIT n] [PROBABILITY p] [SEED s]
    [TIMES n | FOREVER]``, ``SET FAULT '<name>' OFF``, ``SET FAULT ALL
    OFF`` -- arm or disarm a failpoint (``repro.faults``)."""
    name = None
    if p.accept_keyword("ALL"):
        p.expect_keyword("OFF")
    else:
        token = p.next()
        if token.kind not in ("string", "word"):
            raise SqlError(f"SET FAULT needs a failpoint name, got {token.value!r}")
        name = token.value
    if name is None or p.accept_keyword("OFF"):

        def clear(server, session):
            registry = server.ensure_faults()
            if name is None:
                registry.clear_all()
                return "all faults cleared"
            registry.clear_fault(name)
            return f"fault '{name}' cleared"

        return clear
    action = p.next()
    if action.kind != "word":
        raise SqlError(f"SET FAULT needs an action, got {action.value!r}")
    # The option words are FaultRegistry.set_fault's keywords.
    options: Dict[str, Any] = {"hit": None, "probability": None, "seed": 0, "times": 1}
    while p.peek() is not None and p.peek().kind == "word":
        word = p.next().value
        key = word.lower()
        if key == "forever":
            options["times"] = None
        elif key in options:
            options[key] = _number(
                p, f"SET FAULT ... {word.upper()}", key != "probability"
            )
        else:
            raise SqlError(f"unexpected SET FAULT option {word!r}")

    def arm(server, session):
        try:
            point = server.ensure_faults().set_fault(
                name, action.value.lower(), **options
            )
        except ValueError as exc:
            raise SqlError(str(exc)) from None
        return f"fault '{name}' armed: {point.describe()}"

    return arm


def _set_slow_query_threshold(p) -> Run:
    """Statements slower than the threshold emit ``slow_query`` events."""
    ms = None
    if not p.accept_keyword("OFF"):
        ms = _number(p, "SET SLOW QUERY THRESHOLD", integral=False)

    def run(server, session):
        server.obs.events.slow_query_threshold_ms = ms
        if ms is None:
            return "slow query logging off"
        return f"slow query threshold set to {ms:g} ms"

    return run


def _set_read_staleness(p) -> Run:
    """The session's bound on how far behind the primary a replica may
    be while still serving its reads (``repro.repl``)."""
    bound = None
    if p.accept_keyword("LSN"):
        bound = ("lsn", _number(p, "SET READ STALENESS LSN"))
    elif not p.accept_keyword("OFF"):
        bound = ("ms", _number(p, "SET READ STALENESS", integral=False))

    def run(server, session):
        session.read_staleness = bound
        if bound is None:
            return "read staleness bound off"
        if bound[0] == "lsn":
            return f"read staleness bound set to {bound[1]} records"
        return f"read staleness bound set to {bound[1]:g} ms"

    return run


#: ``SHOW``/``SET`` -> the keywords that name a statement -> its parser.
STATEMENTS: Dict[str, Dict[str, Callable[[Any], Run]]] = {
    "SHOW": {
        "STATS": _show_stats,
        "SPANS": _show_spans,
        "TRACE": _show_trace,
        "WORKLOAD": _show_workload,
        "EVENTS": _show_events,
        "REPLICAS": _show_replicas,
    },
    "SET": {
        "TRACE CLASS": _set_trace_class,
        "FAULT": _set_fault,
        "SLOW QUERY THRESHOLD": _set_slow_query_threshold,
        "READ STALENESS": _set_read_staleness,
    },
}


def parse(p, verb: str) -> Run:
    """The admin statement after *verb* (``SHOW`` or ``SET``, already
    consumed by the parser *p*), read through to its end."""
    statements = STATEMENTS[verb]
    for keywords, statement in statements.items():
        first, *rest = keywords.split()
        if p.accept_keyword(first):
            for word in rest:
                p.expect_keyword(word)
            run = statement(p)
            p.done()
            return run
    token = p.peek()
    raise SqlError(
        f"{verb} supports {', '.join(statements)}"
        + (f", got {token.value!r}" if token is not None else "")
    )
