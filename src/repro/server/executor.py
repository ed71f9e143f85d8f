"""Statement execution: DDL registration and the Figure 6 call protocol.

The executor turns parsed statements into catalog changes and data-flow,
invoking access-method purpose functions in exactly the order of the
paper's Figure 6:

* ``INSERT``:  ``am_open`` -> ``am_insert`` -> ``am_close``; every row
  write (UPDATE, DELETE, LOAD, CREATE INDEX's backfill and replica apply
  too) takes this shape through one writer, :meth:`Executor.writing`
* ``SELECT`` (virtual index chosen): ``am_open`` -> ``am_beginscan`` ->
  ``am_getnext`` (repeated, each call a batch of up to ``NIOROWS`` rows,
  until one returns none) -> ``am_endscan`` -> ``am_close``

When no virtual index applies (or the seqscan is cheaper), strategy
functions run as ordinary UDRs against every row.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.server import sql as ast
from repro.server.access_method import (
    PURPOSE_SLOTS,
    IndexDescriptor,
    ScanDescriptor,
    SecondaryAccessMethod,
    SpaceType,
)
from repro.server.catalog import IndexInfo
from repro.server.errors import (
    AccessMethodError,
    CatalogError,
    ExecutionError,
    ReadOnlyError,
    ReplicaStaleError,
    SqlError,
)
from repro.server.memory import Duration
from repro.server.opclass import OperatorClass
from repro.server.optimizer import IndexScanPlan, SeqScanPlan, choose_plan
from repro.server.table import Column, Table
from repro.server.udr import Routine

#: Trace class used for purpose-function call sequences (Figure 6).
TRACE_AM = "am"

#: The row budget of every index scan (``sd.niorows``): the most rows
#: one ``am_getnext`` call returns.  1 is the paper's literal protocol.
NIOROWS = 64

#: Per purpose-function slot: its call counter and its span's name.
_PURPOSE_NAMES = {slot: ("am.calls." + slot, "am." + slot) for slot in PURPOSE_SLOTS}


class Executor:
    def __init__(self, server) -> None:
        self.server = server

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def execute(self, statement: ast.Statement, session) -> Any:
        handler = self._HANDLERS.get(type(statement))
        if handler is None:
            raise SqlError(f"unsupported statement: {statement!r}")
        # The apply loop bypasses the check via ``server.repl_applying``
        # (it must re-execute replicated DDL locally).
        if (
            self.server.read_only
            and not self.server.repl_applying
            and isinstance(statement, ast.WRITES)
        ):
            raise ReadOnlyError(
                "this server is a read-only replica; "
                "send writes to the primary"
            )
        try:
            return handler(self, statement, session)
        finally:
            self.server.memory.end_duration(Duration.PER_STATEMENT)

    # ------------------------------------------------------------------
    # Replication hooks
    # ------------------------------------------------------------------

    def _check_staleness(self, session) -> None:
        """Enforce the session's ``SET READ STALENESS`` bound (replicas)."""
        bound = session.read_staleness
        link = self.server.repl_link
        if bound is None or link is None:
            return
        mode, value = bound
        if mode == "lsn":
            lag = link.lag_records()
            if lag > value:
                raise ReplicaStaleError(
                    f"replica is {lag} records behind the primary "
                    f"(bound: {value:g})"
                )
        else:
            lag_ms = link.lag_seconds() * 1000.0
            if lag_ms > value:
                raise ReplicaStaleError(
                    f"replica is {lag_ms:.0f} ms behind the primary "
                    f"(bound: {value:g} ms)"
                )

    # ------------------------------------------------------------------
    # Purpose-function plumbing
    # ------------------------------------------------------------------

    def call_purpose(self, am: SecondaryAccessMethod, slot: str, *args) -> Any:
        """Dynamically resolve and invoke a purpose function, tracing the
        call for the Figure 6 / Table 5 reproductions."""
        if not am.has(slot):
            if slot in ("am_scancost", "am_stats", "am_check"):
                return None
            raise AccessMethodError(
                f"access method {am.name} does not provide {slot}"
            )
        routine = am.routine_cache.get(slot)
        if routine is None:
            name = am.purpose_functions[slot]
            routine = self.server.catalog.routines.resolve_any(name)
            am.routine_cache[slot] = routine
        self.server.trace.emit(TRACE_AM, 1, f"{am.name}.{slot}")
        self.server.catalog.routines.invocations += 1
        obs = self.server.obs
        if not obs.enabled:
            return routine(*args)
        counter, span_name = _PURPOSE_NAMES[slot]
        inc = obs.metrics.inc
        inc("am.calls")
        inc(counter)
        # A scan's am_getnext calls share one span (attribute calls=N):
        # a span per row would cost more than most rows do.
        spans = obs.spans
        scope = spans.fold if slot == "am_getnext" else spans.span
        with scope(span_name, am=am.name):
            return routine(*args)

    def _descriptor(self, info: IndexInfo, session) -> IndexDescriptor:
        """The per-index ``td``; created once, refreshed per call."""
        if info.descriptor is None:
            table = self.server.catalog.get_table(info.table_name)
            info.descriptor = IndexDescriptor(
                index_name=info.name,
                table_name=info.table_name,
                columns=info.columns,
                column_types=tuple(
                    table.column(c).type_name for c in info.columns
                ),
                am_name=info.am_name,
                opclass_names=info.opclass_names,
                space_name=info.space_name,
                parameters=dict(info.parameters),
            )
        info.descriptor.server = self.server
        info.descriptor.session = session
        return info.descriptor

    @contextmanager
    def writing(
        self, table: Table, session, indices: Optional[Sequence[IndexInfo]] = None
    ) -> Iterator["RowWriter"]:
        """Figure 6(a) for a whole statement: ``am_open`` on each index of
        *table* (or on *indices*), the yielded :class:`RowWriter`'s row
        operations, then ``am_close`` on every index that opened."""
        writer = RowWriter(self, table, session)
        if indices is None:
            indices = self.server.catalog.indices_on(table.name)
        try:
            for info in indices:
                am = self.server.catalog.access_methods.get(info.am_name)
                td = self._descriptor(info, session)
                self.call_purpose(am, "am_open", td)
                writer.opened.append((info, am, td))
            yield writer
        finally:
            for _, am, td in writer.opened:
                self.call_purpose(am, "am_close", td)

    def _bind(self, table: Table, pairs) -> Dict[str, Any]:
        """(column name, literal) pairs as column values: a quoted
        literal goes through its column type's *input* function."""
        values: Dict[str, Any] = {}
        for name, literal in pairs:
            column = table.column(name)
            values[column.name] = (
                column.data_type.input(literal.text)
                if literal.is_string
                else literal.python_value
            )
        return values

    def estimate_scan_cost(self, info: IndexInfo, qualification) -> float:
        """``am_scancost`` when provided, else an optimistic default."""
        am = self.server.catalog.access_methods.get(info.am_name)
        session = self.server.system_session
        td = self._descriptor(info, session)
        if am.has("am_scancost"):
            sd = ScanDescriptor(td, qualification)
            cost = self.call_purpose(am, "am_scancost", sd)
            if cost is not None:
                return float(cost)
        return 2.0

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def _create_table(self, stmt: ast.CreateTable, session) -> str:
        columns = [
            Column(name, self.server.catalog.types.get(type_name))
            for name, type_name in stmt.columns
        ]
        self.server.catalog.create_table(Table(stmt.name, columns))
        return f"table {stmt.name} created"

    def _drop_table(self, stmt: ast.DropTable, session) -> str:
        self.server.catalog.drop_table(stmt.name)
        return f"table {stmt.name} dropped"

    def _create_function(self, stmt: ast.CreateFunction, session) -> str:
        fn = self.server.library.resolve_external(stmt.external_name)
        self.server.catalog.routines.register(
            Routine(
                name=stmt.name,
                arg_types=tuple(t.upper() for t in stmt.arg_types),
                return_type=stmt.return_type.upper(),
                fn=fn,
                external_name=stmt.external_name,
                language=stmt.language,
                negator=stmt.negator,
                commutator=stmt.commutator,
            )
        )
        # A new overload may shadow a cached purpose-routine resolution.
        self.server.catalog.access_methods.clear_resolution_caches()
        return f"function {stmt.name} created"

    def _drop_function(self, stmt: ast.DropFunction, session) -> str:
        removed = self.server.catalog.routines.unregister(stmt.name)
        if not removed:
            raise CatalogError(f"no function {stmt.name}")
        self.server.catalog.access_methods.clear_resolution_caches()
        return f"function {stmt.name} dropped"

    def _create_access_method(self, stmt: ast.CreateAccessMethod, session) -> str:
        for slot, function_name in stmt.slots.items():
            if not self.server.catalog.routines.exists(function_name):
                raise CatalogError(
                    f"purpose function {function_name} for slot {slot} "
                    "is not a registered function"
                )
        am = SecondaryAccessMethod(
            name=stmt.name,
            purpose_functions=dict(stmt.slots),
            sptype=SpaceType(stmt.sptype.upper()),
        )
        self.server.catalog.access_methods.register(am)
        return f"secondary access method {stmt.name} created"

    def _drop_access_method(self, stmt: ast.DropAccessMethod, session) -> str:
        self.server.catalog.access_methods.unregister(stmt.name)
        return f"secondary access method {stmt.name} dropped"

    def _create_opclass(self, stmt: ast.CreateOpclass, session) -> str:
        am = self.server.catalog.access_methods.get(stmt.am_name)
        for name in stmt.strategies + stmt.supports:
            if not self.server.catalog.routines.exists(name):
                raise CatalogError(
                    f"operator-class function {name} is not registered"
                )
        opclass = OperatorClass(stmt.name, am.name, stmt.strategies, stmt.supports)
        self.server.catalog.opclasses.register(opclass)
        if stmt.default or am.default_opclass is None:
            am.default_opclass = opclass.name
        return f"operator class {stmt.name} created"

    def _drop_opclass(self, stmt: ast.DropOpclass, session) -> str:
        self.server.catalog.opclasses.unregister(stmt.name)
        return f"operator class {stmt.name} dropped"

    def _create_index(self, stmt: ast.CreateIndex, session) -> str:
        table = self.server.catalog.get_table(stmt.table)
        if stmt.am_name is None:
            raise SqlError(
                "CREATE INDEX requires USING <access method> "
                "(only virtual indices exist in the reproduction)"
            )
        am = self.server.catalog.access_methods.get(stmt.am_name)
        columns: List[str] = []
        opclasses: List[str] = []
        for column_name, opclass_name in stmt.columns:
            column = table.column(column_name)
            columns.append(column.name)
            if opclass_name is None:
                if am.default_opclass is None:
                    raise CatalogError(
                        f"access method {am.name} has no default operator class"
                    )
                opclass_name = am.default_opclass
            opclass = self.server.catalog.opclasses.get(opclass_name)
            if opclass.am_name.lower() != am.name.lower():
                raise CatalogError(
                    f"operator class {opclass.name} belongs to "
                    f"{opclass.am_name}, not {am.name}"
                )
            opclasses.append(opclass.name)
        space = stmt.space or self.server.default_space_name(am)
        info = IndexInfo(
            name=stmt.name,
            table_name=table.name,
            columns=tuple(columns),
            am_name=am.name,
            opclass_names=tuple(opclasses),
            space_name=space,
            parameters=dict(stmt.parameters),
        )
        self.server.catalog.create_index(info)
        td = self._descriptor(info, session)
        try:
            with session.autocommit():
                self.call_purpose(am, "am_create", td)
                with self.writing(table, session, [info]) as writer:
                    for rowid, row in table.scan():
                        writer.add_entries(rowid, row)
        except Exception:
            self.server.catalog.drop_index(stmt.name)
            raise
        return f"index {stmt.name} created"

    def _drop_index(self, stmt: ast.DropIndex, session) -> str:
        info = self.server.catalog.get_index(stmt.name)
        am = self.server.catalog.access_methods.get(info.am_name)
        td = self._descriptor(info, session)
        with session.autocommit():
            self.call_purpose(am, "am_drop", td)
        self.server.catalog.drop_index(stmt.name)
        return f"index {stmt.name} dropped"

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def _insert(self, stmt: ast.Insert, session) -> int:
        table = self.server.catalog.get_table(stmt.table)
        column_names = stmt.columns or table.column_names()
        if len(column_names) != len(stmt.values):
            raise SqlError(
                f"INSERT has {len(stmt.values)} values for "
                f"{len(column_names)} columns"
            )
        values = self._bind(table, zip(column_names, stmt.values))
        with session.autocommit(), self.writing(table, session) as writer:
            writer.insert(values)
        return 1

    def _select(self, stmt: ast.Select, session) -> List[Dict[str, Any]]:
        table = self.server.catalog.get_table(stmt.table)
        projection = (
            table.column_names()
            if stmt.columns == ["*"]
            else [table.column(c).name for c in stmt.columns]
        )
        self._check_staleness(session)
        with session.autocommit():
            rows = self._scan_rows(table, stmt.where, session, stmt.plan_cache)
            return [
                {name: row[name] for name in projection} for _, row in rows
            ]

    def _scan_rows(
        self, table: Table, where: Optional[ast.Expr], session, plan_cache
    ) -> List[Tuple[int, Dict[str, Any]]]:
        """Produce qualifying (rowid, row) pairs via the chosen plan."""
        obs = self.server.obs
        if obs.enabled:
            with obs.span("plan.choose", table=table.name) as span:
                plan = choose_plan(self.server, table, where, plan_cache)
                if span is not None:
                    span.attrs["plan"] = type(plan).__name__
                    if not isinstance(plan, SeqScanPlan):
                        span.attrs["index"] = plan.index.name
            obs.metrics.inc(
                "plan.seqscan"
                if isinstance(plan, SeqScanPlan)
                else "plan.indexscan"
            )
        else:
            plan = choose_plan(self.server, table, where, plan_cache)
        self.server.last_plan = plan
        results: List[Tuple[int, Dict[str, Any]]] = []
        if isinstance(plan, SeqScanPlan):
            for rowid, row in table.scan():
                if plan.residual is None or self._evaluate(
                    plan.residual, row, table
                ):
                    results.append((rowid, dict(row)))
            return results
        # Figure 6(b): am_open, am_beginscan, am_getnext*, am_endscan,
        # am_close.
        am = self.server.catalog.access_methods.get(plan.index.am_name)
        td = self._descriptor(plan.index, session)
        self.call_purpose(am, "am_open", td)
        sd = ScanDescriptor(td, plan.qualification, niorows=NIOROWS)
        self.call_purpose(am, "am_beginscan", sd)
        try:
            while True:
                refs = self.call_purpose(am, "am_getnext", sd)
                if not refs:
                    break
                table.pages_read += len(refs)  # base-table page fetches
                for ref in refs:
                    row = table.fetch(ref.rowid)
                    if plan.residual is None or self._evaluate(
                        plan.residual, row, table
                    ):
                        results.append((ref.rowid, dict(row)))
        finally:
            self.call_purpose(am, "am_endscan", sd)
            self.call_purpose(am, "am_close", td)
        return results

    def _delete(self, stmt: ast.Delete, session) -> int:
        table = self.server.catalog.get_table(stmt.table)
        with session.autocommit():
            victims = self._scan_rows(table, stmt.where, session, stmt.plan_cache)
            with self.writing(table, session) as writer:
                for rowid, _ in victims:
                    writer.delete(rowid)
        return len(victims)

    def _update(self, stmt: ast.Update, session) -> int:
        table = self.server.catalog.get_table(stmt.table)
        changes = self._bind(table, stmt.assignments)
        with session.autocommit():
            victims = self._scan_rows(table, stmt.where, session, stmt.plan_cache)
            with self.writing(table, session) as writer:
                for rowid, row in victims:
                    writer.update(rowid, {**row, **changes})
        return len(victims)

    # ------------------------------------------------------------------
    # LOAD / UNLOAD (text-file import/export support functions)
    # ------------------------------------------------------------------

    def _load(self, stmt: ast.Load, session) -> int:
        """Bulk-load rows from a delimited text file; each field goes
        through its column type's *import* support function.

        Indexes are opened once per LOAD, not once per row:
        am_open/am_close bracket the statement, which is what makes LOAD
        the bulk path rather than sugar over per-row INSERTs.
        """
        table = self.server.catalog.get_table(stmt.table)
        names = table.column_names()
        loaded = 0
        with open(stmt.path, "r", encoding="utf-8") as handle:
            with session.autocommit(), self.writing(table, session) as writer:
                for line_no, raw in enumerate(handle, start=1):
                    line = raw.rstrip("\n")
                    if not line:
                        continue
                    fields = line.split(stmt.delimiter)
                    if len(fields) != len(names):
                        raise ExecutionError(
                            f"{stmt.path}:{line_no}: expected "
                            f"{len(names)} fields, got {len(fields)}"
                        )
                    writer.insert(table.import_row(dict(zip(names, fields))))
                    loaded += 1
        return loaded

    def _unload(self, stmt: ast.Unload, session) -> int:
        """Write query results to a delimited text file via each column
        type's *export* support function."""
        table = self.server.catalog.get_table(stmt.select.table)
        rows = self._select(stmt.select, session)
        projection = (
            table.column_names()
            if stmt.select.columns == ["*"]
            else [table.column(c).name for c in stmt.select.columns]
        )
        with open(stmt.path, "w", encoding="utf-8") as handle:
            for row in rows:
                fields = table.export_row(row, projection).values()
                handle.write(stmt.delimiter.join(fields) + "\n")
        return len(rows)

    # ------------------------------------------------------------------
    # Transactions and utilities
    # ------------------------------------------------------------------

    def _begin(self, stmt: ast.BeginWork, session) -> str:
        session.begin(explicit=True)
        return "transaction started"

    def _commit(self, stmt: ast.CommitWork, session) -> str:
        session.commit()
        return "transaction committed"

    def _rollback(self, stmt: ast.RollbackWork, session) -> str:
        session.rollback()
        return "transaction rolled back"

    def _set_isolation(self, stmt: ast.SetIsolation, session) -> str:
        from repro.storage.locks import IsolationLevel

        wanted = stmt.level.strip().lower()
        for level in IsolationLevel:
            if level.value == wanted:
                session.isolation = level
                return f"isolation set to {level.value}"
        raise SqlError(f"unknown isolation level: {stmt.level!r}")

    def _check_index(self, stmt: ast.CheckIndex, session) -> str:
        info = self.server.catalog.get_index(stmt.name)
        table = self.server.catalog.get_table(info.table_name)
        with session.autocommit(), self.writing(table, session, [info]) as writer:
            writer.each("am_check")
        return f"index {stmt.name} is consistent"

    def _update_statistics(self, stmt: ast.UpdateStatistics, session) -> Any:
        info = self.server.catalog.get_index(stmt.index_name)
        table = self.server.catalog.get_table(info.table_name)
        with session.autocommit(), self.writing(table, session, [info]) as writer:
            return writer.each("am_stats")[0]

    # ------------------------------------------------------------------
    # Expression evaluation on rows (seqscan and residual filters)
    # ------------------------------------------------------------------

    def _evaluate(self, expr: ast.Expr, row: Dict[str, Any], table: Table) -> bool:
        if isinstance(expr, ast.And):
            return all(self._evaluate(c, row, table) for c in expr.children)
        if isinstance(expr, ast.Or):
            return any(self._evaluate(c, row, table) for c in expr.children)
        if isinstance(expr, ast.Not):
            return not self._evaluate(expr.child, row, table)
        if isinstance(expr, ast.Comparison):
            return self._evaluate_comparison(expr, row, table)
        if isinstance(expr, ast.FunctionCall):
            return bool(self._invoke_udr(expr, row, table))
        raise ExecutionError(f"cannot evaluate expression {expr!r}")

    def _evaluate_comparison(
        self, cmp: ast.Comparison, row: Dict[str, Any], table: Table
    ) -> bool:
        left = self._value_of(cmp.left, cmp.right, row, table)
        right = self._value_of(cmp.right, cmp.left, row, table)
        if cmp.op == "=":
            return left == right
        if cmp.op == "<>":
            return left != right
        if cmp.op == "<":
            return left < right
        if cmp.op == "<=":
            return left <= right
        if cmp.op == ">":
            return left > right
        if cmp.op == ">=":
            return left >= right
        raise ExecutionError(f"unknown comparison operator {cmp.op}")

    def _value_of(self, side, other_side, row: Dict[str, Any], table: Table):
        if isinstance(side, ast.ColumnRef):
            return row[table.column(side.name).name]
        # Literal: coerce through the opposite column's type if present.
        if isinstance(other_side, ast.ColumnRef) and side.is_string:
            return table.column(other_side.name).data_type.input(side.text)
        return side.python_value

    def _invoke_udr(
        self, call: ast.FunctionCall, row: Dict[str, Any], table: Table
    ) -> Any:
        """Run a strategy function as an ordinary UDR against one row."""
        registry = self.server.catalog.routines
        overloads = registry.overloads(call.name)
        if not overloads:
            raise ExecutionError(f"no function named {call.name}")
        candidates = [r for r in overloads if len(r.arg_types) == len(call.args)]
        routine = self._pick_overload(candidates, call, table)
        args = []
        for arg, declared in zip(call.args, routine.arg_types):
            if isinstance(arg, ast.ColumnRef):
                args.append(row[table.column(arg.name).name])
            elif arg.is_string:
                args.append(self.server.catalog.types.get(declared).input(arg.text))
            else:
                args.append(arg.python_value)
        registry.resolutions += 1
        registry.invocations += 1
        return routine(*args)

    def _pick_overload(
        self, candidates: List[Routine], call: ast.FunctionCall, table: Table
    ) -> Routine:
        if not candidates:
            raise ExecutionError(
                f"no overload of {call.name} takes {len(call.args)} arguments"
            )
        if len(candidates) == 1:
            return candidates[0]
        # Disambiguate by the column argument types.
        for routine in candidates:
            ok = True
            for arg, declared in zip(call.args, routine.arg_types):
                if isinstance(arg, ast.ColumnRef):
                    if table.column(arg.name).type_name != declared.upper():
                        ok = False
                        break
            if ok:
                return routine
        raise ExecutionError(f"ambiguous call to {call.name}")

    _HANDLERS = {
        ast.CreateTable: _create_table,
        ast.DropTable: _drop_table,
        ast.CreateFunction: _create_function,
        ast.DropFunction: _drop_function,
        ast.CreateAccessMethod: _create_access_method,
        ast.DropAccessMethod: _drop_access_method,
        ast.CreateOpclass: _create_opclass,
        ast.DropOpclass: _drop_opclass,
        ast.CreateIndex: _create_index,
        ast.DropIndex: _drop_index,
        ast.Insert: _insert,
        ast.Select: _select,
        ast.Delete: _delete,
        ast.Update: _update,
        ast.BeginWork: _begin,
        ast.CommitWork: _commit,
        ast.RollbackWork: _rollback,
        ast.SetIsolation: _set_isolation,
        ast.CheckIndex: _check_index,
        ast.UpdateStatistics: _update_statistics,
        ast.Load: _load,
        ast.Unload: _unload,
    }


class RowWriter:
    """One statement's row writes, inside :meth:`Executor.writing`.

    Each operation validates the row, changes every open index, then the
    heap, then appends the replication row record.  A lock conflict comes
    on an index's first write, so a failed operation leaves the heap as
    it was and the transaction's rollback restores the index pages.
    """

    def __init__(self, executor: Executor, table: Table, session) -> None:
        self.executor = executor
        self.table = table
        self.session = session
        self.wal = executor.server.wal
        #: (index, access method, descriptor) per index ``am_open`` opened.
        self.opened: List[
            Tuple[IndexInfo, SecondaryAccessMethod, IndexDescriptor]
        ] = []

    def insert(self, values: Dict[str, Any], rowid: Optional[int] = None) -> int:
        """A new row at *rowid* (the replica passes the primary's), else
        at the heap's next rowid; returns the rowid."""
        row = self.table.validate(values)
        if rowid is None:
            rowid = self.table.next_rowid
        self.add_entries(rowid, row)
        self.table.put_row(rowid, row)
        self._ship(self.wal.log_row_insert, rowid, row)
        return rowid

    def update(self, rowid: int, row: Dict[str, Any]) -> None:
        """Replace row *rowid*; ``am_update`` only where a key changed."""
        new = self.table.validate(row)
        old = self.table.fetch(rowid)
        for info, am, td in self.opened:
            old_key = tuple(old[c] for c in info.columns)
            new_key = tuple(new[c] for c in info.columns)
            if old_key != new_key:
                self.executor.call_purpose(
                    am, "am_update", td, old_key, rowid, new_key, rowid
                )
        self.table.put_row(rowid, new)
        self._ship(self.wal.log_row_update, rowid, new)

    def delete(self, rowid: int) -> None:
        old = self.table.fetch(rowid)
        for info, am, td in self.opened:
            key = tuple(old[c] for c in info.columns)
            self.executor.call_purpose(am, "am_delete", td, key, rowid)
        self.table.delete_row(rowid)
        self._ship(self.wal.log_row_delete, rowid)

    def add_entries(self, rowid: int, row: Dict[str, Any]) -> None:
        """``am_insert`` of *row* into every open index, heap untouched
        (on its own: CREATE INDEX over the rows already in the table)."""
        for info, am, td in self.opened:
            key = tuple(row[c] for c in info.columns)
            self.executor.call_purpose(am, "am_insert", td, key, rowid)

    def each(self, slot: str) -> List[Any]:
        """Call *slot* (``am_check``, ``am_stats``) on every open index."""
        call = self.executor.call_purpose
        return [call(am, slot, td) for _, am, td in self.opened]

    def _ship(self, log, rowid: int, *row: Dict[str, Any]) -> None:
        """The logical row record, when the WAL ships rows to replicas.
        It is in the statement's transaction: an abort discards it."""
        if self.wal.ship_rows and not self.executor.server.repl_applying:
            log(
                self.session.transaction.txn_id,
                self.table.name,
                rowid,
                *(self.table.export_row(r) for r in row),
            )
