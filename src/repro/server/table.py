"""Heap tables over the dbspace: rows, rowids, and page accounting.

Tables live in *dbspaces* (Section 5.3: table data and built-in index
data live there; there is no public DataBlade interface to them, which is
why virtual indices must use sbspaces or OS files).  Rows are slotted;
a rowid is stable for the lifetime of the row.  Sequential-scan I/O is
charged at ``rows_per_page`` rows per page so that the optimizer has an
honest seqscan cost to compare against ``am_scancost``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.server.datatypes import DataType
from repro.server.errors import CatalogError, ExecutionError

#: How many heap rows share one page for I/O-accounting purposes.
ROWS_PER_PAGE = 32


@dataclass
class Column:
    name: str
    data_type: DataType

    @property
    def type_name(self) -> str:
        return self.data_type.name


class Table:
    """A slotted heap table."""

    def __init__(self, name: str, columns: Sequence[Column]) -> None:
        if not columns:
            raise CatalogError(f"table {name} needs at least one column")
        seen = set()
        for column in columns:
            lowered = column.name.lower()
            if lowered in seen:
                raise CatalogError(f"duplicate column {column.name} in {name}")
            seen.add(lowered)
        self.name = name
        self.columns = list(columns)
        self._rows: List[Optional[Dict[str, Any]]] = []
        self._live = 0
        #: Pages read by sequential scans (the seqscan cost ledger).
        self.pages_read = 0

    # ------------------------------------------------------------------

    def column(self, name: str) -> Column:
        for column in self.columns:
            if column.name.lower() == name.lower():
                return column
        raise CatalogError(f"table {self.name} has no column {name}")

    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def has_column(self, name: str) -> bool:
        return any(c.name.lower() == name.lower() for c in self.columns)

    # ------------------------------------------------------------------

    def validate(self, values: Dict[str, Any]) -> Dict[str, Any]:
        """*values*, keyed by column name in any case, checked against the
        column types: the row as the heap stores it."""
        given = {key.lower(): value for key, value in values.items()}
        row: Dict[str, Any] = {}
        for column in self.columns:
            key = column.name.lower()
            if key not in given:
                raise ExecutionError(
                    f"INSERT into {self.name} is missing column {column.name}"
                )
            row[column.name] = column.data_type.validate(given.pop(key))
        if given:
            raise ExecutionError(f"unknown columns in INSERT: {sorted(given)}")
        return row

    def export_row(
        self, row: Dict[str, Any], names: Optional[Sequence[str]] = None
    ) -> Dict[str, str]:
        """Each column of *row* (or only *names*) as text, through its
        type's *export* support function (UNLOAD, replication)."""
        columns = self.columns if names is None else map(self.column, names)
        return {c.name: c.data_type.export_text(row[c.name]) for c in columns}

    def import_row(self, fields: Dict[str, str]) -> Dict[str, Any]:
        """The inverse of :meth:`export_row` (LOAD, replica apply)."""
        return {
            c.name: c.data_type.import_text(fields[c.name]) for c in self.columns
        }

    @property
    def next_rowid(self) -> int:
        """The rowid the next appended row gets."""
        return len(self._rows)

    def insert_row(self, values: Dict[str, Any]) -> int:
        """Validate and append; returns the rowid."""
        rowid = self.next_rowid
        self.put_row(rowid, self.validate(values))
        return rowid

    def put_row(self, rowid: int, row: Dict[str, Any]) -> None:
        """Place a validated *row* at an exact *rowid*.

        Replication ships the primary's rowids; the replica must land
        each row at the same slot so later delete/update records resolve.
        The slot array is padded with tombstones when the primary's heap
        has holes the replica never saw (aborted inserts leave gaps in
        the primary's rowid sequence).  Idempotent: re-applying over an
        identical live row is a plain overwrite.
        """
        while len(self._rows) <= rowid:
            self._rows.append(None)
        if self._rows[rowid] is None:
            self._live += 1
        self._rows[rowid] = row

    def fetch(self, rowid: int) -> Dict[str, Any]:
        if not 0 <= rowid < len(self._rows) or self._rows[rowid] is None:
            raise ExecutionError(f"no row {rowid} in table {self.name}")
        return self._rows[rowid]

    def delete_row(self, rowid: int) -> Dict[str, Any]:
        row = self.fetch(rowid)
        self._rows[rowid] = None
        self._live -= 1
        return row

    def update_row(self, rowid: int, changes: Dict[str, Any]) -> None:
        """Validate and apply *changes* to one row."""
        self.put_row(rowid, self.validate({**self.fetch(rowid), **changes}))

    def scan(self) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """Full scan, charging page reads."""
        for start in range(0, len(self._rows), ROWS_PER_PAGE):
            self.pages_read += 1
            for rowid in range(start, min(start + ROWS_PER_PAGE, len(self._rows))):
                row = self._rows[rowid]
                if row is not None:
                    yield rowid, row

    @property
    def row_count(self) -> int:
        return self._live

    @property
    def page_count(self) -> int:
        return max(1, -(-len(self._rows) // ROWS_PER_PAGE))

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name} {c.type_name}" for c in self.columns)
        return f"<Table {self.name}({cols}) rows={self._live}>"
