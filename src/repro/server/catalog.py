"""System catalogs: SYSTABLES, SYSAMS, SYSINDICES, SYSFRAGMENTS, ...

Section 4 (Step 3, Step 6): ``CREATE SECONDARY ACCESS_METHOD`` enters the
access method into SYSAMS; ``CREATE INDEX`` adds rows to SYSINDICES and
SYSFRAGMENTS.  The reproduction keeps each catalog as a typed registry
plus a uniform row view for introspection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.server.access_method import AccessMethodRegistry, IndexDescriptor
from repro.server.errors import CatalogError
from repro.server.opclass import OperatorClassRegistry
from repro.server.table import Table
from repro.server.udr import RoutineRegistry
from repro.server.datatypes import TypeRegistry


@dataclass
class IndexInfo:
    """One SYSINDICES row: a virtual index instance."""

    name: str
    table_name: str
    columns: Tuple[str, ...]
    am_name: str
    opclass_names: Tuple[str, ...]
    space_name: str
    parameters: Dict[str, Any] = field(default_factory=dict)
    descriptor: Optional[IndexDescriptor] = None


@dataclass
class FragmentInfo:
    """One SYSFRAGMENTS row (the reproduction keeps one fragment)."""

    index_name: str
    fragid: int = 0


class SystemCatalog:
    """All catalog slices behind one facade."""

    def __init__(self, types: TypeRegistry) -> None:
        self.types = types
        self.routines = RoutineRegistry()
        self.access_methods = AccessMethodRegistry()
        self.opclasses = OperatorClassRegistry()
        self._tables: Dict[str, Table] = {}
        self._indices: Dict[str, IndexInfo] = {}
        self._fragments: List[FragmentInfo] = []
        self._changes = 0

    @property
    def version(self) -> int:
        """Grows with every catalog change: a table, an index, a routine,
        an access method or an operator class created, dropped or
        altered.  Cached plan analyses carry the version they were made
        at (:mod:`repro.server.optimizer`)."""
        return (
            self._changes
            + self.routines.changes
            + self.access_methods.changes
            + self.opclasses.changes
        )

    # -- SYSTABLES -------------------------------------------------------

    def create_table(self, table: Table) -> Table:
        key = table.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {table.name} already exists")
        self._tables[key] = table
        self._changes += 1
        return table

    def drop_table(self, name: str) -> Table:
        table = self.get_table(name)
        for index in self.indices_on(name):
            raise CatalogError(
                f"table {name} still has index {index.name}; drop it first"
            )
        del self._tables[name.lower()]
        self._changes += 1
        return table

    def get_table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no table {name}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    # -- SYSINDICES / SYSFRAGMENTS ----------------------------------------

    def create_index(self, info: IndexInfo) -> IndexInfo:
        key = info.name.lower()
        if key in self._indices:
            raise CatalogError(f"index {info.name} already exists")
        self.get_table(info.table_name)  # must exist
        self._indices[key] = info
        self._fragments.append(FragmentInfo(info.name, 0))
        self._changes += 1
        return info

    def drop_index(self, name: str) -> IndexInfo:
        try:
            info = self._indices.pop(name.lower())
        except KeyError:
            raise CatalogError(f"no index {name}") from None
        self._changes += 1
        self._fragments = [
            f for f in self._fragments if f.index_name.lower() != name.lower()
        ]
        return info

    def get_index(self, name: str) -> IndexInfo:
        try:
            return self._indices[name.lower()]
        except KeyError:
            raise CatalogError(f"no index {name}") from None

    def has_index(self, name: str) -> bool:
        return name.lower() in self._indices

    def indices_on(self, table_name: str, column: Optional[str] = None) -> List[
        IndexInfo
    ]:
        result = []
        for info in self._indices.values():
            if info.table_name.lower() != table_name.lower():
                continue
            if column is not None and column.lower() not in (
                c.lower() for c in info.columns
            ):
                continue
            result.append(info)
        return result

    def index_names(self) -> List[str]:
        return sorted(self._indices)

    def fragments(self, index_name: str) -> List[FragmentInfo]:
        return [
            f for f in self._fragments if f.index_name.lower() == index_name.lower()
        ]

    # -- duplicate-index guard (Table 5, grt_create step 4) ---------------

    def find_equivalent_index(
        self,
        table_name: str,
        columns: Tuple[str, ...],
        am_name: str,
        parameters: Dict[str, Any],
    ) -> Optional[IndexInfo]:
        for info in self.indices_on(table_name):
            if (
                tuple(c.lower() for c in info.columns)
                == tuple(c.lower() for c in columns)
                and info.am_name.lower() == am_name.lower()
                and info.parameters == parameters
            ):
                return info
        return None
