"""Secondary access methods, purpose functions, and descriptors.

Step 2/3 of Section 4: a developer defines a *secondary access method* by
registering a set of *purpose functions* (Table 2) with ``CREATE
SECONDARY ACCESS_METHOD``.  Only ``am_getnext`` is mandatory.  The server
invokes the purpose functions with *descriptors* -- structures the server
fills in and the DataBlade reads (and extends with user data):

* the **index descriptor** (``td``) describes one virtual index;
* the **scan descriptor** (``sd``) carries the index descriptor plus the
  **qualification descriptor** (``qd``), the relevant part of the WHERE
  clause, restricted to single-column predicates (Section 5.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.server.errors import AccessMethodError

#: The purpose-function slots of the paper's Table 2, in its order.
PURPOSE_SLOTS = (
    "am_create",
    "am_drop",
    "am_open",
    "am_close",
    "am_beginscan",
    "am_endscan",
    "am_rescan",
    "am_getnext",
    "am_insert",
    "am_delete",
    "am_update",
    "am_scancost",
    "am_stats",
    "am_check",
)

#: Task descriptions, Table 2 verbatim (used by its benchmark).
PURPOSE_TASKS = {
    "Creating and dropping an index.": ("am_create", "am_drop"),
    "Opening and closing an index.": ("am_open", "am_close"),
    "Scanning an index for records that meet the qualifications of a query.": (
        "am_beginscan",
        "am_endscan",
        "am_rescan",
        "am_getnext",
    ),
    "Adding, deleting, and updating records in an index.": (
        "am_insert",
        "am_delete",
        "am_update",
    ),
    "Determining the cost for a scan of an index.": ("am_scancost",),
    "Updating statistics.": ("am_stats",),
    "Checking an index consistency.": ("am_check",),
}


class SpaceType(enum.Enum):
    """Where virtual indices of an access method live (``am_sptype``)."""

    SBSPACE = "S"
    EXTERNAL_FILE = "F"


@dataclass
class SecondaryAccessMethod:
    """A registered access method: purpose-function names + properties."""

    name: str
    purpose_functions: Dict[str, str]  # slot -> registered UDR name
    sptype: SpaceType = SpaceType.SBSPACE
    default_opclass: Optional[str] = None
    #: Resolved purpose routines, keyed by slot.  Purpose-function names
    #: never overload, so the first resolution holds until the routine
    #: registry changes (CREATE/DROP FUNCTION clears this).
    routine_cache: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        unknown = set(self.purpose_functions) - set(PURPOSE_SLOTS)
        if unknown:
            raise AccessMethodError(
                f"unknown purpose-function slots: {sorted(unknown)}"
            )
        if "am_getnext" not in self.purpose_functions:
            raise AccessMethodError(
                "am_getnext is mandatory for a secondary access method"
            )

    def has(self, slot: str) -> bool:
        return slot in self.purpose_functions


# ----------------------------------------------------------------------
# Qualification descriptors
# ----------------------------------------------------------------------


@dataclass
class SimpleQualification:
    """One strategy-function predicate: ``f(column, constant)``,
    ``f(constant, column)``, or ``f(column)``."""

    function: str
    column: str
    constant: Any = None
    constant_first: bool = False
    has_constant: bool = True


class BooleanOperator(enum.Enum):
    AND = "and"
    OR = "or"


@dataclass
class CompoundQualification:
    """An AND/OR combination of qualifications (Section 6.3: the blade
    breaks these into simple ones)."""

    operator: BooleanOperator
    children: List["Qualification"]


Qualification = Union[SimpleQualification, CompoundQualification]


# ----------------------------------------------------------------------
# Index and scan descriptors
# ----------------------------------------------------------------------


@dataclass
class IndexDescriptor:
    """The ``td`` structure passed to every purpose function."""

    index_name: str
    table_name: str
    columns: Tuple[str, ...]
    column_types: Tuple[str, ...]
    am_name: str
    opclass_names: Tuple[str, ...]
    space_name: str
    parameters: Dict[str, Any] = field(default_factory=dict)
    #: Slot for DataBlade-managed state (the Tree object, blob handles...).
    user_data: Dict[str, Any] = field(default_factory=dict)
    #: Filled by the server with session/server context before each call.
    server: Any = None
    session: Any = None

    @property
    def fragments(self) -> Tuple[int, ...]:
        return (0,)  # the reproduction keeps tables unfragmented


@dataclass
class ScanDescriptor:
    """The ``sd`` structure for a scan: index + qualification + row
    budget.

    ``niorows`` is the most rows one ``am_getnext`` call may return (the
    Informix VII's ``mi_tab_niorows``; the access method hands them over
    as ``mi_tab_setnextrow`` does).  The executor sets it when it builds
    the descriptor; 1 is the paper's one-row-per-call protocol.
    """

    index: IndexDescriptor
    qualification: Optional[Qualification]
    user_data: Dict[str, Any] = field(default_factory=dict)
    niorows: int = 1


@dataclass
class RowReference:
    """One row of an ``am_getnext`` batch: a rowid/fragid plus the
    indexed fields, so covering queries can skip the base table.  A call
    returns a list of at most ``sd.niorows`` of them; an empty list ends
    the scan."""

    rowid: int
    fragid: int = 0
    row: Optional[Tuple[Any, ...]] = None


class AccessMethodRegistry:
    """The SYSAMS slice of the catalog."""

    def __init__(self) -> None:
        self._methods: Dict[str, SecondaryAccessMethod] = {}
        #: Bumped by every change (see ``SystemCatalog.version``).
        self.changes = 0

    def register(self, am: SecondaryAccessMethod) -> SecondaryAccessMethod:
        key = am.name.lower()
        if key in self._methods:
            raise AccessMethodError(f"access method {am.name} already exists")
        self._methods[key] = am
        self.changes += 1
        return am

    def unregister(self, name: str) -> None:
        if self._methods.pop(name.lower(), None) is None:
            raise AccessMethodError(f"no access method {name}")
        self.changes += 1

    def get(self, name: str) -> SecondaryAccessMethod:
        try:
            return self._methods[name.lower()]
        except KeyError:
            raise AccessMethodError(f"no access method {name}") from None

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._methods

    def names(self) -> List[str]:
        return sorted(self._methods)

    def clear_resolution_caches(self) -> None:
        """Drop every cached purpose-routine resolution (the routine
        registry changed underneath the caches)."""
        for am in self._methods.values():
            am.routine_cache.clear()
