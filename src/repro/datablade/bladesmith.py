"""BladeSmith stand-in: generation of registration SQL (Section 6.1).

BladeSmith generated, from object definitions, the SQL scripts that
BladeManager runs to register and unregister a DataBlade in a database.
This module generates the same artifacts as strings, so the scripts are
inspectable (and testable) exactly like the generated ``.sql`` files of a
real DataBlade project.

The object definition is a blade class (or instance): its ``PREFIX``,
``LIBRARY_PATH``, ``AM_NAME``, ``OPCLASSES``, ``METADATA_TABLE`` and
``METADATA_COLUMNS`` attributes (see :mod:`repro.datablade.kit`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.server.access_method import PURPOSE_SLOTS


@dataclass(frozen=True)
class OpclassDefinition:
    """One operator class and the routines it is made of."""

    name: str
    #: Indexable types: every routine is declared once per type.
    types: Tuple[str, ...]
    #: (SQL name, library symbol) of each ``f(T, T) RETURNING boolean``.
    strategies: Tuple[Tuple[str, str], ...]
    #: (SQL name, library symbol, return type, arity) of each support.
    supports: Tuple[Tuple[str, str, str, int], ...] = ()


def purpose_symbols(blade) -> List[Tuple[str, str]]:
    """(slot, library symbol) of the fourteen purpose functions."""
    return [(slot, f"{blade.PREFIX}_{slot[3:]}") for slot in PURPOSE_SLOTS]


def _routines(blade) -> Iterator[Tuple[str, str, str, str]]:
    """(SQL name, argument list, return type, symbol) of every strategy
    and support routine, per operator class and indexable type."""
    for opclass in blade.OPCLASSES:
        for type_name in opclass.types:
            for name, symbol in opclass.strategies:
                yield name, f"{type_name}, {type_name}", "boolean", symbol
            for name, symbol, returns, arity in opclass.supports:
                yield name, ", ".join([type_name] * arity), returns, symbol


def generate_register_script(blade) -> str:
    """The registration script BladeManager would run (Section 4 examples)."""
    library_path = blade.LIBRARY_PATH
    statements: List[str] = []
    for _, symbol in purpose_symbols(blade):
        statements.append(
            f"CREATE FUNCTION {symbol}(pointer) RETURNING int\n"
            f"  EXTERNAL NAME '{library_path}({symbol})' LANGUAGE c"
        )
    for name, arguments, returns, symbol in _routines(blade):
        statements.append(
            f"CREATE FUNCTION {name}({arguments}) RETURNING {returns}\n"
            f"  EXTERNAL NAME '{library_path}({symbol})' LANGUAGE c"
        )
    slots = ",\n    ".join(
        f"{slot} = {symbol}" for slot, symbol in purpose_symbols(blade)
    )
    statements.append(
        f"CREATE SECONDARY ACCESS_METHOD {blade.AM_NAME} (\n"
        f"    {slots},\n"
        f'    am_sptype = "S"\n)'
    )
    for position, opclass in enumerate(blade.OPCLASSES):
        statement = (
            f"CREATE {'OPCLASS' if position else 'DEFAULT OPCLASS'} "
            f"{opclass.name} FOR {blade.AM_NAME}\n"
            f"  STRATEGIES({', '.join(name for name, _ in opclass.strategies)})"
        )
        if opclass.supports:
            supports = ", ".join(support[0] for support in opclass.supports)
            statement += f"\n  SUPPORT({supports})"
        statements.append(statement)
    columns = ",\n".join(
        f"  {column} {sql_type}" for column, sql_type in blade.METADATA_COLUMNS
    )
    statements.append(f"CREATE TABLE {blade.METADATA_TABLE} (\n{columns}\n)")
    return ";\n\n".join(statements) + ";\n"


def generate_unregister_script(blade) -> str:
    """The matching unregistration script."""
    statements: List[str] = [
        f"DROP OPCLASS {opclass.name}" for opclass in blade.OPCLASSES
    ]
    statements.append(f"DROP SECONDARY ACCESS_METHOD {blade.AM_NAME}")
    dropped = set()
    for name, _, _, _ in _routines(blade):
        if name not in dropped:  # one DROP removes every overload
            dropped.add(name)
            statements.append(f"DROP FUNCTION {name}")
    for _, symbol in purpose_symbols(blade):
        statements.append(f"DROP FUNCTION {symbol}")
    statements.append(f"DROP TABLE {blade.METADATA_TABLE}")
    return ";\n\n".join(statements) + ";\n"
