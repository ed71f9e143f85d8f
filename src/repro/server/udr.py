"""User-defined routines (UDRs): CREATE FUNCTION and dynamic resolution.

Routines are registered from a *shared library* -- in the reproduction, a
:class:`SharedLibraryRegistry` mapping ``path(symbol)`` external names to
Python callables, standing in for ``grtree.bld`` -- and then resolved at
call time by name and argument-type signature (overloading).  The
registry also records Informix's two inter-routine association hints,
*negator* and *commutator*, which Section 5.2 contrasts with the richer
implication hints ("non-overlap implies non-equality") the optimizer
cannot be told about.

Resolution counts are kept: the "cost of extensibility is the overhead of
dynamic resolution and execution of strategy and support functions"
(Section 4), and the Figure 7 benchmark measures exactly this counter.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.server.errors import UdrError

_EXTERNAL_NAME = re.compile(r"^(?P<path>[^()]+)\((?P<symbol>[A-Za-z_][\w]*)\)$")


class SharedLibraryRegistry:
    """Maps external names like ``usr/functions/grtree.bld(grt_open)`` to
    the callables a DataBlade module exports."""

    def __init__(self) -> None:
        self._symbols: Dict[Tuple[str, str], Callable] = {}

    def register(self, path: str, symbol: str, fn: Callable) -> None:
        self._symbols[(path, symbol)] = fn

    def register_module(self, path: str, exports: Dict[str, Callable]) -> None:
        for symbol, fn in exports.items():
            self.register(path, symbol, fn)

    def resolve_external(self, external_name: str) -> Callable:
        match = _EXTERNAL_NAME.match(external_name.strip().strip("'\""))
        if not match:
            raise UdrError(
                f"malformed EXTERNAL NAME {external_name!r}; expected path(symbol)"
            )
        key = (match.group("path").strip(), match.group("symbol"))
        try:
            return self._symbols[key]
        except KeyError:
            raise UdrError(
                f"shared library has no symbol {key[1]!r} at {key[0]!r}"
            ) from None


@dataclass
class Routine:
    """A registered UDR: one overload of a function name."""

    name: str
    arg_types: Tuple[str, ...]
    return_type: str
    fn: Callable
    external_name: str = ""
    language: str = "c"
    negator: Optional[str] = None
    commutator: Optional[str] = None

    @property
    def signature(self) -> str:
        return f"{self.name}({', '.join(self.arg_types)})"

    def __call__(self, *args: Any) -> Any:
        return self.fn(*args)


class RoutineRegistry:
    """The SYSPROCEDURES slice of the catalog: registration + resolution."""

    def __init__(self) -> None:
        self._routines: Dict[str, List[Routine]] = {}
        #: Dynamic resolutions performed (the extensibility overhead).
        self.resolutions = 0
        #: Total UDR invocations through the registry.
        self.invocations = 0
        #: Bumped by every change (see ``SystemCatalog.version``).
        self.changes = 0

    # ------------------------------------------------------------------

    def register(self, routine: Routine) -> Routine:
        overloads = self._routines.setdefault(routine.name.lower(), [])
        for existing in overloads:
            if existing.arg_types == routine.arg_types:
                raise UdrError(
                    f"routine {routine.signature} is already registered"
                )
        overloads.append(routine)
        self.changes += 1
        return routine

    def unregister(self, name: str, arg_types: Optional[Sequence[str]] = None) -> int:
        self.changes += 1
        overloads = self._routines.get(name.lower(), [])
        if arg_types is None:
            removed = len(overloads)
            self._routines.pop(name.lower(), None)
            return removed
        kept = [r for r in overloads if r.arg_types != tuple(arg_types)]
        removed = len(overloads) - len(kept)
        if kept:
            self._routines[name.lower()] = kept
        else:
            self._routines.pop(name.lower(), None)
        return removed

    # ------------------------------------------------------------------

    def exists(self, name: str) -> bool:
        return name.lower() in self._routines

    def overloads(self, name: str) -> List[Routine]:
        return list(self._routines.get(name.lower(), []))

    def resolve(self, name: str, arg_types: Sequence[str]) -> Routine:
        """Find the overload matching the argument-type signature."""
        self.resolutions += 1
        overloads = self._routines.get(name.lower())
        if not overloads:
            raise UdrError(f"no routine named {name}")
        wanted = tuple(t.upper() for t in arg_types)
        for routine in overloads:
            if tuple(t.upper() for t in routine.arg_types) == wanted:
                return routine
        if len(overloads) == 1 and len(overloads[0].arg_types) == len(wanted):
            # Informix coerces when a single candidate fits by arity.
            return overloads[0]
        raise UdrError(
            f"no overload of {name} accepts ({', '.join(wanted)})"
        )

    def resolve_any(self, name: str) -> Routine:
        """Resolve by name alone when exactly one overload exists."""
        self.resolutions += 1
        overloads = self._routines.get(name.lower())
        if not overloads:
            raise UdrError(f"no routine named {name}")
        if len(overloads) > 1:
            raise UdrError(f"routine {name} is ambiguous without a signature")
        return overloads[0]

    # ------------------------------------------------------------------

    def set_negator(self, name: str, negator: str) -> None:
        for routine in self._require(name):
            routine.negator = negator
        self.changes += 1

    def set_commutator(self, name: str, commutator: str) -> None:
        for routine in self._require(name):
            routine.commutator = commutator
        self.changes += 1

    def _require(self, name: str) -> List[Routine]:
        overloads = self._routines.get(name.lower())
        if not overloads:
            raise UdrError(f"no routine named {name}")
        return overloads

    def names(self) -> List[str]:
        return sorted(self._routines)
