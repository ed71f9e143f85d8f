"""Operator classes (Step 4 of Section 4, and Section 5.2).

An operator class binds an access method to the data types it can index:
*strategy* functions are the boolean predicates usable in WHERE clauses
that make the optimizer consider a virtual index; *support* functions are
used internally by the access method to maintain the structure.  Several
operator classes may exist for one access method (Figure 7); one can be
the method's default, used when ``CREATE INDEX`` names no opclass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.server.errors import AccessMethodError


@dataclass
class OperatorClass:
    """A named set of strategy and support functions for an AM."""

    name: str
    am_name: str
    strategies: Tuple[str, ...]
    supports: Tuple[str, ...] = ()

    def is_strategy(self, function_name: str) -> bool:
        lowered = function_name.lower()
        return any(s.lower() == lowered for s in self.strategies)

    def is_support(self, function_name: str) -> bool:
        return function_name.lower() in (s.lower() for s in self.supports)

    def extended_with(
        self,
        strategies: Tuple[str, ...] = (),
        supports: Tuple[str, ...] = (),
    ) -> "OperatorClass":
        """Extending an existing operator class: same name, more
        functions (what adding support for a new data type does)."""
        return OperatorClass(
            self.name,
            self.am_name,
            self.strategies + tuple(s for s in strategies if not self.is_strategy(s)),
            self.supports + tuple(s for s in supports if not self.is_support(s)),
        )


class OperatorClassRegistry:
    """The SYSOPCLASSES slice of the catalog."""

    def __init__(self) -> None:
        self._classes: Dict[str, OperatorClass] = {}
        #: Bumped by every change (see ``SystemCatalog.version``).
        self.changes = 0

    def register(self, opclass: OperatorClass) -> OperatorClass:
        if opclass.name.lower() in self._classes:
            raise AccessMethodError(f"operator class {opclass.name} already exists")
        return self.replace(opclass)

    def replace(self, opclass: OperatorClass) -> OperatorClass:
        """Store *opclass* under its name, over any class there: how
        ``register`` stores and how an operator class is *extended* in
        place."""
        self._classes[opclass.name.lower()] = opclass
        self.changes += 1
        return opclass

    def unregister(self, name: str) -> None:
        if self._classes.pop(name.lower(), None) is None:
            raise AccessMethodError(f"no operator class {name}")
        self.changes += 1

    def get(self, name: str) -> OperatorClass:
        try:
            return self._classes[name.lower()]
        except KeyError:
            raise AccessMethodError(f"no operator class {name}") from None

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._classes

    def for_access_method(self, am_name: str) -> List[OperatorClass]:
        return [
            oc for oc in self._classes.values() if oc.am_name.lower() == am_name.lower()
        ]

    def names(self) -> List[str]:
        return sorted(self._classes)
