"""DataBlade-API-style memory management (Sections 5.4 and 6.2).

DataBlade code may not use globals or ``malloc``: memory is allocated from
the server with a *duration* (``PER_FUNCTION``, ``PER_STATEMENT``, ...)
and is freed automatically when the duration ends.  *Named memory*
(server shared memory addressed by a string key) is how the GR-tree
DataBlade keeps the transaction's current-time value across purpose-
function calls: the name embeds the session id and a transaction-end
callback frees it (Section 5.4).
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import Any, Dict, List


class Duration(enum.Enum):
    """Allocation lifetimes, shortest to longest."""

    PER_FUNCTION = "function"
    PER_STATEMENT = "statement"
    PER_TRANSACTION = "transaction"
    PER_SESSION = "session"
    PER_SYSTEM = "system"


class NamedMemoryError(KeyError):
    """The requested named-memory block does not exist."""


class MemoryManager:
    """Tracks duration-scoped allocations and named shared memory."""

    def __init__(self) -> None:
        self._by_duration: Dict[Duration, List[Any]] = defaultdict(list)
        self._named: Dict[str, Any] = {}
        #: Duration-scoped allocations not yet freed, over all durations.
        self._live = 0
        #: Counters surfaced to tests (leaks manifest as nonzero residue).
        self.allocations = 0
        self.frees = 0

    # ------------------------------------------------------------------
    # Duration-scoped allocation (mi_dalloc)
    # ------------------------------------------------------------------

    def allocate(self, duration: Duration, value: Any = None) -> Any:
        """Register *value* as allocated for *duration*; returns it."""
        holder = {} if value is None else value
        self._by_duration[duration].append(holder)
        self.allocations += 1
        self._live += 1
        return holder

    def end_duration(self, duration: Duration) -> int:
        """Free everything at *duration* and every shorter duration."""
        if not self._live:
            return 0  # the usual case: nothing was allocated
        order = list(Duration)
        freed = 0
        for d in order[: order.index(duration) + 1]:
            freed += len(self._by_duration[d])
            self._by_duration[d].clear()
        self.frees += freed
        self._live -= freed
        return freed

    def live_count(self, duration: Duration) -> int:
        return len(self._by_duration[duration])

    # ------------------------------------------------------------------
    # Named memory (mi_named_alloc / mi_named_get / mi_named_free)
    # ------------------------------------------------------------------

    def named_allocate(self, name: str, value: Any) -> Any:
        """Allocate named server memory; fails if the name exists."""
        if name in self._named:
            raise NamedMemoryError(f"named memory {name!r} already exists")
        self._named[name] = value
        self.allocations += 1
        return value

    def named_get(self, name: str) -> Any:
        try:
            return self._named[name]
        except KeyError:
            raise NamedMemoryError(f"no named memory {name!r}") from None

    def named_exists(self, name: str) -> bool:
        return name in self._named

    def named_items(self) -> List[Any]:
        """Snapshot of the live named-memory blocks, for inspection."""
        return list(self._named.items())

    def named_free(self, name: str) -> None:
        if self._named.pop(name, _MISSING) is _MISSING:
            raise NamedMemoryError(f"no named memory {name!r}")
        self.frees += 1


_MISSING = object()
