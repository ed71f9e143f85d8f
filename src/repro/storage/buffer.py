"""A buffer pool with LRU replacement, I/O accounting and decoded pages.

Every index structure in the reproduction performs its page traffic
through a :class:`BufferPool`, so the benchmarks can report I/O counts
(the currency of the GR-tree evaluation) rather than wall-clock noise.
It is also the one cache of decoded nodes: a structure supplies a codec
and reads through :meth:`BufferPool.read_decoded`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

from repro.storage.pages import PageStore


@dataclass
class IOStats:
    """Counters for logical and physical page traffic."""

    logical_reads: int = 0
    physical_reads: int = 0
    logical_writes: int = 0
    physical_writes: int = 0

    @property
    def hit_ratio(self) -> float:
        if self.logical_reads == 0:
            return 1.0
        return 1.0 - self.physical_reads / self.logical_reads

    def reset(self) -> None:
        self.logical_reads = 0
        self.physical_reads = 0
        self.logical_writes = 0
        self.physical_writes = 0

    def snapshot(self) -> "IOStats":
        return IOStats(
            self.logical_reads,
            self.physical_reads,
            self.logical_writes,
            self.physical_writes,
        )

    def to_dict(self) -> dict:
        """Flat export used by the observability metrics collectors."""
        return {
            "logical_reads": self.logical_reads,
            "physical_reads": self.physical_reads,
            "logical_writes": self.logical_writes,
            "physical_writes": self.physical_writes,
            "hit_ratio": self.hit_ratio,
        }

    def __sub__(self, other: "IOStats") -> "IOStats":
        if not isinstance(other, IOStats):
            return NotImplemented
        diff = IOStats(
            self.logical_reads - other.logical_reads,
            self.physical_reads - other.physical_reads,
            self.logical_writes - other.logical_writes,
            self.physical_writes - other.physical_writes,
        )
        if min(
            diff.logical_reads,
            diff.physical_reads,
            diff.logical_writes,
            diff.physical_writes,
        ) < 0:
            raise ValueError(
                "IOStats subtraction went negative: the snapshot is newer "
                "than these counters (or belongs to a different pool)"
            )
        return diff


def own(node):
    """A copy of a shared decoded *node* with its own ``entries`` list:
    what a path takes before it changes the node (see :class:`BufferPool`).
    A shallow copy by hand: ``copy.copy`` takes about 2.5 times as long."""
    mine = object.__new__(type(node))
    mine.__dict__.update(node.__dict__, entries=list(node.entries))
    return mine


class BufferPool:
    """Write-back LRU cache of pages over a :class:`PageStore`.

    A frame also keeps its page's decoded form.  :meth:`read_decoded`
    returns ``decode(page_id, data)`` and decodes a page at most once for
    each time its bytes are loaded or written: the object lives in the
    frame, so :meth:`write`, :meth:`allocate`, :meth:`free`, eviction and
    :meth:`invalidate`, which replace or drop the frame, take it with
    them, and the pool's capacity bounds the cache.  Every call is one
    logical read, as with :meth:`read`.

    The contract for every structure that reads through it:

    * searches share the frame's decoded object and never change it;
    * a path that changes a node first takes a copy with its own
      ``entries`` list (:func:`own`), so a change that raises before its
      write leaves what later reads see equal to the page bytes;
    * ``write(page_id, data, decoded)`` installs *decoded*, the node just
      encoded into *data*, as the frame's object; the writer leaves it
      alone afterwards.
    """

    def __init__(self, store: PageStore, capacity: int = 64, faults=None) -> None:
        if capacity < 1:
            raise ValueError("buffer pool needs at least one frame")
        self.store = store
        self.capacity = capacity
        #: Optional :class:`repro.faults.FaultRegistry`.
        self.faults = faults
        self.stats = IOStats()
        #: :meth:`read_decoded` calls served by a frame's decoded object,
        #: and calls that had to decode.
        self.decode_hits = 0
        self.decodes = 0
        # page_id -> (data, dirty, decoded or None); insertion order ==
        # recency order.
        self._frames: "OrderedDict[int, tuple]" = OrderedDict()
        #: How many frames are dirty, so a clean pool's flush is free.
        self._dirty = 0

    # ------------------------------------------------------------------

    def read(self, page_id: int) -> bytes:
        """Fetch a page, through the cache."""
        self.stats.logical_reads += 1
        frame = self._frames.get(page_id)
        if frame is not None:
            self._frames.move_to_end(page_id)
            return frame[0]
        data = self.store.read_page(page_id)
        self.stats.physical_reads += 1
        self._admit(page_id, data, False, None)
        return data

    def read_decoded(self, page_id: int, decode: Callable[[int, bytes], Any]) -> Any:
        """The page decoded by *decode*, shared with every other reader."""
        data = self.read(page_id)  # resident now, at the recent end
        _, dirty, decoded = self._frames[page_id]
        if decoded is None:
            decoded = decode(page_id, data)
            self.decodes += 1
            self._frames[page_id] = (data, dirty, decoded)
        else:
            self.decode_hits += 1
        return decoded

    def write(self, page_id: int, data: bytes, decoded: Any = None) -> None:
        """Stage a page write; flushed on eviction or :meth:`flush`.
        *decoded*, if given, is what :meth:`read_decoded` returns for it."""
        data = self.store._check_data(data)
        self.stats.logical_writes += 1
        self._drop(page_id)
        self._admit(page_id, data, True, decoded)

    def allocate(self) -> int:
        page_id = self.store.allocate_page()
        # The store recycles freed ids (LIFO free lists); a frame for a
        # previous incarnation of this page must not be resurrected.
        self._drop(page_id)
        return page_id

    def free(self, page_id: int) -> None:
        """Discard any cached copy and release the page."""
        self._drop(page_id)
        self.store.free_page(page_id)

    def flush(self) -> None:
        """Write back every dirty frame (keeps frames resident)."""
        if self.faults is not None:
            self.faults.hit("buffer.flush")
        if not self._dirty:
            return
        for page_id, (data, dirty, decoded) in list(self._frames.items()):
            if dirty:
                self.store.write_page(page_id, data)
                self.stats.physical_writes += 1
                self._frames[page_id] = (data, False, decoded)
                self._dirty -= 1

    def invalidate(self) -> None:
        """Drop all frames without writing back (crash simulation)."""
        self._frames.clear()
        self._dirty = 0

    # ------------------------------------------------------------------

    def _drop(self, page_id: int) -> None:
        frame = self._frames.pop(page_id, None)
        if frame is not None and frame[1]:
            self._dirty -= 1

    def _admit(self, page_id: int, data: bytes, dirty: bool, decoded: Any) -> None:
        """Install a frame for a page that has none."""
        self._frames[page_id] = (data, dirty, decoded)
        self._dirty += dirty
        while len(self._frames) > self.capacity:
            victim_id, (victim, victim_dirty, _) = self._frames.popitem(last=False)
            if victim_dirty:
                self._dirty -= 1
                self.store.write_page(victim_id, victim)
                self.stats.physical_writes += 1

    @property
    def resident_pages(self) -> int:
        return len(self._frames)
