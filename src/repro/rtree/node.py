"""The node store of the R* family, and the R-tree's node layout.

A node occupies exactly one disk page (Section 3 of the paper).  The
R*-tree, the Guttman R-tree, the GR-tree -- whose layout "does not
differ significantly from the layout of an R*-tree node" -- and the GiST
share one page format, one :class:`Node` and one store,
:class:`NodeStoreBase`: a ``<BHB`` header (leaf flag, entry count,
level), then per entry a key and a ``<qi`` pointer -- ``(rowid,
fragid)``, the paper's Appendix A tuple id, in leaves and ``(child page
id, 0)`` in internal nodes.  Each tree's store supplies only its key.

A write encodes the node once -- the same encoding tells whether it
fits (:meth:`NodeStoreBase.write_if_fits`) -- and packs it with one
``pack_into`` into a reusable page-sized scratch ``bytearray``; a read
batch-decodes with ``iter_unpack``.  The buffer pool keeps decoded nodes
(:meth:`~repro.storage.buffer.BufferPool.read_decoded`), and a written
node is installed as its frame's decoded form.
"""

from __future__ import annotations

import functools
import struct
import threading
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.rtree.geometry import Rect, union_all
from repro.storage.buffer import BufferPool

#: Node header: leaf flag, entry count, level (leaf = 0).
_NODE_HEADER = struct.Struct("<BHB")

#: Per-entry pointer, after the key: rowid + fragid for leaves,
#: (page_id, 0) for internals.
_POINTER = struct.Struct("<qi")


@functools.lru_cache(maxsize=256)
def _body_struct(entry: str, count: int) -> struct.Struct:
    """The struct of *count* entries of format *entry*, shared by every
    store.  Bounded: a 4 KiB page holds under 100 fixed-size entries,
    so two key formats fit, and a struct of 90 entries takes ~11 KiB."""
    return struct.Struct("<" + entry * count)


@dataclass
class Entry:
    """One slot of an R-tree node: an MBR plus a child pointer or a tuple id."""

    rect: Rect
    child: Optional[int] = None          # page id of child (internal nodes)
    rowid: Optional[int] = None          # data tuple id (leaf nodes)
    fragid: int = 0


@dataclass
class Node:
    """A node of any R*-family tree; ``page_id`` is the node's identity."""

    page_id: int
    leaf: bool
    level: int = 0
    entries: List = field(default_factory=list)
    #: The GR-tree kernels' lazily built column mirror of ``entries``
    #: (see :mod:`repro.grtree.specialize`).  Dropped on every store
    #: write -- every change to a node passes through a write before the
    #: operation returns, and a node the tree leaves unwritten is
    #: unchanged, so a non-``None`` value is always current.
    cols: object = field(default=None, repr=False, compare=False)

    def mbr(self) -> Rect:
        """The bound of an R-tree node's rectangles."""
        return union_all(e.rect for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


class NodeStoreBase:
    """Persists nodes through a buffer pool, one node per page.

    *key* is the struct format of one entry's key.  The store derives
    the fan-out that fits the page, so tree shape responds to the page
    size exactly as in a disk-based system.  Subclasses define
    ``_fields(node)``, the node's entries as one flat list (each key's
    fields, then its pointer), and ``_entries(leaf, rows)``, unpacked
    rows back to entries.  A store whose keys vary in size passes
    ``None`` and overrides :meth:`_layout` and :meth:`_rows`; it has no
    ``capacity``.
    """

    def __init__(self, buffer: BufferPool, key: Optional[str]) -> None:
        self.buffer = buffer
        self.page_size = buffer.store.page_size
        self.capacity: Optional[int] = None
        if key is not None:
            self._entry_format = key + _POINTER.format[1:]
            self._entry = struct.Struct("<" + self._entry_format)
            self.capacity = (self.page_size - _NODE_HEADER.size) // self._entry.size
            if self.capacity < 4:
                raise ValueError(
                    f"page size {self.page_size} too small: "
                    f"fits only {self.capacity} entries"
                )
        #: Serializes page I/O and the scratch buffer for threads that
        #: share one tree outside the engine (``DatabaseServer.execute``
        #: already runs statements one at a time under its engine lock).
        #: Re-entrant because ``allocate`` may recycle a page while a
        #: caller already holds the lock.
        self._lock = threading.RLock()
        self._scratch = bytearray(self.page_size)
        self._scratch_used = 0

    def _layout(self, node: Node) -> Tuple[struct.Struct, list]:
        """The struct that packs *node*'s entries, and what it packs."""
        return _body_struct(self._entry_format, len(node.entries)), self._fields(node)

    def _rows(self, data: bytes, count: int) -> Iterable[tuple]:
        """The *count* entries of page *data*, unpacked."""
        start = _NODE_HEADER.size
        return self._entry.iter_unpack(
            memoryview(data)[start : start + count * self._entry.size]
        )

    def fits(self, node: Node) -> bool:
        """Whether *node* fits its page.  With fixed-size keys this is
        ``len(node) <= capacity``, as capacity is
        ``(page size - header) // entry size``."""
        return _NODE_HEADER.size + self._layout(node)[0].size <= self.page_size

    def allocate(self, leaf: bool, level: int = 0) -> Node:
        with self._lock:
            return Node(self.buffer.allocate(), leaf, level)

    def read(self, page_id: int) -> Node:
        with self._lock:
            return self.buffer.read_decoded(page_id, self.decode)

    def decode(self, page_id: int, data: bytes) -> Node:
        """The node that page *page_id* holds as *data*."""
        leaf, count, level = _NODE_HEADER.unpack_from(data, 0)
        entries = self._entries(leaf, self._rows(data, count))
        return Node(page_id, bool(leaf), level, entries)

    def write(self, node: Node) -> None:
        if not self.write_if_fits(node):
            raise ValueError(
                f"node overflow: {len(node.entries)} entries do not fit a "
                f"{self.page_size}-byte page"
            )

    def write_if_fits(self, node: Node) -> bool:
        """Encode *node* once and write it if it fits its page; return
        whether it did."""
        with self._lock:
            node.cols = None  # entries may have changed: the mirror is stale
            body, fields = self._layout(node)
            end = _NODE_HEADER.size + body.size
            if end > self.page_size:
                return False
            buf = self._scratch
            _NODE_HEADER.pack_into(buf, 0, node.leaf, len(node.entries), node.level)
            body.pack_into(buf, _NODE_HEADER.size, *fields)
            if end < self._scratch_used:
                # Zero the residue of a previously larger node so pages stay
                # byte-deterministic (snapshot/diff tests rely on it).
                buf[end : self._scratch_used] = bytes(self._scratch_used - end)
            self._scratch_used = end
            self.buffer.write(node.page_id, bytes(buf), node)
            return True

    def free(self, page_id: int) -> None:
        with self._lock:
            self.buffer.free(page_id)


class NodeStore(NodeStoreBase):
    """The R-tree's store: a key is ``2 * ndim`` doubles, lo then hi."""

    def __init__(self, buffer: BufferPool, ndim: int = 2) -> None:
        self.ndim = ndim
        super().__init__(buffer, f"{2 * ndim}d")

    def _fields(self, node: Node) -> list:
        fields: list = []
        for e in node.entries:
            fields += e.rect.lo
            fields += e.rect.hi
            fields += (e.rowid, e.fragid) if node.leaf else (e.child, 0)
        return fields

    def _entries(self, leaf: bool, rows: Iterable[tuple]) -> list:
        n = self.ndim
        if leaf:
            return [
                Entry(Rect(row[:n], row[n : 2 * n]), rowid=row[-2], fragid=row[-1])
                for row in rows
            ]
        return [Entry(Rect(row[:n], row[n : 2 * n]), child=row[-2]) for row in rows]
