"""R-tree node layout and page (de)serialization.

A node occupies exactly one disk page (Section 3 of the paper).  Leaf
entries carry a minimum bounding rectangle plus a pointer to the data
tuple -- a ``(rowid, fragid)`` pair, matching the paper's Appendix A --
while internal entries carry the child node's page id.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional

from repro.rtree.geometry import Rect, union_all
from repro.storage.buffer import BufferPool

#: Node header: leaf flag, entry count, level (leaf = 0).
_NODE_HEADER = struct.Struct("<BHB")

#: Per-entry pointer: rowid + fragid for leaves, (page_id, 0) for internals.
_POINTER = struct.Struct("<qi")


@dataclass
class Entry:
    """One slot of a node: an MBR plus a child pointer or a tuple id."""

    rect: Rect
    child: Optional[int] = None          # page id of child (internal nodes)
    rowid: Optional[int] = None          # data tuple id (leaf nodes)
    fragid: int = 0

    @property
    def is_leaf_entry(self) -> bool:
        return self.child is None


@dataclass
class Node:
    """An R-tree node; ``page_id`` doubles as the node's identity."""

    page_id: int
    leaf: bool
    level: int = 0
    entries: List[Entry] = field(default_factory=list)

    def mbr(self) -> Rect:
        return union_all(e.rect for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


class NodeStore:
    """Persists nodes through a buffer pool, one node per page.

    The store also computes the fan-out that fits the page size, so tree
    shape responds to the page size exactly as in a disk-based system.
    """

    def __init__(self, buffer: BufferPool, ndim: int = 2) -> None:
        self.buffer = buffer
        self.ndim = ndim
        self._coord = struct.Struct(f"<{2 * ndim}d")
        entry_size = self._coord.size + _POINTER.size
        self.capacity = (buffer.store.page_size - _NODE_HEADER.size) // entry_size
        if self.capacity < 4:
            raise ValueError(
                f"page size {buffer.store.page_size} too small: "
                f"fits only {self.capacity} entries"
            )

    # ------------------------------------------------------------------

    def allocate(self, leaf: bool, level: int = 0) -> Node:
        return Node(self.buffer.allocate(), leaf, level)

    def read(self, page_id: int) -> Node:
        return self.buffer.read_decoded(page_id, self._decode)

    def _decode(self, page_id: int, data: bytes) -> Node:
        leaf, count, level = _NODE_HEADER.unpack_from(data, 0)
        offset = _NODE_HEADER.size
        entries: List[Entry] = []
        for _ in range(count):
            coords = self._coord.unpack_from(data, offset)
            offset += self._coord.size
            a, b = _POINTER.unpack_from(data, offset)
            offset += _POINTER.size
            rect = Rect(tuple(coords[: self.ndim]), tuple(coords[self.ndim :]))
            if leaf:
                entries.append(Entry(rect, rowid=a, fragid=b))
            else:
                entries.append(Entry(rect, child=a))
        return Node(page_id, bool(leaf), level, entries)

    def write(self, node: Node) -> None:
        if len(node.entries) > self.capacity:
            raise ValueError(
                f"node overflow: {len(node.entries)} entries > capacity "
                f"{self.capacity}"
            )
        parts = [_NODE_HEADER.pack(node.leaf, len(node.entries), node.level)]
        for entry in node.entries:
            parts.append(self._coord.pack(*entry.rect.lo, *entry.rect.hi))
            if node.leaf:
                parts.append(_POINTER.pack(entry.rowid, entry.fragid))
            else:
                parts.append(_POINTER.pack(entry.child, 0))
        self.buffer.write(node.page_id, b"".join(parts), node)

    def free(self, page_id: int) -> None:
        self.buffer.free(page_id)
