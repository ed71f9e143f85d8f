"""B+-tree node layout over fixed-size pages.

Keys are stored as *encoded bytes* (the opaque type's binary send/receive
representation), so the tree itself never interprets them -- ordering
comes entirely from the pluggable comparator, which is what lets a new
operator class substitute ``compare()`` without touching the structure.

Node capacity is byte-budgeted rather than entry-counted because keys
are variable length: a node fits when its encoding does, so a write
encodes the node once and compares the length with the page.  Decoded
nodes are kept by the buffer pool
(:meth:`~repro.storage.buffer.BufferPool.read_decoded`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional

from repro.storage.buffer import BufferPool

#: leaf flag, entry count, next-leaf page id (leaves only; -1 otherwise).
_NODE_HEADER = struct.Struct("<BHq")
#: Per entry: key length; then key bytes; then the pointer struct.
_KEY_LEN = struct.Struct("<H")
_LEAF_PTR = struct.Struct("<qi")   # rowid, fragid
_CHILD_PTR = struct.Struct("<q")   # child page id


class BTreeEntry:
    """A key with its row (leaf) or child page (internal node).  Decoded
    copies of a node share their entries, so an entry is never mutated:
    writers insert, delete and replace entries in a node's own list."""

    __slots__ = ("key", "rowid", "fragid", "child")

    def __init__(
        self,
        key: bytes,
        rowid: Optional[int] = None,
        fragid: int = 0,
        child: Optional[int] = None,
    ) -> None:
        self.key = key
        self.rowid = rowid
        self.fragid = fragid
        self.child = child

    def __repr__(self) -> str:
        return (
            f"BTreeEntry(key={self.key!r}, rowid={self.rowid}, "
            f"fragid={self.fragid}, child={self.child})"
        )


@dataclass
class BTreeNode:
    page_id: int
    leaf: bool
    entries: List[BTreeEntry] = field(default_factory=list)
    next_leaf: int = -1
    #: Internal nodes: leftmost child (covers keys below entries[0].key).
    leftmost: int = -1

    def __len__(self) -> int:
        return len(self.entries)


class BTreeNodeStore:
    """Serializes B+-tree nodes, one per page."""

    def __init__(self, buffer: BufferPool) -> None:
        self.buffer = buffer
        self.page_size = buffer.store.page_size
        if self.page_size < 128:
            raise ValueError("page size too small for a B+-tree node")

    def allocate(self, leaf: bool) -> BTreeNode:
        return BTreeNode(self.buffer.allocate(), leaf)

    def read(self, page_id: int) -> BTreeNode:
        return self.buffer.read_decoded(page_id, self._decode)

    def _decode(self, page_id: int, data: bytes) -> BTreeNode:
        leaf, count, next_leaf = _NODE_HEADER.unpack_from(data, 0)
        offset = _NODE_HEADER.size
        node = BTreeNode(page_id, bool(leaf), next_leaf=next_leaf)
        if not leaf:
            (node.leftmost,) = _CHILD_PTR.unpack_from(data, offset)
            offset += _CHILD_PTR.size
        for _ in range(count):
            (key_len,) = _KEY_LEN.unpack_from(data, offset)
            offset += _KEY_LEN.size
            key = data[offset : offset + key_len]
            offset += key_len
            if leaf:
                rowid, fragid = _LEAF_PTR.unpack_from(data, offset)
                offset += _LEAF_PTR.size
                node.entries.append(BTreeEntry(key, rowid=rowid, fragid=fragid))
            else:
                (child,) = _CHILD_PTR.unpack_from(data, offset)
                offset += _CHILD_PTR.size
                node.entries.append(BTreeEntry(key, child=child))
        return node

    def write(self, node: BTreeNode) -> None:
        if not self.write_if_fits(node):
            raise ValueError(
                f"B+-tree node overflow: {len(node.entries)} entries do "
                f"not fit a {self.page_size}-byte page"
            )

    def write_if_fits(self, node: BTreeNode) -> bool:
        """Encode *node* once and write it if it fits its page; return
        whether it did."""
        parts = [_NODE_HEADER.pack(node.leaf, len(node.entries), node.next_leaf)]
        if not node.leaf:
            parts.append(_CHILD_PTR.pack(node.leftmost))
        for entry in node.entries:
            parts.append(_KEY_LEN.pack(len(entry.key)))
            parts.append(entry.key)
            if node.leaf:
                parts.append(_LEAF_PTR.pack(entry.rowid, entry.fragid))
            else:
                parts.append(_CHILD_PTR.pack(entry.child))
        data = b"".join(parts)
        if len(data) > self.page_size:
            return False
        self.buffer.write(node.page_id, data, node)
        return True

    def free(self, page_id: int) -> None:
        self.buffer.free(page_id)
