"""The generalized search tree over paged storage.

The tree knows nothing about keys: descent minimizes the extension's
``penalty``, overflow splits via ``pick_split``, parent keys are
``union``s, and search prunes with ``consistent`` -- [HNP95]'s recipe,
on the same page/buffer substrate as every other index here.

The algorithms are the R*-tree skeleton's
(:class:`~repro.rtree.rstar.RStarTree`): insertion with root growth,
deletion with condensation and root shrink, node iteration and the
structural walker are inherited, and the hooks below translate them to
the extension's four methods.  A node overflows when its compressed
keys no longer fit the page (not at a fixed entry count), at least
``MIN_ENTRIES`` entries stay in every non-root node, and there is no
forced reinsertion.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.gist.extension import GistExtension
from repro.rtree.rstar import RStarTree
from repro.storage.buffer import BufferPool

_NODE_HEADER = struct.Struct("<BHB")
_KEY_LEN = struct.Struct("<H")
_POINTER = struct.Struct("<qi")


@dataclass
class GistEntry:
    key: Any
    rowid: Optional[int] = None
    fragid: int = 0
    child: Optional[int] = None


@dataclass
class GistNode:
    page_id: int
    leaf: bool
    level: int = 0
    entries: List[GistEntry] = field(default_factory=list)


class GistNodeStore:
    """Serializes GiST nodes, one per page, via the extension's codec."""

    def __init__(self, buffer: BufferPool, extension: GistExtension) -> None:
        self.buffer = buffer
        self.extension = extension
        self.page_size = buffer.store.page_size

    def byte_size(self, node: GistNode) -> int:
        size = _NODE_HEADER.size
        for entry in node.entries:
            size += _KEY_LEN.size + len(self.extension.compress(entry.key))
            size += _POINTER.size
        return size

    def fits(self, node: GistNode) -> bool:
        return self.byte_size(node) <= self.page_size

    def allocate(self, leaf: bool, level: int = 0) -> GistNode:
        return GistNode(self.buffer.allocate(), leaf, level)

    def read(self, page_id: int) -> GistNode:
        return self.buffer.read_decoded(page_id, self._decode)

    def _decode(self, page_id: int, data: bytes) -> GistNode:
        leaf, count, level = _NODE_HEADER.unpack_from(data, 0)
        offset = _NODE_HEADER.size
        node = GistNode(page_id, bool(leaf), level)
        for _ in range(count):
            (key_len,) = _KEY_LEN.unpack_from(data, offset)
            offset += _KEY_LEN.size
            key = self.extension.decompress(data[offset : offset + key_len])
            offset += key_len
            a, b = _POINTER.unpack_from(data, offset)
            offset += _POINTER.size
            if leaf:
                node.entries.append(GistEntry(key, rowid=a, fragid=b))
            else:
                node.entries.append(GistEntry(key, child=a))
        return node

    def write(self, node: GistNode) -> None:
        if not self.fits(node):
            raise ValueError("GiST node overflow")
        parts = [_NODE_HEADER.pack(node.leaf, len(node.entries), node.level)]
        for entry in node.entries:
            compressed = self.extension.compress(entry.key)
            parts.append(_KEY_LEN.pack(len(compressed)))
            parts.append(compressed)
            if node.leaf:
                parts.append(_POINTER.pack(entry.rowid, entry.fragid))
            else:
                parts.append(_POINTER.pack(entry.child, 0))
        self.buffer.write(node.page_id, b"".join(parts), node)

    def free(self, page_id: int) -> None:
        self.buffer.free(page_id)


class GiST(RStarTree):
    """A generalized search tree driven by a :class:`GistExtension`."""

    MIN_ENTRIES = 2
    REINSERT = False

    def __init__(
        self,
        store: GistNodeStore,
        root_id: Optional[int] = None,
        height: int = 1,
        size: int = 0,
    ) -> None:
        self.extension = store.extension
        self.min_entries = self.MIN_ENTRIES
        self._open(store, root_id, height, size)

    def _covers(self, outer: Any, inner: Any) -> bool:
        merged = self.extension.union([outer, inner])
        return self.extension.compress(merged) == self.extension.compress(outer)

    # ------------------------------------------------------------------
    # Hooks on the R* skeleton
    # ------------------------------------------------------------------

    def _leaf_entry(self, key: Any, rowid: int, fragid: int) -> GistEntry:
        return GistEntry(key, rowid=rowid, fragid=fragid)

    def _keys(self, entries) -> List[Any]:
        return [e.key for e in entries]

    def _parent_entry(self, node: GistNode) -> GistEntry:
        return GistEntry(
            self.extension.union(self._keys(node.entries)), child=node.page_id
        )

    def _choose_subtree(self, node: GistNode, key: Any) -> int:
        """The entry whose key the extension's penalty grows least."""
        return min(
            range(len(node.entries)),
            key=lambda i: self.extension.penalty(node.entries[i].key, key),
        )

    def _choose_split(
        self, entries: List[GistEntry]
    ) -> Tuple[List[GistEntry], List[GistEntry]]:
        group_a, group_b = self.extension.pick_split(
            self._keys(entries), self.min_entries
        )
        return [entries[i] for i in group_a], [entries[i] for i in group_b]

    def _overflows(self, node: GistNode) -> bool:
        return not self.store.fits(node)

    def _same_key(self, entry: GistEntry, target: GistEntry) -> bool:
        compress = self.extension.compress
        return compress(entry.key) == compress(target.key)

    def _encloses(self, entry: GistEntry, key: Any) -> bool:
        return self._covers(entry.key, key)

    def _matches(self, entry: GistEntry, query: Any, leaf: bool) -> bool:
        if leaf:
            return self.extension.matches(entry.key, query)
        return self.extension.consistent(entry.key, query)

    def _bound_fault(self, entry: GistEntry, child: GistNode) -> Optional[str]:
        if child.entries and not self._covers(
            entry.key, self.extension.union(self._keys(child.entries))
        ):
            return f"bound does not cover child {entry.child}"
        return None

    def stats(self) -> Dict[str, float]:
        return {
            "height": self.height,
            "size": self.size,
            "nodes": self.node_count(),
            "extension": self.extension.name,
        }
