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
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.gist.extension import GistExtension
from repro.rtree.node import _NODE_HEADER, _POINTER, Node, NodeStoreBase
from repro.rtree.rstar import RStarTree
from repro.storage.buffer import BufferPool

_KEY_LEN = struct.Struct("<H")


@dataclass
class GistEntry:
    key: Any
    rowid: Optional[int] = None
    fragid: int = 0
    child: Optional[int] = None


class GistNodeStore(NodeStoreBase):
    """The R* family's store with the extension's codec as the key: each
    key is its ``compress``ed bytes behind a ``<H`` length, so entries
    vary in size and a node fits while its bytes fit the page."""

    def __init__(self, buffer: BufferPool, extension: GistExtension) -> None:
        self.extension = extension
        super().__init__(buffer, None)

    def _layout(self, node: Node) -> Tuple[struct.Struct, list]:
        """Each key compressed once: its length sizes the struct and
        its bytes are packed."""
        compress, pointer = self.extension.compress, _POINTER.format[1:]
        formats: List[str] = []
        fields: list = []
        for e in node.entries:
            key = compress(e.key)
            formats.append(f"H{len(key)}s{pointer}")
            fields += (len(key), key)
            fields += (e.rowid, e.fragid) if node.leaf else (e.child, 0)
        return struct.Struct("<" + "".join(formats)), fields

    def _rows(self, data: bytes, count: int) -> Iterator[tuple]:
        offset = _NODE_HEADER.size
        for _ in range(count):
            (key_len,) = _KEY_LEN.unpack_from(data, offset)
            offset += _KEY_LEN.size
            key = data[offset : offset + key_len]
            offset += key_len
            yield (key,) + _POINTER.unpack_from(data, offset)
            offset += _POINTER.size

    def _entries(self, leaf: bool, rows) -> List[GistEntry]:
        decompress = self.extension.decompress
        if leaf:
            return [GistEntry(decompress(k), rowid=a, fragid=b) for k, a, b in rows]
        return [GistEntry(decompress(k), child=a) for k, a, _ in rows]


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

    def _parent_entry(self, node: Node) -> GistEntry:
        return GistEntry(
            self.extension.union(self._keys(node.entries)), child=node.page_id
        )

    def _choose_subtree(self, node: Node, key: Any) -> int:
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

    def _same_key(self, entry: GistEntry, target: GistEntry) -> bool:
        compress = self.extension.compress
        return compress(entry.key) == compress(target.key)

    def _encloses(self, entry: GistEntry, key: Any) -> bool:
        return self._covers(entry.key, key)

    def _matches(self, entry: GistEntry, query: Any, leaf: bool) -> bool:
        if leaf:
            return self.extension.matches(entry.key, query)
        return self.extension.consistent(entry.key, query)

    def _bound_fault(self, entry: GistEntry, child: Node) -> Optional[str]:
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
