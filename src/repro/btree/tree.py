"""The B+-tree proper: comparator-driven, duplicate-tolerant, paged.

Deletion is *lazy* (entries are removed; structurally empty nodes are
tolerated and the root collapses when possible) -- the common production
trade-off, and consistent with the paper's observation that eager
re-organization on deletion hurts index availability (Section 5.5).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

from repro.btree.node import BTreeEntry, BTreeNode, BTreeNodeStore
from repro.storage.buffer import own

#: A comparator over *encoded* keys: negative / zero / positive.
Comparator = Callable[[bytes, bytes], int]


class BPlusTree:
    """A B+-tree over a :class:`BTreeNodeStore` with a pluggable order."""

    def __init__(
        self,
        store: BTreeNodeStore,
        compare: Comparator,
        root_id: Optional[int] = None,
        height: int = 1,
        size: int = 0,
    ) -> None:
        self.store = store
        self.compare = compare
        if root_id is None:
            root = store.allocate(leaf=True)
            store.write(root)
            root_id = root.page_id
        self.root_id = root_id
        self.height = height
        self.size = size
        self.last_node_accesses = 0

    # ------------------------------------------------------------------
    # Descent
    # ------------------------------------------------------------------

    def _bisect(
        self, entries: List[BTreeEntry], key: bytes, right: bool
    ) -> int:
        """Binary search over a node's sorted entries.

        ``right=True`` counts entries with ``entry.key <= key``
        (bisect_right), ``right=False`` entries with ``entry.key < key``
        (bisect_left).  Nodes hold hundreds of variable-length keys, and
        every comparison runs the operator class's support routine on
        two decoded keys, so comparator calls dominate the cost of a
        descent, a leaf walk's start and a bulk load alike."""
        compare = self.compare
        lo, hi = 0, len(entries)
        while lo < hi:
            mid = (lo + hi) // 2
            cmp = compare(entries[mid].key, key)
            if cmp < 0 or (right and cmp == 0):
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _child_for(self, node: BTreeNode, key: bytes) -> int:
        index = self._bisect(node.entries, key, right=True)
        return node.leftmost if index == 0 else node.entries[index - 1].child

    def _descend_to_leaf(self, key: bytes) -> List[BTreeNode]:
        path = [self.store.read(self.root_id)]
        while not path[-1].leaf:
            path.append(self.store.read(self._child_for(path[-1], key)))
        return path

    def _descend_left(self, key: bytes) -> List[BTreeNode]:
        """Left-biased descent: reaches the *leftmost* leaf that can hold
        *key*, so duplicate runs straddling a split are not skipped."""
        path = [self.store.read(self.root_id)]
        while not path[-1].leaf:
            node = path[-1]
            index = self._bisect(node.entries, key, right=False)
            child = (
                node.leftmost if index == 0 else node.entries[index - 1].child
            )
            path.append(self.store.read(child))
        return path

    def _leftmost_leaf(self) -> BTreeNode:
        node = self.store.read(self.root_id)
        while not node.leaf:
            node = self.store.read(node.leftmost)
        return node

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert(self, key: bytes, rowid: int, fragid: int = 0) -> None:
        if len(key) > self.store.page_size // 4:
            raise ValueError("key too large for the configured page size")
        path = self._descend_to_leaf(key)
        leaf = path[-1] = own(path[-1])
        index = self._bisect(leaf.entries, key, right=True)
        leaf.entries.insert(index, BTreeEntry(key, rowid=rowid, fragid=fragid))
        self.size += 1
        self._write_with_splits(path)

    def _write_with_splits(self, path: List[BTreeNode]) -> None:
        for depth in range(len(path) - 1, -1, -1):
            node = path[depth]
            if self.store.write_if_fits(node):
                return
            promoted_key, sibling_id = self._split(node)
            self.store.write(node)
            if depth == 0:
                new_root = self.store.allocate(leaf=False)
                new_root.leftmost = node.page_id
                new_root.entries = [BTreeEntry(promoted_key, child=sibling_id)]
                self.store.write(new_root)
                self.root_id = new_root.page_id
                self.height += 1
                return
            parent = path[depth - 1] = own(path[depth - 1])
            index = self._bisect(parent.entries, promoted_key, right=True)
            parent.entries.insert(
                index, BTreeEntry(promoted_key, child=sibling_id)
            )

    def _split(self, node: BTreeNode) -> Tuple[bytes, int]:
        """Split *node* in half; returns (separator key, new page id)."""
        sibling = self.store.allocate(leaf=node.leaf)
        middle = len(node.entries) // 2
        if node.leaf:
            sibling.entries = node.entries[middle:]
            node.entries = node.entries[:middle]
            separator = sibling.entries[0].key
            sibling.next_leaf = node.next_leaf
            node.next_leaf = sibling.page_id
        else:
            separator = node.entries[middle].key
            sibling.leftmost = node.entries[middle].child
            sibling.entries = node.entries[middle + 1 :]
            node.entries = node.entries[:middle]
        self.store.write(sibling)
        return separator, sibling.page_id

    # ------------------------------------------------------------------
    # Deletion (lazy)
    # ------------------------------------------------------------------

    def delete(self, key: bytes, rowid: int, fragid: int = 0) -> bool:
        compare = self.compare
        leaf: Optional[BTreeNode] = self._descend_left(key)[-1]
        start = self._bisect(leaf.entries, key, right=False)
        # Equal keys may continue in right siblings; chain until passed.
        while leaf is not None:
            entries = leaf.entries
            for i in range(start, len(entries)):
                entry = entries[i]
                cmp = compare(entry.key, key)
                if cmp > 0:
                    return False
                if cmp == 0 and entry.rowid == rowid and entry.fragid == fragid:
                    leaf = own(leaf)
                    del leaf.entries[i]
                    self.store.write(leaf)
                    self.size -= 1
                    self._shrink_root()
                    return True
            leaf = (
                self.store.read(leaf.next_leaf) if leaf.next_leaf != -1 else None
            )
            start = 0
        return False

    def _shrink_root(self) -> None:
        root = self.store.read(self.root_id)
        while not root.leaf and not root.entries:
            child_id = root.leftmost
            self.store.free(root.page_id)
            self.root_id = child_id
            self.height -= 1
            root = self.store.read(child_id)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def search_range(
        self,
        low: Optional[bytes] = None,
        high: Optional[bytes] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> List[Tuple[bytes, int, int]]:
        """All (key, rowid, fragid) within the bounds, in comparator
        order, via a leftmost descent plus leaf chaining."""
        self.last_node_accesses = 0
        if low is None:
            leaf = self._leftmost_leaf_counted()
        else:
            path = self._descend_left(low)
            self.last_node_accesses += len(path)
            leaf = path[-1]
        compare = self.compare
        results: List[Tuple[bytes, int, int]] = []
        while True:
            entries = leaf.entries
            start = 0
            if low is not None:
                # The first entry past the low bound: every later one, in
                # this leaf and the next, is past it too.
                start = self._bisect(entries, low, right=not low_inclusive)
                if start < len(entries):
                    low = None
            for i in range(start, len(entries)):
                entry = entries[i]
                if high is not None:
                    cmp_high = compare(entry.key, high)
                    if cmp_high > 0 or (cmp_high == 0 and not high_inclusive):
                        return results
                results.append((entry.key, entry.rowid, entry.fragid))
            if leaf.next_leaf == -1:
                return results
            leaf = self.store.read(leaf.next_leaf)
            self.last_node_accesses += 1

    def _leftmost_leaf_counted(self) -> BTreeNode:
        node = self.store.read(self.root_id)
        self.last_node_accesses += 1
        while not node.leaf:
            node = self.store.read(node.leftmost)
            self.last_node_accesses += 1
        return node

    def search_equal(self, key: bytes) -> List[Tuple[int, int]]:
        return [
            (rowid, fragid)
            for _, rowid, fragid in self.search_range(key, key)
        ]

    def iter_all(self) -> Iterable[Tuple[bytes, int, int]]:
        return self.search_range(None, None)

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------

    def check(self) -> None:
        """Verify ordering within and across leaves, separator sanity,
        and the recorded size."""
        previous: Optional[bytes] = None
        counted = 0
        leaf = self._leftmost_leaf()
        while True:
            for entry in leaf.entries:
                if previous is not None and self.compare(previous, entry.key) > 0:
                    raise AssertionError("keys out of order in leaf chain")
                previous = entry.key
                counted += 1
            if leaf.next_leaf == -1:
                break
            leaf = self.store.read(leaf.next_leaf)
        if counted != self.size:
            raise AssertionError(
                f"size mismatch: counted {counted}, recorded {self.size}"
            )
        self._check_node(self.store.read(self.root_id), None, None)

    def _check_node(self, node: BTreeNode, low, high) -> None:
        if node.leaf:
            for entry in node.entries:
                if low is not None and self.compare(entry.key, low) < 0:
                    raise AssertionError("leaf key below separator")
                if high is not None and self.compare(entry.key, high) > 0:
                    raise AssertionError("leaf key above separator")
            return
        children = [(node.leftmost, low, node.entries[0].key if node.entries else high)]
        for i, entry in enumerate(node.entries):
            upper = (
                node.entries[i + 1].key if i + 1 < len(node.entries) else high
            )
            children.append((entry.child, entry.key, upper))
        for child_id, lo, hi in children:
            self._check_node(self.store.read(child_id), lo, hi)

    def stats(self) -> dict:
        return {"height": self.height, "size": self.size}
