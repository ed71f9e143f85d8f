"""The R*-tree [BEC90], and the skeleton of every dynamic tree here.

:class:`RStarTree` is the only implementation of the dynamic-tree
algorithms in this repository.  The Guttman R-tree, the GR-tree
(Section 3: "based on the R*-tree") and the GiST of the paper's
conclusion subclass it and supply hooks; none of them has its own
insertion, deletion or verification code.  The skeleton holds:

* insertion: ChooseSubtree down to the target level, then
  OverflowTreatment bottom-up -- forced reinsertion once per level per
  insertion, then the split -- and root growth;
* deletion: the leaf-finding descent, condensation (underfull nodes on
  the path are dissolved and their entries reinserted at their level)
  and root shrink;
* AdjustTree's stop rule, shared by insertion, forced reinsertion and
  condensation: every ancestor on the path has its entry for the child
  below re-bounded, but a node is written only if it changed -- it got
  or lost an entry, was split, or had an entry replaced by a different
  one.  The re-bounding itself never stops early: a GR-tree bound
  depends on the current time, so an unchanged child does not prove an
  unchanged parent entry.  A skipped write would have rewritten the
  page's own bytes;
* window search, node iteration and statistics;
* one structural walker, :meth:`RStarTree.violations`, that reports every
  violation instead of the first: reachability (no orphan, dangling,
  unreadable or doubly referenced page), shape (leaves at level 0,
  child level = parent level - 1, height), fill, per-entry validity,
  parent bounds, and leaf entries vs ``size``.  :meth:`RStarTree.check`
  (``am_check``) raises :class:`TreeInvariantError` on its result.

The hooks, with the R*-tree's own implementations below:

* ``_leaf_entry`` (a key as a leaf entry), ``_keys`` (the geometry
  insertion is decided on) and ``_bounding`` (its bound);
* ``_choose_subtree`` with ``_least_area_enlargement`` and
  ``_least_overlap_enlargement``; ``_choose_split`` (R*: choose the axis
  by margin sum, the distribution by overlap, ties by area);
* ``_parent_entry`` (the entry bounding a node in its parent),
  ``REINSERT`` and ``min_entries``.  Overflow is not a hook: a node
  overflows when the store's ``write_if_fits`` cannot write it
  (:class:`~repro.rtree.node.NodeStoreBase`);
* ``_same_key``, ``_delete_key`` and ``_encloses`` for the deletion
  descent, ``_matches`` for search;
* ``_check_entry`` and ``_bound_fault`` for the walker, ``meta_page``
  (a page of the tree's own record, counted as reachable);
* ``_note`` (count an operation, for trees observed; a no-op here).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from repro.rtree.geometry import Rect, union_all
from repro.rtree.node import Entry, Node, NodeStoreBase
from repro.storage.buffer import own


class TreeInvariantError(AssertionError):
    """The tree violates structural invariants; one message per line."""

    def __init__(self, violations: List[str]) -> None:
        self.violations = violations
        super().__init__(
            f"{len(violations)} tree invariant violation(s):\n  "
            + "\n  ".join(violations)
        )


def _live_page_ids(store) -> Optional[Set[int]]:
    """The ids the page store considers allocated, if it can tell us.

    Unwraps checksum wrappers; stores that cannot enumerate (a raw OS
    file) return ``None`` and orphan detection degrades to a count
    comparison against ``page_count``.
    """
    while hasattr(store, "inner"):
        store = store.inner
    pages = getattr(store, "_pages", None)
    if isinstance(pages, dict):
        return set(pages)
    return None


class RStarTree:
    """A disk-based R*-tree over a :class:`~repro.rtree.node.NodeStoreBase`;
    the base class of every dynamic tree (see the module docstring)."""

    #: Forced reinsertion before the first split on each level.
    REINSERT = True
    #: A page holding the tree's own record, reachable though no node
    #: points to it (the GR-tree's meta page, a kit blade's page 0).
    meta_page: Optional[int] = None
    #: The bound of a list of ``_keys`` values.
    _bounding = staticmethod(union_all)

    def __init__(
        self,
        store: NodeStoreBase,
        min_fill: float = 0.4,
        reinsert_fraction: float = 0.3,
        root_id: Optional[int] = None,
        height: int = 1,
        size: int = 0,
    ) -> None:
        self.max_entries = store.capacity
        self.min_entries = max(2, math.ceil(store.capacity * min_fill))
        self.reinsert_count = max(1, int(store.capacity * reinsert_fraction))
        self._open(store, root_id, height, size)

    def _open(self, store, root_id: Optional[int], height: int, size: int) -> None:
        """Attach to *store*: at *root_id*, or with a fresh empty root."""
        self.store = store
        if root_id is None:
            root = store.allocate(leaf=True, level=0)
            store.write(root)
            root_id = root.page_id
        self.root_id = root_id
        self.height = height
        self.size = size
        #: Node accesses performed by the most recent search.
        self.last_node_accesses = 0
        #: Whether the most recent deletion condensed the tree, and a
        #: count of all condensations; the GR-tree cursor restarts on it
        #: (Section 5.5).
        self.condensed = False
        self.condense_version = 0
        self._reinserted_levels: Set[int] = set()

    # ------------------------------------------------------------------
    # Hooks (the R*-tree's own)
    # ------------------------------------------------------------------

    def _leaf_entry(self, key: Rect, rowid: int, fragid: int) -> Entry:
        return Entry(key, rowid=rowid, fragid=fragid)

    def _keys(self, entries) -> List[Rect]:
        return [e.rect for e in entries]

    def _parent_entry(self, node: Node) -> Entry:
        return Entry(node.mbr(), child=node.page_id)

    def _same_key(self, entry: Entry, target: Entry) -> bool:
        return entry.rect == target.rect

    def _delete_key(self, target):
        """What the deletion descent looks for: the insertion geometry."""
        return self._keys([target])[0]

    def _encloses(self, entry: Entry, rect: Rect) -> bool:
        return entry.rect.contains(rect)

    def _matches(self, entry: Entry, query: Rect, leaf: bool) -> bool:
        return entry.rect.intersects(query)

    def _check_entry(self, entry, leaf: bool, where: str, found: List[str]) -> None:
        """Per-entry validity: the pointer matches the node kind."""
        if leaf:
            if entry.rowid is None:
                found.append(f"{where}: leaf entry without a rowid")
            if entry.child is not None:
                found.append(f"{where}: leaf entry with a child pointer")
        elif entry.child is None:
            found.append(f"{where}: internal entry without a child pointer")

    def _bound_fault(self, entry: Entry, child: Node) -> Optional[str]:
        """What is wrong with *entry* as the bound of *child*, if anything."""
        if child.entries and entry.rect != child.mbr():
            return f"bound is not the exact MBR of child {entry.child}"
        return None

    def _note(self, event: str) -> None:
        """Count an insert, delete or condensation, for trees observed."""

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert(self, key, rowid: int, fragid: int = 0) -> None:
        """Index *key* for the tuple ``(rowid, fragid)`` (ID1 of the R*
        paper)."""
        self._note("inserts")
        self._reinserted_levels = set()
        self._insert_entry(self._leaf_entry(key, rowid, fragid), level=0)
        self.size += 1

    def _insert_entry(self, entry, level: int) -> None:
        path = self._choose_path(entry, level)
        path[-1].entries.append(entry)
        self._propagate_up(path)

    def _choose_path(self, entry, target_level: int) -> list:
        """Read the root-to-target-level path chosen for *entry* (CS1-CS3),
        as copies the caller may change."""
        path = [self.store.read(self.root_id)]
        key = self._keys([entry])[0]
        while path[-1].level > target_level:
            node = path[-1]
            index = self._choose_subtree(node, key)
            path.append(self.store.read(node.entries[index].child))
        return [own(node) for node in path]

    def _choose_subtree(self, node, key) -> int:
        """R* ChooseSubtree: overlap-driven just above the leaves."""
        if node.level == 1:
            return self._least_overlap_enlargement(node, key)
        return self._least_area_enlargement(node, key)

    def _least_area_enlargement(self, node, key) -> int:
        best, best_rank = 0, None
        for i, g in enumerate(self._keys(node.entries)):
            rank = (g.enlargement(key), g.area())
            if best_rank is None or rank < best_rank:
                best, best_rank = i, rank
        return best

    def _least_overlap_enlargement(self, node, key) -> int:
        best, best_rank = 0, None
        keys = self._keys(node.entries)
        for i, g in enumerate(keys):
            enlarged = g.union(key)
            overlap_delta = sum(
                enlarged.overlap_area(other) - g.overlap_area(other)
                for j, other in enumerate(keys)
                if j != i
            )
            rank = (overlap_delta, g.enlargement(key), g.area())
            if best_rank is None or rank < best_rank:
                best, best_rank = i, rank
        return best

    # ------------------------------------------------------------------
    # Overflow treatment: forced reinsert, then split
    # ------------------------------------------------------------------

    def _propagate_up(self, path: list) -> None:
        """Write back a modified path, treating overflows bottom-up.

        ``path[-1]`` got an entry; above it, a node is written only if
        its entry for the child below changed (or a split gave it one).
        A node overflows when the store cannot write it: more entries
        than a page holds (fixed-size keys), or more bytes (the GiST's
        compressed keys); an unchanged node fits as it did."""
        changed = True
        for depth in range(len(path) - 1, -1, -1):
            node = path[depth]
            if changed and not self.store.write_if_fits(node):
                if (
                    self.REINSERT
                    and depth > 0
                    and node.level not in self._reinserted_levels
                ):
                    self._reinserted_levels.add(node.level)
                    self._force_reinsert(path, depth)
                    return
                self._split(path, depth)
                if depth > 0:
                    # The parent gained an entry; keep propagating.
                    changed = True
                    continue
                return
            if depth > 0:
                changed = self._refresh_child(path[depth - 1], node)

    def _refresh_child(self, parent, child) -> bool:
        """Re-bound *child* in *parent*; return whether the entry changed."""
        for i, entry in enumerate(parent.entries):
            if entry.child == child.page_id:
                fresh = self._parent_entry(child)
                if fresh == entry:
                    return False
                parent.entries[i] = fresh
                return True
        raise RuntimeError(
            f"child {child.page_id} not found in parent {parent.page_id}"
        )

    def _force_reinsert(self, path: list, depth: int) -> None:
        """R* forced reinsertion: evict the entries farthest from the
        node's center and insert them again at the same level, closest
        first."""
        node = path[depth]
        keys = self._keys(node.entries)
        center = self._bounding(keys)
        ranked = sorted(
            zip(keys, node.entries),
            key=lambda pair: pair[0].distance_to_center(center),
            reverse=True,
        )
        node.entries = [entry for _, entry in ranked[self.reinsert_count :]]
        self.store.write(node)
        # Shrink ancestor bounds before reinserting.
        for d in range(depth - 1, -1, -1):
            if self._refresh_child(path[d], path[d + 1]):
                self.store.write(path[d])
        for _, entry in reversed(ranked[: self.reinsert_count]):
            self._insert_entry(entry, node.level)

    def _split(self, path: list, depth: int) -> None:
        """Split ``path[depth]``, growing a new root above the old one."""
        node = path[depth]
        group_a, group_b = self._choose_split(node.entries)
        node.entries = group_a
        sibling = self.store.allocate(leaf=node.leaf, level=node.level)
        sibling.entries = group_b
        self.store.write(node)
        self.store.write(sibling)
        if depth == 0:
            new_root = self.store.allocate(leaf=False, level=node.level + 1)
            new_root.entries = [
                self._parent_entry(node),
                self._parent_entry(sibling),
            ]
            self.store.write(new_root)
            self.root_id = new_root.page_id
            self.height += 1
            return
        parent = path[depth - 1]
        self._refresh_child(parent, node)
        parent.entries.append(self._parent_entry(sibling))

    def _choose_split(self, entries: list) -> Tuple[list, list]:
        """ChooseSplitAxis (min margin sum) + ChooseSplitIndex (min
        overlap, ties by area), on the insertion geometry."""
        m = self.min_entries
        keyed = list(zip(self._keys(entries), entries))

        def distributions(axis: int):
            for ordered in (
                sorted(keyed, key=lambda p: (p[0].lo[axis], p[0].hi[axis])),
                sorted(keyed, key=lambda p: (p[0].hi[axis], p[0].lo[axis])),
            ):
                for k in range(m, len(ordered) - m + 1):
                    left = self._bounding(g for g, _ in ordered[:k])
                    right = self._bounding(g for g, _ in ordered[k:])
                    yield ordered, k, left, right

        best_axis, best_margin = 0, None
        for axis in range(keyed[0][0].ndim):
            margin = 0
            for _, _, left, right in distributions(axis):
                margin += left.margin()
                margin += right.margin()
            if best_margin is None or margin < best_margin:
                best_axis, best_margin = axis, margin
        best_split, best_rank = None, None
        for ordered, k, left, right in distributions(best_axis):
            rank = (left.overlap_area(right), left.area() + right.area())
            if best_rank is None or rank < best_rank:
                best_split, best_rank = (ordered, k), rank
        assert best_split is not None
        ordered, k = best_split
        return [e for _, e in ordered[:k]], [e for _, e in ordered[k:]]

    # ------------------------------------------------------------------
    # Deletion and condensation
    # ------------------------------------------------------------------

    def delete(self, key, rowid: int, fragid: int = 0) -> bool:
        """Remove a data entry; returns whether it was found.

        Sets :attr:`condensed` when underfull nodes were dissolved (their
        entries reinserted) or the root shrank, which invalidates open
        scans (Section 5.5).
        """
        self._note("deletes")
        self.condensed = False
        found = self._find_leaf_path(
            self.store.read(self.root_id), self._leaf_entry(key, rowid, fragid), []
        )
        if found is None:
            return False
        path = [own(node) for node in found[0]]
        del path[-1].entries[found[1]]
        self.size -= 1
        self._condense(path)
        self._shrink_root()
        return True

    def _find_leaf_path(self, node, target, path: list):
        """The path from *node* to the leaf holding *target*, and the
        entry's slot there; ``None`` if no enclosing subtree has it."""
        path = path + [node]
        if node.leaf:
            for i, entry in enumerate(node.entries):
                if (
                    entry.rowid == target.rowid
                    and entry.fragid == target.fragid
                    and self._same_key(entry, target)
                ):
                    return path, i
            return None
        probe = self._delete_key(target)
        for entry in node.entries:
            if self._encloses(entry, probe):
                result = self._find_leaf_path(
                    self.store.read(entry.child), target, path
                )
                if result is not None:
                    return result
        return None

    def _condense(self, path: list) -> None:
        orphans: List[Tuple[object, int]] = []
        changed = True  # the leaf lost an entry
        for depth in range(len(path) - 1, 0, -1):
            node = path[depth]
            parent = path[depth - 1]
            if len(node.entries) < self.min_entries:
                # Dissolve the node: remove it from the parent, queue its
                # surviving entries for reinsertion at the same level.
                parent.entries = [
                    e for e in parent.entries if e.child != node.page_id
                ]
                orphans.extend((entry, node.level) for entry in node.entries)
                self.store.free(node.page_id)
                self.condensed = True
                changed = True
            else:
                if changed:
                    self.store.write(node)
                changed = self._refresh_child(parent, node)
        if changed:
            self.store.write(path[0])
        if self.condensed:
            self.condense_version += 1
            self._note("condenses")
        # Reinsert orphans bottom-up so leaf entries go back to leaves.
        for entry, level in sorted(orphans, key=lambda pair: pair[1]):
            self._reinserted_levels = set()
            self._insert_entry(entry, level)

    def _shrink_root(self) -> None:
        root = self.store.read(self.root_id)
        shrunk = False
        while not root.leaf and len(root.entries) == 1:
            child_id = root.entries[0].child
            self.store.free(root.page_id)
            self.root_id = child_id
            self.height -= 1
            root = self.store.read(child_id)
            shrunk = True
        if shrunk:
            self.condense_version += 1
            self.condensed = True

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def search(self, query) -> List[Tuple[int, int]]:
        """All (rowid, fragid) whose entries match *query* (here: whose
        rectangles intersect it)."""
        self.last_node_accesses = 0
        results: List[Tuple[int, int]] = []
        stack = [self.root_id]
        while stack:
            node = self.store.read(stack.pop())
            self.last_node_accesses += 1
            for entry in node.entries:
                if self._matches(entry, query, node.leaf):
                    if node.leaf:
                        results.append((entry.rowid, entry.fragid))
                    else:
                        stack.append(entry.child)
        return results

    def count(self, query: Rect) -> int:
        return len(self.search(query))

    # ------------------------------------------------------------------
    # Introspection and integrity checking
    # ------------------------------------------------------------------

    def iter_nodes(self):
        stack = [self.root_id]
        while stack:
            node = self.store.read(stack.pop())
            yield node
            if not node.leaf:
                stack.extend(e.child for e in node.entries)

    def node_count(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def check(self) -> None:
        """The ``am_check`` contract: raise :class:`TreeInvariantError`
        listing every violation :meth:`violations` finds."""
        violations = self.violations()
        if violations:
            raise TreeInvariantError(violations)

    def violations(self) -> List[str]:
        """Walk the whole structure; return every invariant violation."""
        found: List[str] = []
        visited: Set[int] = set()
        leaf_entries = 0

        def visit(page_id: int, expected_level: int) -> None:
            nonlocal leaf_entries
            if page_id in visited:
                found.append(f"page {page_id} referenced more than once")
                return
            visited.add(page_id)
            try:
                node = self.store.read(page_id)
            except Exception as exc:
                found.append(f"page {page_id} unreadable: {exc}")
                return
            count = len(node.entries)
            if node.level != expected_level:
                found.append(
                    f"page {page_id} at level {node.level}, expected {expected_level}"
                )
            if node.leaf != (node.level == 0):
                found.append(
                    f"page {page_id}: leaf flag {node.leaf} at level {node.level}"
                )
            if page_id != self.root_id and count < self.min_entries:
                found.append(f"page {page_id} underfull: {count} < {self.min_entries}")
            if page_id == self.root_id and not node.leaf and count < 2:
                found.append(f"internal root {page_id} has {count} entries")
            if not self.store.fits(node):
                found.append(f"page {page_id} overfull: {count} entries")
            for i, entry in enumerate(node.entries):
                where = f"page {page_id} entry {i}"
                self._check_entry(entry, node.leaf, where, found)
                if node.leaf or entry.child is None:
                    continue
                try:
                    child = self.store.read(entry.child)
                except Exception as exc:
                    found.append(f"{where}: child {entry.child} unreadable: {exc}")
                    continue
                fault = self._bound_fault(entry, child)
                if fault is not None:
                    found.append(f"{where}: {fault}")
            if node.leaf:
                leaf_entries += count
            else:
                for entry in node.entries:
                    if entry.child is not None:
                        visit(entry.child, node.level - 1)

        visit(self.root_id, self.height - 1)
        if leaf_entries != self.size:
            found.append(
                f"size mismatch: counted {leaf_entries} leaf entries, "
                f"tree records {self.size}"
            )
        reachable = set(visited)
        if self.meta_page is not None:
            reachable.add(self.meta_page)
        store = self.store.buffer.store
        live = _live_page_ids(store)
        if live is None:
            if store.page_count != len(reachable):
                found.append(
                    f"page accounting mismatch: store holds {store.page_count} "
                    f"pages, {len(reachable)} reachable from root"
                )
        else:
            if live - reachable:
                found.append(
                    f"orphan pages not reachable from root: {sorted(live - reachable)}"
                )
            if reachable - live:
                found.append(
                    f"reachable pages not allocated: {sorted(reachable - live)}"
                )
        return found

    def stats(self) -> Dict[str, float]:
        nodes = list(self.iter_nodes())
        return {
            "height": self.height,
            "size": self.size,
            "nodes": len(nodes),
            "leaves": sum(1 for n in nodes if n.leaf),
            "avg_fill": (
                sum(len(n.entries) for n in nodes) / (len(nodes) * self.max_entries)
            ),
        }
