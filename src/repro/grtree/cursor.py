"""The GR-tree scan cursor.

Appendix A of the paper: ``Tree.search()`` creates a ``Cursor`` storing
the query predicate and tree-traversal information; qualifying entries
are retrieved with ``next()``, one at a time, or with ``next_batch(n)``,
up to *n* at a time (what the ``grt_getnext()`` purpose function draws
its row budget from).

Each leaf visit qualifies the whole leaf once and buffers the hits not
yet handed out; ``next``, ``next_batch`` and ``fetch_all`` all draw from
that buffer, so there is one traversal.  The buffer is tagged with the
tree's condense version and its pool's write count, and is only trusted
while the tag is unchanged.

Section 5.5's deletion compromise lives here too: the cursor keeps the
traversal state across calls and is *restarted* -- not discarded -- when
the tree is condensed underneath it.  After any other write it rescans
the current leaf.  Either way, entries already returned are skipped, so
a retrieve-and-delete loop neither misses nor repeats entries.
"""

from __future__ import annotations

import sys
from collections import deque
from typing import Deque, List, Optional, Set, Tuple

from repro.grtree.entries import GREntry, Predicate
from repro.temporal.chronon import Chronon
from repro.temporal.regions import Region


class Cursor:
    """A resumable depth-first scan of a GR-tree."""

    def __init__(
        self,
        tree,  # GRTree; untyped to avoid the circular import
        query: Region,
        predicate: Predicate,
        now: Chronon,
    ) -> None:
        self.tree = tree
        self.query = query
        self.predicate = predicate
        self.now = now
        # Specialize the scan: close predicate, query, and current time
        # into batch kernels once, here, instead of dispatching through
        # Predicate per entry.  ``None`` (numpy unavailable) keeps the
        # paper's literal per-entry tests.
        self._matcher = tree.spec.compile_scan(predicate, query, now)
        self._returned: Set[Tuple[int, int]] = set()
        self._visited: Set[int] = set()
        # The current leaf and its qualifying entries not yet looked at.
        self._leaf: Optional[int] = None
        self._hits: Deque[GREntry] = deque()
        self.restart_keeping_history()

    @property
    def node_accesses(self) -> int:
        """Distinct nodes visited by this cursor so far."""
        return len(self._visited)

    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Restart the scan from the root (the ``grt_rescan`` semantics).

        Forgets which entries were already returned -- a rescan is a new
        scan of the same qualification.
        """
        self.restart_keeping_history()
        self._returned.clear()

    def restart_keeping_history(self) -> None:
        """Restart traversal but keep skipping already-returned entries.

        Used after the tree condensed underneath the cursor (Section 5.5):
        saved traversal state and buffered hits are useless, but
        re-returning entries would make the caller's delete loop spin.
        """
        # Stack of (page_id, next entry index to look at).
        self._stack: List[Tuple[int, int]] = [(self.tree.root_id, 0)]
        self._leaf = None
        self._hits.clear()
        self._seen_version = self.tree.condense_version
        self._tag = self._current_tag()

    def _current_tag(self) -> Tuple[int, int]:
        return (
            self.tree.condense_version,
            self.tree.store.buffer.stats.logical_writes,
        )

    def _ensure_fresh(self) -> None:
        """Drop the buffer if the tree was written since the last call:
        restart after a condense, else rescan the current leaf."""
        tag = self._current_tag()
        if tag == self._tag:
            return
        if self._seen_version != self.tree.condense_version:
            self.restart_keeping_history()
            return
        self._tag = tag
        if self._leaf is not None:
            # A write between calls may have removed or added entries in
            # this leaf; the returned-set makes the rescan skip-correct.
            self._fill(self.tree.store.read(self._leaf))

    # ------------------------------------------------------------------

    def next(self) -> Optional[GREntry]:
        """Return the next qualifying leaf entry, or ``None`` at the end."""
        batch = self.next_batch(1)
        return batch[0] if batch else None

    def next_batch(self, limit: int) -> List[GREntry]:
        """The next qualifying leaf entries, at most *limit* of them;
        fewer only when the scan is at its end."""
        self._ensure_fresh()
        batch: List[GREntry] = []
        hits = self._hits
        returned = self._returned
        while len(batch) < limit:
            if not hits and not self._next_leaf():
                break
            entry = hits.popleft()
            key = (entry.rowid, entry.fragid)
            if key not in returned:
                returned.add(key)
                batch.append(entry)
        return batch

    def fetch_all(self) -> List[GREntry]:
        """Drain the cursor (convenience for tests and benchmarks)."""
        return self.next_batch(sys.maxsize)

    # ------------------------------------------------------------------

    def _fill(self, node) -> None:
        """Qualify leaf *node* once and buffer its hits."""
        self._leaf = node.page_id
        self._visited.add(node.page_id)
        hits = self._hits
        hits.clear()
        matcher = self._matcher
        matches = None if matcher is None else matcher.leaf_matches(node)
        entries = node.entries
        if matches is not None:
            hits.extend([entries[i] for i in matches])
            return
        test, query, now = self.predicate.leaf_test, self.query, self.now
        hits.extend([entry for entry in entries if test(entry.region(now), query)])

    def _next_leaf(self) -> bool:
        """Descend to the next leaf with hits and buffer them; ``False``
        when the traversal is over."""
        stack = self._stack
        while stack:
            page_id, index = stack.pop()
            node = self.tree.store.read(page_id)
            if node.leaf:
                self._fill(node)
                if self._hits:
                    return True
                continue
            self._visited.add(page_id)
            matcher = self._matcher
            mask = None if matcher is None else matcher.internal_mask(node)
            entries = node.entries
            while index < len(entries):
                entry = entries[index]
                index += 1
                if mask is not None:
                    qualifies = bool(mask[index - 1])
                else:
                    qualifies = self.predicate.internal_test(
                        entry.region(self.now), self.query
                    )
                if qualifies:
                    # Remember where to resume in this node, then descend.
                    stack.append((page_id, index))
                    stack.append((entry.child, 0))
                    break
        self._leaf = None
        return False
