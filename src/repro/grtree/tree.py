"""The GR-tree proper: the R*-tree skeleton over growing regions.

Section 3 builds the GR-tree as the R*-tree with new geometry, and so
does this module: :class:`GRTree` subclasses
:class:`~repro.rtree.rstar.RStarTree` and inherits ChooseSubtree, forced
reinsertion, the topological split, deletion with condensation and root
shrink, and the structural walker unchanged.  What it supplies are the
hooks where the GR-tree differs:

* all geometry is evaluated through the ``UC``/``NOW`` resolution and
  Hidden-flag adjustment algorithms, so regions and bounds *grow*;
* parent entries store four timestamps plus the ``Rectangle``/``Hidden``
  flags computed by :func:`repro.grtree.entries.bound_entries`, never
  materialized coordinates;
* insertion penalties, splits and reinsertion order are evaluated at
  ``now + time_horizon``, the paper's "time parameter capturing the
  development over time of entries": a growing region is charged for
  the space it is *going to* occupy, not just the space it occupies
  today; the deletion descent tests containment at ``now``;
* the least-area and least-overlap penalties and the parent bounds take
  the tree's own :mod:`~repro.grtree.specialize` kernels whenever they
  accept (numpy present, a node of at least ``MIN_BATCH`` entries, none
  decoding empty), and the paper's per-entry loops otherwise;
* root, height, size and horizon live on a meta page, written by
  :meth:`GRTree.save_meta` when they changed: once per statement (the
  blade's ``save``), or by :meth:`GRTree.flush` for direct users;
* the walker additionally checks containment at two times and the
  stair shape of every entry (:mod:`repro.grtree.check`).

Scans are the lazy Section 5.5 :class:`~repro.grtree.cursor.Cursor`,
restarted only when the tree was actually condensed.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from repro.grtree.check import check_entry_shape
from repro.grtree.cursor import Cursor
from repro.grtree.entries import (
    GREntry,
    Predicate,
    bound_entries,
    same_timestamps,
)
from repro.grtree.node import GRNodeStore
from repro.grtree.specialize import SpecializedOps
from repro.rtree.node import Node
from repro.rtree.rstar import RStarTree
from repro.temporal.chronon import Chronon, Clock
from repro.temporal.extent import TimeExtent
from repro.temporal.regions import Region, bounding_region

#: Meta-page layout: magic, root page id, height, size, time horizon.
_META = struct.Struct("<4sqqqq")
_META_MAGIC = b"GRT1"


class GRTree(RStarTree):
    """A GR-tree over a :class:`~repro.grtree.node.GRNodeStore`.

    Use :meth:`create` for a new index (reserves a meta page so the tree
    can be reopened from the same storage with :meth:`open`, which is what
    the DataBlade's ``grt_create``/``grt_open`` purpose functions do).
    """

    #: Containment is verified at ``now`` and ``now + CHECK_HORIZON``.
    CHECK_HORIZON = 50
    _bounding = staticmethod(bounding_region)

    def __init__(
        self,
        store: GRNodeStore,
        clock: Clock,
        time_horizon: int = 20,
        min_fill: float = 0.4,
        reinsert_fraction: float = 0.3,
        meta_page: Optional[int] = None,
        root_id: Optional[int] = None,
        height: int = 1,
        size: int = 0,
        obs=None,
    ) -> None:
        self.clock = clock
        #: Optional observability hub; ``None`` keeps the hot paths at a
        #: single attribute test (the benchmarked configuration).
        self.obs = obs
        #: The tree's kernel bundle.  It only ever *replaces* work with
        #: bit-exact vectorized equivalents, or declines with ``None``
        #: and leaves the paper's literal per-entry call sequence to run.
        self.spec = SpecializedOps()
        self.time_horizon = time_horizon
        self.meta_page = meta_page
        #: The meta page last written and what it holds: (page, root,
        #: height, size, horizon).
        self._saved_meta: Optional[Tuple[int, ...]] = None
        super().__init__(store, min_fill, reinsert_fraction, root_id, height, size)

    # ------------------------------------------------------------------
    # Creation / reopening (persistent meta page)
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, store: GRNodeStore, clock: Clock, **kwargs) -> "GRTree":
        meta_page = store.buffer.allocate()
        tree = cls(store, clock, meta_page=meta_page, **kwargs)
        tree.save_meta()
        return tree

    @classmethod
    def open(cls, store: GRNodeStore, clock: Clock, meta_page: int = 0) -> "GRTree":
        data = store.buffer.read(meta_page)
        try:
            magic, root_id, height, size, horizon = _META.unpack_from(data, 0)
        except struct.error as exc:
            raise ValueError("storage does not contain a GR-tree") from exc
        if magic != _META_MAGIC:
            raise ValueError("storage does not contain a GR-tree")
        tree = cls(
            store,
            clock,
            time_horizon=horizon,
            meta_page=meta_page,
            root_id=root_id,
            height=height,
            size=size,
        )
        tree._saved_meta = (meta_page, root_id, height, size, horizon)
        return tree

    def save_meta(self) -> None:
        """Write root, height, size and horizon to the meta page, if they
        changed since it was last written."""
        state = (self.meta_page, self.root_id, self.height, self.size,
                 self.time_horizon)
        if self.meta_page is None or state == self._saved_meta:
            return
        self.store.buffer.write(self.meta_page, _META.pack(_META_MAGIC, *state[1:]))
        self._saved_meta = state

    def flush(self) -> None:
        """:meth:`save_meta`, then write every dirty page to the store:
        what a direct user calls before the storage is reopened."""
        self.save_meta()
        self.store.buffer.flush()

    @property
    def now(self) -> Chronon:
        return self.clock.now

    @property
    def _eval_time(self) -> Chronon:
        """The time at which insertion penalties are evaluated."""
        return self.now + self.time_horizon

    # ------------------------------------------------------------------
    # Hooks on the R* skeleton
    # ------------------------------------------------------------------

    def _note(self, event: str) -> None:
        if self.obs is not None:
            self.obs.inc("grtree." + event)

    def _leaf_entry(self, extent: TimeExtent, rowid: int, fragid: int) -> GREntry:
        return GREntry.from_extent(extent, rowid, fragid)

    def _keys(self, entries) -> List[Region]:
        t = self._eval_time
        return [e.region(t) for e in entries]

    def _parent_entry(self, node: Node) -> GREntry:
        """Bounding entry for *node*'s entries at the current time."""
        bound = self.spec.bound(node, self.now)
        if bound is None:
            bound = bound_entries(node.entries, self.now)
        bound.child = node.page_id
        return bound

    def _least_area_enlargement(self, node: Node, region: Region) -> int:
        best = self.spec.least_area_enlargement(node, region, self._eval_time)
        if best is not None:
            return best
        return super()._least_area_enlargement(node, region)

    def _least_overlap_enlargement(self, node: Node, region: Region) -> int:
        t = self._eval_time
        best = self.spec.least_overlap_enlargement(node, region, t)
        if best is not None:
            return best
        regions = self._keys(node.entries)
        n = len(regions)
        areas = [r.area() for r in regions]
        enlarged = [r.union_bounds(region) for r in regions]
        growth = [u.area() - a for u, a in zip(enlarged, areas)]
        covering = [i for i in range(n) if growth[i] == 0]
        if covering:
            # An entry that already covers the key adds no overlap, and no
            # entry subtracts any (see repro.grtree.specialize).
            return min(covering, key=areas.__getitem__)
        # Pairwise overlaps before enlargement, computed once over the
        # upper triangle instead of per candidate (chronons are integers,
        # so the sums are exact in any order).
        before_sum = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                overlap = regions[i].overlap_area(regions[j])
                before_sum[i] += overlap
                before_sum[j] += overlap
        best, best_rank = 0, None
        for i, u in enumerate(enlarged):
            after_sum = sum(
                u.overlap_area(other)
                for j, other in enumerate(regions)
                if j != i
            )
            rank = (after_sum - before_sum[i], growth[i], areas[i])
            if best_rank is None or rank < best_rank:
                best, best_rank = i, rank
        return best

    def _same_key(self, entry: GREntry, target: GREntry) -> bool:
        return same_timestamps(entry, target)

    def _delete_key(self, target: GREntry) -> Region:
        return target.region(self.now)

    def _encloses(self, entry: GREntry, region: Region) -> bool:
        return entry.region(self.now).contains(region)

    def _check_entry(self, entry, leaf: bool, where: str, found: List[str]) -> None:
        super()._check_entry(entry, leaf, where, found)
        check_entry_shape(entry, leaf, where, self.now, found)

    def _bound_fault(self, entry: GREntry, child: Node) -> Optional[str]:
        for t in (self.now, self.now + self.CHECK_HORIZON):
            try:
                bound = entry.region(t)
            except ValueError:
                return None  # the entry check reports the undecodable bound
            for j, child_entry in enumerate(child.entries):
                try:
                    region = child_entry.region(t)
                except ValueError:
                    continue  # reported when the child node is visited
                if not bound.contains(region):
                    return (
                        f"bound does not contain child {entry.child} "
                        f"entry {j} at time {t}"
                    )
        return None

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def search(
        self,
        query: TimeExtent,
        predicate: Predicate = Predicate.OVERLAPS,
        now: Optional[Chronon] = None,
    ) -> Cursor:
        """Open a cursor over entries satisfying *predicate* vs *query*.

        *now* defaults to the clock; the server layer passes the time it
        sampled when the index was opened (Section 5.4).
        """
        if self.obs is not None:
            self.obs.inc("grtree.searches")
        at = self.now if now is None else now
        return Cursor(self, query.region(at), predicate, at)

    def search_all(
        self,
        query: TimeExtent,
        predicate: Predicate = Predicate.OVERLAPS,
        now: Optional[Chronon] = None,
    ) -> List[Tuple[int, int]]:
        """Drain a search into (rowid, fragid) pairs, recording I/O."""
        cursor = self.search(query, predicate, now)
        results = [(e.rowid, e.fragid) for e in cursor.fetch_all()]
        self.last_node_accesses = cursor.node_accesses
        return results

    # ------------------------------------------------------------------
    # Costing, quality, rendering
    # ------------------------------------------------------------------

    def scan_cost(self, query: TimeExtent, now: Optional[Chronon] = None) -> float:
        """Estimated page reads for a scan (the ``am_scancost`` input).

        Height plus the expected number of leaves touched, estimated from
        the query area's share of the root bound's area.
        """
        at = self.now if now is None else now
        root = self.store.read(self.root_id)
        if not root.entries:
            return 1.0
        leaves = max(1, self.size // max(1, self.max_entries // 2))
        root_bound = bounding_region([e.region(at) for e in root.entries])
        query_region = query.region(at)
        inter = root_bound.intersection(query_region)
        selectivity = 0.0 if inter is None else inter.area() / root_bound.area()
        return self.height + selectivity * leaves

    def quality(self, now: Optional[Chronon] = None) -> Dict[str, float]:
        """Tree 'goodness' metrics: dead space and sibling overlap at a
        time (the Figure 3 criteria the GR-tree is designed to minimize).
        """
        from repro.temporal.regions import union_area

        at = self.now if now is None else now
        dead = 0
        overlap = 0
        for node in self.iter_nodes():
            if node.leaf or not node.entries:
                continue
            regions = [e.region(at) for e in node.entries]
            bound = bounding_region(regions)
            dead += bound.area() - union_area(regions)
            for i, a in enumerate(regions):
                for b in regions[i + 1 :]:
                    overlap += a.overlap_area(b)
        return {"dead_space": float(dead), "sibling_overlap": float(overlap)}

    def dump(self, now: Optional[Chronon] = None) -> str:
        """Human-readable tree structure (the Figure 5 rendering)."""
        at = self.now if now is None else now
        lines: List[str] = []

        def visit(page_id: int, indent: int) -> None:
            node = self.store.read(page_id)
            kind = "leaf" if node.leaf else "node"
            lines.append(
                "  " * indent + f"{kind} {page_id} (level {node.level}):"
            )
            for entry in node.entries:
                lines.append(
                    "  " * (indent + 1)
                    + f"{entry} -> {entry.region(at)}"
                )
                if entry.child is not None:
                    visit(entry.child, indent + 2)

        visit(self.root_id, 0)
        return "\n".join(lines)
