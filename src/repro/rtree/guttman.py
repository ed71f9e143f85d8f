"""Guttman's original R-tree [GUT84] with the quadratic split.

Kept as an ablation baseline: the paper's Figure 3 discussion (dead space
and overlap as the "goodness" criteria) is exactly what distinguishes the
R* split from Guttman's.  The class is three hooks on the R*-tree
skeleton: subtrees are chosen purely by area enlargement, nodes split
with the classic quadratic seed/distribute algorithm, and there is no
forced reinsertion.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.rtree.node import Entry, Node, NodeStore
from repro.rtree.geometry import Rect
from repro.rtree.rstar import RStarTree


class GuttmanRTree(RStarTree):
    """The classic R-tree: quadratic split, no forced reinsertion."""

    REINSERT = False

    def __init__(self, store: NodeStore, min_fill: float = 0.4) -> None:
        super().__init__(store, min_fill=min_fill)

    def _choose_subtree(self, node: Node, rect: Rect) -> int:
        # Guttman: least area enlargement at every level.
        return self._least_area_enlargement(node, rect)

    def _choose_split(
        self, entries: List[Entry]
    ) -> Tuple[List[Entry], List[Entry]]:
        """Quadratic split: pick the pair of seeds wasting the most area,
        then assign each remaining entry to the group whose MBR grows
        least, honouring the minimum fill."""
        # PickSeeds.
        worst_pair, worst_waste = (0, 1), None
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                waste = (
                    entries[i].rect.union(entries[j].rect).area()
                    - entries[i].rect.area()
                    - entries[j].rect.area()
                )
                if worst_waste is None or waste > worst_waste:
                    worst_pair, worst_waste = (i, j), waste
        seed_a, seed_b = worst_pair
        group_a, group_b = [entries[seed_a]], [entries[seed_b]]
        mbr_a, mbr_b = entries[seed_a].rect, entries[seed_b].rect
        remaining = [
            e for k, e in enumerate(entries) if k not in (seed_a, seed_b)
        ]
        # Distribute with PickNext (max enlargement difference first).
        while remaining:
            # Honour the minimum fill: if one group must take the rest, do so.
            if len(group_a) + len(remaining) == self.min_entries:
                group_a.extend(remaining)
                break
            if len(group_b) + len(remaining) == self.min_entries:
                group_b.extend(remaining)
                break
            best_index, best_diff = 0, -1.0
            for k, entry in enumerate(remaining):
                d_a = mbr_a.enlargement(entry.rect)
                d_b = mbr_b.enlargement(entry.rect)
                diff = abs(d_a - d_b)
                if diff > best_diff:
                    best_index, best_diff = k, diff
            entry = remaining.pop(best_index)
            d_a = mbr_a.enlargement(entry.rect)
            d_b = mbr_b.enlargement(entry.rect)
            # Ties: smaller area, then fewer entries.
            if (d_a, mbr_a.area(), len(group_a)) <= (d_b, mbr_b.area(), len(group_b)):
                group_a.append(entry)
                mbr_a = mbr_a.union(entry.rect)
            else:
                group_b.append(entry)
                mbr_b = mbr_b.union(entry.rect)
        return group_a, group_b
