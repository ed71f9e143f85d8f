"""Bulk loading and bulk deletion (vacuuming) for the GR-tree.

Section 5.5: when a large fraction of the data must be removed (e.g.
"delete all data that is more than five years old"), the entry-at-a-time
deletion procedure is inefficient.  "A straightforward solution is to
drop the index and then create it from scratch using a bulk loading
algorithm.  Alternatively, a bulk deletion algorithm may be provided."
Both are provided here.

Bulk loading is sort-tile-recursive (STR) on the regions resolved at load
time, with parent timestamps recomputed symbolically by
:func:`~repro.grtree.entries.bound_entries`, so the loaded tree grows
correctly afterwards.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple

from repro.grtree.entries import GREntry, bound_entries
from repro.grtree.node import GRNodeStore
from repro.grtree.tree import GRTree
from repro.temporal.chronon import Clock
from repro.temporal.extent import TimeExtent


def _balanced_chunks(seq, size: int, min_size: int, max_size: int):
    """Split *seq* into chunks of about *size*, keeping every chunk
    between *min_size* and *max_size* (tree fill invariants).

    A short trailing chunk borrows from its predecessor; when the two
    together cannot both reach *min_size*, they are merged (the merged
    chunk always fits: ``size + min_size - 1 <= max_size`` does not hold
    in general, but ``2 * min_size - 1 <= max_size`` does).
    """
    chunks = [list(seq[i : i + size]) for i in range(0, len(seq), size)]
    if len(chunks) >= 2 and len(chunks[-1]) < min_size:
        combined = chunks[-2] + chunks[-1]
        if len(combined) >= 2 * min_size:
            half = len(combined) // 2
            chunks[-2:] = [combined[:half], combined[half:]]
        else:
            if len(combined) > max_size:  # pragma: no cover - defensive
                raise ValueError("cannot balance chunks within node capacity")
            chunks[-2:] = [combined]
    return chunks


def bulk_load(
    store: GRNodeStore,
    clock: Clock,
    items: Sequence[Tuple[TimeExtent, int]],
    fill: float = 0.7,
    **tree_kwargs,
) -> GRTree:
    """Build a GR-tree from ``(extent, rowid)`` pairs with STR packing.

    *fill* controls the target node occupancy; the default 70 % leaves
    headroom for subsequent insertions.
    """
    tree = GRTree.create(store, clock, **tree_kwargs)
    if not items:
        return tree
    now = clock.now
    per_node = max(tree.min_entries, int(tree.max_entries * fill))

    entries = [GREntry.from_extent(extent, rowid) for extent, rowid in items]
    # STR: slice by transaction-time begin, then sort each slice by
    # valid-time begin.
    entries.sort(key=lambda e: (e.tt_begin, e.vt_begin))
    n_leaves = math.ceil(len(entries) / per_node)
    n_slices = max(1, math.ceil(math.sqrt(n_leaves)))
    slice_size = math.ceil(len(entries) / n_slices)

    leaves: List[List[GREntry]] = []
    for s in range(0, len(entries), slice_size):
        chunk = sorted(
            entries[s : s + slice_size], key=lambda e: (e.vt_begin, e.tt_begin)
        )
        leaves.extend(
            _balanced_chunks(chunk, per_node, tree.min_entries, tree.max_entries)
        )

    # Write the leaf level, then build internal levels bottom-up.
    level_nodes = []
    for group in leaves:
        node = store.allocate(leaf=True, level=0)
        node.entries = group
        store.write(node)
        level_nodes.append(node)
    level = 0
    while len(level_nodes) > 1:
        level += 1
        parents = []
        for children in _balanced_chunks(
            level_nodes, per_node, tree.min_entries, tree.max_entries
        ):
            parent = store.allocate(leaf=False, level=level)
            for child in children:
                bound = bound_entries(child.entries, now)
                bound.child = child.page_id
                parent.entries.append(bound)
            store.write(parent)
            parents.append(parent)
        level_nodes = parents

    # Replace the empty root the tree was created with.
    store.free(tree.root_id)
    tree.root_id = level_nodes[0].page_id
    tree.height = level + 1
    tree.size = len(entries)
    tree.save_meta()
    return tree


def bulk_delete(
    tree: GRTree, condition: Callable[[GREntry], bool]
) -> Tuple[GRTree, int]:
    """Vacuum: drop every leaf entry satisfying *condition* and rebuild.

    Implements the drop-and-bulk-load strategy of Section 5.5.  Returns
    the rebuilt tree (over the same store) and the number of entries
    removed.  The rebuilt tree reuses the original meta page so handles
    held by the access method stay valid.
    """
    survivors: List[Tuple[TimeExtent, int]] = []
    removed = 0
    pages = []
    for node in tree.iter_nodes():
        pages.append(node.page_id)
        if node.leaf:
            for entry in node.entries:
                if condition(entry):
                    removed += 1
                else:
                    survivors.append((entry.extent(), entry.rowid))
    for page_id in pages:
        tree.store.free(page_id)

    rebuilt = bulk_load(
        tree.store,
        tree.clock,
        survivors,
        time_horizon=tree.time_horizon,
    )
    # Move the rebuilt tree onto the original meta page.
    if rebuilt.meta_page is not None and tree.meta_page is not None:
        tree.store.buffer.free(rebuilt.meta_page)
    rebuilt.meta_page = tree.meta_page
    rebuilt.save_meta()
    return rebuilt, removed
