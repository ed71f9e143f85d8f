#!/usr/bin/env python
"""Vacuuming old bitemporal data (Section 5.5).

Run:  python examples/vacuuming.py

Loads years of bitemporal history, then removes everything logically
deleted more than "five years" ago three ways: entry-at-a-time deletion
through cursors, the drop-and-bulk-load rebuild, and a bulk deletion --
comparing the page I/O of each, as the paper's discussion anticipates.
"""

import copy

from repro.grtree.bulk import bulk_delete, bulk_load
from repro.grtree.node import GRNodeStore
from repro.grtree.tree import GRTree
from repro.storage.buffer import BufferPool
from repro.storage.pages import InMemoryPageStore
from repro.temporal.chronon import Clock
from repro.temporal.variables import UC
from repro.workloads import BitemporalWorkload, WorkloadConfig


def build(seed: int = 7):
    clock = Clock(now=0)
    pool = BufferPool(InMemoryPageStore(page_size=1024), capacity=128)
    tree = GRTree.create(GRNodeStore(pool), clock)
    workload = BitemporalWorkload(
        clock,
        WorkloadConfig(seed=seed, delete_fraction=0.25, update_fraction=0.1,
                       clock_advance_probability=0.6),
    )
    workload.run(tree, 3000)
    tree.flush()
    return clock, pool, tree


def copy_of(clock, pool, tree):
    """An independent copy of the built history: its own pages, pool
    and clock, so each strategy starts from the same index."""
    own_pool = BufferPool(copy.deepcopy(pool.store), capacity=128)
    own_clock = Clock(now=clock.now)
    return own_clock, own_pool, GRTree.open(
        GRNodeStore(own_pool), own_clock, tree.meta_page
    )


def is_old(cutoff):
    def condition(entry):
        # Logically deleted (TTend fixed) before the cutoff.
        return entry.tt_end is not UC and entry.tt_end < cutoff
    return condition


def main() -> None:
    history = build()
    clock, pool, tree = history
    cutoff = clock.now - clock.now // 2  # "five years ago"
    condition = is_old(cutoff)
    victims = sum(
        condition(e)
        for node in tree.iter_nodes() if node.leaf
        for e in node.entries
    )
    print(f"History: {tree.size} entries, height {tree.height}; "
          f"{victims} entries were closed before chronon {cutoff}.")

    # Strategy 1: entry-at-a-time deletion (cursor + delete loop).
    c1, p1, t1 = copy_of(*history)
    before = p1.stats.snapshot()
    removed = 0
    for node in list(t1.iter_nodes()):
        if not node.leaf:
            continue
        for entry in list(node.entries):
            if condition(entry):
                if t1.delete(entry.extent(), entry.rowid):
                    removed += 1
    io1 = p1.stats - before
    print(f"\n1. entry-at-a-time: removed {removed}, "
          f"logical page reads {io1.logical_reads}, writes {io1.logical_writes}")
    t1.check()

    # Strategy 2: drop the index, bulk load the survivors (Section 5.5's
    # "straightforward solution").
    c2, p2, t2 = copy_of(*history)
    survivors = [
        (e.extent(), e.rowid)
        for node in t2.iter_nodes() if node.leaf
        for e in node.entries
        if not condition(e)
    ]
    before = p2.stats.snapshot()
    fresh_pool = BufferPool(InMemoryPageStore(page_size=1024), capacity=128)
    rebuilt = bulk_load(GRNodeStore(fresh_pool), c2, survivors)
    io2 = fresh_pool.stats.snapshot()
    print(f"2. drop + bulk load: kept {rebuilt.size}, "
          f"logical page reads {io2.logical_reads}, writes {io2.logical_writes}")
    rebuilt.check()

    # Strategy 3: the provided bulk-deletion algorithm.
    c3, p3, t3 = copy_of(*history)
    before = p3.stats.snapshot()
    t3, removed3 = bulk_delete(t3, condition)
    io3 = p3.stats - before
    print(f"3. bulk delete:      removed {removed3}, "
          f"logical page reads {io3.logical_reads}, writes {io3.logical_writes}")
    t3.check()

    print("\nEntry-at-a-time deletion re-traverses from the root after "
          "every condensation;\nbulk strategies touch each page a constant "
          "number of times.")


if __name__ == "__main__":
    main()
