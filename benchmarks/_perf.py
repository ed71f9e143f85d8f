"""Shared harness for the performance benchmarks (Perf-1..5).

Builds a GR-tree and the two baselines (max-timestamp R*-tree,
sequential scan) over the *same* generated bitemporal history, and
measures query/update I/O in page accesses -- the unit the GR-tree
evaluation argues in.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, List
from unittest import mock

from repro.grtree import specialize
from repro.grtree.node import GRNodeStore
from repro.grtree.tree import GRTree
from repro.storage.buffer import BufferPool
from repro.storage.pages import InMemoryPageStore
from repro.temporal.chronon import Clock
from repro.temporal.extent import TimeExtent
from repro.workloads import (
    BitemporalWorkload,
    MaxTimestampRTree,
    SequentialScanIndex,
    WorkloadConfig,
)

PAGE_SIZE = 1024


def reference_path(on: bool = True):
    """A context that runs its body on the GR-tree's per-entry reference
    path when *on*: numpy hidden from the kernels, as on a host without
    it (the same patch as the tests' ``scalar_path``)."""
    if not on:
        return contextlib.nullcontext()
    return mock.patch.object(specialize, "_np", None)


def pages_touched(io) -> int:
    """Total page accesses in an ``IOStats`` delta.

    Goes through ``IOStats.to_dict()`` -- the same export the
    observability layer uses -- so the benchmarks and ``SHOW STATS``
    count I/O identically.
    """
    counters = io.to_dict()
    return counters["logical_reads"] + counters["logical_writes"]


@dataclass
class Setup:
    clock: Clock
    workload: BitemporalWorkload
    grtree: GRTree
    grtree_pool: BufferPool
    rstar_max: MaxTimestampRTree
    seqscan: SequentialScanIndex


class _Tee:
    def __init__(self, sinks) -> None:
        self.sinks = sinks

    def insert(self, extent, rowid):
        for sink in self.sinks:
            sink.insert(extent, rowid)

    def delete(self, extent, rowid):
        for sink in self.sinks:
            sink.delete(extent, rowid)


def build_setup(
    steps: int,
    now_relative_fraction: float,
    seed: int = 101,
    delete_fraction: float = 0.1,
    update_fraction: float = 0.1,
    time_horizon: int = 20,
) -> Setup:
    clock = Clock(now=100)
    pool = BufferPool(InMemoryPageStore(page_size=PAGE_SIZE), capacity=96)
    grtree = GRTree.create(
        GRNodeStore(pool), clock, time_horizon=time_horizon
    )
    rstar = MaxTimestampRTree(clock, page_size=PAGE_SIZE, buffer_capacity=96)
    seq = SequentialScanIndex(clock)
    workload = BitemporalWorkload(
        clock,
        WorkloadConfig(
            seed=seed,
            now_relative_fraction=now_relative_fraction,
            delete_fraction=delete_fraction,
            update_fraction=update_fraction,
        ),
    )
    workload.run(_Tee([grtree, rstar, seq]), steps)
    return Setup(clock, workload, grtree, pool, rstar, seq)


def measure_query_io(setup: Setup, queries: List[TimeExtent]) -> Dict[str, float]:
    """Average *search* I/O per query for each competitor.

    Fetching the true result rows costs the same for every competitor,
    so the metric counts what differs: index node accesses, plus -- for
    the max-timestamp R*-tree -- one fetch per false-positive candidate
    that the exact-geometry check then rejects; for the sequential scan,
    every heap page.  All three answers are asserted identical.
    """
    totals = {"grtree": 0.0, "rstar_max": 0.0, "seqscan": 0.0}
    for query in queries:
        expected = setup.workload.oracle_overlapping(query)
        got = sorted(r for r, _ in setup.grtree.search_all(query))
        assert got == expected, "GR-tree diverged from the oracle"
        totals["grtree"] += setup.grtree.last_node_accesses
        assert setup.rstar_max.search(query) == expected
        totals["rstar_max"] += (
            setup.rstar_max.last_node_accesses
            + setup.rstar_max.last_false_positives
        )
        assert setup.seqscan.search(query) == expected
        totals["seqscan"] += setup.seqscan.last_pages_read
    n = max(1, len(queries))
    return {name: total / n for name, total in totals.items()}


def standard_queries(setup: Setup, count: int = 20) -> List[TimeExtent]:
    return [setup.workload.window_query(10, 10) for _ in range(count)]
