"""Perf search-path: specialized + vectorized kernels on a large tree.

The read-path benchmark gates the *combined* cache + specialization win
on the small Perf-1 workload; this one isolates the specialization layer
itself, at scale, on both hot paths:

* **warm search** -- a 50k-entry bulk-loaded GR-tree, fully node-cached,
  queried with window queries.  The same tree is timed with its kernels
  and on the reference path (numpy hidden from the kernels,
  ``_perf.reference_path``) in interleaved rounds, so the only
  difference is compiled-kernel batch evaluation vs the paper's literal
  per-entry purpose-function sequence.  Gate:
  ``SPEC_SEARCH_FLOOR`` (>= 2x when numpy is available; the pure-Python
  fallback must merely not regress).
* **insert path** -- two same-seed trees grown side by side, one
  specialized and one on the reference path.  The vectorized R* penalties must produce
  *byte-identical* pages (asserted) and must not be slower than the
  generic loop beyond noise.

Timing uses interleaved rounds: each round times both variants back to
back with the GC off, and the reported ratio is the median of per-round
ratios, so interpreter drift cancels.
Results append to ``benchmarks/out/BENCH_search_path.json`` -- a
history, not a snapshot -- and CI fails when a gate fails, because the
gate is an assertion in this test.
"""

import gc
import statistics
import time

from _perf import reference_path
from repro.grtree.bulk import bulk_load
from repro.grtree.node import GRNodeStore
from repro.grtree.specialize import numpy_available
from repro.grtree.tree import GRTree
from repro.storage.buffer import BufferPool
from repro.storage.pages import InMemoryPageStore
from repro.temporal.chronon import Clock
from repro.workloads import BitemporalWorkload, WorkloadConfig

ENTRIES = 50_000
PAGE_SIZE = 4096          # ~90-entry nodes: batch evaluation territory
QUERIES = 40
ROUNDS = 9
SEED = 404

#: CI gate: warm specialized search throughput vs the generic path on
#: the same tree.  Applied only when numpy is available; the fallback
#: configuration must stay within noise of generic (NO_REGRESSION).
SPEC_SEARCH_FLOOR = 2.0
NO_REGRESSION = 0.9

INSERT_STEPS = 1_500
INSERT_ROUNDS = 5


def build_big_tree():
    """Bulk-load a 50k-entry tree and cache every node, so the timed
    phase touches no I/O and no deserialization -- pure qualification."""
    clock = Clock(now=100)
    workload = BitemporalWorkload(
        clock, WorkloadConfig(seed=SEED, now_relative_fraction=0.5)
    )
    items = []
    for rowid in range(ENTRIES):
        items.append((workload.make_extent(), rowid))
        if rowid % 50 == 49:
            clock.advance(1)
    # Frames for every node: the pool keeps each one decoded.
    pool = BufferPool(InMemoryPageStore(page_size=PAGE_SIZE), capacity=4096)
    store = GRNodeStore(pool)
    # Loaded on the reference path, so the kernels' counters report
    # only the timed searches.
    with reference_path():
        tree = bulk_load(store, clock, items)
    queries = [workload.window_query(40, 40) for _ in range(QUERIES)]
    return tree, items, queries


def query_batch(tree, queries) -> float:
    start = time.perf_counter()
    for query in queries:
        tree.search_all(query)
    return time.perf_counter() - start


def measure_search() -> dict:
    tree, items, queries = build_big_tree()

    # Correctness before speed: identical result sets with the kernels
    # and on the reference path, both matching the linear-scan oracle.
    with reference_path():
        generic_answers = [
            sorted(r for r, _ in tree.search_all(q)) for q in queries
        ]
    spec_answers = [
        sorted(r for r, _ in tree.search_all(q)) for q in queries
    ]
    assert spec_answers == generic_answers, "specialization changed answers"
    q_region = queries[0].region(tree.now)
    oracle = sorted(
        rowid
        for extent, rowid in items
        if extent.region(tree.now).overlaps(q_region)
    )
    assert generic_answers[0] == oracle, "tree disagrees with the oracle"

    times = {"generic": [], "spec": []}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for mode in ("generic", "spec"):  # warm both paths, untimed
            with reference_path(mode == "generic"):
                query_batch(tree, queries)
        for round_no in range(ROUNDS):
            order = ["generic", "spec"]
            if round_no % 2:
                order.reverse()
            for mode in order:
                with reference_path(mode == "generic"):
                    times[mode].append(query_batch(tree, queries))
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()

    speedup = statistics.median(
        g / s for g, s in zip(times["generic"], times["spec"])
    )
    stats = tree.stats()
    return {
        "entries": ENTRIES,
        "page_size": PAGE_SIZE,
        "node_capacity": tree.max_entries,
        "height": stats["height"],
        "nodes": stats["nodes"],
        "queries_per_batch": QUERIES,
        "rounds": ROUNDS,
        "seed": SEED,
        "batch_seconds_generic_best": min(times["generic"]),
        "batch_seconds_specialized_best": min(times["spec"]),
        "batch_seconds_generic_median": statistics.median(times["generic"]),
        "batch_seconds_specialized_median": statistics.median(times["spec"]),
        "warm_search_speedup": speedup,
        "specializer_stats": tree.spec.stats.to_dict(),
        "numpy_available": numpy_available(),
        "floor": SPEC_SEARCH_FLOOR if numpy_available() else NO_REGRESSION,
    }


def grow_tree() -> tuple:
    clock = Clock(now=100)
    pool = BufferPool(InMemoryPageStore(page_size=1024), capacity=512)
    store = GRNodeStore(pool)
    tree = GRTree.create(store, clock, time_horizon=20)
    workload = BitemporalWorkload(
        clock,
        WorkloadConfig(
            seed=SEED + 1,
            now_relative_fraction=0.5,
            delete_fraction=0.1,
            update_fraction=0.1,
        ),
    )
    return tree, pool, workload


def measure_insert() -> dict:
    """Grow same-seed trees with the kernels and on the reference path;
    assert byte-identical pages, compare wall-clock."""
    times = {"generic": [], "spec": []}
    pages = {}
    choices = {}
    for mode in ("generic", "spec"):
        round_times = []
        with reference_path(mode == "generic"):
            for _ in range(INSERT_ROUNDS):
                tree, pool, workload = grow_tree()
                gc_was_enabled = gc.isenabled()
                gc.disable()
                try:
                    start = time.perf_counter()
                    workload.run(tree, INSERT_STEPS)
                    round_times.append(time.perf_counter() - start)
                finally:
                    if gc_was_enabled:
                        gc.enable()
                    gc.collect()
            pages[mode] = {
                node.page_id: pool.read(node.page_id)
                for node in tree.iter_nodes()
            }
        times[mode] = round_times
        choices[mode] = tree.spec.stats.choices_vectorized
    assert choices["generic"] == 0, "the reference leg ran the kernels"
    assert pages["generic"] == pages["spec"], (
        "specialized insert path diverged from the generic tree bytes"
    )
    ratio = statistics.median(
        g / s for g, s in zip(times["generic"], times["spec"])
    )
    return {
        "steps": INSERT_STEPS,
        "rounds": INSERT_ROUNDS,
        "build_seconds_generic_median": statistics.median(times["generic"]),
        "build_seconds_specialized_median": statistics.median(times["spec"]),
        "insert_speedup": ratio,
        "pages_compared": len(pages["generic"]),
    }


def test_search_path_specialization(write_artifact, append_bench):
    search = measure_search()
    insert = measure_insert()
    payload = {
        "benchmark": "search_path",
        "search": search,
        "insert": insert,
    }
    append_bench("BENCH_search_path.json", payload)
    speedup = search["warm_search_speedup"]
    write_artifact(
        "perf_search_path.txt",
        "Perf search-path: specialized/vectorized kernels vs generic, "
        f"median of {ROUNDS} interleaved rounds\n"
        f"  tree: {ENTRIES} entries, page size {PAGE_SIZE}, "
        f"node capacity {search['node_capacity']}, "
        f"height {search['height']:g}, {search['nodes']:g} nodes\n"
        f"  warm search speedup (spec vs generic): {speedup:.2f}x "
        f"(floor {search['floor']}x)\n"
        f"  insert speedup (spec vs generic):      "
        f"{insert['insert_speedup']:.2f}x "
        f"({insert['pages_compared']} pages byte-identical)\n"
        f"  numpy available: {search['numpy_available']}\n"
        f"  specializer stats: {search['specializer_stats']}\n",
    )
    if search["numpy_available"]:
        assert speedup >= SPEC_SEARCH_FLOOR, (
            f"warm specialized search speedup {speedup:.2f}x is below "
            f"the {SPEC_SEARCH_FLOOR}x floor"
        )
    else:
        assert speedup >= NO_REGRESSION, (
            f"pure-Python fallback regressed the search path: "
            f"{speedup:.2f}x"
        )
    # The specialized insert path must not be slower beyond noise.
    assert insert["insert_speedup"] >= NO_REGRESSION, (
        f"specialized insert path regressed: {insert['insert_speedup']:.2f}x"
    )
