"""Perf fault-overhead: failpoints must be (nearly) free when unused.

Every failpoint in ``repro.faults.CATALOG`` sits on a hot path -- WAL
appends, sbspace page I/O, buffer flushes, lock acquisition -- guarded
by ``if self.faults is not None``.  This benchmark runs the same
end-to-end SQL workload (inserts + index-backed window queries, the
statement path that crosses every storage failpoint) three ways:

* ``no_registry``  -- ``faults=None``, the shipping default: the guard
  is a single attribute test;
* ``unarmed``      -- a :class:`FaultRegistry` attached but with nothing
  armed: each traversal adds one dict probe that misses;
* ``armed_elsewhere`` -- a registry with a failpoint armed at a point
  this workload never traverses (``osfile.read``): arming one point
  must not tax the others.

Timing uses interleaved rounds: each round times all variants back to
back with the GC off, and the asserted number is the *median of
per-round ratios*, so interpreter drift cancels.  The gate: an unarmed
registry costs < 10% on the end-to-end statement path (the per-hit cost
is one missed dict lookup; the margin is scheduler noise on a full SQL
round-trip).
"""

import gc
import statistics
import time

from repro.datablade import register_grtree_blade
from repro.faults import FaultRegistry
from repro.server import DatabaseServer

INSERTS = 120
QUERIES = 20
ROUNDS = 7
BUDGET = 0.10  # unarmed-registry overhead gate on the statement path

EXTENT = "'01/01/98, UC, 01/01/98, NOW'"
QUERY = f"SELECT n FROM e WHERE Overlaps(te, {EXTENT})"


def build_server(faults) -> DatabaseServer:
    server = DatabaseServer(faults=faults)
    server.create_sbspace("spc")
    register_grtree_blade(server)
    server.prefer_virtual_index = True
    server.obs.disable()  # measure the failpoints, not the instrumentation
    server.execute("CREATE TABLE e (n LVARCHAR, te GRT_TimeExtent_t)")
    server.execute("CREATE INDEX gi ON e(te) USING grtree_am IN spc")
    server.clock.set_text("01/01/98")
    return server


def run_workload(faults) -> float:
    """One timed pass: fresh server, insert + query through the index.

    The inserts cross ``wal.append``/``wal.fsync``/``sbspace.page_write``/
    ``buffer.flush``/``lock.acquire``; the queries cross
    ``sbspace.page_read``.  Setup (CREATE TABLE/INDEX) is untimed.
    """
    server = build_server(faults)
    start = time.perf_counter()
    for i in range(INSERTS):
        server.execute(f"INSERT INTO e VALUES ('r{i}', {EXTENT})")
    for _ in range(QUERIES):
        rows = server.execute(QUERY)
    elapsed = time.perf_counter() - start
    assert len(rows) == INSERTS
    return elapsed


def make_armed_elsewhere() -> FaultRegistry:
    registry = FaultRegistry()
    # Armed, live, never traversed by a sbspace-backed workload.
    registry.set_fault("osfile.read", "raise", times=None)
    return registry


def measure() -> dict:
    variants = [
        ("no_registry", lambda: run_workload(None)),
        ("unarmed", lambda: run_workload(FaultRegistry())),
        ("armed_elsewhere", lambda: run_workload(make_armed_elsewhere())),
    ]
    rounds = {name: [] for name, _ in variants}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        run_workload(None)  # warm-up, untimed
        for round_no in range(ROUNDS):
            times = {}
            # rotate the order so no variant systematically runs first
            for offset in range(len(variants)):
                name, run = variants[(round_no + offset) % len(variants)]
                times[name] = run()
            for name, elapsed in times.items():
                rounds[name].append(elapsed)
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    return rounds


def overhead(rounds: dict, variant: str) -> float:
    """Median per-round slowdown of *variant* vs ``no_registry``."""
    ratios = [
        with_faults / base
        for with_faults, base in zip(rounds[variant], rounds["no_registry"])
    ]
    return statistics.median(ratios) - 1.0


def test_unarmed_registry_overhead_under_budget(write_artifact):
    rounds = measure()
    overhead_unarmed = overhead(rounds, "unarmed")
    overhead_armed_elsewhere = overhead(rounds, "armed_elsewhere")
    base = min(rounds["no_registry"])
    write_artifact(
        "perf_fault_overhead.txt",
        "Perf fault-overhead: end-to-end statement path, median over "
        f"{ROUNDS} interleaved rounds of {INSERTS} inserts + "
        f"{QUERIES} queries\n"
        f"  faults=None     : {base * 1000:8.2f} ms (best round)\n"
        f"  unarmed registry: {overhead_unarmed:+.2%}\n"
        f"  armed elsewhere : {overhead_armed_elsewhere:+.2%}\n",
    )
    assert overhead_unarmed < BUDGET, (
        f"an unarmed fault registry costs {overhead_unarmed:.2%} on the "
        f"statement path (budget {BUDGET:.0%})"
    )
    assert overhead_armed_elsewhere < BUDGET, (
        f"a registry armed at an untraversed point costs "
        f"{overhead_armed_elsewhere:.2%} (budget {BUDGET:.0%})"
    )
