"""The unified observability layer (metrics, spans, inspection).

The paper (Section 6.4) found trace classes/levels to be the single most
effective debugging instrument while developing the GR-tree DataBlade.
This package grows that facility into the three pillars a production
server needs:

* a :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges, and
  fixed-bucket histograms that the buffer pools, sbspaces, WAL, lock
  manager, and executor report into (storage components are *pulled* via
  collectors, so their hot paths carry no new code);
* hierarchical :mod:`~repro.obs.spans` giving each SQL statement an
  EXPLAIN-ANALYZE-style tree (parse -> plan -> purpose-function calls)
  annotated with per-span metric deltas;
* an ``onstat``-style inspection surface: :meth:`Observability.report`
  (text) and :meth:`Observability.to_dict` (JSON), reachable through the
  ``SHOW STATS`` / ``SHOW SPANS`` SQL statements and the ``repro.cli
  stats`` subcommand.

Everything is gated by :attr:`Observability.enabled`; with the hub
disabled (or simply not attached -- raw index structures default to
``obs=None``) the instrumented paths cost one attribute test.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.obs.events import Event, EventLog
from repro.obs.export import parse_prometheus_text, prometheus_text
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry
from repro.obs.spans import Span, SpanRecorder
from repro.obs.workload import FingerprintStats, WorkloadModel, fingerprint

__all__ = [
    "DEFAULT_BUCKETS",
    "Event",
    "EventLog",
    "FingerprintStats",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "SpanRecorder",
    "WorkloadModel",
    "fingerprint",
    "parse_prometheus_text",
    "prometheus_text",
]


class _NoopSpan:
    """Shared do-nothing context manager returned while disabled."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NOOP_SPAN = _NoopSpan()


class Observability:
    """The hub: one registry + one span recorder + attachment points."""

    def __init__(
        self,
        trace=None,
        timer: Optional[Callable[[], float]] = None,
        enabled: bool = True,
        max_span_roots: int = 128,
    ) -> None:
        self.trace = trace
        self.metrics = MetricsRegistry(timer=timer)
        self.spans = SpanRecorder(self.metrics, max_roots=max_span_roots)
        #: Per-fingerprint statement statistics fed from completed spans.
        self.workload = WorkloadModel()
        #: Structured slow-query/error event log (JSONL-exportable).
        self.events = EventLog(timer=timer)
        self.enabled = enabled
        #: Buffer pools attached by name (inspection convenience).
        self.pools: Dict[str, Any] = {}
        #: Counters carried over from replaced pools, keyed by pool name.
        #: An index reopen creates a fresh pool; folding the old pool's
        #: final counters in here keeps ``buffer.<name>.*`` monotonic, so
        #: span deltas stay correct across the reopen.
        self._pool_bases: Dict[str, Dict[str, float]] = {}
        #: Deserialized-node caches attached by name (usually one per
        #: open GR-tree index, mirroring :attr:`pools`).
        self.node_caches: Dict[str, Any] = {}
        self._node_cache_bases: Dict[str, Dict[str, float]] = {}
        #: Specialization bundles attached by name (one per open index
        #: running the specialized/vectorized hot paths).
        self.specializers: Dict[str, Any] = {}
        self._specializer_bases: Dict[str, Dict[str, float]] = {}
        #: Fault-injection registry, when one is attached (``SET FAULT``).
        self.faults_registry = None

    # ------------------------------------------------------------------
    # Gating
    # ------------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # ------------------------------------------------------------------
    # Guarded push API (the hot-path entry points)
    # ------------------------------------------------------------------

    def inc(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.metrics.inc(name, amount)

    def set_gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.set_gauge(name, value)

    def observe(self, name: str, value: float, boundaries=None) -> None:
        if self.enabled:
            self.metrics.observe(name, value, boundaries)

    def span(self, name: str, **attrs):
        if not self.enabled:
            return _NOOP_SPAN
        return self.spans.span(name, **attrs)

    # ------------------------------------------------------------------
    # Attachment points (pull-based collectors)
    # ------------------------------------------------------------------

    def attach_buffer_pool(self, name: str, pool) -> None:
        """Export a buffer pool's I/O counters as ``buffer.<name>.*``.

        Attaching a different pool under an existing name (an index
        reopen) folds the old pool's counters into a base so the
        exported values never go backwards.
        """
        base = self._pool_bases.setdefault(name, {})
        previous = self.pools.get(name)
        if previous is not None and previous is not pool:
            for key, value in previous.stats.to_dict().items():
                if key != "hit_ratio":
                    base[key] = base.get(key, 0) + value
        self.pools[name] = pool

        def collect() -> Dict[str, float]:
            # Read per span (twice): plain attribute reads, and no
            # hit_ratio -- ratios make noisy span deltas.
            stats = pool.stats
            collected = {
                "logical_reads": stats.logical_reads,
                "physical_reads": stats.physical_reads,
                "logical_writes": stats.logical_writes,
                "physical_writes": stats.physical_writes,
            }
            for key, value in base.items():
                collected[key] += value
            collected["resident_pages"] = pool.resident_pages
            return collected

        self.metrics.register_collector(f"buffer.{name}", collect)

    def detach_buffer_pool(self, name: str) -> None:
        self.pools.pop(name, None)
        self._pool_bases.pop(name, None)
        self.metrics.unregister_collector(f"buffer.{name}")

    def attach_node_cache(self, name: str, store) -> None:
        """Export a :class:`GRNodeStore`'s cache counters as ``nodecache.<name>.*``.

        Same reopen-folding contract as :meth:`attach_buffer_pool`: the
        exported counters never go backwards when an index reopen swaps
        in a fresh store.
        """
        base = self._node_cache_bases.setdefault(name, {})
        previous = self.node_caches.get(name)
        if previous is not None and previous is not store:
            for key, value in previous.cache_stats.to_dict().items():
                base[key] = base.get(key, 0) + value
        self.node_caches[name] = store

        def collect() -> Dict[str, float]:
            stats = {
                key: value + base.get(key, 0)
                for key, value in store.cache_stats.to_dict().items()
            }
            stats["cached_nodes"] = store.cached_nodes
            stats["size"] = store.node_cache_size
            return stats

        self.metrics.register_collector(f"nodecache.{name}", collect)

    def detach_node_cache(self, name: str) -> None:
        self.node_caches.pop(name, None)
        self._node_cache_bases.pop(name, None)
        self.metrics.unregister_collector(f"nodecache.{name}")

    def node_cache_counters(self, name: str) -> Dict[str, float]:
        """Lifetime node-cache counters for one name (reopen-cumulative)."""
        base = self._node_cache_bases.get(name, {})
        return {
            key: value + base.get(key, 0)
            for key, value in self.node_caches[name].cache_stats.to_dict().items()
        }

    def attach_specializer(self, name: str, spec) -> None:
        """Export a :class:`SpecializedOps` bundle's counters as
        ``spec.<name>.*``.

        Same reopen-folding contract as :meth:`attach_buffer_pool`: when
        an index reopen builds a fresh bundle, the replaced bundle's
        final counters fold into a base so the exported values never go
        backwards.
        """
        base = self._specializer_bases.setdefault(name, {})
        previous = self.specializers.get(name)
        if previous is not None and previous is not spec:
            for key, value in previous.stats.to_dict().items():
                base[key] = base.get(key, 0) + value
        self.specializers[name] = spec

        def collect() -> Dict[str, float]:
            stats = {
                key: value + base.get(key, 0)
                for key, value in spec.stats.to_dict().items()
            }
            stats["vectorized"] = int(spec.vectorized)
            return stats

        self.metrics.register_collector(f"spec.{name}", collect)

    def detach_specializer(self, name: str) -> None:
        self.specializers.pop(name, None)
        self._specializer_bases.pop(name, None)
        self.metrics.unregister_collector(f"spec.{name}")

    def specializer_counters(self, name: str) -> Dict[str, float]:
        """Lifetime specialization counters for one name
        (reopen-cumulative)."""
        base = self._specializer_bases.get(name, {})
        return {
            key: value + base.get(key, 0)
            for key, value in self.specializers[name].stats.to_dict().items()
        }

    def attach_lock_manager(self, locks) -> None:
        self.metrics.register_collector(
            "locks",
            lambda: {
                "acquires": locks.acquires,
                "releases": locks.releases,
                "conflicts": locks.conflicts,
                "timeouts": locks.timeouts,
                "wait_seconds": locks.wait_seconds,
                "held_resources": locks.locked_resources,
            },
        )

    def attach_wal(self, wal) -> None:
        self.metrics.register_collector("wal", wal.stats)

    def attach_sbspace(self, space) -> None:
        self.metrics.register_collector(f"sbspace.{space.name}", space.stats)

    def attach_faults(self, registry) -> None:
        """Export failpoint hit/trigger counters as ``faults.*``."""
        self.faults_registry = registry
        self.metrics.register_collector("faults", registry.stats)

    # ------------------------------------------------------------------
    # Aggregation and export
    # ------------------------------------------------------------------

    def pool_counters(self, name: str) -> Dict[str, float]:
        """Lifetime I/O counters for one pool name (reopen-cumulative)."""
        base = self._pool_bases.get(name, {})
        counters = {
            key: value + base.get(key, 0)
            for key, value in self.pools[name].stats.to_dict().items()
            if key != "hit_ratio"
        }
        reads = counters["logical_reads"]
        counters["hit_ratio"] = (
            1.0 - counters["physical_reads"] / reads if reads else 1.0
        )
        return counters

    def buffer_totals(self) -> Dict[str, float]:
        """Summed I/O counters (plus hit ratio) across attached pools."""
        totals = {
            "logical_reads": 0,
            "physical_reads": 0,
            "logical_writes": 0,
            "physical_writes": 0,
        }
        for name in self.pools:
            counters = self.pool_counters(name)
            for key in totals:
                totals[key] += counters[key]
        reads = totals["logical_reads"]
        totals["hit_ratio"] = (
            1.0 - totals["physical_reads"] / reads if reads else 1.0
        )
        return totals

    def to_dict(self) -> Dict[str, Any]:
        """Full JSON-serializable export: registry, spans, trace levels."""
        result: Dict[str, Any] = {
            "enabled": self.enabled,
            "metrics": self.metrics.to_dict(),
            "buffer_totals": self.buffer_totals(),
            "spans": self.spans.to_dicts(),
            "workload": self.workload.to_dict(),
            "events": self.events.to_dicts(),
        }
        if self.trace is not None:
            result["trace_levels"] = self.trace.levels()
        return result

    def prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        return prometheus_text(self.metrics)

    def report(self) -> str:
        """The ``onstat``-style text dump (the ``SHOW STATS`` body)."""
        lines: List[str] = ["repro observability -- onstat-style report", ""]
        snapshot = self.metrics.snapshot()

        def section(title: str) -> None:
            lines.append(f"== {title} ==")

        section("counters")
        counters = {
            name: value
            for name, value in sorted(snapshot.items())
            if not name.startswith(
                (
                    "buffer.",
                    "locks.",
                    "wal.",
                    "sbspace.",
                    "nodecache.",
                    "spec.",
                    "net.",
                    "faults.",
                    "repl.",
                    "hblade.",
                )
            )
        }
        if counters:
            width = max(len(name) for name in counters)
            for name, value in counters.items():
                lines.append(f"{name:<{width}}  {value:g}")
        else:
            lines.append("(none)")

        lines.append("")
        section("buffer pools")
        if self.pools:
            header = (
                f"{'pool':<24} {'lreads':>8} {'preads':>8} "
                f"{'lwrites':>8} {'pwrites':>8} {'hit%':>7} {'resident':>9} "
                f"{'frames':>7}"
            )
            lines.append(header)
            for name in sorted(self.pools):
                stats = self.pool_counters(name)
                lines.append(
                    f"{name:<24} {stats['logical_reads']:>8} "
                    f"{stats['physical_reads']:>8} {stats['logical_writes']:>8} "
                    f"{stats['physical_writes']:>8} "
                    f"{stats['hit_ratio'] * 100:>6.1f}% "
                    f"{self.pools[name].resident_pages:>9} "
                    f"{self.pools[name].capacity:>7}"
                )
            totals = self.buffer_totals()
            lines.append(
                f"{'(total)':<24} {totals['logical_reads']:>8} "
                f"{totals['physical_reads']:>8} {totals['logical_writes']:>8} "
                f"{totals['physical_writes']:>8} "
                f"{totals['hit_ratio'] * 100:>6.1f}%"
            )
            lines.append(f"buffer hit ratio: {totals['hit_ratio']:.4f}")
        else:
            lines.append("(no buffer pools attached)")

        if self.node_caches:
            lines.append("")
            section("node caches")
            header = (
                f"{'cache':<24} {'hits':>8} {'misses':>8} "
                f"{'evicts':>8} {'invals':>8} {'cached':>7} {'size':>6}"
            )
            lines.append(header)
            for name in sorted(self.node_caches):
                stats = self.node_cache_counters(name)
                store = self.node_caches[name]
                lines.append(
                    f"{name:<24} {stats['hits']:>8} {stats['misses']:>8} "
                    f"{stats['evictions']:>8} {stats['invalidations']:>8} "
                    f"{store.cached_nodes:>7} {store.node_cache_size:>6}"
                )

        if self.specializers:
            lines.append("")
            section("specialization")
            header = (
                f"{'index':<24} {'scans':>7} {'batched':>8} {'fallbk':>7} "
                f"{'maskhit':>8} {'choices':>8} {'bounds':>7} {'vec':>4}"
            )
            lines.append(header)
            for name in sorted(self.specializers):
                stats = self.specializer_counters(name)
                spec = self.specializers[name]
                lines.append(
                    f"{name:<24} {stats['scans_compiled']:>7} "
                    f"{stats['nodes_batched']:>8} {stats['nodes_fallback']:>7} "
                    f"{stats['mask_cache_hits']:>8} "
                    f"{stats['choices_vectorized']:>8} "
                    f"{stats['bounds_vectorized']:>7} "
                    f"{'yes' if spec.vectorized else 'no':>4}"
                )

        lines.append("")
        section("locks")
        lines.append(
            "acquires {0:g}  releases {1:g}  conflicts {2:g}  "
            "timeouts {3:g}  held {4:g}".format(
                snapshot.get("locks.acquires", 0),
                snapshot.get("locks.releases", 0),
                snapshot.get("locks.conflicts", 0),
                snapshot.get("locks.timeouts", 0),
                snapshot.get("locks.held_resources", 0),
            )
        )

        net_items = sorted(
            (name, value)
            for name, value in snapshot.items()
            if name.startswith("net.")
        )
        if net_items:
            lines.append("")
            section("serving")
            lines.append(
                "  ".join(
                    f"{name[len('net.'):]} {value:g}"
                    for name, value in net_items
                )
            )

        hblade_items = sorted(
            (name, value)
            for name, value in snapshot.items()
            if name.startswith("hblade.")
        )
        if hblade_items:
            lines.append("")
            section("hybrid")
            lines.append(
                "  ".join(
                    f"{name[len('hblade.'):]} {value:g}"
                    for name, value in hblade_items
                )
            )

        repl_items = sorted(
            (name, value)
            for name, value in snapshot.items()
            if name.startswith("repl.")
        )
        if repl_items:
            lines.append("")
            section("replication")
            lines.append(
                "  ".join(
                    f"{name[len('repl.'):]} {value:g}"
                    for name, value in repl_items
                )
            )

        lines.append("")
        section("write-ahead log")
        lines.append(
            "records {0:g}  commits {1:g}  aborts {2:g}  active {3:g}".format(
                snapshot.get("wal.records", 0),
                snapshot.get("wal.commits", 0),
                snapshot.get("wal.aborts", 0),
                snapshot.get("wal.active", 0),
            )
        )

        sbspace_keys = sorted(
            {
                name.split(".", 2)[1]
                for name in snapshot
                if name.startswith("sbspace.")
            }
        )
        if sbspace_keys:
            lines.append("")
            section("sbspaces")
            for space in sbspace_keys:
                prefix = f"sbspace.{space}."
                fields = "  ".join(
                    f"{name[len(prefix):]} {value:g}"
                    for name, value in sorted(snapshot.items())
                    if name.startswith(prefix)
                )
                lines.append(f"{space}: {fields}")

        if self.faults_registry is not None:
            lines.append("")
            section("faults")
            lines.extend(self.faults_registry.report_lines())

        if self.trace is not None:
            lines.append("")
            section("trace classes")
            levels = self.trace.levels()
            lines.append(
                "  ".join(
                    f"{cls}={lvl}" for cls, lvl in sorted(levels.items())
                )
                or "(all disabled)"
            )

        histograms = self.metrics.histograms()
        if histograms:
            lines.append("")
            section("latency histograms")
            width = max(len(name) for name in histograms)
            lines.append(
                f"{'histogram':<{width}} {'count':>7} {'mean_ms':>9} "
                f"{'p50_ms':>9} {'p95_ms':>9} {'p99_ms':>9} {'buckets':>8}"
            )
            for name in sorted(histograms):
                h = histograms[name]
                occupied = sum(1 for tally in h.bucket_counts if tally)
                lines.append(
                    f"{name:<{width}} {h.count:>7} {h.mean * 1000:>9.3f} "
                    f"{h.quantile(0.50) * 1000:>9.3f} "
                    f"{h.quantile(0.95) * 1000:>9.3f} "
                    f"{h.quantile(0.99) * 1000:>9.3f} {occupied:>8}"
                )

        lines.append("")
        finished = len(self.spans.select())
        lines.append(f"spans recorded: {finished} (SHOW SPANS to display)")
        lines.append(
            f"workload fingerprints: {len(self.workload)} "
            "(SHOW WORKLOAD to display)"
        )
        threshold = self.events.slow_query_threshold_ms
        lines.append(
            f"events recorded: {len(self.events)} "
            f"(SHOW EVENTS to display; slow-query threshold "
            f"{'off' if threshold is None else f'{threshold:g} ms'})"
        )
        return "\n".join(lines)

    def reset(self) -> None:
        """Clear push metrics, span history, the workload model, and the
        event ring (collectors stay attached)."""
        self.metrics.reset()
        self.spans.clear()
        self.workload.reset()
        self.events.clear()
