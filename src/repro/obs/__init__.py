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

import functools
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.events import Event, EventLog
from repro.obs.export import parse_prometheus_text, prometheus_text
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry
from repro.obs.spans import SKIP, Span, SpanRecorder
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


def _pool_values(pool) -> Dict[str, float]:
    # Read at a root span's start and end: plain attribute reads into a
    # fresh map, and no hit_ratio -- ratios make noisy span deltas.
    stats = pool.stats
    return {
        "logical_reads": stats.logical_reads,
        "physical_reads": stats.physical_reads,
        "logical_writes": stats.logical_writes,
        "physical_writes": stats.physical_writes,
        "decodes": pool.decodes,
        "decode_hits": pool.decode_hits,
        "resident_pages": pool.resident_pages,
    }


#: The per-index objects :meth:`Observability.attach` exports, by metric
#: prefix: how to read one's values, and which of them are gauges (the
#: rest are counters, carried across an index reopen).
ATTACHMENTS: Dict[str, Tuple[Callable[[Any], Dict[str, float]], Tuple[str, ...]]] = {
    "buffer": (_pool_values, ("resident_pages",)),
    "spec": (
        lambda spec: {**spec.stats.to_dict(), "vectorized": int(spec.vectorized)},
        ("vectorized",),
    ),
}

#: Metric prefixes ``SHOW STATS`` lifts out of its counter list, in
#: report order.  A titled prefix is printed as one ``name value`` line
#: under its title; the others have a section of their own.
SECTIONS = (
    ("buffer.", None), ("spec.", None), ("locks.", None),
    ("net.", "serving"), ("hblade.", "hybrid"), ("repl.", "replication"),
    ("wal.", None), ("sbspace.", None), ("faults.", None),
)


def _folded(read, source, base: Dict[str, float]) -> Dict[str, float]:
    values = read(source)
    for key, value in base.items():
        values[key] += value
    return values


def _hit_ratio(counters: Dict[str, float]) -> float:
    reads = counters["logical_reads"]
    return 1.0 - counters["physical_reads"] / reads if reads else 1.0


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
        #: Per-index objects by :data:`ATTACHMENTS` kind, then name.
        self.attached: Dict[str, Dict[str, Any]] = {k: {} for k in ATTACHMENTS}
        #: Counters carried over from replaced objects, by kind and name.
        #: An index reopen builds fresh ones; folding the old object's
        #: final counters in here keeps ``<kind>.<name>.*`` monotonic, so
        #: span deltas stay correct across the reopen.
        self._bases: Dict[str, Dict[str, Dict[str, float]]] = {
            kind: {} for kind in ATTACHMENTS
        }
        self.pools = self.attached["buffer"]
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
            return SKIP
        return self.spans.span(name, **attrs)

    # ------------------------------------------------------------------
    # Attachment points (pull-based collectors)
    # ------------------------------------------------------------------

    def attach(self, kind: str, name: str, source) -> None:
        """Export an index's buffer pool (*kind* ``buffer``) or
        specializer (``spec``) as ``<kind>.<name>.*``;
        a *source* of ``None`` detaches the name (DROP INDEX).

        Attaching a different object under an existing name (an index
        reopen) folds the old one's counters into a base, so the
        exported counters never go backwards.
        """
        read, gauges = ATTACHMENTS[kind]
        attached, bases = self.attached[kind], self._bases[kind]
        prefix = f"{kind}.{name}"
        if source is None:
            attached.pop(name, None)
            bases.pop(name, None)
            self.metrics.unregister_collector(prefix)
            return
        base = bases.setdefault(name, {})
        previous = attached.get(name)
        if previous is not None and previous is not source:
            for key, value in read(previous).items():
                if key not in gauges:
                    base[key] = base.get(key, 0) + value
        attached[name] = source
        self.metrics.register_collector(
            prefix,
            functools.partial(_folded, read, source, base)
            if base
            else functools.partial(read, source),
        )

    def counters(self, kind: str, name: str) -> Dict[str, float]:
        """One attached object's values, counters reopen-cumulative."""
        read, _ = ATTACHMENTS[kind]
        return _folded(read, self.attached[kind][name], self._bases[kind][name])

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

    def buffer_totals(self) -> Dict[str, float]:
        """Summed I/O counters (plus hit ratio) across attached pools."""
        totals = dict.fromkeys(
            ("logical_reads", "physical_reads", "logical_writes", "physical_writes"),
            0,
        )
        for name in self.pools:
            counters = self.counters("buffer", name)
            for key in totals:
                totals[key] += counters[key]
        totals["hit_ratio"] = _hit_ratio(totals)
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
        lifted = tuple(prefix for prefix, _ in SECTIONS)
        counters = {
            name: value
            for name, value in sorted(snapshot.items())
            if not name.startswith(lifted)
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
                f"{'frames':>7} {'decodes':>8} {'dhits':>8}"
            )
            lines.append(header)
            for name in sorted(self.pools):
                stats = self.counters("buffer", name)
                lines.append(
                    f"{name:<24} {stats['logical_reads']:>8} "
                    f"{stats['physical_reads']:>8} {stats['logical_writes']:>8} "
                    f"{stats['physical_writes']:>8} "
                    f"{_hit_ratio(stats) * 100:>6.1f}% "
                    f"{stats['resident_pages']:>9} "
                    f"{self.pools[name].capacity:>7} "
                    f"{stats['decodes']:>8} {stats['decode_hits']:>8}"
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

        if self.attached["spec"]:
            lines.append("")
            section("specialization")
            header = (
                f"{'index':<24} {'scans':>7} {'batched':>8} {'fallbk':>7} "
                f"{'maskhit':>8} {'choices':>8} {'bounds':>7} {'vec':>4}"
            )
            lines.append(header)
            for name in sorted(self.attached["spec"]):
                stats = self.counters("spec", name)
                lines.append(
                    f"{name:<24} {stats['scans_compiled']:>7} "
                    f"{stats['nodes_batched']:>8} {stats['nodes_fallback']:>7} "
                    f"{stats['mask_cache_hits']:>8} "
                    f"{stats['choices_vectorized']:>8} "
                    f"{stats['bounds_vectorized']:>7} "
                    f"{'yes' if stats['vectorized'] else 'no':>4}"
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

        for prefix, title in SECTIONS:
            items = sorted(
                (name[len(prefix):], value)
                for name, value in snapshot.items()
                if title is not None and name.startswith(prefix)
            )
            if items:
                lines.append("")
                section(title)
                lines.append("  ".join(f"{name} {value:g}" for name, value in items))

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
