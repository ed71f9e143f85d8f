"""The metrics registry: counters, gauges, histograms, and collectors.

Counters and gauges are plain name -> number maps so the hot-path cost
of an increment is one dict update.  Histograms use *fixed* bucket
boundaries, so two runs over the same workload produce byte-identical
exports.  Nothing in this module reads the wall clock on its own: the
registry is constructed with an injected monotonic ``timer`` (defaulting
to :func:`time.perf_counter`) that tests replace with a deterministic
counter, exactly like the paper's trace facility keeps its Figure 6
sequence numbers deterministic.

Besides *push* metrics, the registry supports pull-based *collectors*:
callables returning a flat ``{name: number}`` mapping that are read at
snapshot time.  Storage components (buffer pools, the lock manager, the
WAL, sbspaces) already keep their own plain-int statistics, so they are
exported by registering a collector -- their hot paths stay untouched.

The registry is shared by every worker thread of the serving layer
(``repro.net``), so all mutations and reads go through one re-entrant
lock: without it, concurrent ``inc`` calls lose updates (read-modify-
write on a dict slot) and a snapshot taken mid-update can observe a
histogram whose ``count`` and bucket tallies disagree.

A counter increment made while a span is open goes, without the lock,
to the calling thread's :attr:`sink`: the delta map of the span open
innermost on that thread (:mod:`repro.obs.spans` keeps it current).
That is how a span learns which counters *its* statement moved without
diffing the registry, and without picking up other threads'
increments.  When the thread's root span closes, its counter deltas
are added to the totals under the lock (:meth:`MetricsRegistry.publish`),
so the totals show a statement's counters once it has finished.
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: Default latency buckets (seconds).  Fixed, so exports are stable.
DEFAULT_BUCKETS: Sequence[float] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class Histogram:
    """A fixed-boundary histogram: counts, total, and per-bucket tallies.

    ``boundaries`` are upper-inclusive bucket edges; one extra overflow
    bucket collects everything above the last edge.
    """

    __slots__ = ("name", "boundaries", "bucket_counts", "count", "total")

    def __init__(
        self, name: str, boundaries: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        edges = tuple(float(b) for b in boundaries)
        if not edges:
            raise ValueError("histogram needs at least one bucket boundary")
        if any(a >= b for a, b in zip(edges, edges[1:])):
            raise ValueError(f"bucket boundaries must ascend: {edges}")
        self.name = name
        self.boundaries = edges
        self.bucket_counts: List[int] = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the *q*-quantile (0..1) from the bucket tallies.

        Standard fixed-bucket estimation: find the bucket holding the
        q-th observation and interpolate linearly inside it, taking 0 as
        the lower edge of the first bucket.  Values in the overflow
        bucket cannot be interpolated, so anything past the last edge
        clamps to that edge -- the estimator never invents a value the
        boundaries cannot express.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        lower = 0.0
        for edge, tally in zip(self.boundaries, self.bucket_counts):
            if tally and cumulative + tally >= rank:
                within = (rank - cumulative) / tally
                return lower + (edge - lower) * max(0.0, within)
            cumulative += tally
            lower = edge
        return self.boundaries[-1]

    def summary(self) -> Dict[str, float]:
        """Count, sum, mean, and the p50/p95/p99 estimates."""
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "boundaries": list(self.boundaries),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.total,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class _Names(dict):
    """One collector's ``key -> "prefix.key"`` names, each built on its
    first lookup instead of on every pull."""

    __slots__ = ("prefix",)

    def __init__(self, prefix: str) -> None:
        super().__init__()
        self.prefix = prefix

    def __missing__(self, key: str) -> str:
        name = self[key] = f"{self.prefix}.{key}"
        return name


class _Sink(threading.local):
    #: Where this thread's counter increments go: the delta map of the
    #: span open innermost on it, or ``None`` (straight to the totals).
    deltas: Optional[Dict[str, float]] = None


class MetricsRegistry:
    """Counters, gauges, histograms, and pull-based collectors."""

    def __init__(self, timer: Optional[Callable[[], float]] = None) -> None:
        #: Monotonic time source; injected so tests are deterministic.
        self.timer: Callable[[], float] = (
            time.perf_counter if timer is None else timer
        )
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: prefix -> (collector, its names).
        self._collectors: Dict[
            str, Tuple[Callable[[], Mapping[str, float]], _Names]
        ] = {}
        #: Guards every map above; re-entrant because collectors pulled
        #: during a snapshot may themselves read the registry.
        self._lock = threading.RLock()
        #: Per thread: where its counter increments go (see the module
        #: docstring).
        self.sink = _Sink()

    # -- push metrics ---------------------------------------------------

    def inc(self, name: str, amount: float = 1) -> None:
        deltas = self.sink.deltas
        if deltas is None:
            with self._lock:
                self._counters[name] = self._counters.get(name, 0) + amount
        elif amount:
            deltas[name] = deltas.get(name, 0) + amount

    def publish(self, deltas: Mapping[str, float]) -> None:
        """Add counter *deltas* -- a closed root span's -- to the totals."""
        with self._lock:
            counters = self._counters
            for name, amount in deltas.items():
                counters[name] = counters.get(name, 0) + amount

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def gauge(self, name: str) -> float:
        with self._lock:
            return self._gauges.get(name, 0)

    def histogram(
        self, name: str, boundaries: Optional[Sequence[float]] = None
    ) -> Histogram:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = Histogram(
                    name, DEFAULT_BUCKETS if boundaries is None else boundaries
                )
                self._histograms[name] = histogram
            return histogram

    def observe(
        self,
        name: str,
        value: float,
        boundaries: Optional[Sequence[float]] = None,
    ) -> None:
        with self._lock:
            self.histogram(name, boundaries).observe(value)

    def histograms(self) -> Dict[str, Histogram]:
        """A point-in-time copy of the histogram map (values shared)."""
        with self._lock:
            return dict(self._histograms)

    # -- pull metrics ---------------------------------------------------

    def register_collector(
        self, prefix: str, fn: Callable[[], Mapping[str, float]]
    ) -> None:
        """Register *fn*; its values appear in snapshots as ``prefix.key``.

        Re-registering a prefix replaces the previous collector (an index
        reopened with a fresh buffer pool keeps a single entry).
        """
        with self._lock:
            previous = self._collectors.get(prefix)
            names = _Names(prefix) if previous is None else previous[1]
            self._collectors[prefix] = (fn, names)

    def unregister_collector(self, prefix: str) -> None:
        with self._lock:
            self._collectors.pop(prefix, None)

    def collector_prefixes(self) -> List[str]:
        with self._lock:
            return sorted(self._collectors)

    # -- snapshots ------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """A flat name -> value map of counters, gauges, and collectors."""
        with self._lock:
            values = dict(self._counters)
        values.update(self.pull_snapshot())
        return values

    def pull_snapshot(self) -> Dict[str, float]:
        """The gauges and the collectors' values: a snapshot without
        the counters, which spans take from their :attr:`sink`."""
        values: Dict[str, float] = {}
        for prefix, pulled in self.pull().items():
            if prefix is None:
                values.update(pulled)
                continue
            names = self._names(prefix)
            for key, value in pulled.items():
                values[names[key]] = value
        return values

    def pull(self) -> Dict[Optional[str], Mapping[str, float]]:
        """Each collector's own map by prefix, and a copy of the gauges
        under ``None``: the one read of the pull metrics.

        A collector must return a fresh map on every call: a root span
        keeps the maps pulled at its start and compares them with the
        ones pulled at its end (:meth:`pull_deltas`).
        """
        with self._lock:
            pulled: Dict[Optional[str], Mapping[str, float]] = {
                None: dict(self._gauges)
            }
            collectors = list(self._collectors.items())
        for prefix, (fn, _) in collectors:
            pulled[prefix] = fn()
        return pulled

    def pull_deltas(
        self,
        before: Mapping[Optional[str], Mapping[str, float]],
        into: Dict[str, float],
    ) -> None:
        """Pull again and set in *into* every value that moved since the
        pull *before*, as :meth:`delta` would over the flat snapshots.

        Maps are compared collector by collector; ``prefix.key`` names
        are looked up only for a collector whose map changed.
        """
        empty: Mapping[str, float] = {}
        for prefix, after in self.pull().items():
            old = before.get(prefix, empty)
            if after == old:
                continue
            changed = self.delta(old, after)
            if prefix is None:
                into.update(changed)
                continue
            names = self._names(prefix)
            for key, diff in changed.items():
                into[names[key]] = diff

    def _names(self, prefix: str) -> _Names:
        """A collector's names (fresh ones for a prefix unregistered
        since it was pulled)."""
        entry = self._collectors.get(prefix)
        return _Names(prefix) if entry is None else entry[1]

    @staticmethod
    def delta(
        before: Mapping[str, float], after: Mapping[str, float]
    ) -> Dict[str, float]:
        """Nonzero differences ``after - before`` (missing keys read 0)."""
        changed = {}
        for key, value in after.items():
            diff = value - before.get(key, 0)
            if diff:
                changed[key] = diff
        return changed

    def to_dict(self) -> Dict[str, object]:
        """Structured export (JSON-serializable)."""
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "collected": {
                    key: value
                    for key, value in sorted(self.snapshot().items())
                    if key not in self._counters and key not in self._gauges
                },
                "histograms": {
                    name: h.to_dict()
                    for name, h in sorted(self._histograms.items())
                },
            }

    def reset(self) -> None:
        """Zero push metrics; collectors stay registered (their sources
        own their own counters)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
