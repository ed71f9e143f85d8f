"""Statement fingerprinting and per-fingerprint workload statistics.

The scale-out roadmap (divergent per-replica index tuning, Extend-dist
style) needs a *workload model*: which statement shapes run, how often,
how slow, and how much I/O they cause.  This module builds that model
from the spans the observability layer already records.

A **fingerprint** is a stable hash of a statement with its literals and
parameters normalized away -- ``SELECT n FROM e WHERE Overlaps(te,
'...')`` and the same query over a different extent share one
fingerprint, exactly like ``pg_stat_statements`` query ids.  The
normalizer is deliberately lexical (strings and numbers become ``?``,
whitespace collapses, keywords upper-case): it must not depend on the
SQL parser, both to stay cheap and to fingerprint even statements that
fail to parse.

The server hands the model each statement's *shape* (its tokens with
every literal a placeholder, the statement cache's key): the normalizer
runs once per shape, and later texts of the shape reuse the first
text's fingerprint and normalized text.  Shapes ignore whitespace, so
``k=1`` and ``k = 2`` share the fingerprint the first of them got.

Per fingerprint the model keeps rolling statistics fed from completed
root spans: execution counts, a fixed-bucket latency histogram (p50/p95/
p99 via :meth:`~repro.obs.metrics.Histogram.quantile`), rows returned,
pages read/written, decoded-page hit ratio, and lock wait/conflict
traffic.  ``SHOW WORKLOAD`` renders the model; ``WorkloadModel.to_dict``
is the machine-readable form a replica tuner consumes.
"""

from __future__ import annotations

import hashlib
import re
import threading
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.metrics import Histogram

__all__ = ["fingerprint", "normalize", "FingerprintStats", "WorkloadModel"]

#: Quoted strings (with doubled-quote escapes) and numeric literals.
_STRING = r"'(?:[^']|'')*'|\"(?:[^\"]|\"\")*\""
_NUMBER = r"(?<![A-Za-z0-9_.])-?\d+(?:\.\d+)?"
_LITERALS = re.compile(f"(?:{_STRING})|(?:{_NUMBER})")
_WHITESPACE = re.compile(r"\s+")

#: Orderings ``SHOW WORKLOAD TOP n BY <key>`` accepts.
ORDERINGS = ("calls", "total_time", "mean_time")


def normalize(sql: str) -> str:
    """Literal-free, whitespace-collapsed, upper-cased statement text."""
    text = _LITERALS.sub("?", sql)
    return _WHITESPACE.sub(" ", text).strip().upper()


def fingerprint(sql: str) -> str:
    """A stable 12-hex-digit fingerprint of the normalized statement."""
    return _digest(normalize(sql))


def _digest(statement: str) -> str:
    return hashlib.blake2b(statement.encode("utf-8"), digest_size=6).hexdigest()


#: Root-span delta names, by their last dot-separated part, that feed a
#: :class:`FingerprintStats` field; a second element, when present, is
#: the only full name that counts.
_FIGURES: Mapping[str, Tuple[str, Optional[str]]] = MappingProxyType({
    "logical_reads": ("pages_read", None),
    "logical_writes": ("pages_written", None),
    "decode_hits": ("cache_hits", None),
    "decodes": ("cache_misses", None),
    "conflicts": ("lock_waits", "locks.conflicts"),
    "wait_seconds": ("lock_wait_seconds", "locks.wait_seconds"),
})


class FingerprintStats:
    """Rolling statistics for one statement fingerprint."""

    __slots__ = (
        "fingerprint",
        "statement",
        "example",
        "calls",
        "errors",
        "total_time",
        "latency",
        "rows_returned",
        "pages_read",
        "pages_written",
        "cache_hits",
        "cache_misses",
        "lock_waits",
        "lock_wait_seconds",
        "last_seq",
    )

    def __init__(self, fp: str, statement: str, example: str) -> None:
        self.fingerprint = fp
        self.statement = statement
        #: One raw statement text, kept for operators reading the report.
        self.example = example
        self.calls = 0
        self.errors = 0
        self.total_time = 0.0
        self.latency = Histogram(f"workload.{fp}")
        self.rows_returned = 0
        self.pages_read = 0.0
        self.pages_written = 0.0
        self.cache_hits = 0.0
        self.cache_misses = 0.0
        #: Lock conflicts observed while the statement's span was open.
        self.lock_waits = 0.0
        self.lock_wait_seconds = 0.0
        #: Recency stamp for bounded-size eviction.
        self.last_seq = 0

    @property
    def mean_time(self) -> float:
        return self.total_time / self.calls if self.calls else 0.0

    @property
    def cache_hit_ratio(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 1.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "statement": self.statement,
            "example": self.example,
            "calls": self.calls,
            "errors": self.errors,
            "total_time": self.total_time,
            "mean_time": self.mean_time,
            "p50": self.latency.quantile(0.50),
            "p95": self.latency.quantile(0.95),
            "p99": self.latency.quantile(0.99),
            "rows_returned": self.rows_returned,
            "pages_read": self.pages_read,
            "pages_written": self.pages_written,
            "cache_hit_ratio": self.cache_hit_ratio,
            "lock_waits": self.lock_waits,
            "lock_wait_seconds": self.lock_wait_seconds,
        }


class WorkloadModel:
    """Per-fingerprint statistics over everything the server executed.

    Thread-safe (the serving layer's workers all feed one model).  The
    model is bounded: when more than ``max_fingerprints`` distinct
    statement shapes are live, the least-recently-executed shape is
    evicted -- a workload model is about the hot shapes, and an unbounded
    map would be a slow leak under generated SQL.
    """

    def __init__(self, max_fingerprints: int = 512) -> None:
        self.max_fingerprints = max_fingerprints
        self._stats: Dict[str, FingerprintStats] = {}
        #: Statement shape -> its (fingerprint, normalized text); as
        #: bounded as the fingerprints, and dropped with its fingerprint.
        self._shapes: Dict[tuple, Tuple[str, str]] = {}
        self._lock = threading.Lock()
        self._seq = 0
        #: Distinct fingerprints dropped by the size bound.
        self.evicted = 0

    def observe(
        self,
        sql: str,
        duration: float,
        *,
        shape: Optional[tuple] = None,
        rows: Optional[int] = None,
        deltas: Optional[Mapping[str, float]] = None,
        error: bool = False,
    ) -> FingerprintStats:
        """Fold one completed statement into the model.

        ``shape`` is the statement's shape (``sql.shape``), when the
        server computed one; the text is normalized only for a shape not
        seen yet.  ``deltas`` is the root span's metric-delta map;
        buffer-pool and sbspace reads/writes, the pools' decoded-page
        hits and decodes, and lock counters are extracted from it by
        suffix, so new pools are counted without this module knowing
        their names.
        """
        named = None if shape is None else self._shapes.get(shape)
        if named is None:
            statement = normalize(sql)
            named = (_digest(statement), statement)
        fp = named[0]
        with self._lock:
            if shape is not None and shape not in self._shapes:
                self._shapes[shape] = named
                if len(self._shapes) > self.max_fingerprints:
                    del self._shapes[next(iter(self._shapes))]
            self._seq += 1
            stats = self._stats.get(fp)
            if stats is None:
                stats = FingerprintStats(fp, named[1], sql)
                # Stamp recency *before* the eviction scan, or the new
                # entry (last_seq 0) would evict itself.
                stats.last_seq = self._seq
                self._stats[fp] = stats
                if len(self._stats) > self.max_fingerprints:
                    self._evict()
            stats.last_seq = self._seq
            stats.calls += 1
            stats.total_time += duration
            stats.latency.observe(duration)
            if error:
                stats.errors += 1
            if rows is not None:
                stats.rows_returned += rows
            if deltas:
                for key, value in deltas.items():
                    figure = _FIGURES.get(key[key.rfind(".") + 1:])
                    if figure is not None and figure[1] in (None, key):
                        field = figure[0]
                        setattr(stats, field, getattr(stats, field) + value)
            return stats

    def _evict(self) -> None:
        """Drop the least recently executed fingerprint and its shapes."""
        victim = min(self._stats.values(), key=lambda s: s.last_seq)
        del self._stats[victim.fingerprint]
        self.evicted += 1
        for shape in [
            shape
            for shape, (fp, _) in self._shapes.items()
            if fp == victim.fingerprint
        ]:
            del self._shapes[shape]

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._stats)

    def get(self, fp: str) -> Optional[FingerprintStats]:
        with self._lock:
            return self._stats.get(fp)

    def top(
        self, n: Optional[int] = None, by: str = "total_time"
    ) -> List[FingerprintStats]:
        """The heaviest fingerprints, descending by *by*."""
        if by not in ORDERINGS:
            raise ValueError(
                f"unknown workload ordering {by!r} (choose from {ORDERINGS})"
            )
        with self._lock:
            stats = list(self._stats.values())
        stats.sort(key=lambda s: getattr(s, by), reverse=True)
        return stats if n is None else stats[: max(0, n)]

    def to_dict(
        self, top: Optional[int] = None, by: str = "total_time"
    ) -> Dict[str, Any]:
        """The machine-readable workload model (JSON-serializable)."""
        return {
            "fingerprints": [s.to_dict() for s in self.top(top, by)],
            "distinct_statements": len(self),
            "evicted": self.evicted,
            "ordered_by": by,
        }

    def report(self, top: Optional[int] = 20, by: str = "total_time") -> str:
        """The ``SHOW WORKLOAD`` text table."""
        stats = self.top(top, by)
        if not stats:
            return "(no statements recorded)"
        lines = [
            f"workload model -- {len(self)} fingerprint(s), top "
            f"{len(stats)} by {by}",
            f"{'fingerprint':<14} {'calls':>7} {'errs':>5} {'total_s':>9} "
            f"{'mean_ms':>8} {'p95_ms':>8} {'rows':>7} {'pg_rd':>7} "
            f"{'pg_wr':>7} {'cache%':>7} {'lk_wait':>8}",
        ]
        for s in stats:
            lines.append(
                f"{s.fingerprint:<14} {s.calls:>7} {s.errors:>5} "
                f"{s.total_time:>9.4f} {s.mean_time * 1000:>8.2f} "
                f"{s.latency.quantile(0.95) * 1000:>8.2f} "
                f"{s.rows_returned:>7} {s.pages_read:>7g} "
                f"{s.pages_written:>7g} {s.cache_hit_ratio * 100:>6.1f}% "
                f"{s.lock_wait_seconds:>8.4f}"
            )
            lines.append(f"    {s.statement[:110]}")
        return "\n".join(lines)

    def reset(self) -> None:
        with self._lock:
            self._stats.clear()
            self._shapes.clear()
            self._seq = 0
            self.evicted = 0
