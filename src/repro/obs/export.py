"""Prometheus text-format exposition of the metrics registry.

External scrapers should not need to speak this project's JSON: the
de-facto interchange format for pull-based metrics is the Prometheus
text exposition format (``# TYPE`` lines, ``name{labels} value``
samples, cumulative ``_bucket{le="..."}`` histogram series).  This
module renders the registry into that format -- reachable as
``repro stats --prometheus`` and as a ``metrics`` frame on the wire
server -- and ships a small parser used by the tests to prove the
export round-trips.

Mapping rules:

* counters export as ``repro_<name>_total`` (Prometheus counter
  convention), gauges as ``repro_<name>``;
* collector-pulled values are monotonically increasing in this codebase
  except for the obvious gauges (``held_resources``, ``resident_pages``,
  ``size``, ``active``), which export as gauges;
* histograms export the full cumulative bucket series plus ``_sum`` and
  ``_count``, with the conventional ``+Inf`` terminal bucket;
* metric names are sanitized (``[^a-zA-Z0-9_]`` -> ``_``) since the
  registry's dotted names are not legal Prometheus identifiers.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Mapping, Tuple

from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = ["prometheus_text", "parse_prometheus_text"]

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")

#: Snapshot keys whose last path component marks a point-in-time level,
#: not a monotone count -- these export as gauges.
_GAUGE_SUFFIXES = (
    "held_resources",
    "resident_pages",
    "size",
    "active",
    "hit_ratio",
)


def _sanitize(name: str) -> str:
    return _NAME_SANITIZE.sub("_", name)


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _histogram_lines(prefix: str, histogram: Histogram) -> List[str]:
    name = f"{prefix}_{_sanitize(histogram.name)}"
    lines = [f"# TYPE {name} histogram"]
    cumulative = 0
    for edge, tally in zip(histogram.boundaries, histogram.bucket_counts):
        cumulative += tally
        lines.append(
            f'{name}_bucket{{le="{_format_value(float(edge))}"}} {cumulative}'
        )
    lines.append(f'{name}_bucket{{le="+Inf"}} {histogram.count}')
    lines.append(f"{name}_sum {_format_value(histogram.total)}")
    lines.append(f"{name}_count {histogram.count}")
    return lines


def prometheus_text(registry: MetricsRegistry, prefix: str = "repro") -> str:
    """Render the registry in Prometheus text exposition format."""
    snapshot = registry.snapshot()
    lines: List[str] = []
    for key in sorted(snapshot):
        value = snapshot[key]
        is_gauge = key.rsplit(".", 1)[-1] in _GAUGE_SUFFIXES
        name = f"{prefix}_{_sanitize(key)}"
        if is_gauge:
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_format_value(value)}")
        else:
            lines.append(f"# TYPE {name}_total counter")
            lines.append(f"{name}_total {_format_value(value)}")
    for _, histogram in sorted(registry.histograms().items()):
        lines.extend(_histogram_lines(prefix, histogram))
    return "\n".join(lines) + "\n"


def parse_prometheus_text(
    text: str,
) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Parse exposition text into ``(samples, types)``.

    ``samples`` maps the full sample name (labels included, verbatim) to
    its value; ``types`` maps metric names to their declared type.  The
    parser accepts exactly the subset :func:`prometheus_text` emits --
    it exists so the export is covered by a round-trip test rather than
    by string-contains assertions.
    """
    samples: Dict[str, float] = {}
    types: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        name, _, value = line.rpartition(" ")
        if not name:
            raise ValueError(f"malformed sample on line {lineno}: {raw!r}")
        samples[name] = float(value)
    return samples, types


def collect_histogram_buckets(
    samples: Mapping[str, float], name: str
) -> List[Tuple[str, float]]:
    """The ``(le, cumulative_count)`` series of one parsed histogram."""
    bucket = re.compile(
        re.escape(name) + r'_bucket\{le="([^"]+)"\}'
    )
    series = []
    for sample, value in samples.items():
        match = bucket.fullmatch(sample)
        if match:
            series.append((match.group(1), value))
    return series
