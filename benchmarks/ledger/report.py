"""The result record: stamping, validation against ``BENCHMARK.json``,
and the one line the driver reads.

``BENCHMARK.json`` at the root of the checkout is the only place metric
names, units and bounds are written down; this module reads them from
there, so a result can never drift from the contract it is checked by.
Standard library only.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import re
import subprocess
from typing import Any, Dict, List

ROOT = pathlib.Path(__file__).resolve().parents[2]
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def stamp() -> Dict[str, Any]:
    """Where and on what a result was produced."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a repository
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
    }


def validate(result: Dict[str, Any], contract: Dict[str, Any], trace: int) -> List[str]:
    """Problems that make *result* unfit to print (empty when none)."""
    problems = []
    workloads = {entry["name"] for entry in contract["workloads"]}
    if result.get("workload") not in workloads:
        problems.append(f"unknown workload {result.get('workload')!r}")
    wanted = contract["per_layer"] if trace else contract["end_to_end"]
    metrics = result.get("metrics", {})
    for name, metric in metrics.items():
        if not _NAME.match(name):
            problems.append(f"bad metric name {name!r}")
        if not isinstance(metric, dict) or not _UNIT.match(str(metric.get("unit", ""))):
            problems.append(f"metric {name} has no valid unit")
        value = metric.get("value") if isinstance(metric, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"metric {name} has no numeric value")
        elif value != value or value in (float("inf"), float("-inf")):
            problems.append(f"metric {name} is not finite")
    for entry in wanted:
        metric = metrics.get(entry["name"])
        if metric is None:
            problems.append(f"missing metric {entry['name']}")
        elif metric.get("unit") != entry["unit"]:
            problems.append(
                f"metric {entry['name']} has unit {metric.get('unit')!r}, "
                f"contract says {entry['unit']!r}"
            )
    extra = set(metrics) - {entry["name"] for entry in wanted}
    if extra:
        problems.append(f"metrics outside the contract: {sorted(extra)}")
    for key in ("attempted", "failed"):
        if isinstance(result.get(key), bool) or not isinstance(result.get(key), int):
            problems.append(f"{key} is not a whole number")
    if isinstance(result.get("attempted"), int) and result["attempted"] < 1:
        problems.append("nothing was attempted")
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a boolean")
    return problems


def driver_line(result: Dict[str, Any]) -> str:
    """The last line of standard output: exactly the four keys."""
    return json.dumps(
        {key: result[key] for key in ("correct", "attempted", "failed", "metrics")},
        separators=(", ", ": "),
    )


def write_record(result: Dict[str, Any], trace: int) -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result_{result['workload']}_trace{trace}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path
