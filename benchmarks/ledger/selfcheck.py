"""Do two sets of runs of the same code agree?

    python3 benchmarks/ledger/selfcheck.py [--runs 5] [--workload NAME ...]

Runs every workload ``--runs`` times as set A and as often as set B,
interleaved A B A B ..., pair *i* of both sets on seed ``--seed + i``,
each run a fresh process of ``run.py``.  For every end-to-end metric it
records both sets' medians and quartiles in ``out/selfcheck.json`` and
fails unless

* the medians differ by no more than the metric's bound, and
* (``setup_s`` apart) each set's interquartile range is within the
  bound, as a share of the set's median.

A set's spread is taken over its seeds, because that is how the
benchmark is accepted: it holds the host's noise *and* what the seed
does to the statement list, and the bounds have to hold both.  What the
host alone does is the *pair gap*: the median distance between the two
runs of one seed.

This is the acceptance test the benchmark itself must pass before any
change is measured with it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import report
from run import DEFAULT_SEED, HERE


def one_run(workload: str, seed: int, seconds: float):
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=report.ROOT,
    )
    wall = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}, wall


def share(distance, of):
    return distance / of if of else float("inf") if distance else 0.0


def summary(values):
    first, median, third = statistics.quantiles(values, n=4)
    return {"q1": first, "median": median, "q3": third,
            "spread": share(third - first, median), "values": values}


def main(argv=None) -> int:
    contract = report.load_contract()
    names = [entry["name"] for entry in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2: a set needs quartiles")
    seconds = contract["run_seconds"]

    record = {"runs_per_set": args.runs, "first_seed": args.seed,
              "stamp": report.stamp(), "workloads": {}}
    failures = []
    for workload in args.workload or names:
        sets = {"A": [], "B": []}
        walls = []
        for index in range(args.runs):
            for label in ("A", "B"):
                metrics, wall = one_run(workload, args.seed + index, seconds)
                sets[label].append(metrics)
                walls.append(wall)
                print(f"{workload} {label}{index} {wall:5.1f}s "
                      + " ".join(f"{k}={v:.5g}" for k, v in metrics.items()),
                      flush=True)
        rows = {}
        for entry in contract["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            a = summary([run[name] for run in sets["A"]])
            b = summary([run[name] for run in sets["B"]])
            gap = share(abs(b["median"] - a["median"]), a["median"])
            pair_gap = statistics.median(
                share(abs(y - x), x) for x, y in zip(a["values"], b["values"])
            )
            rows[name] = {"A": a, "B": b, "median_gap": gap,
                          "pair_gap": pair_gap, "bound": bound}
            if gap > bound:
                failures.append(f"{workload}/{name}: medians differ by {gap:.2%} > {bound:.0%}")
            if name != "setup_s" and max(a["spread"], b["spread"]) > bound:
                failures.append(
                    f"{workload}/{name}: spread {max(a['spread'], b['spread']):.2%} > {bound:.0%}"
                )
        record["workloads"][workload] = {
            "metrics": rows, "run_wall_s": summary(walls)["median"],
        }
        print(f"\n{workload}: median run {record['workloads'][workload]['run_wall_s']:.1f}s")
        print(f"  {'metric':<22}{'A median':>12}{'B median':>12}{'gap':>8}"
              f"{'pair gap':>10}{'A spread':>10}{'B spread':>10}{'bound':>7}")
        for name, row in rows.items():
            print(f"  {name:<22}{row['A']['median']:>12.5g}{row['B']['median']:>12.5g}"
                  f"{row['median_gap']:>8.2%}{row['pair_gap']:>10.2%}"
                  f"{row['A']['spread']:>10.2%}"
                  f"{row['B']['spread']:>10.2%}{row['bound']:>7.0%}")
        print(flush=True)
    record["failures"] = failures
    report.OUT_DIR.mkdir(exist_ok=True)
    (report.OUT_DIR / "selfcheck.json").write_text(json.dumps(record, indent=2) + "\n")
    for failure in failures:
        print("FAILED:", failure)
    print("selfcheck", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
