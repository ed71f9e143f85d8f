"""The repo's benchmark: one workload per invocation, one JSON line out.

    python3 benchmarks/ledger/run.py --workload point_lookup
    python3 benchmarks/ledger/run.py --workload wire_mix --trace 1

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones (see README.md).  The full record --
stamped with commit, seed, versions and the pinned CPU -- is written to
``benchmarks/ledger/out/``; the last line of standard output carries
exactly ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits
non-zero when an operation failed or a check did not hold.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: The seed results in the README were produced with.
DEFAULT_SEED = 1999
#: Never used while the benchmark was tuned: a claim made on
#: ``DEFAULT_SEED`` has to hold on this one too.
HOLDOUT_SEED = 6174


def pin_to_one_cpu():
    """Before any thread exists: client and server threads share a core,
    which takes the scheduler's placement out of every latency."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=10,
        help="length of the timed part on the reference host; scales the "
        "fixed number of statements per round (default 10)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink rows and statements, and run two rounds instead of "
        "eleven (test_ledger_smoke.py only)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cpu = pin_to_one_cpu()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no engine to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import harness
    import report

    contract = report.load_contract()
    if args.workload not in harness.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if not 0 < args.scale <= 1 or args.seconds <= 0:
        print("--scale must be in (0, 1] and --seconds positive", file=sys.stderr)
        return 2

    workload = harness.WORKLOADS[args.workload](
        args.workload, args.seed, args.scale, args.seconds
    )
    run = harness.Run(workload)
    try:
        if args.trace:
            result = harness.measure_per_layer(run)
        elif args.scale == 1:
            result = harness.measure_end_to_end(run)
        else:
            result = harness.measure_end_to_end(run, harness.SMOKE_ROUND_GROUPS)
    finally:
        run.close()
    result.update(report.stamp(), pinned_cpu=cpu, seconds=args.seconds,
                  scale=args.scale, trace=args.trace)
    problems = report.validate(result, contract, args.trace)
    if problems:
        print("result does not meet BENCHMARK.json:", *problems, sep="\n  ",
              file=sys.stderr)
        return 3
    path = report.write_record(result, args.trace)
    if args.trace:
        print(harness.format_additivity(result["additivity"]))
    for problem in result["first_problems"]:
        print("FAILED:", problem)
    print(f"{args.workload}: record in {path.relative_to(ROOT)}")
    print(report.driver_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
