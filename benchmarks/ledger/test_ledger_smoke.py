"""The benchmark driver, tested in seconds (outside tier-1's testpaths).

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger_smoke.py

Every workload runs in a fresh process at 5 % size for two rounds, in
both modes, and its last line is held against ``BENCHMARK.json``.
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]


def run(workload, trace, *extra):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "31", "--seconds", "10", "--trace", str(trace),
         "--scale", "0.05", *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    return done


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_meets_the_contract(workload, trace):
    done = run(workload, trace)
    assert done.returncode == 0, done.stdout[-1500:] + done.stderr[-1500:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(entry["name"] for entry in wanted)
    for entry in wanted:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_same_inputs():
    """Counts repeat exactly when the seed does."""
    lines = [run("write_mix", 0).stdout.strip().splitlines()[-1] for _ in range(2)]
    first, second = (json.loads(line) for line in lines)
    assert first["attempted"] == second["attempted"]
    for name in ("stored_bytes_per_row", "pages_per_stmt"):
        assert first["metrics"][name] == second["metrics"][name]


def test_traced_pass_writes_spans_and_a_ledger_that_adds_up():
    done = run("wire_mix", 1)
    assert done.returncode == 0, done.stderr[-1500:]
    record = json.loads((HERE / "out" / "result_wire_mix_trace1.json").read_text())
    assert record["additivity_worst"] <= 0.10
    assert {"commit", "seed", "python", "numpy", "nproc", "pinned_cpu",
            "rounds", "statements_per_round"} <= set(record)
    trace = json.loads((HERE / "out" / "trace_wire_mix.json").read_text())
    names = {span[0] for span in trace["spans"]}
    assert {"client.execute", "server.execute", "sql.parse", "net.encode",
            "executor.am_open", "buffer.read", "sbspace.read", "wal.log",
            "locks.acquire", "udr.resolve"} <= names


def test_unknown_workload_and_missing_engine_exit_nonzero(tmp_path):
    assert run("no_such_workload", 0).returncode != 0
    bare = tmp_path / "benchmarks" / "ledger"
    bare.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bare / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "point_lookup",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_contract_file_is_within_its_limits():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert sorted(CONTRACT) == ["command", "end_to_end", "paths", "per_layer",
                                "run_seconds", "workloads"]
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer")
             for e in CONTRACT[key]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    for entry in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert unit.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    for entry in CONTRACT["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    setup = next(e for e in CONTRACT["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in CONTRACT["end_to_end"])
    assert all(len(e["why"]) <= 200 and "\n" not in e["why"] for e in CONTRACT["workloads"])
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
