"""Set-up, rounds, checking and metrics of the ledger benchmark.

A run writes the LOAD files once, sets the engine up (timed),
``gc.collect(); gc.freeze()``, plays one untimed warm-up round and then
the measured rounds.  Each round's statements are generated before its
clock starts and checked against the model after it stops.  Every
timing metric is the median over rounds of a per-round statistic, never
a pooled figure.
"""

from __future__ import annotations

import functools
import gc
import os
import random
import resource
import shutil
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from workloads import (
    BASE_DAY,
    STEP_DAYS,
    ExtentModel,
    KEY_STEP,
    KeyedModel,
    LoadStep,
    MixSpec,
    MixWorkload,
    Stmt,
    extent_history,
    keyed_load,
    normalise,
    point_statements,
    scan_statements,
)
import report
import tracer as tracing

#: Measured rounds of a ``--trace 0`` run (rule 3: at least eleven), in
#: groups.  The engine they all run on is set up before the first
#: group and a spare engine before each later one: ``setup_s`` is the
#: median of the set-ups, and the rounds span the whole run.
ROUND_GROUPS = (4, 4, 3)
#: The same for a ``--scale`` < 1 run (smoke test only).
SMOKE_ROUND_GROUPS = (1, 1)
#: Rounds of each flavour in a ``--trace 1`` run.
TRACE_ROUNDS = 3
#: The stored data set is the benchmark's own, like a TPC table: rows
#: and load order come from this constant, statements from ``--seed``.
#: Index shape depends on insertion order, and with it every count; a
#: GR-tree of 6 000 random rows is 196-210 nodes, which alone moved
#: ``stored_bytes_per_row`` by 2-4 % and ``pages_per_stmt`` by 5-8 %
#: between seeds -- more than the bound a space or I/O regression has
#: to be caught at.
DATA_SEED = 1999
#: ``--seconds`` for which the statement counts below were sized.
REFERENCE_SECONDS = 10

_INDEXES = {"th": "hi", "tb": "bi", "tg": "gi"}
_DDL = {
    "th": ("CREATE TABLE th (k INTEGER, v LVARCHAR)",
           "CREATE INDEX hi ON th(k) USING hblade_am IN spc"),
    "tb": ("CREATE TABLE tb (k INTEGER, v LVARCHAR)",
           "CREATE INDEX bi ON tb(k) USING btree_am IN spc"),
    "tg": ("CREATE TABLE tg (id INTEGER, te GRT_TimeExtent_t)",
           "CREATE INDEX gi ON tg(te) USING grtree_am IN spc"),
}


def _scaled(count: int, factor: float, floor: int = 1, multiple: int = 1) -> int:
    value = max(floor, int(round(count * factor)))
    return max(multiple, value - value % multiple)


# ----------------------------------------------------------------------
# Workloads: inputs as data
# ----------------------------------------------------------------------


class Workload:
    """Inputs of one named workload: stored rows from ``DATA_SEED``,
    statements from ``--seed``.

    ``scale`` shrinks rows and statements together (smoke test only);
    ``seconds`` scales statements per round, so a run's timed part lasts
    about ``--seconds`` on the reference host while its work stays a
    pure function of the arguments.
    """

    wire = False
    #: Whether rounds write (then the clock advances a day per round and
    #: every round is generated afresh on the next stripe).
    writes = False

    def __init__(self, name: str, seed: int, scale: float, seconds: float) -> None:
        self.name = name
        self.seed = seed
        self.keyed: List[KeyedModel] = []
        self.extents: Optional[ExtentModel] = None
        self.loads: List[LoadStep] = []
        #: Clock after the last load step; round r runs at clock + 1 + r.
        self.clock: Optional[int] = None
        self._fixed: List[Stmt] = []
        self._mix: Optional[MixWorkload] = None
        self._build(scale, scale * seconds / REFERENCE_SECONDS)

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{purpose}")

    def data_rng(self, purpose: str) -> random.Random:
        """For the stored rows and their load order, which do not vary
        with ``--seed`` (see ``DATA_SEED``)."""
        return random.Random(f"{DATA_SEED}:{self.name}:{purpose}")

    def _build(self, scale: float, stmt_scale: float) -> None:
        raise NotImplementedError

    @property
    def tables(self) -> List[str]:
        names = [model.table for model in self.keyed]
        return names + (["tg"] if self.extents is not None else [])

    def live_rows(self) -> int:
        rows = sum(len(model.rows) for model in self.keyed)
        return rows + (len(self.extents.rows) if self.extents else 0)

    def now(self, index: int) -> Optional[int]:
        if self.clock is None:
            return None
        return self.clock + (1 + index if self.writes else 0)

    def round(self, index: int) -> List[Stmt]:
        if self._mix is not None:
            return self._mix.round(index, self.now(index))
        return self._fixed

    def verification(self, index: int) -> List[Stmt]:
        """End-of-run statements comparing whole tables with the models."""
        out = [model.dump() for model in self.keyed]
        if self.extents is not None:
            now = self.now(index)
            rng = self.rng("verify")
            everything = (BASE_DAY - 400, now + 400, BASE_DAY - 400, now + 400)
            out.append(self.extents.select(everything, now))
            for _ in range(24):
                tq = rng.randint(BASE_DAY, now)
                vq = tq + rng.randint(-40, 10)
                out.append(self.extents.select((tq, tq, vq, vq), now))
        return out

    # -- shared builders -----------------------------------------------

    def _keyed_tables(self, base_rows: int) -> None:
        base = [KEY_STEP * i for i in range(base_rows)]
        self.keyed = [KeyedModel(table, base) for table in ("th", "tb")]

    def _keyed_loads(self) -> None:
        for model in self.keyed:
            self.loads.append(
                keyed_load(self.data_rng("load." + model.table), model.table, list(model.rows))
            )

    def _history(self, steps: int, per_step: int) -> None:
        self.extents = ExtentModel()
        self.loads += extent_history(self.data_rng("history"), self.extents, steps, per_step)
        self.clock = BASE_DAY + steps * STEP_DAYS


class PointLookup(Workload):
    def _build(self, scale: float, stmt_scale: float) -> None:
        base_rows = _scaled(8000, scale, floor=200)
        self._keyed_tables(base_rows)
        self._keyed_loads()
        self._fixed = point_statements(
            self.rng("statements"), self.keyed, base_rows,
            hot_rows=1000, count=_scaled(1300, stmt_scale, floor=40),
        )


class TemporalScan(Workload):
    STEPS = 24

    def _build(self, scale: float, stmt_scale: float) -> None:
        self._history(self.STEPS, _scaled(250, scale, floor=12))
        band = (max(1, round(20 * scale)), max(4, round(60 * scale)))
        self._fixed = scan_statements(
            self.rng("statements"), self.extents, self.STEPS, self.clock,
            count=_scaled(280, stmt_scale, floor=20), band=band,
        )


class WriteMix(Workload):
    """The 4 : 2.5 : 1.5 : 1 : 1 mix the issue fixed (SELECT, INSERT,
    key-moving UPDATE, DELETE, GR-tree write), as exact counts per
    round; half the statements run in transactions of four, one
    transaction in sixteen is rolled back."""

    writes = True
    STEPS = 24
    #: Counts at scale 1 for a ten-second run.
    SPEC = dict(selects=204, moves=80, deletes=52, grt=28, groups=64, rollback_groups=4)

    def _build(self, scale: float, stmt_scale: float) -> None:
        spec = self._spec(stmt_scale)
        base_rows = _scaled(4000, scale, floor=max(200, spec.inserts))
        self._keyed_tables(base_rows)
        self._history(self.STEPS, _scaled(125, scale, floor=6))
        self._mix = MixWorkload(
            self.rng("template"), spec, base_rows, min(500, base_rows),
            self.keyed, self.extents,
        )
        for model in self.keyed:
            for key in self._mix.stripe_zero_keys(model.table):
                model.rows[key] = f"v{key}"
        self._keyed_loads()
        self.loads.append(
            LoadStep("tg", self._mix.stripe_zero_extents(self.clock), clock=self.clock)
        )

    def _spec(self, factor: float) -> MixSpec:
        def count(name: str, multiple: int = 1) -> int:
            wanted = self.SPEC[name]
            return _scaled(wanted, factor, floor=multiple, multiple=multiple) if wanted else 0

        moves, deletes, grt = count("moves", 2), count("deletes", 2), count("grt")
        selects = count("selects")
        statements = selects + 2 * (moves + deletes) + 2 * grt
        return MixSpec(
            selects=selects,
            inserts=moves + deletes,
            moves=moves,
            deletes=deletes,
            grt_inserts=grt,
            grt_freezes=grt,
            groups=min(count("groups"), statements // 4),
            rollback_groups=count("rollback_groups"),
        )


class WireMix(WriteMix):
    """Four point lookups in five, one autocommit write in five."""

    wire = True
    SPEC = dict(selects=480, moves=30, deletes=20, grt=10, groups=0, rollback_groups=0)


WORKLOADS = {
    "point_lookup": PointLookup,
    "temporal_scan": TemporalScan,
    "write_mix": WriteMix,
    "wire_mix": WireMix,
}


# ----------------------------------------------------------------------
# The engine under test
# ----------------------------------------------------------------------


class Engine:
    """A set-up ``DatabaseServer`` (behind a ``NetServer`` for a wire
    workload) and the one closed-loop client that talks to it."""

    def __init__(self, workload: Workload, files: Sequence[str]) -> None:
        # Imports are not set-up: all of them before the clock starts.
        from repro.bblade import register_btree_blade
        from repro.datablade import register_grtree_blade
        from repro.hblade import register_hybrid_blade
        from repro.net.client import ReproClient
        from repro.net.server import NetServer
        from repro.server import DatabaseServer

        register = {"th": register_hybrid_blade, "tb": register_btree_blade,
                    "tg": register_grtree_blade}
        started = time.perf_counter()
        server = self.server = DatabaseServer()
        server.create_sbspace("spc")
        tables = workload.tables
        for table in tables:
            register[table](server)
        for table in tables:
            for statement in _DDL[table]:
                server.execute(statement)
        server.prefer_virtual_index = True
        for step, path in zip(workload.loads, files):
            if step.clock is not None:
                server.clock.set(step.clock)
            loaded = server.execute(f"LOAD FROM '{path}' INSERT INTO {step.table}")
            if loaded != len(step.lines):
                raise RuntimeError(f"LOAD of {path} stored {loaded} rows")
        self.net = self.client = None
        if workload.wire:
            self.net = NetServer(server, workers=2).start()
            self.client = ReproClient(
                *self.net.address, rng=workload.rng("client")
            ).connect()
        else:
            self.session = server.create_session()
        self.setup_s = time.perf_counter() - started

    def caller(self) -> Callable[[str], Any]:
        """The client's entry point, looked up now: a traced pass asks
        again after patching the classes."""
        if self.client is not None:
            return self.client.execute
        return functools.partial(self.server.execute, session=self.session)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.net is not None:
            self.net.shutdown()

    # -- counters ------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        values = self.server.obs.metrics.snapshot()
        values["udr.resolutions"] = self.server.catalog.routines.resolutions
        return values

    def stored_bytes(self) -> int:
        """Allocated pages x page size over every large object of every
        sbspace, found by walking the handle sequence (the public way to
        enumerate a space)."""
        from repro.storage.sbspace import LargeObjectHandle

        total = 0
        for space in self.server.sbspaces.values():
            found, sequence = 0, 0
            while found < space.object_count and sequence < 100_000:
                sequence += 1
                handle = LargeObjectHandle.fresh(sequence)
                if handle in space:
                    found += 1
                    total += space.get(handle).page_count * space.page_size
        return total


def write_loads(workload: Workload, directory) -> List[str]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, step in enumerate(workload.loads):
        path = directory / f"{index:03d}_{step.table}.unl"
        path.write_text("".join(line + "\n" for line in step.lines))
        paths.append(str(path))
    return paths


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------


class Failure:
    def __init__(self, error: BaseException) -> None:
        self.error = error


class Round:
    """Latencies and raw results of one pass over a statement list."""

    def __init__(self, statements: Sequence[Stmt], call: Callable[[str], Any]) -> None:
        self.statements = statements
        count = len(statements)
        latencies = self.latencies_ns = [0] * count
        results = self.results = [None] * count
        clock = time.perf_counter_ns
        started = clock()
        for index, statement in enumerate(statements):
            begin = clock()
            try:
                value = call(statement.sql)
            except Exception as error:  # a failed op, counted below
                value = Failure(error)
            latencies[index] = clock() - begin
            results[index] = value
        self.wall_ns = clock() - started
        by_kind: Dict[str, List[int]] = defaultdict(list)
        for statement, latency in zip(statements, latencies):
            by_kind[statement.kind].append(latency)
        #: kind -> share of the round's statements / median latency in us.
        self.shares = {kind: len(v) / count for kind, v in sorted(by_kind.items())}
        self.kind_p50_us = {
            kind: statistics.median(v) / 1000.0 for kind, v in by_kind.items()
        }

    def failures(self) -> List[str]:
        """Disagreements with the model, checked after the clock stopped."""
        problems = []
        for statement, value in zip(self.statements, self.results):
            if isinstance(value, Failure):
                problems.append(f"{statement.sql}: raised {value.error!r}")
            elif statement.expect is not None:
                got = normalise(value)
                if got != statement.expect:
                    shown = got if not isinstance(got, list) or len(got) < 6 else f"{len(got)} rows"
                    problems.append(f"{statement.sql}: got {shown}")
        return problems

    def stmt_p50_us(self, prefix: str = "") -> float:
        """Per-kind medians averaged with the kinds' shares as weights,
        over the kinds that start with *prefix* (0 when there are none).

        A plain median of a mixed stream sits in the gap between two
        populations and jumps from one to the other.
        """
        shares = {k: s for k, s in self.shares.items() if k.startswith(prefix)}
        if not shares:
            return 0.0
        total = sum(self.kind_p50_us[k] * share for k, share in shares.items())
        return total / sum(shares.values())

    def stmt_p95_us(self) -> float:
        ordered = sorted(self.latencies_ns)
        return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))] / 1000.0

    def stmts_per_s(self) -> float:
        return len(self.statements) / (self.wall_ns / 1e9)

    def rows_returned(self) -> int:
        rows = 0
        for statement, value in zip(self.statements, self.results):
            if isinstance(value, list):
                rows += len(value)
            elif statement.kind.startswith(("update", "delete")) and isinstance(value, int):
                rows += value
        return rows


def family_p50_us(rounds: Sequence[Round], prefix: str) -> float:
    return statistics.median(rnd.stmt_p50_us(prefix) for rnd in rounds)


def spread(values: Sequence[float]) -> float:
    """Interquartile range over the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


class Run:
    """One process-lifetime of the benchmark on one workload."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.problems: List[str] = []
        self._next_round = 0
        # Runs of one workload and seed may overlap (selfcheck beside a
        # traced run), so the LOAD files are this process's own.
        self.tmp = report.OUT_DIR / f"tmp_{workload.name}_{workload.seed}_{os.getpid()}"
        self.files = write_loads(workload, self.tmp)
        self.engine: Optional[Engine] = None

    def set_up(self) -> float:
        """Set up the engine the rounds run on; its set-up time."""
        gc.collect()
        self.engine = Engine(self.workload, self.files)
        gc.collect()
        gc.freeze()
        return self.engine.setup_s

    def spare_set_up(self) -> float:
        """Set a second engine up from the same files beside the first,
        and drop it: one more sample of the set-up time."""
        spare = Engine(self.workload, self.files)
        spare.close()
        seconds = spare.setup_s
        del spare
        gc.collect()  # outside every clock; the first engine is frozen
        return seconds

    def play(self, call: Optional[Callable[[str], Any]] = None) -> Round:
        """Generate, run and check the next round."""
        index = self._next_round
        self._next_round += 1
        if self.workload.clock is not None:
            self.engine.server.clock.set(self.workload.now(index))
        statements = self.workload.round(index)
        rnd = Round(statements, call or self.engine.caller())
        self._account(rnd)
        return rnd

    def _account(self, rnd: Round) -> None:
        self.attempted += len(rnd.statements)
        self.problems += rnd.failures()

    def verify(self) -> None:
        """Whole tables against the models, then CHECK INDEX on each."""
        server = self.engine.server
        statements = self.workload.verification(self._next_round - 1)
        statements += [
            Stmt("check", f"CHECK INDEX {_INDEXES[table]}", None)
            for table in self.workload.tables
        ]
        self._account(Round(statements, server.execute))

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
        shutil.rmtree(self.tmp, ignore_errors=True)

    def finish(
        self,
        metrics: Dict[str, Tuple[float, str]],
        rounds: int,
        statements_per_round: int,
        extra: Dict[str, Any],
    ) -> Dict[str, Any]:
        failed = len(self.problems)
        return {
            "workload": self.workload.name,
            "seed": self.workload.seed,
            "rounds": rounds,
            "statements_per_round": statements_per_round,
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "first_problems": self.problems[:10],
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
            **extra,
        }


# ----------------------------------------------------------------------
# --trace 0: the end-to-end metrics
# ----------------------------------------------------------------------


def _sbspace(counters: Dict[str, float], *fields: str) -> float:
    """Sum of the named counters over every sbspace collector."""
    suffixes = tuple("." + field for field in fields)
    return sum(
        value for name, value in counters.items()
        if name.startswith("sbspace.") and name.endswith(suffixes)
    )


def _pages(counters: Dict[str, float]) -> float:
    return _sbspace(counters, "page_reads", "page_writes")


def measure_end_to_end(run: Run, groups: Sequence[int] = ROUND_GROUPS) -> Dict[str, Any]:
    """Set-up, warm-up round, ``sum(groups)`` measured rounds on that
    one engine -- with a spare set-up between two groups.

    The spare set-ups give ``setup_s`` its several samples, and they
    space the rounds over the whole run instead of ten seconds of it:
    a burst on the host -- they last 5 to 15 s here -- then covers
    fewer than half the rounds and the median over rounds ignores it.
    """
    setups, rounds = [run.set_up()], []
    run.play()  # warm-up, untimed
    before = _pages(run.engine.counters())  # the spare engines count their own
    for count in groups:
        if rounds:
            setups.append(run.spare_set_up())
        rounds += [run.play() for _ in range(count)]
    pages = _pages(run.engine.counters()) - before
    stored = run.engine.stored_bytes()
    rows = run.workload.live_rows()
    run.verify()
    statements = sum(len(rnd.statements) for rnd in rounds)
    p50s = [rnd.stmt_p50_us() for rnd in rounds]
    metrics = {
        "stmt_p50_us": (statistics.median(p50s), "us"),
        "stmts_per_s": (statistics.median(r.stmts_per_s() for r in rounds), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "stored_bytes_per_row": (stored / rows, "bytes"),
        "pages_per_stmt": (pages / statements, "pages"),
    }
    shares = rounds[0].shares
    diagnostics = {
        "setup_s": setups,
        "round_stmt_p50_us": p50s,
        "round_spread": spread(p50s),
        "kind_shares": shares,
        "kind_p50_us": {
            kind: statistics.median(r.kind_p50_us[kind] for r in rounds)
            for kind in shares
        },
        "stmt_p95_us": statistics.median(r.stmt_p95_us() for r in rounds),
    }
    return run.finish(
        metrics, len(rounds), len(rounds[0].statements), {"diagnostics": diagnostics}
    )


# ----------------------------------------------------------------------
# --trace 1: the per-layer metrics
# ----------------------------------------------------------------------


def _ratio(numerator: float, denominator: float, empty: float = 0.0) -> float:
    return numerator / denominator if denominator else empty


def measure_per_layer(run: Run) -> Dict[str, Any]:
    run.set_up()
    run.play()  # warm-up
    obs = run.engine.server.obs
    plain, dark = [], []
    for _ in range(TRACE_ROUNDS):
        plain.append(run.play())
        obs.disable()
        try:
            dark.append(run.play())
        finally:
            obs.enable()

    tracer = tracing.Tracer()
    before = run.engine.counters()
    tracer.install()
    call = run.engine.caller()

    def traced_call(sql: str) -> Any:
        tracer.statement += 1
        return call(sql)

    try:
        traced = [run.play(traced_call) for _ in range(TRACE_ROUNDS)]
    finally:
        tracer.uninstall()
    after = run.engine.counters()
    roots = obs.spans.select()
    run.verify()

    def delta(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    def sbspace_delta(field: str) -> float:
        return _sbspace(after, field) - _sbspace(before, field)

    statements = [stmt for rnd in traced for stmt in rnd.statements]
    latencies = [ns for rnd in traced for ns in rnd.latencies_ns]
    count = len(statements)
    selfs = tracing.self_times(tracer.spans)
    server_ns = tracing.durations(tracer.spans, "server.execute")
    calls = tracing.count_spans(tracer.spans)
    per_round = len(traced[0].statements)

    def row_us(row: str) -> float:
        """Median over traced rounds of the row's mean self time."""
        means = []
        for index in range(len(traced)):
            span = range(index * per_round, (index + 1) * per_round)
            means.append(sum(selfs[s].get(row, 0) for s in span) / per_round / 1000.0)
        return statistics.median(means)

    roundtrip = [latencies[s] - server_ns.get(s, 0) for s in range(count)]
    plain_p50 = statistics.median(r.stmt_p50_us() for r in plain)
    rows = sum(rnd.rows_returned() for rnd in traced)
    us, per, ratio = "us", "1/stmt", "ratio"
    wire = run.workload.wire
    logical = calls["buffer.read"]
    metrics = {
        "net.roundtrip_self_us": (statistics.fmean(roundtrip) / 1000.0, us),
        "net.encode_us": (row_us("net.encode"), us),
        "net.decode_us": (row_us("net.decode"), us),
        "net.frames_per_stmt": (calls["net.write_frame"] / count, per),
        "net.bytes_per_stmt": (tracer.encoded_bytes / count, "bytes"),
        "net.busy_rejects": (delta("net.busy_rejections"), "count"),
        "sql.parse_us": (row_us("sql.parse"), us),
        "sql.stmtcache_hit_ratio": (
            _ratio(delta("sql.stmtcache.hits"),
                   delta("sql.stmtcache.hits") + delta("sql.stmtcache.misses")), ratio),
        "optimizer.choose_plan_us": (row_us("optimizer.choose_plan"), us),
        "optimizer.scancost_calls_per_stmt": (delta("am.calls.am_scancost") / count, per),
        "optimizer.indexscan_ratio": (
            _ratio(delta("plan.indexscan"),
                   delta("plan.indexscan") + delta("plan.seqscan"), 1.0), ratio),
        **{
            f"executor.{slot}_us": (row_us(f"executor.{slot}"), us)
            for slot in ("am_open", "am_beginscan", "am_getnext", "am_close",
                         "am_insert", "am_update", "am_delete")
        },
        "executor.am_calls_per_stmt": (delta("am.calls") / count, per),
        "executor.rows_examined_per_row": (
            _ratio(delta("am.calls.am_getnext") - delta("am.calls.am_beginscan"), rows),
            ratio),
        "executor.other_self_us": (row_us("executor.other"), us),
        "udr.resolve_calls_per_stmt": (delta("udr.resolutions") / count, per),
        "udr.resolve_us": (row_us("udr.resolve"), us),
        "client.hash_select_p50_us": (family_p50_us(plain, "select.th"), us),
        "client.tree_select_p50_us": (family_p50_us(plain, "select.tb"), us),
        "client.grt_select_p50_us": (family_p50_us(plain, "select.tg"), us),
        "hblade.hash_path_ratio": (
            _ratio(delta("hblade.hash_path"), delta("hblade.point_lookups")), ratio),
        "hblade.fallbacks_per_stmt": (delta("hblade.guard_fallbacks") / count, per),
        "buffer.hit_ratio": (
            1.0 - _ratio(calls["sbspace.read@buffer"], logical), ratio),
        "buffer.logical_reads_per_stmt": (logical / count, per),
        "buffer.physical_reads_per_stmt": (calls["sbspace.read@buffer"] / count, per),
        "buffer.read_us": (row_us("buffer.read"), us),
        "buffer.write_us": (row_us("buffer.write"), us),
        "sbspace.opens_per_stmt": (sbspace_delta("opens") / count, per),
        "sbspace.page_reads_per_stmt": (sbspace_delta("page_reads") / count, per),
        "sbspace.page_writes_per_stmt": (sbspace_delta("page_writes") / count, per),
        "sbspace.read_us": (row_us("sbspace.read"), us),
        "sbspace.write_us": (row_us("sbspace.write"), us),
        "wal.records_per_stmt": (delta("wal.records") / count, per),
        "wal.page_write_records_per_stmt": (delta("wal.kind.page_write") / count, per),
        "wal.log_us": (row_us("wal.log"), us),
        "locks.acquires_per_stmt": (delta("locks.acquires") / count, per),
        "locks.acquire_us": (row_us("locks.acquire"), us),
        "locks.release_us": (row_us("locks.release"), us),
        "locks.conflicts": (delta("locks.conflicts"), "count"),
        "obs.stmt_overhead_us": (
            plain_p50 - statistics.median(r.stmt_p50_us() for r in dark), us),
        "obs.spans_per_stmt": (
            _ratio(sum(_tree_size(root) for root in roots), len(roots)), per),
        "client.stmt_p95_us": (statistics.median(r.stmt_p95_us() for r in plain), us),
        "client.select_p50_us": (family_p50_us(plain, "select"), us),
        "client.insert_p50_us": (family_p50_us(plain, "insert"), us),
        "client.update_p50_us": (family_p50_us(plain, "update"), us),
        "client.delete_p50_us": (family_p50_us(plain, "delete"), us),
        "client.round_spread": (spread([r.stmt_p50_us() for r in plain]), ratio),
        "client.trace_overhead_ratio": (
            statistics.median(r.stmt_p50_us() for r in traced) / plain_p50, ratio),
    }
    if metrics["optimizer.indexscan_ratio"][0] != 1.0:
        run.problems.append("a statement was planned as a sequential scan")
    if metrics["locks.conflicts"][0]:
        run.problems.append("lock conflicts with a single client")

    table, worst = additivity(statements, latencies, selfs, server_ns, wire)
    if worst > ADDITIVITY_TOLERANCE:
        run.problems.append(
            f"ledger rows miss the traced client latency by {worst:.1%}"
        )
    report.OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(
        report.OUT_DIR / f"trace_{run.workload.name}.json",
        {"workload": run.workload.name, "seed": run.workload.seed,
         "statement_kinds": [stmt.kind for stmt in statements]},
    )
    return run.finish(
        metrics, TRACE_ROUNDS, per_round, {"additivity": table, "additivity_worst": worst}
    )


def _tree_size(span) -> int:
    return 1 + sum(_tree_size(child) for child in span.children)


#: The ROADMAP's ledger gate: rows sum to the end-to-end figure within 10 %.
ADDITIVITY_TOLERANCE = 0.10


def additivity(statements, latencies, selfs, server_ns, wire) -> Tuple[Dict[str, Dict[str, float]], float]:
    """Per statement kind: mean self time of every ledger row in us,
    their sum, and the traced client latency it should equal.

    The ``net`` row is what the issue defined it to be -- client call
    minus server ``execute`` -- so in-process it is only the cost of the
    call itself; what the check can catch is a span lost, counted twice
    or charged to the wrong statement.
    """
    remainder = "net.roundtrip" if wire else "call"
    sums: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    counts: Dict[str, int] = defaultdict(int)
    for index, statement in enumerate(statements):
        kind = statement.kind
        counts[kind] += 1
        for row in tracing.ENGINE_ROWS:
            sums[kind][row] += selfs[index].get(row, 0)
        sums[kind][remainder] += latencies[index] - server_ns.get(index, 0)
        sums[kind]["latency"] += latencies[index]
    table: Dict[str, Dict[str, float]] = {}
    worst = 0.0
    for kind in sorted(sums):
        rows = {row: value / counts[kind] / 1000.0 for row, value in sums[kind].items()}
        latency = rows.pop("latency")
        rows = {row: value for row, value in rows.items() if value}
        total = sum(rows.values())
        table[kind] = {**rows, "sum": total, "latency": latency, "statements": counts[kind]}
        worst = max(worst, abs(total / latency - 1.0))
    return table, worst


def format_additivity(table: Dict[str, Dict[str, float]]) -> str:
    rows = sorted({row for kind in table.values() for row in kind} - {"sum", "latency", "statements"})
    rows += ["sum", "latency", "statements"]
    kinds = list(table)
    width = max(len(row) for row in rows)
    lines = [" " * width + "".join(f" {kind:>11}" for kind in kinds)]
    for row in rows:
        cells = "".join(f" {table[kind].get(row, 0.0):>11.1f}" for kind in kinds)
        lines.append(f"{row:<{width}}{cells}")
    return "\n".join(lines)
