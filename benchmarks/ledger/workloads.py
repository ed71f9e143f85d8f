"""Inputs and oracles of the ledger benchmark, generated from ``--seed``.

Nothing in this module imports the engine: a workload is LOAD files, a
clock schedule and lists of SQL text, each statement paired with the
answer an independent model expects.  The models are a dict per keyed
table and a brute-force region-overlap scan for the bitemporal table.

Keyed tables ``th`` (hybrid hash + B+-tree AM) and ``tb`` (B+-tree AM)
hold the *base* keys ``KEY_STEP * i``, which no statement ever modifies,
so every point SELECT returns exactly one row in every round.  Writing
rounds work on *stripes*: round ``r`` inserts the keys ``KEY_STEP * i +
1 + (r + 1)`` and moves or deletes the keys round ``r - 1`` inserted
(stripe 0 is part of the LOAD), so each round executes the same
statement kinds in the same order on a table of the same size.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

KEY_STEP = 100
#: A key-moving UPDATE shifts a stripe key by this much (stays unique
#: while fewer than this many stripes exist).
MOVE_OFFSET = 50
MAX_STRIPES = MOVE_OFFSET - 2
#: Rolled-back inserts reuse these keys every round: they never reach
#: the index, and a rolled-back heap row is unreachable through it.
GHOST_OFFSET = MOVE_OFFSET

#: Chronon (days since 1900-01-01) of the first load step.
BASE_DAY = (datetime.date(1996, 1, 1) - datetime.date(1900, 1, 1)).days
STEP_DAYS = 15
_EPOCH = datetime.date(1900, 1, 1).toordinal()

#: (tt_begin, tt_end or None for UC, vt_begin, vt_end or None for NOW)
Extent = Tuple[int, Optional[int], int, Optional[int]]
Window = Tuple[int, int, int, int]


@dataclass(frozen=True)
class Stmt:
    """One SQL statement, its kind and the answer the model expects.

    ``expect`` is a sorted list of value tuples for a SELECT, the
    affected-row count for DML, and ``None`` where any success will do
    (transaction control).
    """

    kind: str
    sql: str
    expect: Any


def day_text(chronon: int) -> str:
    date = datetime.date.fromordinal(chronon + _EPOCH)
    return f"{date.month:02d}/{date.day:02d}/{date.year:04d}"


def extent_text(extent: Extent) -> str:
    ttb, tte, vtb, vte = extent
    return (
        f"{day_text(ttb)}, {'UC' if tte is None else day_text(tte)}, "
        f"{day_text(vtb)}, {'NOW' if vte is None else day_text(vte)}"
    )


def normalise(value: Any) -> Any:
    """Engine and wire results in the shape ``Stmt.expect`` uses."""
    if isinstance(value, list):
        return sorted(tuple(row.values()) for row in value)
    return value


# ----------------------------------------------------------------------
# Models
# ----------------------------------------------------------------------


class KeyedModel:
    """Dict oracle for one ``(k INTEGER, v LVARCHAR)`` table."""

    def __init__(self, table: str, keys: Sequence[int]) -> None:
        self.table = table
        self.rows: Dict[int, str] = {key: f"v{key}" for key in keys}

    def select(self, key: int) -> Stmt:
        expect = [(self.rows[key],)] if key in self.rows else []
        return Stmt(
            f"select.{self.table}",
            f"SELECT v FROM {self.table} WHERE k = {key}",
            expect,
        )

    def insert(self, key: int) -> Stmt:
        self.rows[key] = f"v{key}"
        return Stmt(
            f"insert.{self.table}",
            f"INSERT INTO {self.table} VALUES ({key}, 'v{key}')",
            1,
        )

    def move(self, key: int, new_key: int) -> Stmt:
        self.rows[new_key] = self.rows.pop(key)
        return Stmt(
            f"update.{self.table}",
            f"UPDATE {self.table} SET k = {new_key} WHERE k = {key}",
            1,
        )

    def delete(self, key: int) -> Stmt:
        del self.rows[key]
        return Stmt(
            f"delete.{self.table}",
            f"DELETE FROM {self.table} WHERE k = {key}",
            1,
        )

    def dump(self) -> Stmt:
        """One range scan returning every row (end-of-run comparison)."""
        return Stmt(
            f"verify.{self.table}",
            f"SELECT k, v FROM {self.table} WHERE k >= 0",
            sorted(self.rows.items()),
        )


class ExtentModel:
    """Brute-force oracle for ``tg (id INTEGER, te GRT_TimeExtent_t)``.

    Implements the region semantics of the paper's Section 2 directly:
    ``UC`` resolves to the current time, ``NOW`` to the resolved
    transaction-time end, and a NOW-relative region is clipped by the
    ``vt <= tt`` diagonal (the stair shape).
    """

    table = "tg"

    def __init__(self) -> None:
        self.rows: Dict[int, Extent] = {}

    def overlapping(self, window: Window, now: int) -> List[Tuple[int]]:
        q_tlo, q_thi, q_vlo, q_vhi = window
        found = []
        for row_id, (ttb, tte, vtb, vte) in self.rows.items():
            t_hi = max(now, ttb) if tte is None else tte
            lo = ttb if ttb > q_tlo else q_tlo
            hi = t_hi if t_hi < q_thi else q_thi
            if lo > hi:
                continue
            # Both top edges are nondecreasing in tt, so the widest
            # valid-time overlap is at the right end of the tt overlap.
            top = hi if vte is None else vte
            if top > q_vhi:
                top = q_vhi
            if (vtb if vtb > q_vlo else q_vlo) <= top:
                found.append((row_id,))
        found.sort()
        return found

    def select(self, window: Window, now: int) -> Stmt:
        literal = extent_text(window)
        return Stmt(
            "select.tg",
            f"SELECT id FROM tg WHERE Overlaps(te, '{literal}')",
            self.overlapping(window, now),
        )

    def insert(self, row_id: int, extent: Extent) -> Stmt:
        self.rows[row_id] = extent
        return Stmt(
            "insert.tg",
            f"INSERT INTO tg VALUES ({row_id}, '{extent_text(extent)}')",
            1,
        )

    def freeze(self, row_id: int, now: int) -> Stmt:
        """Logical deletion: transaction time stops at ``now - 1``."""
        old = self.rows[row_id]
        frozen = (old[0], now - 1, old[2], old[3])
        self.rows[row_id] = frozen
        return Stmt(
            "update.tg",
            f"UPDATE tg SET te = '{extent_text(frozen)}' "
            f"WHERE Equal(te, '{extent_text(old)}')",
            1,
        )


# ----------------------------------------------------------------------
# Data sets
# ----------------------------------------------------------------------


@dataclass
class LoadStep:
    """One ``LOAD`` during set-up; ``clock`` is set first when given."""

    table: str
    lines: List[str]
    clock: Optional[int] = None


def keyed_load(rng: random.Random, table: str, keys: Sequence[int]) -> LoadStep:
    order = list(keys)
    rng.shuffle(order)
    return LoadStep(table, [f"{key}|v{key}" for key in order])


def stripe_key(slot: int, stripe: int) -> int:
    return KEY_STEP * slot + 1 + stripe


def extent_history(
    rng: random.Random, model: ExtentModel, steps: int, per_step: int
) -> List[LoadStep]:
    """A bitemporal history loaded over *steps* clock steps.

    Half the rows are NOW-relative in valid time (stair shapes), half
    carry ground valid intervals; most are closed history whose
    transaction time ended before the step's clock, a few are current
    (``UC``) and keep growing -- so all six cases of the paper's
    Figure 2 occur and a timeslice touches tens of rows, not thousands.
    """
    loads = []
    current = max(1, round(0.02 * per_step))
    for step in range(steps):
        now = BASE_DAY + step * STEP_DAYS
        # Exact shares per step, not coin flips: the seed decides which
        # rows, not how many, so tree size varies less between seeds.
        is_current = [index < current for index in range(per_step)]
        is_stair = [index % 2 == 0 for index in range(per_step)]
        rng.shuffle(is_current)
        rng.shuffle(is_stair)
        lines = []
        for growing, stair in zip(is_current, is_stair):
            if growing:
                ttb, tte = now, None
            else:
                ttb = now - rng.randint(7, 40)
                tte = ttb + rng.randint(0, 6)
            if stair:
                vtb, vte = ttb - rng.randint(0, 30), None
            else:
                vtb = ttb + rng.randint(-60, 20)
                vte = vtb + rng.randint(0, 14)
            row_id = len(model.rows)
            model.rows[row_id] = (ttb, tte, vtb, vte)
            lines.append(f"{row_id}|{extent_text(model.rows[row_id])}")
        loads.append(LoadStep("tg", lines, clock=now))
    return loads


def current_extent(now: int, slot: int) -> Extent:
    """The *slot*-th row a round inserts at clock *now*: current, and
    unique in valid-time begin so ``Equal`` later matches one row."""
    vtb = now - slot
    return (now, None, vtb, None if slot % 2 == 0 else vtb + 7)


# ----------------------------------------------------------------------
# Statement lists
# ----------------------------------------------------------------------


def point_statements(
    rng: random.Random,
    models: Sequence[KeyedModel],
    base_rows: int,
    hot_rows: int,
    count: int,
) -> List[Stmt]:
    """Equality SELECTs alternating between *models*: nine in ten from
    one contiguous hot range of base keys, one in ten spread evenly over
    the whole key range.

    Counts are exact rather than sampled (every hot key is probed about
    equally often, cold probes are stratified), so page traffic depends
    on the seed only through the hot range's place and the probe order.
    """
    hot_rows = min(hot_rows, base_rows)
    hot_start = rng.randrange(base_rows - hot_rows + 1)
    per_model = -(-count // len(models))
    lists = []
    for model in models:
        cold_count = per_model // 10
        stride = base_rows / max(1, cold_count)
        cold = [int((j + rng.random()) * stride) for j in range(cold_count)]
        rng.shuffle(cold)
        hot: List[int] = []
        while len(hot) < per_model - cold_count:
            cycle = list(range(hot_start, hot_start + hot_rows))
            rng.shuffle(cycle)
            hot.extend(cycle)
        slots = [
            cold.pop() if position % 10 == 9 else hot.pop()
            for position in range(per_model)
        ]
        lists.append([model.select(KEY_STEP * slot) for slot in slots])
    merged = [stmt for group in zip(*lists) for stmt in group]
    return merged[:count]


def scan_statements(
    rng: random.Random,
    model: ExtentModel,
    steps: int,
    now: int,
    count: int,
    band: Tuple[int, int],
) -> List[Stmt]:
    """``Overlaps`` timeslices and small windows, half each, kept only
    if the oracle's answer has between ``band[0]`` and ``band[1]`` rows
    -- so every statement does a comparable amount of work -- and run in
    transaction-time order: a replay of the history, era by era.

    The order is part of the workload.  Under LRU caches a little
    smaller than the tree, the same windows in random order missed
    3.4-4.2 pages per statement depending on the seed alone; swept, a
    round reloads the part of the tree that does not fit, whatever the
    seed (2.66-2.71).
    """
    span = steps * STEP_DAYS + 30
    # Candidates follow a low-discrepancy sequence (R2, rotated by the
    # seed) over the (transaction time, valid-time offset) plane, so two
    # seeds probe the history equally evenly and differ only in where.
    shift_t, shift_v = rng.random(), rng.random()
    found: List[Tuple[Window, Stmt]] = []
    for attempt in range(400 * count):
        if len(found) == count:
            return [stmt for _, stmt in sorted(found, key=lambda pair: pair[0])]
        tq = BASE_DAY - 30 + int((shift_t + attempt * 0.7548776662466927) % 1 * span)
        vq = tq - 70 + int((shift_v + attempt * 0.5698402909980532) % 1 * 96)
        if len(found) % 2 == 0:
            window = (tq, tq, vq, vq)
        else:
            window = (tq, tq + rng.randint(1, 6), vq, vq + rng.randint(1, 6))
        stmt = model.select(window, now)
        if band[0] <= len(stmt.expect) <= band[1]:
            found.append((window, stmt))
    raise RuntimeError(f"cannot find {count} queries with {band[0]}..{band[1]} rows")


@dataclass(frozen=True)
class MixSpec:
    """Statement counts of one writing round (``groups`` transactions of
    four statements each are cut from the shuffled total; the rest run
    in autocommit)."""

    selects: int
    inserts: int      # th + tb, must equal moves + deletes
    moves: int
    deletes: int
    grt_inserts: int  # must equal grt_freezes
    grt_freezes: int
    groups: int = 0
    rollback_groups: int = 0

    def __post_init__(self) -> None:
        if self.inserts != self.moves + self.deletes:
            raise ValueError("inserts must equal moves + deletes")
        if self.grt_inserts != self.grt_freezes:
            raise ValueError("grt_inserts must equal grt_freezes")
        if self.moves % 2 or self.deletes % 2:
            raise ValueError("th/tb counts must be even (one half each)")


class MixWorkload:
    """Writing rounds over ``th``, ``tb`` and ``tg``.

    The *template* -- which operation runs at which position, on which
    table and slot, in which transaction -- is drawn once from the seed;
    a round instantiates it on its own stripe, updating the models as it
    goes so each statement carries the answer expected at that point.
    """

    def __init__(
        self,
        rng: random.Random,
        spec: MixSpec,
        base_rows: int,
        hot_rows: int,
        keyed: Sequence[KeyedModel],
        extents: ExtentModel,
    ) -> None:
        self.spec = spec
        self.keyed = {model.table: model for model in keyed}
        self.extents = extents
        self._selects = point_statements(
            rng, keyed, base_rows, hot_rows, spec.selects
        )
        per_table = spec.inserts // 2
        #: slot -> base key the stripe keys of that slot sit next to.
        self._slots = {
            model.table: rng.sample(range(base_rows), per_table)
            for model in keyed
        }
        self._ghosts = {
            model.table: KEY_STEP * rng.randrange(base_rows) + GHOST_OFFSET
            for model in keyed
        }
        ops: List[Tuple[str, str, int]] = []
        for table in self.keyed:
            victims = list(range(per_table))
            rng.shuffle(victims)
            ops += [("insert", table, slot) for slot in range(per_table)]
            ops += [("move", table, v) for v in victims[: spec.moves // 2]]
            ops += [("delete", table, v) for v in victims[spec.moves // 2 :]]
        ops += [("insert", "tg", slot) for slot in range(spec.grt_inserts)]
        ops += [("freeze", "tg", slot) for slot in range(spec.grt_freezes)]
        ops += [("select", "", index) for index in range(spec.selects)]
        rng.shuffle(ops)
        grouped, single = ops[: 4 * spec.groups], ops[4 * spec.groups :]
        units: List[Tuple[str, List[Tuple[str, str, int]]]] = [
            ("commit", grouped[i : i + 4]) for i in range(0, len(grouped), 4)
        ]
        units += [("auto", [op]) for op in single]
        units += [("rollback", []) for _ in range(spec.rollback_groups)]
        rng.shuffle(units)
        self._units = units
        self._grt_ids: Dict[int, List[int]] = {}

    # -- set-up side ---------------------------------------------------

    def stripe_zero_keys(self, table: str) -> List[int]:
        return [stripe_key(slot, 0) for slot in self._slots[table]]

    def stripe_zero_extents(self, now: int) -> List[str]:
        """LOAD lines for the current rows round 0 will freeze."""
        ids = []
        lines = []
        for slot in range(self.spec.grt_inserts):
            row_id = len(self.extents.rows)
            self.extents.rows[row_id] = current_extent(now, slot)
            ids.append(row_id)
            lines.append(f"{row_id}|{extent_text(self.extents.rows[row_id])}")
        self._grt_ids[0] = ids
        return lines

    # -- round side ----------------------------------------------------

    def round(self, index: int, now: int) -> List[Stmt]:
        """The statements of round *index*, run at clock *now*."""
        if index + 1 >= MAX_STRIPES:
            raise ValueError(f"at most {MAX_STRIPES - 1} writing rounds")
        self._grt_ids[index + 1] = []
        out: List[Stmt] = []
        for kind, ops in self._units:
            if kind == "auto":
                out.append(self._instantiate(ops[0], index, now))
                continue
            out.append(Stmt("begin", "BEGIN WORK", None))
            if kind == "commit":
                out += [self._instantiate(op, index, now) for op in ops]
                out.append(Stmt("commit", "COMMIT WORK", None))
                continue
            # Rolled back: inserts and reads only.  Heap tables are not
            # transactional in this engine (only sbspace pages are
            # restored), so an undone UPDATE or DELETE would leave index
            # and heap disagreeing; an undone INSERT leaves only a heap
            # row no index entry points at.
            for model in self.keyed.values():
                ghost = self._ghosts[model.table]
                out.append(model.insert(ghost))
                out.append(model.select(ghost))
                del model.rows[ghost]
            out.append(Stmt("rollback", "ROLLBACK WORK", None))
        return out

    def _instantiate(self, op: Tuple[str, str, int], index: int, now: int) -> Stmt:
        action, table, slot = op
        if action == "select":
            return self._selects[slot]
        if table == "tg":
            if action == "insert":
                row_id = len(self.extents.rows)
                self._grt_ids[index + 1].append(row_id)
                return self.extents.insert(row_id, current_extent(now, slot))
            return self.extents.freeze(self._grt_ids[index][slot], now)
        model = self.keyed[table]
        base = self._slots[table][slot]
        if action == "insert":
            return model.insert(stripe_key(base, index + 1))
        victim = stripe_key(base, index)
        if action == "move":
            return model.move(victim, victim + MOVE_OFFSET)
        return model.delete(victim)
