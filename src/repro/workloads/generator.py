"""Bitemporal workload generation.

A workload is a reproducible stream of operations over a simulated clock:

* insertions, a configurable fraction now-relative in valid time
  (``VTend = NOW``) -- the data the GR-tree exists for;
* logical deletions and modifications, which freeze transaction time and
  produce the stopped cases of Figure 2;
* queries: current timeslices ("who works here now?") and bitemporal
  window queries.

All six cases of Figure 2 arise naturally from the mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.temporal.chronon import Clock
from repro.temporal.extent import TimeExtent
from repro.temporal.variables import NOW, UC


@dataclass
class WorkloadConfig:
    """Knobs of the generator; defaults give a balanced mixed history."""

    seed: int = 42
    #: Fraction of insertions with VTend = NOW.
    now_relative_fraction: float = 0.5
    #: Probability that a step logically deletes a live tuple.
    delete_fraction: float = 0.1
    #: Probability that a step modifies (delete + re-insert) a live tuple.
    update_fraction: float = 0.1
    #: Probability of advancing the clock one chronon after a step.
    clock_advance_probability: float = 0.2
    #: Valid-time begin lag behind the insertion time, inclusive bounds.
    vt_lag: Tuple[int, int] = (0, 60)
    #: Fraction of now-relative tuples recorded the moment they become
    #: true (lag 0: Figure 2's cases 3/4 rather than 5/6).
    zero_lag_fraction: float = 0.3
    #: Length of fixed valid-time intervals, inclusive bounds.
    vt_length: Tuple[int, int] = (0, 40)
    #: Fixed valid times may also lie in the future by up to this much.
    vt_future: int = 20


@dataclass
class LiveTuple:
    rowid: int
    extent: TimeExtent


class BitemporalWorkload:
    """A reproducible bitemporal history over a simulated clock.

    Drive it against any *sink* exposing ``insert(extent, rowid)`` and
    ``delete(extent, rowid)`` -- a GR-tree, a baseline index, or a list.
    """

    def __init__(
        self, clock: Clock, config: Optional[WorkloadConfig] = None
    ) -> None:
        self.clock = clock
        self.config = config or WorkloadConfig()
        self.rng = random.Random(self.config.seed)
        self.live: dict[int, TimeExtent] = {}
        self.history: dict[int, TimeExtent] = {}
        self._next_rowid = 0

    # ------------------------------------------------------------------
    # Data generation
    # ------------------------------------------------------------------

    def make_extent(self) -> TimeExtent:
        """A fresh extent obeying the insertion constraints at the clock."""
        cfg, now = self.config, self.clock.now
        if self.rng.random() < cfg.now_relative_fraction:
            if self.rng.random() < cfg.zero_lag_fraction:
                lag = 0
            else:
                lag = self.rng.randint(*cfg.vt_lag)
            return TimeExtent(now, UC, max(0, now - lag), NOW)
        vt_begin = now + self.rng.randint(-cfg.vt_lag[1], cfg.vt_future)
        vt_begin = max(0, vt_begin)
        vt_end = vt_begin + self.rng.randint(*cfg.vt_length)
        return TimeExtent(now, UC, vt_begin, vt_end)

    def step(self, sink) -> str:
        """Run one operation against *sink*; returns what happened."""
        cfg = self.config
        roll = self.rng.random()
        if self.live and roll < cfg.delete_fraction:
            action = self._delete(sink)
        elif self.live and roll < cfg.delete_fraction + cfg.update_fraction:
            action = self._update(sink)
        else:
            action = self._insert(sink)
        if self.rng.random() < cfg.clock_advance_probability:
            self.clock.advance(1)
        return action

    def run(self, sink, steps: int) -> None:
        for _ in range(steps):
            self.step(sink)

    def populate(self, sink, count: int) -> None:
        """Insertions only (with clock advances): a pure loading phase."""
        for _ in range(count):
            self._insert(sink)
            if self.rng.random() < self.config.clock_advance_probability:
                self.clock.advance(1)

    def _insert(self, sink) -> str:
        extent = self.make_extent()
        rowid = self._next_rowid
        self._next_rowid += 1
        sink.insert(extent, rowid)
        self.live[rowid] = extent
        self.history[rowid] = extent
        return "insert"

    def _delete(self, sink) -> str:
        """Logical deletion: the live entry is replaced by a frozen one
        (the tuple stays in the database and in the index)."""
        rowid = self.rng.choice(sorted(self.live))
        old = self.live.pop(rowid)
        if self.clock.now <= old.tt_begin:
            self.clock.advance(1)
        frozen = old.logically_deleted(self.clock.now)
        sink.delete(old, rowid)
        sink.insert(frozen, rowid)
        self.history[rowid] = frozen
        return "delete"

    def _update(self, sink) -> str:
        self._delete(sink)
        self._insert(sink)
        return "update"

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def current_timeslice_query(self) -> TimeExtent:
        """Everything current and valid right now."""
        now = self.clock.now
        return TimeExtent(now, UC, now, NOW)

    def window_query(self, tt_span: int = 10, vt_span: int = 10) -> TimeExtent:
        now = self.clock.now
        tt_lo = max(0, now - self.rng.randint(0, now or 1))
        vt_lo = max(0, now - self.rng.randint(0, now or 1))
        return TimeExtent(tt_lo, tt_lo + tt_span, vt_lo, vt_lo + vt_span)

    # ------------------------------------------------------------------
    # Oracle
    # ------------------------------------------------------------------

    def oracle_overlapping(self, query: TimeExtent) -> List[int]:
        """Linear-scan answer over everything ever inserted and live."""
        now = self.clock.now
        q = query.region(now)
        return sorted(
            rowid
            for rowid, extent in self.all_extents().items()
            if extent.region(now).overlaps(q)
        )

    def all_extents(self) -> dict:
        return dict(self.history)
