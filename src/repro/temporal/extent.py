"""The four-timestamp (4TS) time extent of a bitemporal tuple.

A :class:`TimeExtent` carries the four time attributes of TQuel's 4TS
format -- ``TTbegin``, ``TTend``, ``VTbegin``, ``VTend`` -- where ``TTend``
may be the variable ``UC`` and ``VTend`` may be the variable ``NOW``
(Section 2 of the paper).  The six qualitatively different combinations of
the paper's Figure 2 are exposed as :class:`Case`, and resolution against a
current time yields the :class:`~repro.temporal.regions.Region` geometry of
Figure 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.temporal.chronon import Chronon, Granularity, format_chronon, parse_chronon
from repro.temporal.regions import Region
from repro.temporal.variables import NOW, UC, Timestamp, is_ground


class ExtentError(ValueError):
    """A time extent violates the 4TS well-formedness constraints."""


class Case(enum.IntEnum):
    """The six combinations of time attributes (the paper's Figure 2)."""

    #: (tt1, UC,  vt1, vt2) -- rectangle growing in transaction time.
    GROWING_RECTANGLE = 1
    #: (tt1, tt2, vt1, vt2) -- static rectangle.
    STATIC_RECTANGLE = 2
    #: (tt1, UC,  vt1, NOW), tt1 = vt1 -- growing stair shape.
    GROWING_STAIR = 3
    #: (tt1, tt2, vt1, NOW), tt1 = vt1 -- stopped stair shape.
    STATIC_STAIR = 4
    #: (tt1, UC,  vt1, NOW), tt1 > vt1 -- growing stair, high first step.
    GROWING_STAIR_HIGH_STEP = 5
    #: (tt1, tt2, vt1, NOW), tt1 > vt1 -- stopped stair, high first step.
    STATIC_STAIR_HIGH_STEP = 6

    @property
    def growing(self) -> bool:
        """Does the region keep extending as time passes?"""
        return self in (
            Case.GROWING_RECTANGLE,
            Case.GROWING_STAIR,
            Case.GROWING_STAIR_HIGH_STEP,
        )

    @property
    def stair_shaped(self) -> bool:
        return self.value >= 3


@dataclass(frozen=True)
class TimeExtent:
    """An immutable 4TS time extent.

    The constructor validates well-formedness only (interval ordering and
    the variable-placement rules); the *insertion-time* constraints, which
    additionally involve the current time, are checked by
    :meth:`validate_insertion`.
    """

    tt_begin: Chronon
    tt_end: Timestamp
    vt_begin: Chronon
    vt_end: Timestamp

    def __post_init__(self) -> None:
        if not is_ground(self.tt_begin):
            raise ExtentError("TTbegin must be a ground value")
        if not is_ground(self.vt_begin):
            raise ExtentError("VTbegin must be a ground value")
        if self.tt_end is NOW or self.vt_end is UC:
            raise ExtentError("TTend may only be UC and VTend may only be NOW")
        if is_ground(self.tt_end) and self.tt_end < self.tt_begin:
            raise ExtentError(
                f"TTbegin <= TTend violated: {self.tt_begin} > {self.tt_end}"
            )
        if is_ground(self.vt_end) and self.vt_end < self.vt_begin:
            raise ExtentError(
                f"VTbegin <= VTend violated: {self.vt_begin} > {self.vt_end}"
            )
        if self.vt_end is NOW and self.vt_begin > self.tt_begin:
            # Otherwise the valid-time end (which tracks time from TTbegin
            # onwards) would start out below the valid-time start.
            raise ExtentError(
                "a NOW-relative valid time requires VTbegin <= TTbegin"
            )

    # ------------------------------------------------------------------
    # Classification and constraints
    # ------------------------------------------------------------------

    @property
    def case(self) -> Case:
        """Classify into the six cases of the paper's Figure 2."""
        growing = self.tt_end is UC
        if self.vt_end is not NOW:
            return Case.GROWING_RECTANGLE if growing else Case.STATIC_RECTANGLE
        if self.tt_begin == self.vt_begin:
            return Case.GROWING_STAIR if growing else Case.STATIC_STAIR
        return (
            Case.GROWING_STAIR_HIGH_STEP
            if growing
            else Case.STATIC_STAIR_HIGH_STEP
        )

    @property
    def is_current(self) -> bool:
        """Is the tuple part of the current database state (TTend = UC)?"""
        return self.tt_end is UC

    def validate_insertion(self, current_time: Chronon) -> None:
        """Check the paper's insertion constraints at *current_time*.

        Transaction time: ``TTbegin = current time`` and ``TTend = UC``.
        Valid time: ``VTbegin <= VTend``, and ``VTbegin <= current time``
        when ``VTend = NOW``.
        """
        if self.tt_end is not UC:
            raise ExtentError("inserted tuples must have TTend = UC")
        if self.tt_begin != current_time:
            raise ExtentError(
                f"inserted tuples must have TTbegin = current time "
                f"({current_time}), got {self.tt_begin}"
            )
        if self.vt_end is NOW and self.vt_begin > current_time:
            raise ExtentError(
                "VTbegin must not exceed the current time when VTend = NOW"
            )

    def logically_deleted(self, current_time: Chronon) -> "TimeExtent":
        """The extent after a logical deletion at *current_time*.

        Deletion freezes the transaction time at ``current_time - 1``
        (closed intervals); the tuple itself is never physically removed.
        """
        if self.tt_end is not UC:
            raise ExtentError("only current tuples (TTend = UC) can be deleted")
        if current_time <= self.tt_begin:
            raise ExtentError(
                "cannot delete a tuple during the chronon it was inserted"
            )
        return TimeExtent(self.tt_begin, current_time - 1, self.vt_begin, self.vt_end)

    # ------------------------------------------------------------------
    # Resolution into geometry
    # ------------------------------------------------------------------

    def resolve(self, now: Chronon) -> tuple[Chronon, Chronon]:
        """Resolve (TTend, VTend) against *now* per the paper's algorithm::

            IF TTend is equal to UC  THEN set TTend to the current time
            IF VTend is equal to NOW THEN set VTend to TTend
        """
        tt_end = now if self.tt_end is UC else self.tt_end
        vt_end = tt_end if self.vt_end is NOW else self.vt_end
        return tt_end, vt_end

    def region(self, now: Chronon) -> Region:
        """The bitemporal region of Figure 1, evaluated at time *now*."""
        tt_end = now if self.tt_end is UC else self.tt_end
        tt_end = max(tt_end, self.tt_begin)
        vt_end = tt_end if self.vt_end is NOW else self.vt_end
        region = Region.make(
            self.tt_begin,
            tt_end,
            self.vt_begin,
            vt_end,
            stair=self.vt_end is NOW,
        )
        if region is None:  # pragma: no cover - excluded by validation
            raise ExtentError(f"extent {self} resolves to an empty region")
        return region

    # ------------------------------------------------------------------
    # Text representation (the opaque type's external format)
    # ------------------------------------------------------------------

    def to_text(self, granularity: Granularity = Granularity.DAY) -> str:
        """Render as ``"tt1, tt2|UC, vt1, vt2|NOW"`` (cf. Section 5.2)."""

        def fmt(value: Timestamp) -> str:
            return value.name if not is_ground(value) else format_chronon(
                value, granularity
            )

        return ", ".join(
            fmt(v) for v in (self.tt_begin, self.tt_end, self.vt_begin, self.vt_end)
        )

    @classmethod
    def from_text(
        cls, text: str, granularity: Granularity = Granularity.DAY
    ) -> "TimeExtent":
        """Parse the textual form, e.g. ``"12/10/95, UC, 12/10/95, NOW"``."""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 4:
            raise ExtentError(
                f"a time extent needs four comma-separated timestamps, got {text!r}"
            )

        def parse(token: str, variable) -> Timestamp:
            if variable is not None and token.upper() == variable.name:
                return variable
            return parse_chronon(token, granularity)

        return cls(
            parse(parts[0], None),
            parse(parts[1], UC),
            parse(parts[2], None),
            parse(parts[3], NOW),
        )

    def __str__(self) -> str:
        return (
            f"[{self.tt_begin}, {self.tt_end}] x [{self.vt_begin}, {self.vt_end}]"
        )
