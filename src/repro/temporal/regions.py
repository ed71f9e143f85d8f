"""Two-dimensional bitemporal region geometry.

A bitemporal region lives in the plane spanned by transaction time (the
horizontal axis, ``tt``) and valid time (the vertical axis, ``vt``).  After
the variables ``UC``/``NOW`` have been resolved against a current time, the
regions of the paper's Figure 1 -- and every minimum bounding region the
GR-tree maintains -- belong to one closed family::

    Region(tt_lo, tt_hi, vt_lo, vt_hi, stair)
      = { (t, v) : tt_lo <= t <= tt_hi,
                   vt_lo <= v <= (min(vt_hi, t) if stair else vt_hi) }

i.e. axis-aligned rectangles, optionally clipped by the ``vt <= tt``
diagonal ("stair shapes").  The family is closed under intersection, and
bounding boxes of sets of members stay within the family, which gives all
GR-tree predicates closed forms instead of general polygon arithmetic.

All intervals are closed, matching the paper's convention, and chronons are
integers, so a region's :meth:`Region.area` counts lattice cells (each
chronon-square contributes 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.temporal.chronon import Chronon


@dataclass(frozen=True)
class Region:
    """A (possibly stair-shaped) bitemporal region, fully resolved in time.

    Instances are canonical: a "stair" whose diagonal never cuts into the
    rectangle is stored as a plain rectangle, and a stair's ``vt_hi`` is
    clipped to ``tt_hi``.  Use :meth:`make` to construct canonically.
    """

    tt_lo: Chronon
    tt_hi: Chronon
    vt_lo: Chronon
    vt_hi: Chronon
    stair: bool = False

    @staticmethod
    def make(
        tt_lo: Chronon,
        tt_hi: Chronon,
        vt_lo: Chronon,
        vt_hi: Chronon,
        stair: bool = False,
    ) -> Optional["Region"]:
        """Build a canonical region; return ``None`` when it is empty."""
        if tt_lo > tt_hi or vt_lo > vt_hi:
            return None
        if stair:
            if vt_lo > tt_hi:
                return None  # the diagonal cuts away everything
            vt_hi = min(vt_hi, tt_hi)
            if vt_lo > vt_hi:
                return None
            if vt_hi <= tt_lo:
                stair = False  # diagonal never binds: it is a rectangle
        return Region(tt_lo, tt_hi, vt_lo, vt_hi, stair)

    # ------------------------------------------------------------------
    # Basic geometry
    # ------------------------------------------------------------------

    def vt_end_at(self, t: Chronon) -> Chronon:
        """The top edge of the region at transaction time *t*."""
        return min(self.vt_hi, t) if self.stair else self.vt_hi

    def contains_point(self, t: Chronon, v: Chronon) -> bool:
        """Membership test for a single (transaction, valid) time point."""
        return (
            self.tt_lo <= t <= self.tt_hi
            and self.vt_lo <= v <= self.vt_end_at(t)
        )

    def area(self) -> int:
        """Number of lattice cells covered (closed-interval convention)."""
        width = self.tt_hi - self.tt_lo + 1
        if not self.stair:
            return width * (self.vt_hi - self.vt_lo + 1)
        total = width * (self.vt_hi - self.vt_lo + 1)
        # Subtract the cells above the diagonal: at column t < vt_hi the
        # top is t instead of vt_hi, losing (vt_hi - t) cells.
        t0 = max(self.tt_lo, self.vt_lo)
        t1 = min(self.tt_hi, self.vt_hi - 1)
        if t0 <= t1:
            n = t1 - t0 + 1
            # sum_{t=t0}^{t1} (vt_hi - t)
            total -= n * self.vt_hi - (t0 + t1) * n // 2
        # Columns with t < vt_lo are entirely above the diagonal.
        t_empty_hi = min(self.tt_hi, self.vt_lo - 1)
        if self.tt_lo <= t_empty_hi:
            total -= (t_empty_hi - self.tt_lo + 1) * (self.vt_hi - self.vt_lo + 1)
        return total

    def margin(self) -> int:
        """Half-perimeter analogue used by R*-style split heuristics."""
        return (self.tt_hi - self.tt_lo + 1) + (self.vt_hi - self.vt_lo + 1)

    def bounding_rectangle(self) -> "Region":
        """The minimum bounding *rectangle* of this region."""
        if not self.stair:
            return self
        return Region(self.tt_lo, self.tt_hi, self.vt_lo, self.vt_hi, False)

    # ------------------------------------------------------------------
    # Predicates (the strategy-function semantics)
    # ------------------------------------------------------------------

    def overlaps(self, other: "Region") -> bool:
        """Do the two regions share at least one point?"""
        tt_lo = max(self.tt_lo, other.tt_lo)
        tt_hi = min(self.tt_hi, other.tt_hi)
        if tt_lo > tt_hi:
            return False
        # Both top edges are nondecreasing in t, so the widest valid-time
        # overlap within [tt_lo, tt_hi] occurs at its right end.
        v_lo = max(self.vt_lo, other.vt_lo)
        v_hi = min(self.vt_end_at(tt_hi), other.vt_end_at(tt_hi))
        return v_lo <= v_hi

    def contains(self, other: "Region") -> bool:
        """Is *other* fully inside this region?"""
        if not (self.tt_lo <= other.tt_lo and other.tt_hi <= self.tt_hi):
            return False
        if self.vt_lo > other.vt_lo:
            return False
        # Need other.vt_end_at(t) <= self.vt_end_at(t) over other's
        # tt-range.  Both sides are piecewise linear (slopes 0 or 1), so it
        # suffices to check the endpoints and each side's breakpoint.
        checkpoints = {other.tt_lo, other.tt_hi}
        for region in (self, other):
            if region.stair and other.tt_lo <= region.vt_hi <= other.tt_hi:
                checkpoints.add(region.vt_hi)
        return all(
            other.vt_end_at(t) <= self.vt_end_at(t) for t in checkpoints
        )

    def contained_in(self, other: "Region") -> bool:
        """Is this region fully inside *other*?"""
        return other.contains(self)

    def equal(self, other: "Region") -> bool:
        """Point-set equality (canonical instances compare by fields)."""
        return self == other

    def intersection(self, other: "Region") -> Optional["Region"]:
        """Set intersection; the family is closed under it."""
        return Region.make(
            max(self.tt_lo, other.tt_lo),
            min(self.tt_hi, other.tt_hi),
            max(self.vt_lo, other.vt_lo),
            min(self.vt_hi, other.vt_hi),
            self.stair or other.stair,
        )

    # ------------------------------------------------------------------
    # Bounding of collections (the support-function semantics)
    # ------------------------------------------------------------------

    def fits_under_diagonal(self) -> bool:
        """Does the region lie entirely on or below the ``vt = tt`` line?

        This is the paper's Figure 4(b) criterion for bounding a node with
        a stair shape instead of a rectangle.
        """
        if self.stair:
            return True
        return self.vt_hi <= self.tt_lo

    def union_bounds(self, other: "Region") -> "Region":
        """Minimum bounding region of two regions (rect or stair)."""
        return bounding_region([self, other])

    # ------------------------------------------------------------------
    # The geometry the R* algorithms decide on (the GR-tree's insertion
    # penalties, split and reinsertion order; cf. rtree.geometry.Rect)
    # ------------------------------------------------------------------

    #: Split axes: transaction time, then valid time.
    ndim = 2

    @property
    def lo(self) -> tuple:
        return (self.tt_lo, self.vt_lo)

    @property
    def hi(self) -> tuple:
        return (self.tt_hi, self.vt_hi)

    def enlargement(self, other: "Region") -> int:
        """Area growth needed to absorb *other*."""
        return self.union_bounds(other).area() - self.area()

    def overlap_area(self, other: "Region") -> int:
        inter = self.intersection(other)
        return 0 if inter is None else inter.area()

    def distance_to_center(self, other: "Region") -> float:
        """Squared distance between the centers of the bounding boxes."""
        return ((self.tt_lo + self.tt_hi) / 2 - (other.tt_lo + other.tt_hi) / 2) ** 2 + (
            (self.vt_lo + self.vt_hi) / 2 - (other.vt_lo + other.vt_hi) / 2
        ) ** 2

    def __str__(self) -> str:
        shape = "stair" if self.stair else "rect"
        return (
            f"{shape}[tt {self.tt_lo}..{self.tt_hi}, vt {self.vt_lo}..{self.vt_hi}]"
        )


def bounding_region(regions: Sequence[Region] | Iterable[Region]) -> Region:
    """Minimum bounding region of a non-empty collection.

    Returns a stair shape when every member stays on or below the
    ``vt = tt`` diagonal (Figure 4(b)); otherwise the minimum bounding
    rectangle (Figure 4(a)).
    """
    regions = list(regions)
    if not regions:
        raise ValueError("cannot bound an empty collection of regions")
    tt_lo = min(r.tt_lo for r in regions)
    tt_hi = max(r.tt_hi for r in regions)
    vt_lo = min(r.vt_lo for r in regions)
    if all(r.fits_under_diagonal() for r in regions):
        bound = Region.make(tt_lo, tt_hi, vt_lo, tt_hi, stair=True)
    else:
        vt_hi = max(r.vt_hi for r in regions)
        bound = Region.make(tt_lo, tt_hi, vt_lo, vt_hi, stair=False)
    assert bound is not None
    return bound


def union_area(regions: Sequence[Region]) -> int:
    """Exact area of the union, by sweeping transaction-time columns.

    Used by tree-quality benchmarks to measure *dead space* (bounding area
    minus union area).  Linear in the transaction-time span, so intended
    for analysis rather than the hot path.
    """
    if not regions:
        return 0
    t_lo = min(r.tt_lo for r in regions)
    t_hi = max(r.tt_hi for r in regions)
    total = 0
    for t in range(t_lo, t_hi + 1):
        intervals = sorted(
            (r.vt_lo, r.vt_end_at(t))
            for r in regions
            if r.tt_lo <= t <= r.tt_hi and r.vt_lo <= r.vt_end_at(t)
        )
        cur_lo: Optional[int] = None
        cur_hi = 0
        for lo, hi in intervals:
            if cur_lo is None:
                cur_lo, cur_hi = lo, hi
            elif lo <= cur_hi + 1:
                cur_hi = max(cur_hi, hi)
            else:
                total += cur_hi - cur_lo + 1
                cur_lo, cur_hi = lo, hi
        if cur_lo is not None:
            total += cur_hi - cur_lo + 1
    return total
