"""Structural invariant verification for (recovered) GR-trees.

The walker is the R*-tree skeleton's, shared by every dynamic tree
(:meth:`repro.rtree.rstar.RStarTree.violations`): it never stops at the
first problem -- it walks the whole structure and reports *every*
violation, because a recovery bug rarely breaks exactly one invariant.
The crash-consistency harness runs it against trees rebuilt by WAL
replay; ``CHECK INDEX`` runs it through ``GRTree.check``.

What the walker checks on every tree: reachability (no orphan page
leaked by a crashed split or condense, every child pointer resolves, no
page referenced twice), shape (leaves at level 0, child level = parent
level - 1, height), entry counts, parent bounds, and leaf entries vs
``size``.  The GR-tree's hooks add:

* **containment at two times** -- every parent bound contains every
  child region at the current time *and* at ``now + CHECK_HORIZON``
  (growing children must not outgrow their bounds);
* **stair-shape validity** (:func:`check_entry_shape`) -- every entry
  decodes to a non-empty region, ground timestamp pairs are ordered,
  the Hidden flag only appears on fixed-top rectangles, and leaf
  entries carry no internal-only flags.
"""

from __future__ import annotations

from typing import List

from repro.rtree.rstar import TreeInvariantError
from repro.temporal.variables import is_ground

__all__ = ["TreeInvariantError", "check_entry_shape", "check_tree", "verify_tree"]


def check_entry_shape(entry, leaf: bool, where: str, now, violations: List[str]) -> None:
    """Per-entry stair-shape validity."""
    if leaf and (entry.rectangle or entry.hidden):
        violations.append(f"{where}: leaf entry carries internal flags")
    if entry.hidden and not entry.rectangle:
        violations.append(f"{where}: Hidden flag without Rectangle flag")
    if entry.hidden and not is_ground(entry.vt_end):
        violations.append(f"{where}: Hidden flag on an unbounded VTend")
    if is_ground(entry.tt_end) and entry.tt_end < entry.tt_begin:
        violations.append(f"{where}: TTend {entry.tt_end} < TTbegin {entry.tt_begin}")
    if is_ground(entry.vt_end) and entry.vt_end < entry.vt_begin:
        violations.append(f"{where}: VTend {entry.vt_end} < VTbegin {entry.vt_begin}")
    try:
        entry.region(now)
    except ValueError as exc:
        violations.append(f"{where}: undecodable region: {exc}")


def check_tree(tree) -> List[str]:
    """Walk *tree* and return every invariant violation found."""
    return tree.violations()


def verify_tree(tree) -> None:
    """Raise :class:`TreeInvariantError` listing every violation."""
    tree.check()
