"""Breaking complex qualifications into simple ones (Section 6.3).

"For the manipulation of the qualification descriptor, we had to code
the logic for how to break a complex qualification (containing several
strategy functions separated by AND's or OR's) into simple ones ... and
for how to invoke appropriate strategy functions."

The qualification descriptor arrives as a tree of AND/OR nodes over
single-column strategy predicates.  The blade normalizes it into
disjunctive normal form: a list of OR branches, each a list of simple
predicates.  A scan runs one index probe per branch -- driven by the
branch's first predicate -- and filters the probe's results through the
branch's remaining predicates, de-duplicating rowids across branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List

from repro.grtree.entries import Predicate
from repro.server.access_method import (
    BooleanOperator,
    CompoundQualification,
    Qualification,
    SimpleQualification,
)
from repro.server.errors import AccessMethodError
from repro.datablade.strategies import COMMUTED_PREDICATES, HARD_CODED_PREDICATES
from repro.temporal.extent import TimeExtent


def to_dnf(
    qual: Qualification, leaf: Callable[[SimpleQualification], Any]
) -> List[list]:
    """Normalize a qualification tree into DNF branches of whatever
    *leaf* makes of each simple predicate (every blade plans with this)."""
    if isinstance(qual, SimpleQualification):
        return [[leaf(qual)]]
    if not isinstance(qual, CompoundQualification):
        raise AccessMethodError(f"unsupported qualification node {qual!r}")
    child_dnfs = [to_dnf(child, leaf) for child in qual.children]
    if qual.operator is BooleanOperator.OR:
        return [branch for dnf in child_dnfs for branch in dnf]
    # AND: the cross product of the children's branches.
    result: List[list] = [[]]
    for dnf in child_dnfs:
        result = [existing + branch for existing in result for branch in dnf]
    return result


@dataclass(frozen=True)
class SimplePredicate:
    """A resolved simple predicate: internal predicate + query extent."""

    predicate: Predicate
    query: TimeExtent


@dataclass
class QualificationPlan:
    """DNF of the qualification: OR over AND-branches of predicates."""

    branches: List[List[SimplePredicate]]

    @property
    def predicate_count(self) -> int:
        return sum(len(branch) for branch in self.branches)


def resolve_simple(qual: SimpleQualification) -> SimplePredicate:
    """Dynamically resolve which strategy function the qualification
    names, mapping to the hard-coded internal version (Section 5.2)."""
    try:
        predicate = HARD_CODED_PREDICATES[qual.function.lower()]
    except KeyError:
        raise AccessMethodError(
            f"{qual.function} is not a GR-tree strategy function"
        ) from None
    if not qual.has_constant:
        raise AccessMethodError(
            f"{qual.function} requires a constant time extent argument"
        )
    if not isinstance(qual.constant, TimeExtent):
        raise AccessMethodError(
            f"{qual.function} constant must be a GRT_TimeExtent_t, "
            f"got {type(qual.constant).__name__}"
        )
    if qual.constant_first:
        predicate = COMMUTED_PREDICATES[predicate]
    return SimplePredicate(predicate, qual.constant)


def build_plan(qual: Qualification) -> QualificationPlan:
    """The GR-tree's plan for a qualification tree."""
    return QualificationPlan(to_dnf(qual, resolve_simple))
