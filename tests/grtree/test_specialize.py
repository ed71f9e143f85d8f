"""Unit and property tests for the specialization layer.

Every vectorized kernel is held against the generic per-entry call
sequence it replaces: the four strategy predicates against
:meth:`Predicate.leaf_test`/:meth:`Predicate.internal_test`, the R*
penalties against the literal loop the tree falls back to, and the
vectorized bound against :func:`bound_entries` -- same index, same
timestamps, same flags, for the same entry lists.  The decline contract
(``None`` routes the node back through the generic path) is pinned down
explicitly: no numpy (:func:`tests.kernels.scalar_path` hides it), small
nodes, and entries the generic path would raise on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grtree.entries import GREntry, Predicate, bound_entries
from repro.grtree.specialize import (
    MIN_BATCH,
    SpecializedOps,
    numpy_available,
)
from repro.temporal.variables import NOW, UC

from tests.grtree.test_properties import leaf_entries, internal_entries
from tests.kernels import assert_scalar, scalar_path

NOW_BASE = 100

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="vectorized path requires numpy"
)


class FakeNode:
    """The slice of GRNode the specialization layer consumes."""

    _next_page = iter(range(10_000, 1_000_000))

    def __init__(self, entries):
        self.entries = entries
        self.page_id = next(self._next_page)
        self.cols = None


@st.composite
def batches(draw, strategy, min_size=MIN_BATCH, max_size=MIN_BATCH + 8):
    return draw(st.lists(strategy, min_size=min_size, max_size=max_size))


@st.composite
def query_regions(draw):
    """Canonical query regions, drawn through the entry decoder."""
    entry = draw(leaf_entries())
    at = draw(st.integers(min_value=NOW_BASE, max_value=NOW_BASE + 20))
    return entry.region(at)


# ----------------------------------------------------------------------
# Predicate kernels vs the generic strategy functions
# ----------------------------------------------------------------------


@needs_numpy
class TestScanKernels:
    @given(
        batches(leaf_entries()),
        query_regions(),
        st.sampled_from(list(Predicate)),
        st.integers(min_value=NOW_BASE, max_value=NOW_BASE + 20),
    )
    @settings(max_examples=300, deadline=None)
    def test_leaf_matches_equal_generic_leaf_test(
        self, entries, query, predicate, now
    ):
        spec = SpecializedOps()
        matcher = spec.compile_scan(predicate, query, now)
        node = FakeNode(entries)
        hits = matcher.leaf_matches(node)
        assert hits is not None, "batch-size node must not decline"
        expected = [
            i
            for i, e in enumerate(entries)
            if predicate.leaf_test(e.region(now), query)
        ]
        assert hits == expected

    @given(
        batches(internal_entries()),
        query_regions(),
        st.sampled_from(list(Predicate)),
        st.integers(min_value=NOW_BASE, max_value=NOW_BASE + 20),
    )
    @settings(max_examples=300, deadline=None)
    def test_internal_mask_equals_generic_internal_test(
        self, entries, query, predicate, now
    ):
        spec = SpecializedOps()
        matcher = spec.compile_scan(predicate, query, now)
        node = FakeNode(entries)
        mask = matcher.internal_mask(node)
        assert mask is not None
        expected = [
            predicate.internal_test(e.region(now), query) for e in entries
        ]
        assert mask.tolist() == expected

    def test_mask_cache_hits_on_unchanged_columns(self):
        entries = [
            GREntry(50 + i, UC, 40, NOW) for i in range(MIN_BATCH)
        ]
        node = FakeNode(entries)
        spec = SpecializedOps()
        query = entries[0].region(NOW_BASE)
        matcher = spec.compile_scan(Predicate.OVERLAPS, query, NOW_BASE)
        first = matcher.internal_mask(node)
        assert spec.stats.mask_cache_hits == 0
        second = matcher.internal_mask(node)
        assert second.tolist() == first.tolist()
        assert spec.stats.mask_cache_hits == 1
        # A store write drops node.cols; the stale mask must not be
        # served for the rebuilt columns.
        node.cols = None
        node.entries = entries[:-1] + [GREntry(99, UC, 40, NOW)]
        third = matcher.internal_mask(node)
        assert spec.stats.mask_cache_hits == 1
        assert third is not None


# ----------------------------------------------------------------------
# R* penalties vs the generic loops
# ----------------------------------------------------------------------


def ref_least_area(entries, region, t):
    best, best_key = 0, None
    for i, entry in enumerate(entries):
        r = entry.region(t)
        key = (r.union_bounds(region).area() - r.area(), r.area())
        if best_key is None or key < best_key:
            best, best_key = i, key
    return best


def ref_least_overlap(entries, region, t):
    regions = [e.region(t) for e in entries]
    best, best_key = 0, None
    for i, r in enumerate(regions):
        enlarged = r.union_bounds(region)
        before = after = 0
        for j, other in enumerate(regions):
            if j == i:
                continue
            inter = r.intersection(other)
            if inter is not None:
                before += inter.area()
            grown = enlarged.intersection(other)
            if grown is not None:
                after += grown.area()
        key = (after - before, enlarged.area() - r.area(), r.area())
        if best_key is None or key < best_key:
            best, best_key = i, key
    return best


@needs_numpy
class TestPenalties:
    @given(
        batches(internal_entries()),
        query_regions(),
        st.integers(min_value=NOW_BASE, max_value=NOW_BASE + 20),
    )
    @settings(max_examples=300, deadline=None)
    def test_least_area_enlargement_matches_generic(
        self, entries, region, t
    ):
        spec = SpecializedOps()
        got = spec.least_area_enlargement(FakeNode(entries), region, t)
        assert got is not None
        assert got == ref_least_area(entries, region, t)

    @given(
        batches(internal_entries()),
        query_regions(),
        st.integers(min_value=NOW_BASE, max_value=NOW_BASE + 20),
    )
    @settings(max_examples=300, deadline=None)
    def test_least_overlap_enlargement_matches_generic(
        self, entries, region, t
    ):
        spec = SpecializedOps()
        got = spec.least_overlap_enlargement(FakeNode(entries), region, t)
        assert got is not None
        assert got == ref_least_overlap(entries, region, t)


# ----------------------------------------------------------------------
# Vectorized bound vs bound_entries
# ----------------------------------------------------------------------


@needs_numpy
class TestBound:
    @given(
        batches(st.one_of(leaf_entries(), internal_entries())),
        st.integers(min_value=NOW_BASE, max_value=NOW_BASE + 20),
    )
    @settings(max_examples=400, deadline=None)
    def test_bound_matches_bound_entries_exactly(self, entries, now):
        spec = SpecializedOps()
        got = spec.bound(FakeNode(entries), now)
        assert got is not None
        expected = bound_entries(entries, now)
        assert (
            got.tt_begin,
            got.tt_end,
            got.vt_begin,
            got.vt_end,
            got.rectangle,
            got.hidden,
        ) == (
            expected.tt_begin,
            expected.tt_end,
            expected.vt_begin,
            expected.vt_end,
            expected.rectangle,
            expected.hidden,
        )

    def test_bound_declines_when_generic_would_raise(self):
        # A ground TTend beyond the current time is the documented
        # bound_entries error; the vectorized path must route it back.
        entries = [
            GREntry(50, NOW_BASE + 5, 40, 60) for _ in range(MIN_BATCH)
        ]
        spec = SpecializedOps()
        assert spec.bound(FakeNode(entries), NOW_BASE) is None
        with pytest.raises(ValueError):
            bound_entries(entries, NOW_BASE)


# ----------------------------------------------------------------------
# The decline contract
# ----------------------------------------------------------------------


class TestDecline:
    def _entries(self, n=MIN_BATCH):
        return [GREntry(50 + i, UC, 40, NOW) for i in range(n)]

    def test_scalar_bundle_declines_everything(self):
        spec = SpecializedOps()
        entries = self._entries()
        node = FakeNode(entries)
        query = entries[0].region(NOW_BASE)
        with scalar_path():
            assert not spec.vectorized
            assert spec.compile_scan(Predicate.OVERLAPS, query, NOW_BASE) is None
            assert spec.least_area_enlargement(node, query, NOW_BASE) is None
            assert spec.least_overlap_enlargement(node, query, NOW_BASE) is None
            assert spec.bound(node, NOW_BASE) is None
        assert_scalar(spec.stats)

    @needs_numpy
    def test_small_nodes_decline(self):
        spec = SpecializedOps()
        entries = self._entries(MIN_BATCH - 1)
        node = FakeNode(entries)
        query = entries[0].region(NOW_BASE)
        matcher = spec.compile_scan(Predicate.OVERLAPS, query, NOW_BASE)
        assert matcher.leaf_matches(node) is None
        assert spec.least_area_enlargement(node, query, NOW_BASE) is None
        assert spec.bound(node, NOW_BASE) is None

    @needs_numpy
    def test_empty_region_entry_declines_scan(self):
        # This entry decodes to an empty region (vt_begin above the
        # resolved top): the generic loop raises, so the batch declines.
        entries = self._entries()
        entries[3] = GREntry(50, 60, 200, NOW)
        node = FakeNode(entries)
        spec = SpecializedOps()
        query = entries[0].region(NOW_BASE)
        matcher = spec.compile_scan(Predicate.OVERLAPS, query, NOW_BASE)
        assert matcher.leaf_matches(node) is None
        assert spec.stats.nodes_fallback == 1
        with pytest.raises(ValueError):
            entries[3].region(NOW_BASE)
