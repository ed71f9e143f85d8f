"""The least-overlap shortcut: exact, on the kernel and the scalar path.

When some entry's region already covers the insertion key, the R* rank
(overlap delta, area delta, area) is decided without the pairwise
overlap matrices (see :mod:`repro.grtree.specialize`).  That rests on
two facts about union bounds of integer cell sets, checked here
directly, and the choice is held against the full ranking over seeded
random nodes of 8-45 entries with ``UC``/``NOW`` timestamps and the
``Rectangle`` and ``Hidden`` flags.
"""

import random

import pytest

from repro.grtree.entries import GREntry, bound_entries
from repro.grtree.node import GRNodeStore
from repro.grtree.specialize import SpecializedOps, numpy_available
from repro.grtree.tree import GRTree
from repro.storage.buffer import BufferPool
from repro.storage.pages import InMemoryPageStore
from repro.temporal.chronon import Clock
from repro.temporal.variables import NOW, UC

from tests.grtree.test_specialize import FakeNode
from tests.kernels import scalar_path

NOW_BASE = 100
CASES = 120


def _leaf(rng: random.Random, vt_max: int = 160) -> GREntry:
    """A leaf entry insertable at NOW_BASE."""
    tt_begin = rng.randint(50, NOW_BASE)
    tt_end = UC if rng.random() < 0.5 else rng.randint(tt_begin, NOW_BASE)
    if rng.random() < 0.5:
        return GREntry(tt_begin, tt_end, rng.randint(0, tt_begin), NOW)
    vt_begin = rng.randint(0, vt_max)
    return GREntry(tt_begin, tt_end, vt_begin, vt_begin + rng.randint(0, 60))


def _internal(rng: random.Random) -> GREntry:
    """A parent entry: the bound of a few leaves (flags as the tree
    writes them), or a leaf given any flags a parent entry may carry."""
    if rng.random() < 0.5:
        entry = bound_entries(
            [_leaf(rng) for _ in range(rng.randint(1, 4))], NOW_BASE
        )
    else:
        entry = _leaf(rng)
        if entry.vt_end is NOW:
            entry.rectangle = rng.random() < 0.5
        else:
            entry.rectangle = True
            # Hidden marks a growing stair under a fixed top.
            if entry.tt_end is UC and entry.vt_begin <= entry.tt_begin:
                entry.hidden = rng.random() < 0.5
    entry.child = 1
    return entry


def _cases():
    """(entries, key region, evaluation time).  Keys reach further up
    in valid time than the entries, so some nodes hold no entry that
    covers theirs and take the full ranking."""
    rng = random.Random(41)
    for _ in range(CASES):
        t = NOW_BASE + rng.randint(0, 20)
        key = _leaf(rng, vt_max=300)
        entries = [_internal(rng) for _ in range(rng.randint(8, 45))]
        for _ in range(rng.choice((0, 0, 1, 3))):
            cover = bound_entries([key, _leaf(rng)], NOW_BASE)
            cover.child = 1
            entries[rng.randrange(len(entries))] = cover
        yield entries, key.region(t), t


def _deltas(entries, region, t):
    """Each entry's (overlap delta, area delta, area), by the Region
    methods: the full R* ranking, with no shortcut."""
    regions = [e.region(t) for e in entries]
    out = []
    for i, r in enumerate(regions):
        grown = r.union_bounds(region)
        overlap = sum(
            grown.overlap_area(other) - r.overlap_area(other)
            for j, other in enumerate(regions)
            if j != i
        )
        out.append((overlap, grown.area() - r.area(), r.area()))
    return out


@pytest.fixture(scope="module")
def cases():
    """Each case with its ranks and the index the full ranking picks."""
    out = []
    for entries, region, t in _cases():
        ranks = _deltas(entries, region, t)
        best = min(range(len(ranks)), key=ranks.__getitem__)
        out.append((entries, region, t, ranks, best))
    return out


def test_cases_exercise_the_shortcut(cases):
    covered = sum(
        any(growth == 0 for _, growth, _ in ranks) for *_, ranks, _ in cases
    )
    assert 0.3 * len(cases) < covered < len(cases)


def test_overlap_deltas_are_never_negative_and_vanish_on_cover(cases):
    for *_, ranks, _ in cases:
        for overlap, growth, _ in ranks:
            assert overlap >= 0
            assert growth >= 0
            if growth == 0:
                assert overlap == 0


@pytest.mark.skipif(not numpy_available(), reason="kernel path needs numpy")
def test_kernel_choice_equals_the_full_ranking(cases):
    spec = SpecializedOps()
    for entries, region, t, _, best in cases:
        assert spec.least_overlap_enlargement(FakeNode(entries), region, t) == best


def test_scalar_choice_equals_the_full_ranking(cases):
    with scalar_path():
        for entries, region, t, _, best in cases:
            pool = BufferPool(InMemoryPageStore(page_size=512))
            tree = GRTree(GRNodeStore(pool), Clock(now=t), time_horizon=0)
            assert tree._least_overlap_enlargement(FakeNode(entries), region) == best
