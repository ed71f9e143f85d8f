"""Specialized-vs-generic equivalence: the whole tree, end to end.

The specialization layer's contract is *bit-exactness*: a tree grown
with the vectorized penalties and bounds must be byte-identical on disk
to one grown by the paper's literal call sequence, and a specialized
scan must return exactly the generic result set for every predicate.
These tests grow same-seed trees through the bitemporal workload
generator (inserts, logical deletes, updates, clock advance) in three
configurations -- vectorized bundle, scalar bundle (every entry point
declines), and no bundle -- and compare pages and answers.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grtree.entries import Predicate
from repro.grtree.node import GRNodeStore
from repro.grtree.specialize import SpecializedOps, numpy_available
from repro.grtree.tree import GRTree
from repro.storage.buffer import BufferPool
from repro.storage.pages import InMemoryPageStore
from repro.temporal.chronon import Clock
from repro.workloads import BitemporalWorkload, WorkloadConfig

STEPS = 220
PAGE_SIZE = 512


def grow(seed: int, spec) -> tuple:
    """Grow one tree through the randomized bitemporal workload."""
    clock = Clock(now=100)
    pool = BufferPool(InMemoryPageStore(page_size=PAGE_SIZE), capacity=256)
    store = GRNodeStore(pool)
    tree = GRTree.create(store, clock, time_horizon=20, spec=spec)
    workload = BitemporalWorkload(
        clock,
        WorkloadConfig(
            seed=seed,
            now_relative_fraction=0.5,
            delete_fraction=0.15,
            update_fraction=0.15,
        ),
    )
    workload.run(tree, STEPS)
    queries = [workload.window_query(30, 30) for _ in range(6)]
    return tree, pool, queries


def pages(tree, pool) -> dict:
    return {
        node.page_id: pool.read(node.page_id) for node in tree.iter_nodes()
    }


def answers(tree, queries) -> list:
    return [
        sorted(tree.search_all(q, predicate))
        for predicate in Predicate
        for q in queries
    ]


def assert_equivalent(seed: int, spec) -> None:
    spec_tree, spec_pool, queries = grow(seed, spec)
    gen_tree, gen_pool, _ = grow(seed, None)
    assert pages(spec_tree, spec_pool) == pages(gen_tree, gen_pool), (
        f"seed {seed}: specialized tree bytes diverged from generic"
    )
    spec_tree.check()
    assert answers(spec_tree, queries) == answers(gen_tree, queries), (
        f"seed {seed}: specialized search answers diverged"
    )


class TestEquivalence:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_vectorized_tree_is_byte_identical(self, seed):
        """With numpy the bundle vectorizes; without, it declines --
        either way the tree and every answer must match generic."""
        assert_equivalent(seed, SpecializedOps())

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=3, deadline=None)
    def test_scalar_bundle_is_byte_identical(self, seed):
        """``use_numpy=False`` forces the decline path even when numpy
        is importable -- the generic fallback must carry every call."""
        assert_equivalent(seed, SpecializedOps(use_numpy=False))

    def test_vectorized_bundle_actually_vectorized(self):
        """Guard against the suite passing vacuously: when numpy is
        present the bundle must have batched real work."""
        spec = SpecializedOps()
        spec_tree, _, queries = grow(7, spec)
        for q in queries:
            spec_tree.search_all(q)
        stats = spec.stats.to_dict()
        if numpy_available():
            assert stats["choices_vectorized"] > 0
            assert stats["bounds_vectorized"] > 0
            assert stats["nodes_batched"] > 0
        else:
            assert stats["nodes_batched"] == 0
            assert stats["choices_vectorized"] == 0

    def test_detach_mid_life_keeps_answers(self):
        """A tree opened generic over pages written specialized (and the
        reverse) reads identically -- nothing spec-specific is on disk."""
        spec_tree, _, queries = grow(11, SpecializedOps())
        expected = answers(spec_tree, queries)
        spec_tree.spec = None
        assert answers(spec_tree, queries) == expected
        spec_tree.spec = SpecializedOps(use_numpy=False)
        assert answers(spec_tree, queries) == expected
