"""Specialized-vs-generic equivalence: the whole tree, end to end.

The specialization layer's contract is *bit-exactness*: a tree grown
with the vectorized penalties and bounds must be byte-identical on disk
to one grown by the paper's literal call sequence, and a specialized
scan must return exactly the generic result set for every predicate.
These tests grow same-seed trees through the bitemporal workload
generator (inserts, logical deletes, updates, clock advance), once with
the kernels and once on the per-entry reference path
(:func:`tests.kernels.scalar_path`), and compare pages and answers.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grtree.entries import Predicate
from repro.grtree.node import GRNodeStore
from repro.grtree.specialize import numpy_available
from repro.grtree.tree import GRTree
from repro.storage.buffer import BufferPool
from repro.storage.pages import InMemoryPageStore
from repro.temporal.chronon import Clock
from repro.workloads import BitemporalWorkload, WorkloadConfig

from tests.kernels import assert_kernels, assert_scalar, kernel_work, scalar_path

STEPS = 220
PAGE_SIZE = 512


def grow(seed: int) -> tuple:
    """Grow one tree through the randomized bitemporal workload."""
    clock = Clock(now=100)
    pool = BufferPool(InMemoryPageStore(page_size=PAGE_SIZE), capacity=256)
    store = GRNodeStore(pool)
    tree = GRTree.create(store, clock, time_horizon=20)
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


def assert_equivalent(seed: int, kernels: bool = True) -> None:
    """Grow a tree as the caller's path runs, and one on the reference
    path; compare their pages and answers, and check what each bundle
    did (so a reference leg that ran kernels fails)."""
    spec_tree, spec_pool, queries = grow(seed)
    with scalar_path():
        gen_tree, gen_pool, _ = grow(seed)
        gen_answers = answers(gen_tree, queries)
    assert pages(spec_tree, spec_pool) == pages(gen_tree, gen_pool), (
        f"seed {seed}: kernel tree bytes diverged from the reference"
    )
    spec_tree.check()
    assert answers(spec_tree, queries) == gen_answers, (
        f"seed {seed}: kernel search answers diverged"
    )
    assert_scalar(gen_tree.spec.stats)
    if kernels:
        # Scans on these small pages may meet no leaf of MIN_BATCH
        # entries, so nodes_batched can stay 0 for some seeds.
        assert_kernels(
            spec_tree.spec.stats,
            ("scans_compiled", "choices_vectorized", "bounds_vectorized"),
        )
    else:
        assert_scalar(spec_tree.spec.stats)


class TestEquivalence:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_vectorized_tree_is_byte_identical(self, seed):
        """With numpy the kernels run; without, they decline -- either
        way the tree and every answer must match the reference path."""
        assert_equivalent(seed)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=3, deadline=None)
    def test_scalar_bundle_is_byte_identical(self, seed):
        """Both trees on the reference path: the per-entry loops alone
        must reproduce themselves (and the kernels must stay idle)."""
        with scalar_path():
            assert_equivalent(seed, kernels=False)

    def test_vectorized_bundle_actually_vectorized(self):
        """Guard against the suite passing vacuously: when numpy is
        present the kernels must have batched real work."""
        tree, _, queries = grow(7)
        for q in queries:
            tree.search_all(q)
        stats = tree.spec.stats
        assert_kernels(stats)
        if not numpy_available():
            assert_scalar(stats)

    def test_detach_mid_life_keeps_answers(self):
        """A tree read on the reference path over pages the kernels
        wrote (and the reverse) answers identically -- nothing
        kernel-specific is on disk."""
        tree, _, queries = grow(11)
        expected = answers(tree, queries)
        with scalar_path():
            before = tree.spec.stats.to_dict()
            assert answers(tree, queries) == expected
            assert kernel_work(tree.spec.stats) == kernel_work(before)
            scalar_tree, _, _ = grow(11)
        assert answers(scalar_tree, queries) == expected
