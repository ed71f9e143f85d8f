"""Crash-consistency harness: scripted and randomized crash/recover runs."""

import pytest

from repro.faults import FaultInjected
from repro.grtree import TreeInvariantError, verify_tree
from tests.faults.harness import (
    COMMITTED,
    CRASHED,
    FAILED,
    CrashHarness,
    random_workload,
    scripted_workload,
)
from tests.kernels import assert_kernels, assert_scalar, scalar_path


def spec_counters(harness) -> dict:
    """The counters of the index's kernel bundle, as SHOW STATS has them."""
    prefix = "spec.index.gi."
    return {
        name[len(prefix):]: value
        for name, value in harness.server.obs.metrics.snapshot().items()
        if name.startswith(prefix)
    }


class TestHealthyBaseline:
    def test_scripted_workload_without_faults(self):
        harness = CrashHarness()
        scripted_workload(harness)
        assert harness.crashed is None
        harness.verify()

    def test_recovery_without_a_crash_is_harmless(self):
        harness = CrashHarness()
        scripted_workload(harness)
        harness.recover()
        harness.verify()


class TestScriptedCrashes:
    def test_crash_during_commit_loses_only_that_transaction(self):
        harness = CrashHarness()
        scripted_workload(harness)
        harness.arm("wal.fsync", "crash")
        outcome = harness.run_batch(["doomed0", "doomed1"])
        assert outcome == CRASHED
        assert harness.crashed == "wal.fsync"
        harness.recover()
        harness.verify()
        assert "doomed0" not in harness.query_names()

    def test_crash_mid_transaction_discards_open_transaction(self):
        harness = CrashHarness()
        scripted_workload(harness)
        harness.arm("sbspace.page_write", "crash", hit=5)
        outcome = harness.run_batch([f"open{i}" for i in range(8)])
        assert outcome == CRASHED
        harness.recover()
        harness.verify()

    def test_committed_work_after_recovery_also_survives_next_crash(self):
        harness = CrashHarness()
        harness.run_batch(["first0", "first1"])
        harness.arm("wal.append", "crash", hit=3)
        harness.run_batch(["mid0", "mid1", "mid2"])
        harness.recover()
        harness.verify()
        # The recovered engine keeps working: new commits, a new crash.
        assert harness.run_batch(["second0", "second1"]) == COMMITTED
        harness.arm("buffer.flush", "crash")
        assert harness.autocommit_insert("doomed") == CRASHED
        harness.recover()
        harness.verify()

    def test_torn_page_write_is_healed_by_wal_redo(self):
        """Section 5.3: sbspace recovery is the *server's* job.  A torn
        write mangles the page, but the WAL holds the intended after
        image, so replay repairs the tree."""
        harness = CrashHarness()
        scripted_workload(harness)
        harness.arm("sbspace.page_write", "torn", times=1)
        outcome = harness.run_batch(["torn0", "torn1"])
        assert outcome == COMMITTED  # a torn write is silent at runtime
        assert harness.registry.stats()["sbspace.page_write.triggers"] == 1
        harness.recover()
        harness.verify()
        assert "torn0" in harness.query_names()

    def test_injected_error_rolls_back_and_engine_continues(self):
        harness = CrashHarness()
        harness.run_batch(["keep0", "keep1"])
        harness.arm("sbspace.page_write", "raise")
        assert harness.autocommit_insert("failed") == FAILED
        harness.disarm_all()
        assert harness.autocommit_insert("after") == COMMITTED
        # No crash happened: the live tree must already be consistent.
        harness.verify()


class TestRandomizedCrashes:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_random_workload_crash_recover_verify(self, seed):
        harness = CrashHarness()
        # Fire somewhere deep in the workload, deterministically.
        harness.arm("wal.append", "crash", hit=40 + 7 * seed)
        outcomes = random_workload(harness, seed=seed, steps=40)
        assert outcomes[-1] == CRASHED
        harness.recover()
        harness.verify()

    @pytest.mark.parametrize("seed", [5, 6])
    def test_probabilistic_page_write_crash(self, seed):
        harness = CrashHarness()
        harness.arm(
            "sbspace.page_write", "crash", probability=0.02, seed=seed
        )
        random_workload(harness, seed=seed, steps=40)
        harness.recover()
        harness.verify()

    def test_same_seed_same_history(self):
        def run(seed=9):
            harness = CrashHarness()
            harness.arm("wal.append", "crash", hit=60)
            outcomes = random_workload(harness, seed=seed, steps=40)
            return outcomes, sorted(harness.committed)

        assert run() == run()

    def test_specialize_knob_does_not_change_crash_history(self):
        """Crash, recover, verify with the GR-tree kernels and on the
        per-entry reference path: same outcomes, same survivors
        (bit-exactness under WAL replay, not just under clean growth).
        The reference leg covers the index handle rebuilt after
        recovery too: no kernel works before or after it."""

        def run():
            harness = CrashHarness()
            harness.arm("wal.append", "crash", hit=60)
            outcomes = random_workload(harness, seed=13, steps=40)
            before = spec_counters(harness)
            harness.recover()
            harness.verify()
            return (outcomes, sorted(harness.committed)), before, spec_counters(harness)

        kernel, _, after = run()
        assert_kernels(after, ("nodes_batched",))
        with scalar_path():
            scalar, before, after = run()
        assert_scalar(before)
        assert_scalar(after)
        assert kernel == scalar


class TestVerifierCatchesDamage:
    """The contract is only as strong as the verifier: prove it bites."""

    def test_verify_tree_detects_a_mangled_entry_count(self):
        harness = CrashHarness()
        scripted_workload(harness)
        with harness.open_tree() as tree:
            tree.size += 1  # simulate a recovery miscount
            with pytest.raises(TreeInvariantError, match="size mismatch"):
                verify_tree(tree)
            tree.size -= 1

    def test_verify_tree_detects_an_orphan_page(self):
        harness = CrashHarness()
        scripted_workload(harness)
        with harness.open_tree() as tree:
            # A page allocated but referenced by no parent: the classic
            # leak of a split that crashed halfway.
            tree.store.buffer.allocate()
            tree.store.buffer.flush()
            with pytest.raises(TreeInvariantError, match="orphan"):
                verify_tree(tree)

    def test_harness_detects_lost_committed_rows(self):
        harness = CrashHarness()
        scripted_workload(harness)
        harness.committed.add("never-inserted")
        with pytest.raises(AssertionError, match="lost"):
            harness.verify()

    def test_harness_detects_resurrected_rows(self):
        harness = CrashHarness()
        scripted_workload(harness)
        victim = harness.committed.pop()
        with pytest.raises(AssertionError, match="resurrected"):
            harness.verify()
        harness.committed.add(victim)
