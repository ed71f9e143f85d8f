"""The Griffin-style hybrid access method (``hblade_am``).

One virtual index, two structures over the same keys: a
:class:`~repro.hblade.directory.HashDirectory` for point lookups and the
existing :class:`~repro.btree.tree.BPlusTree` for range scans, each in
its own smart blob of the index's sbspace.  ``hb_beginscan`` converts
the qualification to DNF and routes every branch: an equality branch
(bounds collapse to one key) probes the hash side, anything else walks
the tree side -- the plan-visible split Griffin argues for (PAPERS.md).

Consistency between the paths is the precision-locking-style
:class:`~repro.hblade.guard.PrecisionGuard`: every mutation publishes
its key around the two-structure update window (hash write first, tree
write second -- each behind its own ``SET FAULT`` failpoint), and a
hash-path probe that overlaps a publication falls back to the tree path
instead of trusting the possibly-torn hash view.

The blade *is* the B+-tree blade (:mod:`repro.bblade.blade`: key codec,
range planning, dynamic support resolution) plus the hash side.  Step 4
extensibility works as there, doubled: the
operator class supplies *two* support functions, ``HB_Compare`` for the
tree order and ``HB_Hash`` for bucket placement, both resolved
dynamically once per index open.  Contract between them: values that compare
equal must hash equal, and the key codec must be injective up to
comparator equality -- the blade canonicalizes the one stock violation
(IEEE ``-0.0`` vs ``0.0``) before encoding.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.bblade.blade import (
    INDEXABLE_TYPES,
    BTreeDataBlade,
    comparison_strategies,
    comparison_udrs,
    range_bounds,
    unbound,
)
from repro.datablade.bladesmith import OpclassDefinition
from repro.datablade.kit import MaterializedScan, save_root
from repro.hblade.check import verify_hybrid
from repro.hblade.directory import HashDirectory, fnv1a
from repro.hblade.guard import PrecisionGuard
from repro.server.access_method import IndexDescriptor
from repro.server.errors import AccessMethodError

#: am_scancost terms: a hash probe is one bucket chain, a tree branch a
#: root-to-leaf descent plus leaf walking.
_POINT_COST = 1.5
_RANGE_COST_PAD = 2.0


def _canonical(value: Any) -> Any:
    """Collapse comparator-equal values with distinct encodings.

    The hash path matches on encoded bytes, so the codec must be
    injective up to ``HB_Compare`` equality; IEEE floats violate that
    once (``-0.0 == 0.0`` but the ``send()`` bytes differ).
    """
    if isinstance(value, float) and value == 0.0:
        return 0.0
    return value


def hb_hash_udr(value) -> int:
    """The default ``HB_Hash`` support: deterministic FNV-1a over the
    value's canonical text.  Satisfies the opclass contract with the
    natural comparator: equal values produce equal text."""
    return fnv1a(repr(_canonical(value)).encode("utf-8"))


class HybridDataBlade(BTreeDataBlade):
    PREFIX = "hb"
    LIBRARY_PATH = "usr/functions/hblade.bld"
    AM_NAME = "hblade_am"
    METADATA_TABLE = "hblade_indexdata"
    METADATA_COLUMNS = (
        ("indexname", "LVARCHAR"),
        ("treehandle", "LVARCHAR"),
        ("hashhandle", "LVARCHAR"),
    )
    OPCLASSES = (
        OpclassDefinition(
            "hblade_ops",
            INDEXABLE_TYPES,
            strategies=comparison_strategies("HB"),
            supports=(
                ("HB_Compare", "hb_compare_udr", "int", 2),
                ("HB_Hash", "hb_hash_udr", "int", 1),
            ),
        ),
    )
    COMMUTATORS = (
        ("HB_GreaterThan", "HB_LessThan"),
        ("HB_LessThan", "HB_GreaterThan"),
        ("HB_GreaterThanOrEqual", "HB_LessThanOrEqual"),
        ("HB_LessThanOrEqual", "HB_GreaterThanOrEqual"),
        ("HB_Equal", "HB_Equal"),
    )
    NEGATORS = ()
    BLOBS = ("tree", "hash")
    MAGIC = b"HTB1"

    def __init__(self, server) -> None:
        super().__init__(server)
        #: One guard per index name; guards are process-local state (a
        #: crash drops them with the rest of volatile memory).
        self._guards: Dict[str, PrecisionGuard] = {}

    def _guard(self, index_name: str) -> PrecisionGuard:
        return self._guards.setdefault(index_name.lower(), PrecisionGuard())

    def forget(self, index_name: str) -> None:
        super().forget(index_name)
        self._guards.pop(index_name.lower(), None)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def encode(self, td: IndexDescriptor, value: Any) -> bytes:
        return super().encode(td, _canonical(value))

    def validate(self, td: IndexDescriptor) -> None:
        super().validate(td)
        self._support_name(td, "hash")

    def bind(self, td: IndexDescriptor) -> None:
        super().bind(td)
        td.user_data["directory"].hash_key = self._support(td, "hash", 1)

    def option_spec(self):
        """``hash_path = 'off'`` serves point lookups from the tree too;
        ``buckets``/``split_threshold`` shape the hash directory."""
        return {
            **super().option_spec(),
            "hash_path": (True, 0),
            "buckets": (8, 1),
            "split_threshold": (16, 1),
        }

    def build(self, td, pools, meta, options, obs) -> Dict[str, Any]:
        fresh = meta is None
        tree = self._open_tree(td, pools["tree"], fresh)
        if fresh:
            directory = HashDirectory.create(
                pools["hash"],
                unbound,
                initial_buckets=options["buckets"],
                split_threshold=options["split_threshold"],
            )
        else:
            directory = HashDirectory.open(
                pools["hash"], unbound, split_threshold=options["split_threshold"]
            )
        return {"tree": tree, "directory": directory}

    def save(self, td: IndexDescriptor) -> None:
        save_root(td.user_data["pools"]["tree"], self.MAGIC, td.user_data["tree"])
        td.user_data["directory"].save()

    # -- scanning ------------------------------------------------------

    def cursor(self, td: IndexDescriptor, branches) -> MaterializedScan:
        """Route every branch to its path, and say so in a span."""
        hash_on = td.user_data["options"]["hash_path"]
        served = {"hash": 0, "tree": 0}
        scan = MaterializedScan(
            branches,
            lambda branch: self._route(td, branch, hash_on, served),
            lambda key: self.decode(td, key),
        )
        obs = self.server.obs
        if obs.enabled:
            mixed = served["hash"] and served["tree"]
            with obs.span(
                "hblade.scan",
                index=td.index_name,
                path="mixed" if mixed else "hash" if served["hash"] else "tree",
                hash_branches=served["hash"],
                tree_branches=served["tree"],
            ):
                pass
        return scan

    def _route(self, td, branch, hash_on: bool, served: Dict[str, int]):
        """An equality branch (bounds collapse to one key) probes the
        hash side, anything else walks the tree side."""
        inc = self.server.obs.inc
        tree = td.user_data["tree"]
        low, high, low_inc, high_inc = range_bounds(
            tree, branch, lambda value: self.encode(td, value)
        )
        is_point = (
            low is not None and high is not None
            and low_inc and high_inc and low == high
        )
        inc("hblade.point_lookups" if is_point else "hblade.range_scans")
        if is_point and hash_on:
            matches, used_hash = self._probe_hash(td, low)
            served["hash" if used_hash else "tree"] += 1
            return [(rowid, fragid, low) for rowid, fragid in matches]
        served["tree"] += 1
        inc("hblade.tree_path")
        return [
            (rowid, fragid, key)
            for key, rowid, fragid in tree.search_range(
                low, high, low_inc, high_inc
            )
        ]

    def _probe_hash(self, td, key: bytes) -> Tuple[List[Tuple[int, int]], bool]:
        """The guarded point lookup: probe, then validate against the
        precision guard; any overlap falls back to the tree path.

        Returns ``(matches, used_hash)`` so the caller can attribute
        the branch to the path that actually served it."""
        inc = self.server.obs.inc
        guard = self._guard(td.index_name)
        stamp = guard.read_stamp()
        if not guard.conflicts(key):
            matches = td.user_data["directory"].lookup(key)
            if guard.validate(key, stamp):
                inc("hblade.hash_path")
                return matches, True
        guard.record_fallback()
        inc("hblade.guard_fallbacks")
        inc("hblade.tree_path")
        return td.user_data["tree"].search_equal(key), False

    # -- updates -------------------------------------------------------

    def insert_entry(self, td: IndexDescriptor, key: bytes, rowid: int) -> None:
        directory: HashDirectory = td.user_data["directory"]
        faults = self.server.faults
        rehashes_before = directory.rehashes
        with self._guard(td.index_name).publishing(key):
            # Hash side first, tree side second: the window between the
            # two is exactly what the guard and the crash matrix probe.
            if faults is not None:
                faults.hit("hblade.hash_write")
            directory.insert(key, rowid)
            if faults is not None:
                faults.hit("hblade.tree_write")
            td.user_data["tree"].insert(key, rowid)
        self.server.obs.inc("hblade.inserts")
        if directory.rehashes != rehashes_before:
            self.server.obs.inc("hblade.rehashes")

    def delete_entry(self, td: IndexDescriptor, key: bytes, rowid: int) -> bool:
        faults = self.server.faults
        with self._guard(td.index_name).publishing(key):
            if faults is not None:
                faults.hit("hblade.hash_write")
            hash_found = td.user_data["directory"].delete(key, rowid)
            if faults is not None:
                faults.hit("hblade.tree_write")
            tree_found = td.user_data["tree"].delete(key, rowid)
        if not (hash_found and tree_found):
            raise AccessMethodError(
                f"index {td.index_name} has no entry for rowid {rowid} "
                f"(hash={hash_found}, tree={tree_found})"
            )
        self.server.obs.inc("hblade.deletes")
        return True

    # -- cost, stats, integrity ----------------------------------------

    def cost(self, td, structures, branches) -> float:
        """The optimizer hook: equality branches are priced as hash
        probes, range branches as tree descents -- so against a plain
        B+-tree index on the same column, equality predicates route
        here and the plan output shows it."""
        hash_on = structures["options"]["hash_path"]
        descent = structures["tree"].height + _RANGE_COST_PAD
        # Point detection without an open index: an Equal predicate pins
        # both bounds of its branch to one constant.
        return sum(
            _POINT_COST
            if hash_on and any(name == "equal" for name, _ in branch)
            else descent
            for branch in branches
        )

    def statistics(self, td: IndexDescriptor) -> Dict[str, float]:
        stats: Dict[str, float] = dict(td.user_data["tree"].stats())
        for name, value in td.user_data["directory"].stats().items():
            stats[f"hash_{name}"] = value
        stats["guard_fallbacks"] = self._guard(td.index_name).fallbacks
        return stats

    def verify(self, td: IndexDescriptor) -> None:
        verify_hybrid(td.user_data["tree"], td.user_data["directory"])

    def udrs(self) -> Dict[str, Callable]:
        return {**comparison_udrs(self.PREFIX), "hb_hash_udr": hb_hash_udr}


def register_hybrid_blade(server) -> HybridDataBlade:
    """Install the hybrid hash + B+-tree DataBlade.  The one ingredient
    the B+-tree registration lacks is the second support function:
    ``HB_Hash`` joins ``HB_Compare`` in the opclass SUPPORT list, and an
    alternative opclass can redefine either half -- order and placement
    -- as long as comparator-equal values hash equal."""
    return HybridDataBlade(server).install()
