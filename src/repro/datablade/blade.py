"""The GR-tree DataBlade: purpose functions and blade state (Appendix A).

The fourteen ``grt_*`` purpose functions follow the steps of the paper's
Table 5, traced step by step under the ``grt`` trace class so that the
Table 5 benchmark can verify them.  The lifecycle itself is the blade
kit's (:mod:`repro.datablade.kit`); this module holds what is the
GR-tree's own.  Blade state lives where the paper puts it:

* the ``Tree`` object and the open BLOB in the *index descriptor*'s user
  data (created by ``grt_create``/``grt_open``, deleted by ``grt_close``);
* the ``Cursor`` in the *scan descriptor*'s user data (created by
  ``grt_beginscan`` from the qualification descriptor);
* the transaction's constant current-time value in *named memory* keyed
  by session id, freed by a transaction-end callback (Section 5.4);
* the (index name, fragment id, BLOB handle) record in the table
  associated with the access method, ``grtree_indexdata``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.datablade.bladesmith import OpclassDefinition
from repro.datablade.kit import AccessMethodBlade
from repro.datablade.qualification import SimplePredicate, resolve_simple
from repro.datablade.strategies import (
    HARD_CODED_PREDICATES,
    make_strategy_functions,
)
from repro.datablade.supports import make_support_functions
from repro.datablade.time_extent import TYPE_NAME
from repro.grtree.cursor import Cursor
from repro.grtree.node import GRNodeStore
from repro.grtree.tree import GRTree
from repro.server.access_method import IndexDescriptor, RowReference
from repro.server.errors import AccessMethodError
from repro.temporal.chronon import Chronon
from repro.temporal.extent import TimeExtent


class GRTreeDataBlade(AccessMethodBlade):
    """Configuration and implementation of the GR-tree access method."""

    PREFIX = "grt"
    LIBRARY_PATH = "usr/functions/grtree.bld"
    AM_NAME = "grtree_am"
    METADATA_TABLE = "grtree_indexdata"
    METADATA_COLUMNS = (
        ("indexname", "LVARCHAR"),
        ("fragid", "INTEGER"),
        ("blobhandle", "LVARCHAR"),
        ("metapage", "INTEGER"),
    )
    OPCLASSES = (
        OpclassDefinition(
            "grt_opclass",
            (TYPE_NAME,),
            strategies=(
                ("Overlaps", "grt_overlaps_udr"),
                ("Equal", "grt_equal_udr"),
                ("Contains", "grt_contains_udr"),
                ("ContainedIn", "grt_containedin_udr"),
            ),
            supports=(
                ("GRT_Union", "grt_union_udr", "pointer", 2),
                ("GRT_Size", "grt_size_udr", "pointer", 1),
                ("GRT_Intersection", "grt_intersection_udr", "pointer", 2),
            ),
        ),
    )
    # Informix's association hints (Section 5.2): commutators only --
    # there is no way to declare "not overlaps implies not equal".
    COMMUTATORS = (
        ("Overlaps", "Overlaps"),
        ("Equal", "Equal"),
        ("Contains", "ContainedIn"),
        ("ContainedIn", "Contains"),
    )

    def __init__(
        self, server, time_horizon: int = 20, handle_cache: bool = True
    ) -> None:
        super().__init__(server)
        self.time_horizon = time_horizon
        self.handle_cache = handle_cache

    # ------------------------------------------------------------------
    # Current time and transactions (Section 5.4)
    # ------------------------------------------------------------------

    def _named_now_key(self, session) -> str:
        return f"grt_now.session{session.session_id}"

    def current_time(self, session=None) -> Chronon:
        """The transaction's constant current time, if sampled; else the
        clock (seqscan UDR invocations run outside any index open)."""
        if session is not None and session.in_transaction:
            key = self._named_now_key(session)
            if self.server.memory.named_exists(key):
                return self.server.memory.named_get(key)
        return self.server.clock.now

    def _sample_current_time(self, session) -> Chronon:
        """First index use in the transaction samples the clock into
        named memory and registers the freeing callback."""
        if session is None or not session.in_transaction:
            return self.server.clock.now
        key = self._named_now_key(session)
        if not self.server.memory.named_exists(key):
            self.server.memory.named_allocate(key, self.server.clock.now)

            def free_named_now(ended_session, committed: bool) -> None:
                if self.server.memory.named_exists(key):
                    self.server.memory.named_free(key)

            session.register_end_callback(free_named_now)
        return self.server.memory.named_get(key)

    def am_create(self, td: IndexDescriptor) -> int:
        super().am_create(td)
        # Record where the meta page landed so grt_open can find it.
        rowid, _ = self._metadata_row(td.index_name)
        self._metadata_table().update_row(
            rowid, {"metapage": td.user_data["tree"].meta_page}
        )
        self._sample_current_time(td.session)
        return 0

    def am_open(self, td: IndexDescriptor) -> int:
        super().am_open(td)
        self._sample_current_time(td.session)
        return 0

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def validate(self, td: IndexDescriptor) -> None:
        if tuple(t.upper() for t in td.column_types) != (TYPE_NAME.upper(),):
            self._trace("create", 2, "column type check failed")
            raise AccessMethodError(
                f"{self.AM_NAME} indexes exactly one {TYPE_NAME} column, "
                f"got {td.column_types}"
            )
        self._trace("create", 2, "column types accepted")
        for opclass_name in td.opclass_names:
            opclass = self.server.catalog.opclasses.get(opclass_name)
            unknown = [
                s for s in opclass.strategies
                if s.lower() not in HARD_CODED_PREDICATES
            ]
            if unknown:
                self._trace("create", 3, "operator class check failed")
                raise AccessMethodError(
                    f"operator class {opclass.name} declares strategies the "
                    f"hard-coded GR-tree cannot serve: {unknown} (Section 5.2)"
                )
        self._trace("create", 3, "operator class accepted")
        duplicate = [
            info
            for info in self.server.catalog.indices_on(td.table_name)
            if info.name.lower() != td.index_name.lower()
            and tuple(c.lower() for c in info.columns)
            == tuple(c.lower() for c in td.columns)
            and info.am_name.lower() == td.am_name.lower()
            and info.parameters == td.parameters
        ]
        if duplicate:
            self._trace("create", 4, "duplicate index check failed")
            raise AccessMethodError(
                f"an equivalent {self.AM_NAME} index already exists: "
                f"{duplicate[0].name}"
            )
        self._trace("create", 4, "no equivalent index exists")

    def build(self, td, pools, meta, options, obs) -> Dict[str, Any]:
        store = GRNodeStore(pools["blob"])
        if meta is None:
            tree = GRTree.create(
                store, self.server.clock, time_horizon=self.time_horizon
            )
        else:
            tree = GRTree.open(
                store, self.server.clock, meta_page=meta["metapage"]
            )
        if obs is not None:
            obs.attach("spec", self._obs_name(td.index_name, "blob"), tree.spec)
            tree.obs = obs
        return {"tree": tree, "store": store}

    def leaf(self, td, qual) -> SimplePredicate:
        return resolve_simple(qual)

    def cursor(self, td: IndexDescriptor, branches) -> "_BladeScan":
        return _BladeScan(
            td.user_data["tree"], branches, self._sample_current_time(td.session)
        )

    def save(self, td: IndexDescriptor) -> None:
        td.user_data["tree"].save_meta()

    def encode(self, td, value) -> TimeExtent:
        if not isinstance(value, TimeExtent):
            raise AccessMethodError(
                f"GR-tree rows carry one {TYPE_NAME}, got {value!r}"
            )
        return value

    def am_delete(self, td: IndexDescriptor, oldrow, oldrowid: int) -> int:
        super().am_delete(td, oldrow, oldrowid)
        if td.user_data["tree"].condensed:
            self._trace("delete", 5, "tree condensed: open cursors reset")
        return 0

    def cost(self, td, structures, branches) -> float:
        now = self.current_time(td.session)
        tree: GRTree = structures["tree"]
        return sum(tree.scan_cost(branch[0].query, now=now) for branch in branches)

    def statistics(self, td: IndexDescriptor) -> Dict[str, float]:
        tree: GRTree = td.user_data["tree"]
        return {**tree.stats(), **tree.quality()}

    def udrs(self) -> Dict[str, Any]:
        strategies = make_strategy_functions(lambda: self.current_time())
        supports = make_support_functions(lambda: self.current_time())
        return {
            "grt_overlaps_udr": strategies["Overlaps"],
            "grt_equal_udr": strategies["Equal"],
            "grt_contains_udr": strategies["Contains"],
            "grt_containedin_udr": strategies["ContainedIn"],
            "grt_union_udr": supports["GRT_Union"],
            "grt_size_udr": supports["GRT_Size"],
            "grt_intersection_udr": supports["GRT_Intersection"],
        }


class _BladeScan:
    """Cursor state over the DNF plan: one GR-tree cursor per branch,
    branch-local residual predicates, cross-branch de-duplication."""

    def __init__(
        self, tree: GRTree, branches: List[List[SimplePredicate]], now: Chronon
    ) -> None:
        self.tree = tree
        self.branches = branches
        self.now = now
        self._seen: set = set()
        self.reset()

    def reset(self) -> None:
        self._branch = 0
        self._cursor: Optional[Cursor] = None
        self._seen.clear()

    def next_rows(self, limit: int) -> List[RowReference]:
        rows: List[RowReference] = []
        while len(rows) < limit and self._branch < len(self.branches):
            if self._cursor is None:
                primary, *rest = self.branches[self._branch]
                self._cursor = self.tree.search(
                    primary.query, primary.predicate, now=self.now
                )
                # The residual tests of the branch, query regions built once.
                self._residual = [
                    (pred.predicate.leaf_test, pred.query.region(self.now))
                    for pred in rest
                ]
            want = limit - len(rows)
            entries = self._cursor.next_batch(want)
            if len(entries) < want:  # this branch is exhausted
                self._branch += 1
                self._cursor = None
            for entry in entries:
                key = (entry.rowid, entry.fragid)
                if key in self._seen:
                    continue
                if self._residual:
                    region = entry.region(self.now)
                    if not all(test(region, query) for test, query in self._residual):
                        continue
                self._seen.add(key)
                rows.append(
                    RowReference(
                        rowid=entry.rowid, fragid=entry.fragid, row=(entry.extent(),)
                    )
                )
        return rows
