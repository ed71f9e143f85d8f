"""The blade kit: everything about an access-method blade that is not
its index structure.

The paper's conclusion is that a generic access-method layer makes the
next index cheap.  :class:`AccessMethodBlade` is that layer for this
repository: it owns the fourteen purpose functions of Table 2 and the
state they keep where the paper puts it --

* create/open/close/drop over the blade's smart blobs (one or several
  per index), with the Table 5 step trace under the blade's prefix;
* the (index name, BLOB handles) record in the blade's metadata table;
* the index descriptor attachment, stamped with the server's storage
  epoch so a rollback or recovery underneath it is noticed, and the
  handle cache that keeps structure/pool/BLOB objects of closed indices
  (the BLOBs still open and close per statement -- locks follow the
  paper's protocol -- only the object rebuild is skipped);
* one buffer-pool factory, one ``WITH (...)`` option parser, one DNF
  planner, one materialized scan cursor, one registration routine.

A concrete blade declares its object definition (prefix, names, operator
classes, metadata columns -- the input of the BladeSmith stand-in) and
fills in the hooks: ``validate``, ``build``/``save``, ``leaf``,
``probe``, ``encode``/``decode``, ``cost``.
"""

from __future__ import annotations

import struct
from itertools import islice
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.datablade import bladesmith
from repro.datablade.blob import BladeBlob
from repro.datablade.qualification import to_dnf
from repro.server.access_method import (
    IndexDescriptor,
    RowReference,
    ScanDescriptor,
    SimpleQualification,
)
from repro.server.errors import AccessMethodError
from repro.storage.buffer import BufferPool
from repro.storage.sbspace import LargeObjectHandle, OpenMode

_TRUE = ("true", "on", "yes", "1")
_FALSE = ("false", "off", "no", "0")

#: The page-0 record of the trees that keep root/height/size in the
#: Python object: (magic, root page, height, entry count).
_ROOT = struct.Struct("<4sqqq")


def load_root(pool: BufferPool, magic: bytes, fresh: bool, index_name: str):
    """Constructor arguments of a tree persisted behind a page-0 root
    record; a *fresh* blob gets the page reserved and an empty tree."""
    if fresh:
        pool.allocate()
        return {}
    found, root_id, height, size = _ROOT.unpack_from(pool.read(0), 0)
    if found != magic:
        raise AccessMethodError(f"index {index_name} storage is corrupt")
    return {"root_id": root_id, "height": height, "size": size}


def save_root(pool: BufferPool, magic: bytes, tree) -> None:
    pool.write(0, _ROOT.pack(magic, tree.root_id, tree.height, tree.size))


def parse_option(name: str, value: Any, default: Any, minimum: int) -> Any:
    """One ``WITH`` value as the type its default declares: a bool
    default makes a switch, anything else an integer >= *minimum*."""
    if isinstance(default, bool):
        if isinstance(value, (bool, int, float)):
            return bool(value)
        word = str(value).strip().lower()
        if word in _TRUE or word in _FALSE:
            return word in _TRUE
        raise AccessMethodError(f"{name} expects a boolean, got {value!r}")
    try:
        number = int(value)
    except (TypeError, ValueError):
        raise AccessMethodError(
            f"{name} expects an integer, got {value!r}"
        ) from None
    if number < minimum:
        raise AccessMethodError(f"{name} must be at least {minimum}, got {number}")
    return number


class MaterializedScan:
    """The cursor of a blade whose probes return whole hit lists: one
    probe per DNF branch, de-duplicated across branches on (rowid,
    fragid), replayed by ``next_rows``."""

    def __init__(
        self,
        branches: List[list],
        probe: Callable[[list], Iterable[Tuple[int, int, Any]]],
        decode: Callable[[Any], Any],
    ) -> None:
        self.branches = branches
        self.probe = probe
        self.decode = decode
        self.reset()

    def reset(self) -> None:
        hits: Dict[Tuple[int, int], Any] = {}
        for branch in self.branches:
            for rowid, fragid, key in self.probe(branch):
                hits.setdefault((rowid, fragid), key)
        self._hits = iter(hits.items())

    def next_rows(self, limit: int) -> List[RowReference]:
        decode = self.decode
        return [
            RowReference(rowid=rowid, fragid=fragid, row=(decode(key),))
            for (rowid, fragid), key in islice(self._hits, limit)
        ]


class AccessMethodBlade:
    """Base of every access-method blade; see the module docstring."""

    # -- the object definition (what BladeSmith generates SQL from) -----
    PREFIX = ""            #: purpose-function symbol prefix, trace class
    LIBRARY_PATH = ""
    AM_NAME = ""
    METADATA_TABLE = ""
    #: (column, SQL type); ``<blob>handle`` columns hold the BLOB handles.
    METADATA_COLUMNS: Tuple[Tuple[str, str], ...] = (
        ("indexname", "LVARCHAR"), ("blobhandle", "LVARCHAR"),
    )
    #: Operator classes, the default one first.
    OPCLASSES: Tuple[bladesmith.OpclassDefinition, ...] = ()
    COMMUTATORS: Tuple[Tuple[str, str], ...] = ()
    NEGATORS: Tuple[Tuple[str, str], ...] = ()
    #: Names of the smart blobs one index lives in.
    BLOBS: Tuple[str, ...] = ("blob",)

    def __init__(self, server) -> None:
        self.server = server
        #: ``False`` restores the paper's literal behaviour of rebuilding
        #: the Tree object on every open (Table 5).
        self.handle_cache = True
        self._handles: Dict[str, Dict[str, Any]] = {}
        # The library's symbols (``grt_open``...) name the purpose methods.
        vars(self).update(self._purpose_symbols())

    # ------------------------------------------------------------------
    # Hooks: what a concrete blade writes
    # ------------------------------------------------------------------

    def validate(self, td: IndexDescriptor) -> None:
        """Reject columns/operator classes the structure cannot index."""
        if len(td.columns) != 1:
            raise AccessMethodError(f"{self.AM_NAME} indexes exactly one column")

    def option_spec(self) -> Dict[str, Tuple[Any, int]]:
        """``WITH`` key -> (default, minimum); see :func:`parse_option`."""
        return {"buffer_capacity": (self.server.buffer_capacity, 1)}

    def build(self, td, pools, meta, options, obs) -> Dict[str, Any]:
        """The structures over *pools* (blob name -> buffer pool), as
        attachment entries (``{"tree": ...}``): empty ones when *meta*
        is ``None`` (CREATE INDEX), else reopened from storage with the
        metadata row *meta*.  *obs* is ``None`` for a costing-only view."""
        raise NotImplementedError

    def save(self, td: IndexDescriptor) -> None:
        """Stage whatever the structures keep outside their pages."""

    def leaf(self, td: IndexDescriptor, qual: SimpleQualification) -> Any:
        """One simple qualification as the blade's predicate."""
        raise NotImplementedError

    def probe(self, td, branch) -> Iterable[Tuple[int, int, Any]]:
        """(rowid, fragid, key) of the entries one DNF branch selects."""
        raise NotImplementedError

    def encode(self, td: IndexDescriptor, value: Any) -> Any:
        return value

    def decode(self, td: IndexDescriptor, key: Any) -> Any:
        return key

    def cost(self, td, structures, branches) -> float:
        raise NotImplementedError

    def insert_entry(self, td: IndexDescriptor, key, rowid: int) -> None:
        td.user_data["tree"].insert(key, rowid)

    def delete_entry(self, td: IndexDescriptor, key, rowid: int) -> bool:
        return td.user_data["tree"].delete(key, rowid)

    def statistics(self, td: IndexDescriptor) -> Dict[str, float]:
        return td.user_data["tree"].stats()

    def verify(self, td: IndexDescriptor) -> None:
        td.user_data["tree"].check()

    def cursor(self, td: IndexDescriptor, branches):
        return MaterializedScan(
            branches,
            lambda branch: self.probe(td, branch),
            lambda key: self.decode(td, key),
        )

    def udrs(self) -> Dict[str, Callable]:
        """Library symbol -> strategy/support routine."""
        return {}

    def forget(self, index_name: str) -> None:
        """Drop per-index state kept across statements (the index is
        being created or dropped under this name): the cached handle,
        and whatever observability exports under the name, counters
        included."""
        self._handles.pop(index_name.lower(), None)
        obs = self.server.obs
        for blob in self.BLOBS:
            for kind in obs.attached:
                obs.attach(kind, self._obs_name(index_name, blob), None)

    # ------------------------------------------------------------------
    # Registration (BladeManager stand-in)
    # ------------------------------------------------------------------

    def _purpose_symbols(self) -> Dict[str, Callable]:
        return {
            symbol: getattr(self, slot)
            for slot, symbol in bladesmith.purpose_symbols(self)
        }

    def exports(self) -> Dict[str, Callable]:
        """The symbols the blade's shared library exports."""
        return {**self._purpose_symbols(), **self.udrs()}

    def install(self) -> "AccessMethodBlade":
        """Load the library and run the generated registration script.
        Provisioning scope: registration DDL is node-local (replicas
        install their own blades), so it is never logged for shipping."""
        server = self.server
        server.library.register_module(self.LIBRARY_PATH, self.exports())
        with server.provisioning():
            server.run_script(bladesmith.generate_register_script(self))
        routines = server.catalog.routines
        for name, other in self.COMMUTATORS:
            routines.set_commutator(name, other)
        for name, other in self.NEGATORS:
            routines.set_negator(name, other)
        return self

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------

    def _trace(self, function: str, step: int, text: str, *args) -> None:
        trace = self.server.trace
        if trace.enabled(self.PREFIX, 2):
            trace.emit(
                self.PREFIX, 2, f"{self.PREFIX}_{function}({step}) {text % args}"
            )

    def options(self, td: IndexDescriptor) -> Dict[str, Any]:
        given = td.parameters or {}
        spec = self.option_spec()
        unknown = sorted(set(given) - set(spec))
        if unknown:
            raise AccessMethodError(
                f"{self.AM_NAME} does not accept WITH {', '.join(unknown)}; "
                f"its keys are {', '.join(sorted(spec))}"
            )
        return {
            name: parse_option(name, given.get(name, default), default, minimum)
            for name, (default, minimum) in spec.items()
        }

    def plan(self, td: IndexDescriptor, qualification) -> List[list]:
        return to_dnf(qualification, lambda qual: self.leaf(td, qual))

    def _metadata_table(self):
        return self.server.catalog.get_table(self.METADATA_TABLE)

    def _metadata_row(self, index_name: str) -> Tuple[int, Dict[str, Any]]:
        for rowid, row in self._metadata_table().scan():
            if row["indexname"] == index_name:
                return rowid, row
        raise AccessMethodError(
            f"no {self.METADATA_TABLE} record for index {index_name}"
        )

    def _attached(self, td: IndexDescriptor) -> Dict[str, Any]:
        if "blobs" not in td.user_data:
            raise AccessMethodError(
                f"index {td.index_name} is not open "
                f"({self.PREFIX}_open was not called)"
            )
        return td.user_data

    def _obs_name(self, index_name: str, blob_name: str) -> str:
        """The name a blob's pool (and structures) are exported under."""
        name = f"index.{index_name}"
        return name if len(self.BLOBS) == 1 else f"{name}.{blob_name}"

    def _attach(self, td: IndexDescriptor, blobs, meta) -> None:
        """Pools and structures over the open *blobs*, into ``td``."""
        options = self.options(td)
        obs = self.server.obs
        pools = {}
        for name, blob in blobs.items():
            pools[name] = BufferPool(
                blob.page_store(),
                capacity=options["buffer_capacity"],
                faults=self.server.faults,
            )
            # Reopening replaces the previous pool under the same name,
            # so ``SHOW STATS`` always shows the live pool of each index.
            obs.attach("buffer", self._obs_name(td.index_name, name), pools[name])
        td.user_data.update(
            self.build(td, pools, meta, options, obs),
            blobs=blobs,
            pools=pools,
            options=options,
            epoch=self.server.storage_epoch,
        )

    def _open_blobs(self, td: IndexDescriptor, blobs, mode: OpenMode) -> None:
        opened = []
        try:
            for blob in blobs.values():
                blob.open(td.session, mode)
                opened.append(blob)
        except BaseException:
            # Cleanup-then-reraise: BaseException so a SimulatedCrash
            # still releases the half-opened blobs, then propagates.
            for blob in opened:
                blob.close()
            raise

    def _cached(self, td: IndexDescriptor) -> Optional[Dict[str, Any]]:
        """The handle a previous close left, if it is still safe: every
        BLOB must still be the same live object in its sbspace (recovery
        and DROP replace it) and storage must not have been rewritten
        underneath the pools (rollback restores pages directly, bumping
        ``server.storage_epoch``)."""
        key = td.index_name.lower()
        entry = self._handles.get(key)
        if entry is None:
            return None
        try:
            same_store = all(
                blob.page_store() is entry["pools"][name].store
                for name, blob in entry["blobs"].items()
            )
        except Exception:
            same_store = False  # BLOB dropped or sbspace re-initialised
        if same_store and entry["epoch"] == self.server.storage_epoch:
            return entry
        del self._handles[key]
        return None

    def _estimation(self, td: IndexDescriptor) -> Dict[str, Any]:
        """Structures to cost a scan with, taking no lock (planning
        time): the attachment, else the cached handle, else a throwaway
        view straight over the stored pages."""
        if "blobs" in td.user_data:
            return td.user_data
        entry = self._cached(td)
        if entry is not None:
            return entry
        _, row = self._metadata_row(td.index_name)
        space = self.server.get_sbspace(td.space_name)
        pools = {
            name: BufferPool(
                space.get(LargeObjectHandle(row[f"{name}handle"])), capacity=8
            )
            for name in self.BLOBS
        }
        options = self.options(td)
        return dict(self.build(td, pools, row, options, None), options=options)

    def _scan(self, sd: ScanDescriptor):
        scan = sd.user_data.get("scan")
        if scan is None:
            raise AccessMethodError(
                f"no scan in progress ({self.PREFIX}_beginscan missing)"
            )
        return scan

    # ------------------------------------------------------------------
    # Purpose functions (Table 2; steps as in Table 5)
    # ------------------------------------------------------------------

    def am_create(self, td: IndexDescriptor) -> int:
        self._trace("create", 1, "create Tree object")
        # Everything that can be refused is refused before the first
        # side effect: no BLOB, no metadata row for a rejected statement.
        self.validate(td)
        self.options(td)
        # A cached handle under the same name (dropped + recreated
        # index) must never shadow the fresh BLOBs.
        self.forget(td.index_name)
        space = self.server.get_sbspace(td.space_name)
        blobs = {name: BladeBlob.create(space) for name in self.BLOBS}
        record: Dict[str, Any] = {"indexname": td.index_name}
        for column, _ in self.METADATA_COLUMNS[1:]:
            record[column] = 0
        for name, blob in blobs.items():
            self._trace("create", 5, "created BLOB %s", blob.handle)
            record[f"{name}handle"] = blob.handle.value
        self._metadata_table().insert_row(record)
        self._trace("create", 6, f"inserted record into {self.METADATA_TABLE}")
        self._open_blobs(td, blobs, OpenMode.WRITE)
        self._trace("create", 7, "opened the BLOB")
        self._attach(td, blobs, None)
        return 0

    def am_open(self, td: IndexDescriptor) -> int:
        if "blobs" in td.user_data:
            if td.user_data["epoch"] == self.server.storage_epoch:
                self._trace(
                    "open", 1, f"invoked right after {self.PREFIX}_create; exit"
                )
                return 0
            # The attachment survived an abnormal unwind -- a crash or an
            # error that interrupted the close before it could clean up --
            # and storage has since been rewritten underneath it (rollback
            # or WAL recovery bumps the epoch).  Reusing the stale tree
            # would resurrect rolled-back entries from its dirty pool.
            self._trace("open", 1, "discard stale Tree attachment")
            td.user_data.clear()
        entry = self._cached(td) if self.handle_cache else None
        if entry is not None:
            self._trace("open", 2, "reuse cached Tree object")
            self._open_blobs(td, entry["blobs"], OpenMode.READ)
            self._trace("open", 4, "opened the BLOB")
            td.user_data.update(entry)
            return 0
        self._trace("open", 2, "create Tree object")
        _, row = self._metadata_row(td.index_name)
        space = self.server.get_sbspace(td.space_name)
        blobs = {}
        for name in self.BLOBS:
            handle = row[f"{name}handle"]
            self._trace("open", 3, "got BLOB handle %s...", handle[:20])
            blobs[name] = BladeBlob(space, LargeObjectHandle(handle))
        self._open_blobs(td, blobs, OpenMode.READ)
        self._trace("open", 4, "opened the BLOB")
        self._attach(td, blobs, row)
        return 0

    def am_close(self, td: IndexDescriptor) -> int:
        self._trace("close", 1, "get Tree object pointer")
        attachment = self._attached(td)
        blobs = attachment["blobs"]
        if any(blob.is_writable for blob in blobs.values()):
            self.save(td)
        for pool in attachment["pools"].values():
            pool.flush()  # write dirty index pages into the BLOB
        for blob in blobs.values():
            blob.close()
        self._trace("close", 2, "closed the BLOB")
        if self.handle_cache:
            self._handles[td.index_name.lower()] = dict(
                attachment, epoch=self.server.storage_epoch
            )
            self._trace("close", 3, "cached Tree object for reuse")
        else:
            self._trace("close", 3, "deleted Tree object")
        td.user_data.clear()
        return 0

    def am_drop(self, td: IndexDescriptor) -> int:
        self._trace("drop", 1, "get Tree object pointer")
        if "blobs" not in td.user_data:
            # Dropping a closed index: open the BLOBs to drop them.
            self.am_open(td)
        for blob in td.user_data["blobs"].values():
            self._trace("drop", 2, "drop BLOB %s", blob.handle)
            blob.drop()
        self._trace("drop", 3, "delete Tree object")
        td.user_data.clear()
        self.forget(td.index_name)
        rowid, _ = self._metadata_row(td.index_name)
        self._metadata_table().delete_row(rowid)
        self._trace("drop", 4, f"deleted record from {self.METADATA_TABLE}")
        return 0

    # -- scanning ---------------------------------------------------------

    def am_beginscan(self, sd: ScanDescriptor) -> int:
        self._trace("beginscan", 1, "get qualification descriptor qd")
        if sd.qualification is None:
            raise AccessMethodError(
                f"{self.PREFIX}_beginscan needs a qualification"
            )
        branches = self.plan(sd.index, sd.qualification)
        self._trace("beginscan", 2, "get index descriptor td")
        self._attached(sd.index)
        self._trace(
            "beginscan", 3, "create Cursor (%d DNF branch(es))", len(branches)
        )
        sd.user_data["scan"] = self.cursor(sd.index, branches)
        self._trace("beginscan", 4, "saved Cursor pointer in td")
        return 0

    def am_rescan(self, sd: ScanDescriptor) -> int:
        self._trace("rescan", 1, "get index descriptor td")
        scan = self._scan(sd)
        self._trace("rescan", 2, "get Cursor pointer")
        scan.reset()
        self._trace("rescan", 3, "reset Cursor")
        return 0

    def am_getnext(self, sd: ScanDescriptor) -> List[RowReference]:
        """Up to ``sd.niorows`` rows; an empty list ends the scan."""
        refs = self._scan(sd).next_rows(sd.niorows)
        for ref in refs:
            self._trace("getnext", 4, "formed retrowid from rowid=%s", ref.rowid)
        return refs

    def am_endscan(self, sd: ScanDescriptor) -> int:
        self._trace("endscan", 1, "get index descriptor td")
        self._trace("endscan", 2, "get Cursor pointer")
        sd.user_data.pop("scan", None)
        self._trace("endscan", 3, "deleted Cursor")
        return 0

    # -- updates ------------------------------------------------------------

    def _ensure_writable(self, td: IndexDescriptor) -> None:
        for blob in self._attached(td)["blobs"].values():
            blob.ensure_writable()

    def am_insert(self, td: IndexDescriptor, newrow, newrowid: int) -> int:
        self._trace("insert", 1, "get Tree object pointer")
        self._attached(td)
        key = self.encode(td, newrow[0])
        self._trace("insert", 2, "formed entry for rowid=%s", newrowid)
        self._ensure_writable(td)
        self.insert_entry(td, key, newrowid)
        self._trace("insert", 3, "inserted entry via Tree.insert()")
        return 0

    def am_delete(self, td: IndexDescriptor, oldrow, oldrowid: int) -> int:
        self._trace("delete", 1, "get Tree object pointer")
        self._attached(td)
        key = self.encode(td, oldrow[0])
        self._ensure_writable(td)
        if not self.delete_entry(td, key, oldrowid):
            raise AccessMethodError(
                f"index {td.index_name} has no entry for rowid {oldrowid}"
            )
        self._trace("delete", 4, "deleted entry via Tree.delete()")
        return 0

    def am_update(
        self, td: IndexDescriptor, oldrow, oldrowid: int, newrow, newrowid: int
    ) -> int:
        self._trace("update", 1, f"invoke {self.PREFIX}_delete")
        self.am_delete(td, oldrow, oldrowid)
        self._trace("update", 2, f"invoke {self.PREFIX}_insert")
        self.am_insert(td, newrow, newrowid)
        return 0

    # -- costing, statistics, checking ---------------------------------------

    def am_scancost(self, sd: ScanDescriptor) -> float:
        if sd.qualification is None:
            return float("inf")
        td = sd.index
        branches = self.plan(td, sd.qualification)
        return float(self.cost(td, self._estimation(td), branches))

    def am_stats(self, td: IndexDescriptor) -> Dict[str, float]:
        self._attached(td)
        stats = self.statistics(td)
        self._trace("stats", 1, "collected statistics: %s", sorted(stats))
        return stats

    def am_check(self, td: IndexDescriptor) -> int:
        self._attached(td)
        try:
            self.verify(td)
        except AssertionError as exc:
            raise AccessMethodError(
                f"index {td.index_name} corrupt: {exc}"
            ) from exc
        self._trace("check", 1, "index is consistent")
        return 0
