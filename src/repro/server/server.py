"""The server facade: the "Informix Dynamic Server" of the reproduction.

Wires together the clock, catalogs, shared-library registry, memory
manager, trace facility, lock manager, write-ahead log, sbspaces, and the
SQL executor.  DataBlade modules see this object through the index
descriptor (``td.server``) and use it the way real blades use the
DataBlade API: to open smart blobs, allocate named memory, emit trace
messages, and register transaction-end callbacks.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple

from repro.faults import SimulatedCrash
from repro.obs import Observability
from repro.server import sql as ast
from repro.server.access_method import SecondaryAccessMethod, SpaceType
from repro.server.catalog import SystemCatalog
from repro.server.datatypes import TypeRegistry
from repro.server.errors import CatalogError
from repro.server.executor import Executor
from repro.server.memory import MemoryManager
from repro.server.optimizer import PlanCache
from repro.server.session import Session
from repro.server.trace import TraceFacility
from repro.server.udr import SharedLibraryRegistry
from repro.storage.locks import LockManager
from repro.storage.sbspace import Sbspace
from repro.storage.wal import WriteAheadLog
from repro.temporal.chronon import Clock, Granularity


class DatabaseServer:
    """An embeddable, extensible relational engine."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        granularity: Granularity = Granularity.DAY,
        page_size: int = 2048,
        buffer_capacity: int = 64,
        statement_cache_size: int = 64,
        faults=None,
    ) -> None:
        self.clock = clock if clock is not None else Clock(granularity=granularity)
        self.page_size = page_size
        #: Server-wide default for per-index buffer pools; ``CREATE INDEX
        #: ... WITH (buffer_capacity = N)`` overrides it.
        self.buffer_capacity = buffer_capacity
        #: Statement-shape cache bound (0 disables caching).
        self.statement_cache_size = statement_cache_size
        self.types = TypeRegistry(self.clock.granularity)
        self.catalog = SystemCatalog(self.types)
        self.library = SharedLibraryRegistry()
        self.memory = MemoryManager()
        self.trace = TraceFacility()
        self.locks = LockManager()
        self.wal = WriteAheadLog()
        #: The observability hub (metrics registry + span recorder).
        self.obs = Observability(trace=self.trace)
        self.obs.attach_lock_manager(self.locks)
        self.obs.attach_wal(self.wal)
        self.sbspaces: Dict[str, Sbspace] = {}
        #: Fault-injection registry (``repro.faults``); ``None`` keeps
        #: every instrumented path at a single attribute test.
        self.faults = None
        if faults is not None:
            self.faults = faults
            self._wire_faults()
        self.executor = Executor(self)
        #: Statement shape (``sql.shape``) -> the binder that builds a
        #: statement of that shape from its literals.
        self._statement_cache: "OrderedDict[tuple, ast.Binder]" = OrderedDict()
        self._stmt_cache_hits = 0
        self._stmt_cache_misses = 0
        self.obs.metrics.register_collector(
            "sql.stmtcache",
            lambda: {
                "hits": self._stmt_cache_hits,
                "misses": self._stmt_cache_misses,
                "entries": len(self._statement_cache),
                "size": self.statement_cache_size,
            },
        )
        #: Bumped whenever storage is mutated behind the buffer pools
        #: (transaction rollback restores sbspace pages directly); cached
        #: index handles compare epochs and invalidate their pools.
        self.storage_epoch = 0
        self._txn_ids = itertools.count(1)
        #: The engine big lock: statement execution is serialized, the
        #: way SQLite serializes writers.  The serving layer overlaps
        #: network I/O, framing, queueing, and client think-time across
        #: connections while the core executes one statement at a time
        #: against shared catalog/sbspace/WAL state that was built
        #: single-threaded.  Re-entrant: ``run_script`` and UDRs may call
        #: back into ``execute``.
        self._engine_lock = threading.RLock()
        #: Simulated per-statement storage latency in seconds, slept
        #: while the engine lock is held -- the stand-in for the disk
        #: I/O a purely in-memory engine never waits on.  Benchmarks
        #: (``bench_perf_replication``) use it so the per-engine
        #: serialization, the resource read replicas multiply, is the
        #: bottleneck rather than a single shared host CPU.
        self.simulated_io_s = 0.0
        #: Guards the statement-shape LRU (shared by worker threads).
        self._stmt_cache_lock = threading.Lock()
        #: The session internal work runs under (cost estimation etc.).
        self.system_session = Session(self)
        #: The most recent plan chosen by the optimizer (for inspection).
        self.last_plan = None
        #: Optimizer directive: always use an applicable virtual index.
        self.prefer_virtual_index = False
        #: Replication role state (``repro.repl``).  A replica is
        #: read-only for clients; the apply loop sets ``repl_applying``
        #: around its own writes to pass the executor's enforcement.
        self.read_only = False
        self.repl_applying = False
        #: Primary side: the WAL shipper, once a replica subscribes.
        self.repl_shipper = None
        #: Replica side: the link to the primary.
        self.repl_link = None

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------

    @contextmanager
    def provisioning(self):
        """Run node-local installation DDL (blade registration scripts).

        Statements in this scope are not logged for replication -- every
        node installs its own blades, the way real extensions must exist
        on every cluster member -- and they bypass a replica's read-only
        enforcement so replicas can be provisioned through the same
        scripts as primaries.
        """
        previous = self.repl_applying
        self.repl_applying = True
        try:
            yield self
        finally:
            self.repl_applying = previous

    def enable_wal_shipping(self) -> None:
        """Make the WAL a complete logical history (served primaries).

        Must run before any tables exist: replicas bootstrap by replaying
        the log from LSN 0, so DDL and row images have to be there from
        the first statement.
        """
        self.wal.ship_rows = True

    def ensure_wal_shipper(self):
        """Return the WAL shipper, creating it on the first subscriber.

        Also registers the ``repl.*`` metrics collector so shipping
        progress shows up in ``SHOW STATS`` and the Prometheus surface.
        """
        if self.repl_shipper is None:
            from repro.repl.shipper import WalShipper

            self.repl_shipper = WalShipper(self)
            self.obs.metrics.register_collector("repl", self.repl_stats)
        return self.repl_shipper

    def repl_stats(self) -> Dict[str, float]:
        """Flat ``repl.*`` counters for the observability collector."""
        if self.repl_shipper is not None:
            out = dict(self.repl_shipper.stats())
            out["role"] = 1  # 1 = primary
            return out
        if self.repl_link is not None:
            out = {
                key: value
                for key, value in self.repl_link.stats().items()
                if isinstance(value, (int, float))
            }
            out["role"] = 2  # 2 = replica
            return out
        return {}

    def repl_wait_for_lsn(self, min_lsn: int, timeout: float = 0.25) -> bool:
        """Block until this server has applied *min_lsn* (replicas).

        A primary trivially satisfies any token it issued.  On a replica
        this gives the stream a short grace window before the statement
        is bounced with ``REPLICA_STALE``.
        """
        link = self.repl_link
        if link is None:
            return True
        return link.wait_for_lsn(min_lsn, timeout)

    def replication_status(self) -> List[Dict[str, Any]]:
        """Rows for ``SHOW REPLICAS``: downstream subscribers on a
        primary, the upstream link on a replica, else empty."""
        if self.repl_shipper is not None:
            return self.repl_shipper.status_rows()
        if self.repl_link is not None:
            return [self.repl_link.status_row()]
        return []

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def ensure_faults(self):
        """Return the fault registry, creating and wiring one lazily.

        ``SET FAULT`` calls this, so a wire client can arm failpoints on
        a server that was started without a registry.
        """
        if self.faults is None:
            from repro.faults import FaultRegistry

            self.faults = FaultRegistry()
            self._wire_faults()
        return self.faults

    def _wire_faults(self) -> None:
        """Thread the registry through every instrumented component."""
        registry = self.faults
        self.wal.faults = registry
        self.locks.faults = registry
        for space in self.sbspaces.values():
            space.faults = registry
        for pool in self.obs.pools.values():
            pool.faults = registry
        self.obs.attach_faults(registry)

    # ------------------------------------------------------------------
    # Sessions and transactions
    # ------------------------------------------------------------------

    def create_session(self) -> Session:
        return Session(self)

    def next_txn_id(self) -> int:
        return next(self._txn_ids)

    def abort_session(self, session: Session) -> bool:
        """Roll back *session*'s open transaction, if any.

        The serving layer's dropped-connection and shutdown path: runs
        under the engine lock so the rollback cannot interleave with a
        statement, and releases every lock the transaction held (waking
        any blocked waiters).  Returns True when a transaction was
        aborted.
        """
        with self._engine_lock:
            if not session.in_transaction:
                return False
            self.bind_transaction(session, session.transaction.txn_id)
            session.rollback()
            return True

    def bind_transaction(self, session: Session, txn_id: int) -> None:
        for space in self.sbspaces.values():
            space.set_transaction(txn_id)

    def release_transaction(self, session: Session, txn_id: int) -> None:
        self.locks.release_all(txn_id)
        for space in self.sbspaces.values():
            space.end_transaction(txn_id)
            space.set_transaction(None)

    def rollback_storage(self, txn_id: int) -> None:
        # Rollback rewrites sbspace pages underneath any open buffer
        # pool; bump the epoch so cached index handles invalidate.  Also
        # for a transaction that logged nothing: a failed statement can
        # leave dirty, unflushed frames that no record describes.
        self.storage_epoch += 1
        for space in self.sbspaces.values():
            space.rollback(txn_id)

    # ------------------------------------------------------------------
    # Storage spaces (Step 5: the onspaces command)
    # ------------------------------------------------------------------

    def create_sbspace(self, name: str = "sbspace1") -> Sbspace:
        """The ``onspaces -c -S`` analogue."""
        key = name.lower()
        if key in self.sbspaces:
            raise CatalogError(f"sbspace {name} already exists")
        space = Sbspace(
            name,
            page_size=self.page_size,
            lock_manager=self.locks,
            wal=self.wal,
            faults=self.faults,
        )
        self.sbspaces[key] = space
        self.obs.attach_sbspace(space)
        return space

    onspaces = create_sbspace

    def get_sbspace(self, name: str) -> Sbspace:
        try:
            return self.sbspaces[name.lower()]
        except KeyError:
            raise CatalogError(
                f"no sbspace {name}; create it first (onspaces)"
            ) from None

    def default_space_name(self, am: SecondaryAccessMethod) -> str:
        if am.sptype is SpaceType.SBSPACE:
            if not self.sbspaces:
                raise CatalogError(
                    "no sbspace exists; run create_sbspace() first (Step 5)"
                )
            return sorted(self.sbspaces)[0]
        return "external"

    # ------------------------------------------------------------------
    # SQL entry points
    # ------------------------------------------------------------------

    def _maybe_log_ddl(self, statement: ast.Statement, sql_text: str) -> None:
        """Replication: record successful DDL verbatim for replay.

        Replicas cannot reconstruct catalog changes from physical page
        records (heap tables and the catalog are not WAL-logged), so
        they re-execute the statement text instead.  Skipped while this
        server is itself applying a replicated statement: the record
        already exists upstream."""
        if (
            self.wal.ship_rows
            and not self.repl_applying
            and isinstance(statement, ast.DDL)
        ):
            self.wal.log_ddl(sql_text)

    def _parse(self, sql_text: str) -> Tuple[ast.Statement, Optional[tuple]]:
        """Parse through the LRU statement cache, keyed by the text's
        shape (its tokens, each literal a placeholder); return the
        statement and the shape (``None`` with the cache off or for a
        text that does not tokenize).

        A shape is parsed once: the cache keeps a binder that builds the
        statement for another text of that shape from the text's
        literals, sharing the literal-free parts (the executor and
        optimizer treat statements as read-only) and one
        :class:`~repro.server.optimizer.PlanCache`.  A shape whose
        statement does not hold exactly the text's literals (a ``LOAD``
        path) is parsed every time.  Admin statements bypass the cache:
        they are cheap, rare, and keeping them out means cache counters
        reflect only real workload statements.
        """
        if not self.statement_cache_size:
            return ast.parse(sql_text), None
        key, literals = ast.shape(sql_text)
        if key is None:
            return ast.parse(sql_text), None  # raises the tokenizer's error
        with self._stmt_cache_lock:
            bind = self._statement_cache.get(key)
            if bind is not None:
                self._statement_cache.move_to_end(key)
                self._stmt_cache_hits += 1
        if bind is not None:
            return bind(literals), key
        statement = ast.parse(sql_text)
        if isinstance(statement, ast.Admin):
            return statement, key
        if isinstance(statement, (ast.Select, ast.Delete, ast.Update)):
            statement.plan_cache = PlanCache()
        bind = ast.binder(statement, key, literals)
        with self._stmt_cache_lock:
            self._stmt_cache_misses += 1
            if bind is not None:
                self._statement_cache[key] = bind
                if len(self._statement_cache) > self.statement_cache_size:
                    self._statement_cache.popitem(last=False)
        return statement, key

    def execute(self, sql_text: str, session: Optional[Session] = None) -> Any:
        """Parse and execute one SQL statement.

        With observability enabled, the statement runs under a root span
        (``sql.<kind>``) that records its attributes, duration, error and
        metric deltas.  Whether the span tree below it -- the parse step,
        the plan choice, and every purpose-function call, the
        EXPLAIN-ANALYZE view ``SHOW SPANS`` displays -- is built is
        decided here, once per statement:

        * a statement carrying a wire trace context (``session.trace_id``,
          which ``explain_profile`` always sets) keeps its tree;
        * with ``SET SLOW QUERY THRESHOLD`` set, every statement builds
          its tree and keeps it only if it was slow or failed;
        * otherwise the root is recorded alone.
        """
        if session is None:
            session = self.system_session
        with self._engine_lock:
            if self.simulated_io_s:
                # repro: allow(blocking-under-engine-lock): simulated_io_s is
                # the benchmark knob that deliberately models statement cost
                # under the global lock (docs/serving.md); it is zero in
                # production configurations.
                time.sleep(self.simulated_io_s)
            if session.in_transaction:
                self.bind_transaction(session, session.transaction.txn_id)
            obs = self.obs
            enabled = obs.enabled
            # The parse is timed only when it will be recorded: with the
            # hub disabled, or for a root-only statement, no clock is read.
            tree = enabled and (
                session.trace_id is not None
                or obs.events.slow_query_threshold_ms is not None
            )
            parse_start = obs.metrics.timer() if tree else 0.0
            statement, shape = self._parse(sql_text)
            parse_end = obs.metrics.timer() if tree else 0.0
            if isinstance(statement, ast.Admin):
                # Admin statements inspect observability state: they run
                # unspanned (SHOW SPANS never renders its own half-open
                # root) and stay out of the workload model and event log.
                return statement.run(self, session)
            if not enabled:
                result = self.executor.execute(statement, session)
                self._maybe_log_ddl(statement, sql_text)
                return result
            kind = type(statement).__name__.lower()
            obs.metrics.inc("sql.statements")
            obs.metrics.inc("sql.statements." + kind)
            attrs = {"sql": sql_text}
            if session.connection_id is not None:
                # Serving-layer statements carry their connection id so
                # SHOW SPANS can be sliced per client.
                attrs["conn"] = session.connection_id
            if session.trace_id is not None:
                # Wire-propagated distributed-trace context: the root
                # span joins the client's trace so SHOW TRACE <id> (and
                # the explain_profile reply) stitch client -> server ->
                # executor -> storage into one tree.
                attrs["trace_id"] = session.trace_id
                if session.parent_span_id is not None:
                    attrs["parent_span_id"] = session.parent_span_id
            root = None
            try:
                with obs.spans.statement("sql." + kind, attrs, tree) as span:
                    root = span
                    if tree:
                        obs.spans.add_completed_child(
                            "sql.parse", parse_start, parse_end
                        )
                    result = self.executor.execute(statement, session)
            except SimulatedCrash:
                # The engine "died" mid-statement: a real crash records
                # nothing further, so neither does a simulated one.
                raise
            except Exception as exc:
                if root is not None:
                    root.attrs["error"] = f"{type(exc).__name__}: {exc}"
                    fault_point = getattr(exc, "point", None)
                    if fault_point is not None:
                        root.attrs["fault"] = fault_point
                    self._record_statement(
                        session, sql_text, shape, root, None, exc
                    )
                raise
            self._maybe_log_ddl(statement, sql_text)
            obs.metrics.observe("sql.statement_seconds", root.duration)
            self._record_statement(session, sql_text, shape, root, result, None)
            return result

    def _record_statement(
        self, session: Session, sql_text: str, shape, root, result: Any, exc
    ) -> None:
        """Fold one finished statement (its root span is closed, so its
        metric deltas are final) into the workload model and event log;
        drop the tree of a statement that was neither traced, slow nor
        failed."""
        obs = self.obs
        session.last_root_span = root
        duration = root.duration
        rows = len(result) if isinstance(result, list) else None
        if exc is not None:
            obs.metrics.inc("sql.errors_total")
        stats = obs.workload.observe(
            sql_text,
            duration,
            shape=shape,
            rows=rows,
            deltas=root.metric_deltas,
            error=exc is not None,
        )
        events = obs.events
        threshold = events.slow_query_threshold_ms
        slow = threshold is not None and duration * 1000.0 >= threshold
        if exc is None and not slow:
            if session.trace_id is None:
                root.children.clear()
            return
        fields: Dict[str, Any] = {
            "sql": sql_text,
            "fingerprint": stats.fingerprint,
            "duration_ms": duration * 1000.0,
        }
        if session.connection_id is not None:
            fields["conn"] = session.connection_id
        if root.trace_id is not None:
            fields["trace_id"] = root.trace_id
        if exc is not None:
            fields["error"] = f"{type(exc).__name__}: {exc}"
            fault_point = getattr(exc, "point", None)
            if fault_point is not None:
                fields["fault"] = fault_point
            events.emit("error", **fields)
        if slow:
            events.emit("slow_query", **fields)

    def run_script(self, script: str, session: Optional[Session] = None) -> List[Any]:
        """Execute a semicolon-separated script (BladeManager-style
        registration scripts are shipped in this form)."""
        results = []
        for statement in self._split_statements(script):
            results.append(self.execute(statement, session))
        return results

    @staticmethod
    def _split_statements(script: str) -> List[str]:
        statements: List[str] = []
        current: List[str] = []
        in_string: Optional[str] = None
        for char in script:
            if in_string:
                current.append(char)
                if char == in_string:
                    in_string = None
                continue
            if char in ("'", '"'):
                in_string = char
                current.append(char)
                continue
            if char == ";":
                text = "".join(current).strip()
                if text:
                    statements.append(text)
                current = []
                continue
            current.append(char)
        tail = "".join(current).strip()
        if tail:
            statements.append(tail)
        return statements
