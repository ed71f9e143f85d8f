"""Span recording around the engine's layer boundaries, from outside.

The traced pass of the benchmark wraps the public entry points of each
layer at run time -- nothing under ``src/`` knows about it -- and keeps
one tuple per call in memory: ``(name, start_ns, end_ns, span_id,
parent_id, statement)``.  ``parent_id`` is the span open on the same
thread when this one started (0 for none); ``statement`` is the client
statement in flight when it ended.  A layer's *self time* is a span's
duration minus the durations of its direct children.

Three of the targets differ from the names the issue used, because the
code does: UDR resolution is ``RoutineRegistry.resolve``/``resolve_any``
(``SharedLibraryRegistry`` only maps symbols at CREATE FUNCTION time),
``choose_plan`` is patched where the executor imported it, and
``protocol._recv_exact`` is wrapped as well so that the time a reader
blocks on its socket can be taken out of ``read_frame`` -- what is left
is the decode.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

Span = Tuple[str, int, int, int, int, int]
COLUMNS = ("name", "start_ns", "end_ns", "span_id", "parent_id", "statement")

#: Blocked on a socket: subtracted from its parent, counted nowhere.
WAIT = "net.recv_wait"

#: span name -> row of the per-statement ledger.
_ROWS = {
    "server.execute": "executor.other",
    "sql.parse": "sql.parse",
    "optimizer.choose_plan": "optimizer.choose_plan",
    "executor.am_scancost": "optimizer.choose_plan",
    "executor.am_endscan": "executor.am_close",
    "udr.resolve": "udr.resolve",
    "buffer.read": "buffer.read",
    "buffer.write": "buffer.write",
    "sbspace.read": "sbspace.read",
    "sbspace.write": "sbspace.write",
    "wal.log": "wal.log",
    "locks.acquire": "locks.acquire",
    "locks.release": "locks.release",
    "client.execute": "net.client",
    "net.encode": "net.encode",
    "net.write_frame": "net.send",
    "net.read_frame": "net.decode",
}
_SLOTS = ("am_open", "am_beginscan", "am_getnext", "am_close", "am_insert",
          "am_update", "am_delete")

#: Rows that run inside ``DatabaseServer.execute``; their self times add
#: up to its duration.  The ``net.*`` rows run around it.
ENGINE_ROWS = (
    "sql.parse",
    "optimizer.choose_plan",
    *(f"executor.{slot}" for slot in _SLOTS),
    "executor.am_other",
    "udr.resolve",
    "buffer.read",
    "buffer.write",
    "sbspace.read",
    "sbspace.write",
    "wal.log",
    "locks.acquire",
    "locks.release",
    "executor.other",
)


def row_of(name: str) -> str:
    row = _ROWS.get(name)
    if row is not None:
        return row
    if name.startswith("executor."):
        return name if name[len("executor."):] in _SLOTS else "executor.am_other"
    return name


class Tracer:
    """Installs and removes the wrappers; owns the recorded spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Index of the client statement in flight (set by the round loop).
        self.statement = -1
        #: Bytes ``encode_frame`` produced (requests and replies).
        self.encoded_bytes = 0
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: List[Tuple[object, str, Callable]] = []

    # -- wrapping ------------------------------------------------------

    def _wrap(self, owner: object, attr: str, name, tally: bool = False) -> None:
        """Replace ``owner.attr``; *name* is the span name, or a function
        of the call's positional arguments returning it.  With *tally*
        the length of each result is added to ``encoded_bytes``."""
        original = getattr(owner, attr)
        spans, local, ids = self.spans, self._local, self._ids
        clock = time.perf_counter_ns
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = original(*args, **kwargs)
                if tally:
                    self.encoded_bytes += len(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((
                    fixed if fixed is not None else name(args),
                    start, end, span_id, parent, self.statement,
                ))

        traced.__wrapped__ = original
        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        from repro.net import protocol
        from repro.net.client import ReproClient
        from repro.server import executor, sql
        from repro.server.server import DatabaseServer
        from repro.server.udr import RoutineRegistry
        from repro.storage.buffer import BufferPool
        from repro.storage.locks import LockManager
        from repro.storage.sbspace import SmartBlob
        from repro.storage.wal import WriteAheadLog

        wrap = self._wrap
        wrap(ReproClient, "execute", "client.execute")
        wrap(protocol, "encode_frame", "net.encode", tally=True)
        wrap(protocol, "write_frame", "net.write_frame")
        wrap(protocol, "read_frame", "net.read_frame")
        wrap(protocol, "_recv_exact", WAIT)
        wrap(DatabaseServer, "execute", "server.execute")
        wrap(sql, "parse", "sql.parse")
        wrap(executor, "choose_plan", "optimizer.choose_plan")
        wrap(executor.Executor, "call_purpose", lambda args: "executor." + args[2])
        wrap(RoutineRegistry, "resolve", "udr.resolve")
        wrap(RoutineRegistry, "resolve_any", "udr.resolve")
        wrap(BufferPool, "read", "buffer.read")
        wrap(BufferPool, "write", "buffer.write")
        wrap(SmartBlob, "read_page", "sbspace.read")
        wrap(SmartBlob, "write_page", "sbspace.write")
        for attr in sorted(vars(WriteAheadLog)):
            if attr.startswith("log_"):
                wrap(WriteAheadLog, attr, "wal.log")
        wrap(LockManager, "acquire", "locks.acquire")
        wrap(LockManager, "release_all", "locks.release")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path, header: Dict[str, object]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {**header, "columns": COLUMNS, "spans": self.spans},
                handle,
                separators=(",", ":"),
            )


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def self_times(spans: Sequence[Span]) -> Dict[int, Dict[str, int]]:
    """statement -> ledger row -> summed self time in ns."""
    children: Dict[int, int] = defaultdict(int)
    for _, start, end, _, parent, _ in spans:
        if parent:
            children[parent] += end - start
    table: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for name, start, end, span_id, _, statement in spans:
        if name != WAIT:
            table[statement][row_of(name)] += end - start - children[span_id]
    return table


def durations(spans: Sequence[Span], name: str) -> Dict[int, int]:
    """statement -> summed inclusive duration of top-level *name* spans
    (a nested call of the same name is already inside its parent)."""
    by_id = {span[3]: span for span in spans}
    out: Dict[int, int] = defaultdict(int)
    for span in spans:
        if span[0] != name:
            continue
        parent = by_id.get(span[4])
        while parent is not None and parent[0] != name:
            parent = by_id.get(parent[4])
        if parent is None:
            out[span[5]] += span[2] - span[1]
    return out


def count_spans(spans: Sequence[Span]) -> Dict[str, int]:
    """Calls per span name, plus ``sbspace.read@buffer``: page reads
    issued by a buffer pool on a miss (its physical reads)."""
    names = {span[3]: span[0] for span in spans}
    counts: Dict[str, int] = defaultdict(int)
    for name, _, _, _, parent, _ in spans:
        counts[name] += 1
        if name == "sbspace.read" and names.get(parent) == "buffer.read":
            counts["sbspace.read@buffer"] += 1
    return counts
