"""Deterministic failpoint registry.

Crash-consistency claims are only trusted once the failure paths are
exercised adversarially (Griffin's discipline, PAPERS.md): a torn page
write, an fsync that never happens, a frame dropped mid-commit.  This
module provides the machinery: named *failpoints* compiled into the
storage and net layers fire configurable *actions* when armed.

Design constraints, in order:

1. **Zero cost when unused.**  Every instrumented component holds a
   ``faults`` attribute that defaults to ``None`` and guards the hit
   with ``if self.faults is not None``.  The read-path benchmark gate
   (``bench_perf_read_path.py``) enforces this stays unmeasurable.
2. **Deterministic.**  Trigger-on-Nth-hit counting and seeded
   probability mean a failing randomized run replays exactly from its
   seed.
3. **Crash is not an error.**  :class:`SimulatedCrash` subclasses
   ``BaseException`` so ordinary ``except Exception`` recovery code --
   most importantly the session layer's rollback-on-error -- does *not*
   intercept it.  A real crash does not get to run rollback; neither
   does a simulated one.

Actions:

``raise``
    Raise :class:`FaultInjected` (a ``RuntimeError``).  The engine
    treats it like any other statement failure: the transaction is
    rolled back and the error reported.
``crash``
    Raise :class:`SimulatedCrash`.  The process "dies" at the
    failpoint: no rollback, no cleanup -- volatile state is frozen
    exactly as the crash left it.  The crash-consistency harness
    catches it at top level and drives WAL recovery.
``torn``
    Only meaningful at write failpoints: the first half of the new
    data is written, the old tail remains (a torn/partial page write).
    At non-write failpoints it degrades to ``raise``.
``corrupt``
    Only meaningful at write failpoints: a few deterministically
    chosen bytes of the written data are bit-flipped.  At non-write
    failpoints it degrades to ``raise``.
``drop`` / ``dup`` / ``reorder``
    Frame-level actions for the replication stream (``repl.send``):
    the WAL shipper silently drops the frame, sends it twice, or swaps
    it with the next one.  The replica's apply loop must absorb all
    three (idempotency by LSN, reorder buffering, gap resubscribe).
    At failpoints that cannot act on frames they degrade to ``raise``.
"""

from __future__ import annotations

import random
import threading
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple


class FaultInjected(RuntimeError):
    """An armed ``raise`` failpoint fired."""

    def __init__(self, name: str) -> None:
        super().__init__(f"fault injected at '{name}'")
        self.point = name


class SimulatedCrash(BaseException):
    """An armed ``crash`` failpoint fired: the engine 'died' here.

    Deliberately a ``BaseException``: rollback-on-error handlers must
    not see it, because a real crash would not have run them either.
    """

    def __init__(self, name: str) -> None:
        super().__init__(f"simulated crash at '{name}'")
        self.point = name


ACTIONS = ("raise", "crash", "torn", "corrupt", "drop", "dup", "reorder")

#: Every failpoint compiled into the engine, with the layer it lives in.
#: ``set_fault`` validates names against this catalog so a typo in a
#: test arms an error instead of a no-op.  Frozen: the catalog is shared
#: read-only across every engine thread, so it must not be mutable.
CATALOG: Mapping[str, str] = MappingProxyType({
    "wal.append": "storage: before any record is appended to the log",
    "wal.fsync": "storage: at commit, before the COMMIT record is durable",
    "sbspace.page_read": "storage: SmartBlob.read_page",
    "sbspace.page_write": "storage: SmartBlob.write_page (torn/corrupt capable)",
    "sbspace.open": "storage: Sbspace.open (lock acquisition + descriptor)",
    "osfile.read": "storage: OSFilePageStore.read_page",
    "osfile.write": "storage: OSFilePageStore.write_page (torn/corrupt capable)",
    "buffer.flush": "storage: BufferPool.flush of dirty frames",
    "lock.acquire": "storage: LockManager.acquire",
    "net.send": "net: server about to send a reply frame",
    "net.recv": "net: server received a request frame",
    "repl.send": "repl: primary about to ship a WAL frame "
    "(drop/dup/reorder/torn capable)",
    "repl.apply": "repl: replica about to apply a committed transaction",
    "hblade.hash_write": "hblade: before the hash-directory half of a "
    "hybrid-index mutation",
    "hblade.tree_write": "hblade: between the hash and tree halves of a "
    "hybrid-index mutation",
})


class FaultPoint:
    """One armed failpoint: the action plus its trigger conditions."""

    __slots__ = (
        "name",
        "action",
        "hit_at",
        "probability",
        "times",
        "enabled",
        "hits",
        "triggers",
        "_rng",
    )

    def __init__(
        self,
        name: str,
        action: str,
        *,
        hit_at: Optional[int] = None,
        probability: Optional[float] = None,
        times: Optional[int] = 1,
        seed: int = 0,
    ) -> None:
        self.name = name
        self.action = action
        self.hit_at = hit_at
        self.probability = probability
        self.times = times
        self.enabled = True
        self.hits = 0
        self.triggers = 0
        self._rng = random.Random(seed)

    def _decide(self) -> bool:
        """Count one traversal; report whether the action fires."""
        self.hits += 1
        if not self.enabled:
            return False
        if self.times is not None and self.triggers >= self.times:
            return False
        if self.hit_at is not None and self.hits < self.hit_at:
            return False
        if self.probability is not None and self._rng.random() >= self.probability:
            return False
        self.triggers += 1
        return True

    def describe(self) -> str:
        parts = [self.action]
        if self.hit_at is not None:
            parts.append(f"hit={self.hit_at}")
        if self.probability is not None:
            parts.append(f"p={self.probability:g}")
        if self.times is not None:
            parts.append(f"times={self.times}")
        if not self.enabled:
            parts.append("off")
        parts.append(f"hits={self.hits}")
        parts.append(f"triggers={self.triggers}")
        return " ".join(parts)


class FaultRegistry:
    """Named failpoints with deterministic trigger conditions.

    Thread-safe: the serving layer hits ``net.*`` points from reader
    threads while workers hit storage points.  The fast path -- nothing
    armed at this name -- is a single dict lookup outside the lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Enabled points only; the fast path probes this dict.
        self._armed: Dict[str, FaultPoint] = {}
        #: Every point ever armed (counts survive ``clear`` for stats).
        self._points: Dict[str, FaultPoint] = {}

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------

    def set_fault(
        self,
        name: str,
        action: str = "raise",
        *,
        hit: Optional[int] = None,
        probability: Optional[float] = None,
        times: Optional[int] = 1,
        seed: int = 0,
    ) -> FaultPoint:
        """Arm a failpoint.

        ``hit``: fire only from the Nth traversal on (1-based).
        ``probability``: fire with this chance per traversal, from a
        private RNG seeded with ``seed`` (deterministic replays).
        ``times``: stop firing after this many triggers (``None`` =
        keep firing forever).
        """
        if name not in CATALOG:
            known = ", ".join(sorted(CATALOG))
            raise ValueError(f"unknown failpoint '{name}' (known: {known})")
        if action not in ACTIONS:
            raise ValueError(
                f"unknown fault action '{action}' (known: {', '.join(ACTIONS)})"
            )
        if hit is not None and hit < 1:
            raise ValueError("hit counts are 1-based")
        if probability is not None and not (0.0 <= probability <= 1.0):
            raise ValueError("probability must be within [0, 1]")
        if times is not None and times < 1:
            # Such a point could never fire: refuse it rather than arm it.
            raise ValueError("times must be at least 1 (None fires forever)")
        point = FaultPoint(
            name,
            action,
            hit_at=hit,
            probability=probability,
            times=times,
            seed=seed,
        )
        with self._lock:
            self._points[name] = point
            self._armed[name] = point
        return point

    def clear_fault(self, name: str) -> None:
        """Disarm one failpoint (its hit counts survive for stats)."""
        with self._lock:
            point = self._armed.pop(name, None)
            if point is not None:
                point.enabled = False

    def clear_all(self) -> None:
        with self._lock:
            for point in self._armed.values():
                point.enabled = False
            self._armed.clear()

    def armed(self) -> Dict[str, str]:
        """Snapshot of enabled points, name -> description."""
        with self._lock:
            return {name: p.describe() for name, p in self._armed.items()}

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------

    def fire_action(self, name: str) -> Optional[str]:
        """Count a traversal of *name*; return the action if it fires.

        Sites that need custom handling (the net layer severs sockets
        instead of raising) call this directly; everything else goes
        through :meth:`hit` or :meth:`on_write`.
        """
        point = self._armed.get(name)
        if point is None:
            return None
        with self._lock:
            if not point._decide():
                return None
        return point.action

    def hit(self, name: str) -> None:
        """Traverse a non-write failpoint; raise if it fires.

        ``torn``/``corrupt`` make no sense without data to mangle, so
        they degrade to ``raise`` here.
        """
        action = self.fire_action(name)
        if action is None:
            return
        if action == "crash":
            raise SimulatedCrash(name)
        raise FaultInjected(name)

    def on_write(self, name: str, new: bytes, old: bytes) -> bytes:
        """Traverse a write failpoint; return the bytes to really write.

        ``raise``/``crash`` fire *before* the write (nothing reaches
        the medium).  ``torn`` returns the new prefix spliced onto the
        old tail -- the classic torn page.  ``corrupt`` bit-flips a few
        deterministically chosen bytes.
        """
        action = self.fire_action(name)
        if action is None:
            return new
        if action == "crash":
            raise SimulatedCrash(name)
        if action == "torn":
            return self._tear(new, old)
        if action == "corrupt":
            return self._flip(self._points[name], new)
        # ``raise`` and frame-level actions (meaningless here) degrade.
        raise FaultInjected(name)

    @staticmethod
    def _tear(new: bytes, old: bytes) -> bytes:
        cut = max(1, len(new) // 2)
        tail = old[cut : len(new)]
        tail = tail.ljust(len(new) - cut, b"\x00")
        return new[:cut] + tail

    @staticmethod
    def _flip(point: FaultPoint, data: bytes) -> bytes:
        if not data:
            return data
        mangled = bytearray(data)
        for _ in range(min(8, len(data))):
            index = point._rng.randrange(len(data))
            mangled[index] ^= 0xFF
        return bytes(mangled)

    def torn_payload(self, name: str, payload: bytes) -> Tuple[bytes, bool]:
        """Net-layer variant of :meth:`on_write`: there is no 'old'
        data on a wire, so ``torn`` truncates and ``corrupt`` flips.
        Returns ``(bytes_to_send, severed)``; ``severed`` means the
        sender must close the socket afterwards."""
        action = self.fire_action(name)
        if action is None:
            return payload, False
        if action == "crash":
            raise SimulatedCrash(name)
        if action == "torn":
            return payload[: max(1, len(payload) // 2)], True
        if action == "corrupt":
            return self._flip(self._points[name], payload), True
        # ``raise`` and frame-level actions degrade to a severed link.
        return b"", True

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Flat counters pulled by the observability collector."""
        with self._lock:
            out: Dict[str, int] = {"armed": len(self._armed)}
            for name, point in self._points.items():
                out[f"{name}.hits"] = point.hits
                out[f"{name}.triggers"] = point.triggers
            return out

    def report_lines(self) -> list[str]:
        """Human-readable lines for SHOW STATS / the CLI."""
        with self._lock:
            if not self._points:
                return ["no failpoints armed"]
            width = max(len(name) for name in self._points)
            return [
                f"{name:<{width}}  {point.describe()}"
                for name, point in sorted(self._points.items())
            ]
