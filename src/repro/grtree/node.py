"""GR-tree node layout and page serialization.

The layout "does not differ significantly from the layout of an R*-tree
node" (Section 3): a header plus an array of entries.  Each entry packs
the four timestamps (with ``UC``/``NOW`` encoded as a reserved sentinel),
one flag byte carrying ``Rectangle`` and ``Hidden``, and the pointer
(child page id, or rowid + fragid).

Serialization uses a single reusable page-sized ``bytearray`` with
``pack_into`` on writes and batched ``iter_unpack`` on reads, instead of
a per-entry pack + list-join.  Decoded nodes are kept by the buffer pool
(:meth:`~repro.storage.buffer.BufferPool.read_decoded`), so warm reads
skip struct unpacking; a written node is installed as its frame's
decoded form, column mirror and all.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass, field
from typing import List

from repro.grtree.entries import GREntry
from repro.storage.buffer import BufferPool
from repro.temporal.variables import NOW, UC, is_ground

_NODE_HEADER = struct.Struct("<BHB")
#: tt_begin, tt_end, vt_begin, vt_end, flags, pointer-a, pointer-b.
_ENTRY = struct.Struct("<qqqqBqi")

#: Sentinel encoding of the variables UC and NOW on disk.
_VARIABLE_SENTINEL = 2**62

_FLAG_RECTANGLE = 0x01
_FLAG_HIDDEN = 0x02


@dataclass
class GRNode:
    """A GR-tree node; ``page_id`` is the node's identity."""

    page_id: int
    leaf: bool
    level: int = 0
    entries: List[GREntry] = field(default_factory=list)
    #: Lazily built column mirror of ``entries`` for the tree's kernels
    #: (see :mod:`repro.grtree.specialize`).  Dropped on every store
    #: write -- every change to a node passes through a write before the
    #: operation returns, and a node the tree leaves unwritten is
    #: unchanged, so a non-``None`` value is always current.
    cols: object = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.entries)


class GRNodeStore:
    """Persists GR-tree nodes through a buffer pool, one node per page."""

    def __init__(self, buffer: BufferPool) -> None:
        self.buffer = buffer
        self.capacity = (buffer.store.page_size - _NODE_HEADER.size) // _ENTRY.size
        if self.capacity < 4:
            raise ValueError(
                f"page size {buffer.store.page_size} too small for a GR-tree node"
            )
        #: Serializes page I/O and the scratch buffer: the serving
        #: layer's worker threads share one store per open index.
        #: Re-entrant because ``allocate`` may recycle a page while a
        #: caller already holds the lock.
        self._lock = threading.RLock()
        # Reusable serialization scratch; only the prefix written by the
        # previous node needs re-zeroing before reuse.
        self._scratch = bytearray(buffer.store.page_size)
        self._scratch_used = 0

    def allocate(self, leaf: bool, level: int = 0) -> GRNode:
        with self._lock:
            return GRNode(self.buffer.allocate(), leaf, level)

    def read(self, page_id: int) -> GRNode:
        with self._lock:
            return self.buffer.read_decoded(page_id, _decode)

    def write(self, node: GRNode) -> None:
        with self._lock:
            node.cols = None  # entry timestamps changed: column mirror is stale
            entries = node.entries
            if len(entries) > self.capacity:
                raise ValueError(
                    f"node overflow: {len(entries)} entries > capacity "
                    f"{self.capacity}"
                )
            buf = self._scratch
            _NODE_HEADER.pack_into(buf, 0, node.leaf, len(entries), node.level)
            offset = _NODE_HEADER.size
            pack_into = _ENTRY.pack_into
            size = _ENTRY.size
            leaf = node.leaf
            for entry in entries:
                flags = (_FLAG_RECTANGLE if entry.rectangle else 0) | (
                    _FLAG_HIDDEN if entry.hidden else 0
                )
                tte = entry.tt_end if is_ground(entry.tt_end) else _VARIABLE_SENTINEL
                vte = entry.vt_end if is_ground(entry.vt_end) else _VARIABLE_SENTINEL
                if leaf:
                    ptr_a, ptr_b = entry.rowid, entry.fragid
                else:
                    ptr_a, ptr_b = entry.child, 0
                pack_into(
                    buf, offset,
                    entry.tt_begin, tte, entry.vt_begin, vte, flags, ptr_a, ptr_b,
                )
                offset += size
            if offset < self._scratch_used:
                # Zero the residue of a previously larger node so pages stay
                # byte-deterministic (snapshot/diff tests rely on it).
                buf[offset : self._scratch_used] = bytes(self._scratch_used - offset)
            self._scratch_used = offset
            self.buffer.write(node.page_id, bytes(buf), node)

    def free(self, page_id: int) -> None:
        with self._lock:
            self.buffer.free(page_id)


def _decode(page_id: int, data: bytes) -> GRNode:
    leaf, count, level = _NODE_HEADER.unpack_from(data, 0)
    end = _NODE_HEADER.size + count * _ENTRY.size
    body = memoryview(data)[_NODE_HEADER.size : end]
    entries: List[GREntry] = []
    append = entries.append
    if leaf:
        for ttb, tte, vtb, vte, flags, ptr_a, ptr_b in _ENTRY.iter_unpack(body):
            append(
                GREntry(
                    ttb,
                    UC if tte == _VARIABLE_SENTINEL else tte,
                    vtb,
                    NOW if vte == _VARIABLE_SENTINEL else vte,
                    bool(flags & _FLAG_RECTANGLE),
                    bool(flags & _FLAG_HIDDEN),
                    None,
                    ptr_a,
                    ptr_b,
                )
            )
    else:
        for ttb, tte, vtb, vte, flags, ptr_a, _ptr_b in _ENTRY.iter_unpack(body):
            append(
                GREntry(
                    ttb,
                    UC if tte == _VARIABLE_SENTINEL else tte,
                    vtb,
                    NOW if vte == _VARIABLE_SENTINEL else vte,
                    bool(flags & _FLAG_RECTANGLE),
                    bool(flags & _FLAG_HIDDEN),
                    ptr_a,
                )
            )
    return GRNode(page_id, bool(leaf), level, entries)

