"""GR-tree node layout.

The layout "does not differ significantly from the layout of an R*-tree
node" (Section 3), so a GR-tree node is a :class:`~repro.rtree.node.Node`
kept by the R* family's store (:class:`~repro.rtree.node.NodeStoreBase`:
header, pointer, scratch page, lock, decoded-node cache).  This module
supplies only the key: the four timestamps (with ``UC``/``NOW`` encoded
as a reserved sentinel) and one flag byte carrying ``Rectangle`` and
``Hidden``.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.grtree.entries import GREntry
from repro.rtree.node import Node, NodeStoreBase
from repro.storage.buffer import BufferPool
from repro.temporal.variables import NOW, UC, is_ground

#: tt_begin, tt_end, vt_begin, vt_end, flags.
_KEY = "4qB"

#: Sentinel encoding of the variables UC and NOW on disk.
_VARIABLE_SENTINEL = 2**62

_FLAG_RECTANGLE = 0x01
_FLAG_HIDDEN = 0x02


class GRNodeStore(NodeStoreBase):
    """Persists GR-tree nodes through a buffer pool, one node per page."""

    def __init__(self, buffer: BufferPool) -> None:
        super().__init__(buffer, _KEY)

    def _fields(self, node: Node) -> list:
        # One tight loop per node: this runs for every node write of
        # every GR-tree insert, delete and bulk load.
        fields: list = []
        extend = fields.extend
        leaf = node.leaf
        for entry in node.entries:
            flags = (_FLAG_RECTANGLE if entry.rectangle else 0) | (
                _FLAG_HIDDEN if entry.hidden else 0
            )
            tte = entry.tt_end if is_ground(entry.tt_end) else _VARIABLE_SENTINEL
            vte = entry.vt_end if is_ground(entry.vt_end) else _VARIABLE_SENTINEL
            if leaf:
                ptr_a, ptr_b = entry.rowid, entry.fragid
            else:
                ptr_a, ptr_b = entry.child, 0
            extend((entry.tt_begin, tte, entry.vt_begin, vte, flags, ptr_a, ptr_b))
        return fields

    def _entries(self, leaf: bool, rows: Iterable[tuple]) -> List[GREntry]:
        if leaf:
            return [
                GREntry(
                    ttb, UC if tte == _VARIABLE_SENTINEL else tte,
                    vtb, NOW if vte == _VARIABLE_SENTINEL else vte,
                    bool(flags & _FLAG_RECTANGLE), bool(flags & _FLAG_HIDDEN),
                    None, ptr_a, ptr_b,
                )
                for ttb, tte, vtb, vte, flags, ptr_a, ptr_b in rows
            ]
        return [
            GREntry(
                ttb, UC if tte == _VARIABLE_SENTINEL else tte,
                vtb, NOW if vte == _VARIABLE_SENTINEL else vte,
                bool(flags & _FLAG_RECTANGLE), bool(flags & _FLAG_HIDDEN), ptr_a,
            )
            for ttb, tte, vtb, vte, flags, ptr_a, _ in rows
        ]
