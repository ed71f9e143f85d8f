"""Per-opclass specialization and vectorized node-level evaluation.

The paper's DataBlade recipe routes every comparison through dynamically
dispatched purpose functions -- ``grt_getnext`` resolves which strategy
function the qualification names, then evaluates it entry by entry
through :meth:`Predicate.leaf_test`/:meth:`Predicate.internal_test`,
decoding one :class:`~repro.temporal.regions.Region` per entry per test.
That is faithful to Appendix A and unavoidable in C in 1999; in Python
it is the dominant cost of the search and insert hot paths.

This module removes the per-entry work in two layers, in the spirit of
just-in-time index compilation (specialize the index code to the key
type and query *once*, at bind time):

* **Specialized closures.**  :meth:`SpecializedOps.compile_scan` builds,
  per scan, a pair of kernels with the predicate enum branch, the query
  region's coordinates, and the current time already resolved -- hot
  loops do zero dynamic dispatch and zero ``Region`` construction.

* **Vectorized node evaluation.**  A node's entry timestamps are
  mirrored into a contiguous :class:`NodeColumns` array (built lazily on
  first use after deserialization, cached as the node's ``cols``, and
  dropped by :meth:`repro.rtree.node.NodeStoreBase.write` -- every tree
  mutation passes through a store write before the operation returns).
  The ``UC``/``NOW`` resolution and Hidden-flag adjustment of Section 3,
  all four strategy predicates, the R* insertion penalties, and
  :func:`bound_entries` are then evaluated for a whole node in a few
  numpy calls instead of a Python loop.

The least-overlap penalty has an exact shortcut.  Regions are sets of
integer lattice cells, and a union bound is a superset of each of its
members, so two facts hold for every entry ``r`` and key ``k``:

1. no overlap delta is negative: ``union_bounds(r, k)`` contains ``r``,
   so it overlaps every sibling at least as much as ``r`` does;
2. zero area enlargement means zero overlap delta: a superset of ``r``
   with as many cells as ``r`` *is* ``r``.

So when some entry already covers the key (zero enlargement), the R*
rank (overlap delta, area delta, area) is won by the first covering
entry of least area, and the pairwise overlap matrices are never built.
The scalar loop in :class:`~repro.grtree.tree.GRTree` takes the same
shortcut; ``tests/grtree/test_choose_subtree_shortcut.py`` checks both
facts and the choice against the full ranking.

Everything here is *bit-exact* against the generic path: integer chronon
arithmetic only, identical tie-breaking (stable argmin = first index
with the smallest key), and identical error behaviour (any entry that
would make the generic path raise routes the whole node back through the
generic path, which raises the same exception).  Trees built with and
without the kernels are byte-identical on disk; the equivalence suite
asserts it.

Every :class:`~repro.grtree.tree.GRTree` owns a bundle, and each call
picks its path from what it can observe: numpy is importable, the node
has at least :data:`MIN_BATCH` entries, and no entry decodes empty.
Otherwise the entry point declines by returning ``None`` and the caller
runs the paper's literal per-entry call sequence -- the only path on a
host without numpy (``REPRO_NO_NUMPY`` emulates one), and the reference
the tests hold the kernels against.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.grtree.entries import GREntry, Predicate
from repro.temporal.chronon import Chronon
from repro.temporal.regions import Region
from repro.temporal.variables import NOW, UC

#: Environment variable that hides numpy from this module, emulating a
#: host without it (CI runs the whole suite so).
NO_NUMPY_ENV = "REPRO_NO_NUMPY"

#: On-array encoding of the variables UC and NOW (matches the on-disk
#: sentinel in :mod:`repro.grtree.node`, but the two never mix).
SENTINEL = 2**62

#: Nodes smaller than this are evaluated by the generic per-entry loop:
#: below it, numpy call overhead exceeds the saved interpretation.
MIN_BATCH = 8


def _load_numpy():
    if os.environ.get(NO_NUMPY_ENV):
        return None
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
        return None
    return numpy


_np = _load_numpy()


def numpy_available() -> bool:
    """Is the vectorized path available in this process?"""
    return _np is not None


# ----------------------------------------------------------------------
# Column mirror of a node's entries
# ----------------------------------------------------------------------


class NodeColumns:
    """A node's entry timestamps as contiguous int64/bool arrays.

    ``tt_end``/``vt_end`` encode ``UC``/``NOW`` as :data:`SENTINEL`.
    Instances are immutable snapshots: any store write drops the cached
    instance from its node, so identity doubles as a version tag (the
    per-scan mask cache keys on it).  ``resolved`` keeps the last
    :func:`_resolve` result as ``(now, arrays)``.
    """

    __slots__ = ("n", "tt_begin", "tt_end", "vt_begin", "vt_end",
                 "rectangle", "hidden", "resolved")

    def __init__(self, entries: Sequence[GREntry], np) -> None:
        n = len(entries)
        tt_begin = [0] * n
        tt_end = [0] * n
        vt_begin = [0] * n
        vt_end = [0] * n
        rectangle = [False] * n
        hidden = [False] * n
        for i, e in enumerate(entries):
            tt_begin[i] = e.tt_begin
            tt_end[i] = SENTINEL if e.tt_end is UC else e.tt_end
            vt_begin[i] = e.vt_begin
            vt_end[i] = SENTINEL if e.vt_end is NOW else e.vt_end
            rectangle[i] = e.rectangle
            hidden[i] = e.hidden
        self.n = n
        self.tt_begin = np.asarray(tt_begin, dtype=np.int64)
        self.tt_end = np.asarray(tt_end, dtype=np.int64)
        self.vt_begin = np.asarray(vt_begin, dtype=np.int64)
        self.vt_end = np.asarray(vt_end, dtype=np.int64)
        self.rectangle = np.asarray(rectangle, dtype=bool)
        self.hidden = np.asarray(hidden, dtype=bool)
        self.resolved = None


def _resolve(np, cols: NodeColumns, now: int):
    """Vectorized Section 3 resolution: regions of all entries at *now*.

    Returns ``(tt_lo, tt_hi, vt_lo, vt_hi, stair, empty)`` arrays.  The
    ``stair`` flag is *uncanonical* (a stair whose diagonal never binds
    keeps the flag) -- every consumer below is flag-canonicalization
    neutral except ``equal``, which re-canonicalizes.  ``empty`` marks
    entries whose region would make :meth:`GREntry.region` raise.  The
    arrays are kept on *cols* for the next call at the same *now*, so a
    node that many scans read at one time is resolved once.
    """
    cached = cols.resolved
    if cached is not None and cached[0] == now:
        return cached[1]
    tt_lo = cols.tt_begin
    tt_hi = np.where(cols.tt_end == SENTINEL, now, cols.tt_end)
    tt_hi = np.maximum(tt_hi, tt_lo)
    vte = cols.vt_end
    # The Hidden-flag adjustment: a ground VTend strictly in the past of
    # a hidden bound is re-read as NOW.
    vte = np.where(cols.hidden & (vte != SENTINEL) & (vte < now), SENTINEL, vte)
    now_rel = vte == SENTINEL
    stair = now_rel & ~cols.rectangle
    vt_hi = np.where(now_rel, tt_hi, vte)
    vt_lo = cols.vt_begin
    resolved = (tt_lo, tt_hi, vt_lo, vt_hi, stair, vt_lo > vt_hi)
    cols.resolved = (now, resolved)
    return resolved


def _areas(np, tt_lo, tt_hi, vt_lo, vt_hi, stair, empty=None):
    """Vectorized :meth:`Region.area` (integer lattice-cell counts)."""
    width = tt_hi - tt_lo + 1
    height = vt_hi - vt_lo + 1
    total = width * height
    # Stair correction: cells above the vt = tt diagonal.
    t0 = np.maximum(tt_lo, vt_lo)
    t1 = np.minimum(tt_hi, vt_hi - 1)
    n = t1 - t0 + 1
    band = n * vt_hi - (t0 + t1) * n // 2
    total = np.where(stair & (t0 <= t1), total - band, total)
    t_empty_hi = np.minimum(tt_hi, vt_lo - 1)
    empty_cols = (t_empty_hi - tt_lo + 1) * height
    total = np.where(stair & (tt_lo <= t_empty_hi), total - empty_cols, total)
    if empty is not None:
        total = np.where(empty, 0, total)
    return total


def _intersection_areas(np, a, b):
    """Areas of pairwise intersections of two resolved-region tuples.

    *a* and *b* are ``(tt_lo, tt_hi, vt_lo, vt_hi, stair)`` arrays (any
    mutually broadcastable shapes).  Mirrors ``Region.intersection``
    followed by ``.area()``, with empty intersections contributing 0.
    """
    a_ttl, a_tth, a_vtl, a_vth, a_st = a
    b_ttl, b_tth, b_vtl, b_vth, b_st = b
    tt_lo = np.maximum(a_ttl, b_ttl)
    tt_hi = np.minimum(a_tth, b_tth)
    vt_lo = np.maximum(a_vtl, b_vtl)
    vt_hi = np.minimum(a_vth, b_vth)
    stair = a_st | b_st
    empty = (tt_lo > tt_hi) | (vt_lo > vt_hi)
    # Region.make canonicalization for stairs: clip the top to tt_hi.
    vt_hi = np.where(stair, np.minimum(vt_hi, tt_hi), vt_hi)
    empty |= vt_lo > vt_hi
    return _areas(np, tt_lo, tt_hi, vt_lo, vt_hi, stair, empty)


def _union_bounds(np, resolved, region: Region):
    """Vectorized ``r_i.union_bounds(region)``: minimum bounding regions
    of each entry's region with one fixed *region*."""
    tt_lo, tt_hi, vt_lo, vt_hi, stair, _ = resolved
    fits_i = stair | (vt_hi <= tt_lo)
    fits_r = region.stair or region.vt_hi <= region.tt_lo
    u_ttl = np.minimum(tt_lo, region.tt_lo)
    u_tth = np.maximum(tt_hi, region.tt_hi)
    u_vtl = np.minimum(vt_lo, region.vt_lo)
    both_fit = fits_i & fits_r
    u_vth = np.where(both_fit, u_tth, np.maximum(vt_hi, region.vt_hi))
    return u_ttl, u_tth, u_vtl, u_vth, both_fit


# ----------------------------------------------------------------------
# Predicate kernels (the specialized strategy functions)
# ----------------------------------------------------------------------


def _overlaps_mask(np, resolved, q: Region):
    tt_lo, tt_hi, vt_lo, vt_hi, stair, _ = resolved
    ttl = np.maximum(tt_lo, q.tt_lo)
    tth = np.minimum(tt_hi, q.tt_hi)
    # Both top edges are nondecreasing in t: test at the right end.
    ent_top = np.where(stair, np.minimum(vt_hi, tth), vt_hi)
    q_top = np.minimum(q.vt_hi, tth) if q.stair else q.vt_hi
    v_lo = np.maximum(vt_lo, q.vt_lo)
    return (ttl <= tth) & (v_lo <= np.minimum(ent_top, q_top))


def _contains_mask(np, resolved, q: Region):
    """Entries whose region fully contains *q* (piecewise-linear top
    edges: endpoints plus each side's breakpoint suffice)."""
    tt_lo, tt_hi, vt_lo, vt_hi, stair, _ = resolved
    ok = (tt_lo <= q.tt_lo) & (q.tt_hi <= tt_hi) & (vt_lo <= q.vt_lo)
    for t in (q.tt_lo, q.tt_hi):
        ent_at = np.where(stair, np.minimum(vt_hi, t), vt_hi)
        ok &= q.vt_end_at(t) <= ent_at
    if q.stair and q.tt_lo <= q.vt_hi <= q.tt_hi:
        t = q.vt_hi
        ent_at = np.where(stair, np.minimum(vt_hi, t), vt_hi)
        ok &= q.vt_end_at(t) <= ent_at
    # The entry-side breakpoint (per-entry, where it lies in q's range).
    applies = stair & (q.tt_lo <= vt_hi) & (vt_hi <= q.tt_hi)
    q_at = np.minimum(q.vt_hi, vt_hi) if q.stair else q.vt_hi
    ok &= ~applies | (q_at <= vt_hi)
    return ok


def _within_mask(np, resolved, q: Region):
    """Entries whose region lies fully inside *q* (CONTAINED_IN)."""
    tt_lo, tt_hi, vt_lo, vt_hi, stair, _ = resolved
    ok = (q.tt_lo <= tt_lo) & (tt_hi <= q.tt_hi) & (q.vt_lo <= vt_lo)

    def ent_at(t):
        return np.where(stair, np.minimum(vt_hi, t), vt_hi)

    def q_at(t):
        return np.minimum(q.vt_hi, t) if q.stair else q.vt_hi

    ok &= ent_at(tt_lo) <= q_at(tt_lo)
    ok &= ent_at(tt_hi) <= q_at(tt_hi)
    if q.stair:
        applies = (tt_lo <= q.vt_hi) & (q.vt_hi <= tt_hi)
        t = q.vt_hi
        ok &= ~applies | (ent_at(t) <= q_at(t))
    applies = stair & (tt_lo <= vt_hi) & (vt_hi <= tt_hi)
    ok &= ~applies | (vt_hi <= q_at(vt_hi))
    return ok


def _equal_mask(np, resolved, q: Region):
    tt_lo, tt_hi, vt_lo, vt_hi, stair, _ = resolved
    # Canonical instances compare by fields; re-canonicalize the flag.
    stair_c = stair & (vt_hi > tt_lo)
    return (
        (tt_lo == q.tt_lo)
        & (tt_hi == q.tt_hi)
        & (vt_lo == q.vt_lo)
        & (vt_hi == q.vt_hi)
        & (stair_c == q.stair)
    )


_LEAF_KERNELS = {
    Predicate.OVERLAPS: _overlaps_mask,
    Predicate.EQUAL: _equal_mask,
    Predicate.CONTAINS: _contains_mask,
    Predicate.CONTAINED_IN: _within_mask,
}

#: Internal pruning rule per predicate (see Predicate.internal_test).
_INTERNAL_KERNELS = {
    Predicate.OVERLAPS: _overlaps_mask,
    Predicate.EQUAL: _contains_mask,
    Predicate.CONTAINS: _contains_mask,
    Predicate.CONTAINED_IN: _overlaps_mask,
}


# ----------------------------------------------------------------------
# Statistics (pulled by repro.obs)
# ----------------------------------------------------------------------


class SpecStats:
    """Counters for one specialization bundle."""

    __slots__ = (
        "scans_compiled",
        "nodes_batched",
        "nodes_fallback",
        "mask_cache_hits",
        "choices_vectorized",
        "bounds_vectorized",
    )

    def __init__(self) -> None:
        self.scans_compiled = 0
        self.nodes_batched = 0
        self.nodes_fallback = 0
        self.mask_cache_hits = 0
        self.choices_vectorized = 0
        self.bounds_vectorized = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "scans_compiled": self.scans_compiled,
            "nodes_batched": self.nodes_batched,
            "nodes_fallback": self.nodes_fallback,
            "mask_cache_hits": self.mask_cache_hits,
            "choices_vectorized": self.choices_vectorized,
            "bounds_vectorized": self.bounds_vectorized,
        }


# ----------------------------------------------------------------------
# The bundle
# ----------------------------------------------------------------------


class ScanMatcher:
    """Per-scan compiled kernels plus a cache of internal-node masks
    keyed on column identity (columns are replaced on every store write,
    so identity is a safe version tag for the life of the scan).  A
    restarted cursor revisits internal nodes; it qualifies a leaf once
    per visit and rescans one only after a write, so leaves need none."""

    __slots__ = ("spec", "leaf_kernel", "internal_kernel", "now", "query",
                 "_internal_cache")

    def __init__(self, spec: "SpecializedOps", predicate: Predicate,
                 query: Region, now: Chronon) -> None:
        self.spec = spec
        self.leaf_kernel = _LEAF_KERNELS[predicate]
        self.internal_kernel = _INTERNAL_KERNELS[predicate]
        self.query = query
        self.now = now
        #: page_id -> (columns instance, mask).
        self._internal_cache: Dict[int, Tuple[NodeColumns, Any]] = {}

    def leaf_matches(self, node) -> Optional[List[int]]:
        """Indices of qualifying leaf entries, or ``None`` to decline
        (generic loop takes over, preserving exact error behaviour)."""
        spec = self.spec
        np = _np
        if np is None or len(node.entries) < MIN_BATCH:
            return None
        resolved = _resolve(np, spec.columns(node), self.now)
        if bool(resolved[5].any()):
            spec.stats.nodes_fallback += 1
            return None  # an entry decodes empty: let the generic path raise
        mask = self.leaf_kernel(np, resolved, self.query)
        spec.stats.nodes_batched += 1
        return np.flatnonzero(mask).tolist()

    def internal_mask(self, node):
        """Boolean qualification mask over an internal node's entries,
        or ``None`` to decline."""
        spec = self.spec
        np = _np
        if np is None or len(node.entries) < MIN_BATCH:
            return None
        cols = spec.columns(node)
        cached = self._internal_cache.get(node.page_id)
        if cached is not None and cached[0] is cols:
            spec.stats.mask_cache_hits += 1
            return cached[1]
        resolved = _resolve(np, cols, self.now)
        if bool(resolved[5].any()):
            spec.stats.nodes_fallback += 1
            return None
        mask = self.internal_kernel(np, resolved, self.query)
        self._internal_cache[node.page_id] = (cols, mask)
        spec.stats.nodes_batched += 1
        return mask


class SpecializedOps:
    """The kernel bundle every :class:`GRTree` builds for itself.

    It lives and dies with its tree, so the blade's ``storage_epoch``
    check that rebuilds a handle's tree rebuilds the bundle too.  Every
    entry point either returns an exact result or ``None`` (no numpy, a
    node below :data:`MIN_BATCH`, or an entry that decodes empty): the
    caller then runs the generic per-entry code path.
    """

    def __init__(self) -> None:
        self.stats = SpecStats()

    @property
    def vectorized(self) -> bool:
        return _np is not None

    # -- column plumbing ----------------------------------------------

    def columns(self, node) -> NodeColumns:
        """The node's cached column mirror, rebuilt when stale."""
        cols = node.cols
        if cols is not None and cols.n == len(node.entries):
            return cols
        cols = NodeColumns(node.entries, _np)
        node.cols = cols
        return cols

    # -- scan compilation ---------------------------------------------

    def compile_scan(self, predicate: Predicate, query: Region,
                     now: Chronon) -> Optional[ScanMatcher]:
        """Close the predicate, query, and current time into kernels,
        or ``None`` without numpy."""
        if _np is None:
            return None
        self.stats.scans_compiled += 1
        return ScanMatcher(self, predicate, query, now)

    # -- insertion penalties ------------------------------------------

    def least_area_enlargement(self, node, region: Region,
                               t: Chronon) -> Optional[int]:
        """Index of the entry with the R* least-area-enlargement key,
        or ``None`` to decline."""
        np = _np
        if np is None or len(node.entries) < MIN_BATCH:
            return None
        resolved = _resolve(np, self.columns(node), t)
        if bool(resolved[5].any()):
            self.stats.nodes_fallback += 1
            return None
        tt_lo, tt_hi, vt_lo, vt_hi, stair, _ = resolved
        areas = _areas(np, tt_lo, tt_hi, vt_lo, vt_hi, stair)
        u_ttl, u_tth, u_vtl, u_vth, u_stair = _union_bounds(np, resolved, region)
        union_areas = _areas(np, u_ttl, u_tth, u_vtl, u_vth, u_stair)
        self.stats.choices_vectorized += 1
        # Stable lexsort: first index among minimal (delta, area) keys,
        # matching the generic loop's strict-< scan.
        return int(np.lexsort((areas, union_areas - areas))[0])

    def least_overlap_enlargement(self, node, region: Region,
                                  t: Chronon) -> Optional[int]:
        """Index of the entry with the R* least-overlap-enlargement key
        (overlap delta, area delta, area), or ``None`` to decline."""
        np = _np
        if np is None or len(node.entries) < MIN_BATCH:
            return None
        resolved = _resolve(np, self.columns(node), t)
        if bool(resolved[5].any()):
            self.stats.nodes_fallback += 1
            return None
        tt_lo, tt_hi, vt_lo, vt_hi, stair, _ = resolved
        areas = _areas(np, tt_lo, tt_hi, vt_lo, vt_hi, stair)
        u_ttl, u_tth, u_vtl, u_vth, u_stair = _union_bounds(np, resolved, region)
        union_areas = _areas(np, u_ttl, u_tth, u_vtl, u_vth, u_stair)
        growth = union_areas - areas
        self.stats.choices_vectorized += 1
        covering = growth == 0
        if bool(covering.any()):
            # The first covering entry of least area wins (module docstring).
            return int(np.argmin(np.where(covering, areas, areas.max() + 1)))

        cols = (tt_lo[:, None], tt_hi[:, None], vt_lo[:, None],
                vt_hi[:, None], stair[:, None])
        rows = (tt_lo[None, :], tt_hi[None, :], vt_lo[None, :],
                vt_hi[None, :], stair[None, :])
        before = _intersection_areas(np, cols, rows)
        enlarged = (u_ttl[:, None], u_tth[:, None], u_vtl[:, None],
                    u_vth[:, None], u_stair[:, None])
        after = _intersection_areas(np, enlarged, rows)
        delta = after - before
        np.fill_diagonal(delta, 0)
        overlap_delta = delta.sum(axis=1)
        return int(np.lexsort((areas, growth, overlap_delta))[0])

    # -- bounding ------------------------------------------------------

    def bound(self, node, now: Chronon) -> Optional[GREntry]:
        """Vectorized :func:`bound_entries` over *node*'s entries, or
        ``None`` to decline.

        Bit-exact: same timestamps, same ``Rectangle``/``Hidden`` flags,
        and the same ``ValueError`` (via fallback) on a ground ``TTend``
        beyond the current time.
        """
        np = _np
        if np is None or len(node.entries) < MIN_BATCH:
            return None
        cols = self.columns(node)
        ground_tte = cols.tt_end != SENTINEL
        if bool((ground_tte & (cols.tt_end > now)).any()):
            return None  # generic bound_entries raises the documented error
        tt_begin = int(cols.tt_begin.min())
        vt_begin = int(cols.vt_begin.min())
        any_growing = bool((~ground_tte).any())
        tt_end = UC if any_growing else int(cols.tt_end.max())
        now_rel = cols.vt_end == SENTINEL
        fits_forever = ~cols.hidden & np.where(
            now_rel, ~cols.rectangle, cols.vt_end <= cols.tt_begin
        )
        self.stats.bounds_vectorized += 1
        if bool(fits_forever.all()):
            return GREntry(tt_begin, tt_end, vt_begin, NOW, rectangle=False)
        unbounded = bool(((~ground_tte) & (now_rel | cols.hidden)).any())
        has_top = ~(now_rel & ~ground_tte)
        top_val = np.where(now_rel, cols.tt_end, cols.vt_end)
        max_fixed = int(top_val[has_top].max()) if bool(has_top.any()) else None
        if unbounded:
            if max_fixed is not None and max_fixed > now:
                return GREntry(tt_begin, tt_end, vt_begin, max_fixed,
                               rectangle=True, hidden=True)
            return GREntry(tt_begin, tt_end, vt_begin, NOW, rectangle=True)
        assert max_fixed is not None
        latent = bool(cols.hidden.any())
        return GREntry(tt_begin, tt_end, vt_begin, max_fixed,
                       rectangle=True, hidden=latent)


__all__ = [
    "MIN_BATCH",
    "NO_NUMPY_ENV",
    "NodeColumns",
    "ScanMatcher",
    "SENTINEL",
    "SpecStats",
    "SpecializedOps",
    "numpy_available",
]
