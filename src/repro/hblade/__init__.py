"""``repro.hblade`` -- the Griffin-style hybrid hash + B+-tree DataBlade.

Registered through the paper's six-step recipe like every other blade:

>>> from repro.hblade import register_hybrid_blade
>>> blade = register_hybrid_blade(server)           # doctest: +SKIP
>>> server.execute(                                 # doctest: +SKIP
...     "CREATE INDEX hi ON t(k) USING hblade_am IN spc"
... )

Point lookups probe the hash directory, range scans walk the B+-tree,
and the :class:`~repro.hblade.guard.PrecisionGuard` keeps the two paths
consistent under concurrent structure modifications.
"""

from repro.hblade.blade import HybridDataBlade, hb_hash_udr, register_hybrid_blade
from repro.hblade.check import verify_hybrid
from repro.hblade.directory import HashDirectory, fnv1a
from repro.hblade.guard import PrecisionGuard

__all__ = [
    "HashDirectory",
    "HybridDataBlade",
    "PrecisionGuard",
    "fnv1a",
    "hb_hash_udr",
    "register_hybrid_blade",
    "verify_hybrid",
]
