"""The R-tree DataBlade: ``Box`` opaque type + ``rtree_am``.

Mirrors the structure of the GR-tree blade at smaller scale: purpose
functions ``rt_*`` over an R*-tree persisted in one smart blob, a default
operator class with the strategies the paper lists for Informix's R-tree
(``Overlap``, ``Equal``, ``Contains``, ``Within``) and supports
(``Union``, ``Size``, ``Inter``).  Unlike the GR-tree blade, the strategy
functions here are dispatched *dynamically* through the UDR registry --
the non-hard-coded design alternative of Section 5.2 -- so the Figure 7
benchmark can compare both dispatch regimes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.datablade.bladesmith import OpclassDefinition
from repro.datablade.kit import AccessMethodBlade, load_root, save_root
from repro.rtree.geometry import Rect
from repro.rtree.node import NodeStore
from repro.rtree.rstar import RStarTree
from repro.server.access_method import IndexDescriptor, SimpleQualification
from repro.server.datatypes import OpaqueType
from repro.server.errors import AccessMethodError, DataTypeError

BOX_TYPE_NAME = "Box"

_MAGIC = b"RTB1"


def box_input(text: str) -> Rect:
    """Parse ``"(x1, y1, x2, y2)"`` into a rectangle."""
    cleaned = text.strip().strip("()")
    parts = [p.strip() for p in cleaned.split(",")]
    if len(parts) != 4:
        raise DataTypeError(f"a Box literal needs four coordinates: {text!r}")
    try:
        x1, y1, x2, y2 = (float(p) for p in parts)
    except ValueError:
        raise DataTypeError(f"invalid Box literal: {text!r}") from None
    if x1 > x2 or y1 > y2:
        raise DataTypeError(f"Box corners out of order: {text!r}")
    return Rect((x1, y1), (x2, y2))


def box_output(value: Rect) -> str:
    return f"({value.lo[0]:g}, {value.lo[1]:g}, {value.hi[0]:g}, {value.hi[1]:g})"


def make_box_type() -> OpaqueType:
    def validate(value):
        if not isinstance(value, Rect) or value.ndim != 2:
            raise DataTypeError(f"Box expected, got {value!r}")
        return value

    return OpaqueType(
        BOX_TYPE_NAME, input_fn=box_input, output_fn=box_output, validate_fn=validate
    )


def register_box_type(server) -> None:
    """Make the Box type available; the R-tree and GiST blades both
    index it, so whichever is installed second finds it there."""
    if BOX_TYPE_NAME not in server.types:
        server.types.register(make_box_type())


#: Strategy semantics: leaf test + internal pruning test, as callables on
#: (entry_rect, query_rect).
_STRATEGIES: Dict[str, Tuple[Callable, Callable]] = {
    "overlap": (Rect.intersects, Rect.intersects),
    "equal": (lambda a, b: a == b, Rect.contains),
    "contains": (Rect.contains, Rect.contains),
    "within": (lambda a, b: b.contains(a), Rect.intersects),
}

#: Commuted forms for f(constant, column).
_COMMUTED = {
    "overlap": "overlap",
    "equal": "equal",
    "contains": "within",
    "within": "contains",
}

_UDR_NAMES = {
    "overlap": "Overlap",
    "equal": "Equal",
    "contains": "Contains",
    "within": "Within",
}


class RTreeDataBlade(AccessMethodBlade):
    """The R-tree access method over 2-D boxes."""

    PREFIX = "rt"
    LIBRARY_PATH = "usr/functions/rtree.bld"
    AM_NAME = "rtree_am"
    METADATA_TABLE = "rtree_indexdata"
    OPCLASSES = (
        OpclassDefinition(
            "rtree_ops",
            (BOX_TYPE_NAME,),
            strategies=(
                ("Overlap", "rt_overlap_udr"),
                ("Equal", "rt_equal_udr"),
                ("Contains", "rt_contains_udr"),
                ("Within", "rt_within_udr"),
            ),
            supports=(
                ("RT_Union", "rt_union_udr", "pointer", 2),
                ("RT_Size", "rt_size_udr", "pointer", 1),
                ("RT_Inter", "rt_inter_udr", "pointer", 2),
            ),
        ),
    )

    def __init__(self, server) -> None:
        super().__init__(server)
        #: Dynamic dispatch: strategy tests resolved through the UDR
        #: registry per entry (the extensible design of Section 5.2).
        self.dynamic_dispatch = False

    # -- hooks ---------------------------------------------------------------

    def validate(self, td: IndexDescriptor) -> None:
        if tuple(t.upper() for t in td.column_types) != (BOX_TYPE_NAME.upper(),):
            raise AccessMethodError(
                f"{self.AM_NAME} indexes exactly one {BOX_TYPE_NAME} column"
            )

    def build(self, td, pools, meta, options, obs) -> Dict[str, Any]:
        pool = pools["blob"]
        root = load_root(pool, _MAGIC, meta is None, td.index_name)
        tree = RStarTree(NodeStore(pool, ndim=2), **root)
        tree.meta_page = 0  # the kit's root record: reachable, not an orphan
        return {"tree": tree}

    def save(self, td: IndexDescriptor) -> None:
        save_root(td.user_data["pools"]["blob"], _MAGIC, td.user_data["tree"])

    def leaf(self, td, qual: SimpleQualification) -> Tuple[str, Rect]:
        name = qual.function.lower()
        if name not in _STRATEGIES:
            raise AccessMethodError(
                f"{qual.function} is not an R-tree strategy function"
            )
        if not isinstance(qual.constant, Rect):
            raise AccessMethodError(f"{qual.function} constant must be a Box")
        if qual.constant_first:
            name = _COMMUTED[name]
        return name, qual.constant

    def probe(self, td, branch):
        """Index probe driven by the branch's first predicate, the rest
        applied to each hit."""
        tree: RStarTree = td.user_data["tree"]
        strategy, query = branch[0]
        stack = [tree.root_id]
        while stack:
            node = tree.store.read(stack.pop())
            for entry in node.entries:
                if not node.leaf:
                    if _STRATEGIES[strategy][1](entry.rect, query):
                        stack.append(entry.child)
                elif all(self.leaf_test(s, entry.rect, q) for s, q in branch):
                    yield entry.rowid, entry.fragid, entry.rect

    def cost(self, td, structures, branches) -> float:
        # A crude estimate: tree height plus a constant per DNF branch.
        return structures["tree"].height + len(branches)

    def leaf_test(self, strategy: str, entry_rect: Rect, query: Rect) -> bool:
        """Leaf-level test; dynamically dispatched through the UDR
        registry when ``dynamic_dispatch`` is on (Section 5.2)."""
        if self.dynamic_dispatch:
            routine = self.server.catalog.routines.resolve(
                _UDR_NAMES[strategy], (BOX_TYPE_NAME, BOX_TYPE_NAME)
            )
            self.server.catalog.routines.invocations += 1
            return bool(routine(entry_rect, query))
        return _STRATEGIES[strategy][0](entry_rect, query)

    def udrs(self) -> Dict[str, Callable]:
        return {
            "rt_overlap_udr": lambda a, b: a.intersects(b),
            "rt_equal_udr": lambda a, b: a == b,
            "rt_contains_udr": lambda a, b: a.contains(b),
            "rt_within_udr": lambda a, b: b.contains(a),
            "rt_union_udr": lambda a, b: a.union(b),
            "rt_size_udr": lambda a: a.area(),
            "rt_inter_udr": lambda a, b: a.intersection(b),
        }


def register_rtree_blade(server) -> RTreeDataBlade:
    """Install the R-tree DataBlade into *server*."""
    register_box_type(server)
    return RTreeDataBlade(server).install()
