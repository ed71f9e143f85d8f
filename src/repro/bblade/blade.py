"""The B+-tree access method (``btree_am``) and its operator classes.

Unlike the GR-tree blade (which hard-codes everything, Section 5.2),
this blade resolves its ``Compare`` *support function* dynamically
through the operator class named at ``CREATE INDEX`` time -- so a second
operator class with a redefined comparator changes the order of an
index without touching a single purpose function, exactly the
extensibility story of Step 4.  The routine is resolved by name and
signature once per index open and bound for that open's comparisons; a
``CREATE FUNCTION`` or ``DROP FUNCTION`` takes effect at the next open.
(The per-call price of Section 5.2 is reproduced where Figure 7
measures it: the R-tree blade's ``dynamic_dispatch``.)

Keys are the column type's binary ``send()`` representation; the
comparator UDR receives the *decoded* values.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.btree.node import BTreeNodeStore
from repro.btree.tree import BPlusTree
from repro.datablade.bladesmith import OpclassDefinition
from repro.datablade.kit import AccessMethodBlade, load_root, save_root
from repro.server.access_method import IndexDescriptor, SimpleQualification
from repro.server.errors import AccessMethodError, UdrError

#: Types with binary send/receive and a natural comparison.
INDEXABLE_TYPES = ("INTEGER", "FLOAT", "DATE", "LVARCHAR")

#: Strategy name -> (low, high, low_inclusive, high_inclusive) template,
#: with `K` standing for the constant key.
RANGES = {
    "equal": ("K", "K", True, True),
    "greaterthan": ("K", None, False, True),
    "greaterthanorequal": ("K", None, True, True),
    "lessthan": (None, "K", True, False),
    "lessthanorequal": (None, "K", True, True),
}

#: Commuted strategy when the constant is the first argument:
#: GreaterThan(c, col) means col < c, and so on.
COMMUTED = {
    "equal": "equal",
    "greaterthan": "lessthan",
    "greaterthanorequal": "lessthanorequal",
    "lessthan": "greaterthan",
    "lessthanorequal": "greaterthanorequal",
}


def natural(a, b) -> int:
    return (a > b) - (a < b)


def unbound(*keys: bytes):
    """The support functions of structures built but not yet opened
    (a costing view, or between am_create and am_open)."""
    raise AccessMethodError("support functions are bound when the index opens")


def comparison_udrs(prefix: str) -> Dict[str, Callable]:
    """The five comparison strategies and the comparator, as the
    library symbols ``<prefix>_equal_udr`` ... ``<prefix>_compare_udr``."""
    return {
        f"{prefix}_equal_udr": lambda a, b: natural(a, b) == 0,
        f"{prefix}_gt_udr": lambda a, b: natural(a, b) > 0,
        f"{prefix}_ge_udr": lambda a, b: natural(a, b) >= 0,
        f"{prefix}_lt_udr": lambda a, b: natural(a, b) < 0,
        f"{prefix}_le_udr": lambda a, b: natural(a, b) <= 0,
        f"{prefix}_compare_udr": natural,
    }


def comparison_strategies(prefix: str) -> Tuple[Tuple[str, str], ...]:
    """(SQL name, symbol) of the strategies :func:`comparison_udrs` serves."""
    sql, symbol = prefix.upper(), prefix.lower()
    return (
        (f"{sql}_Equal", f"{symbol}_equal_udr"),
        (f"{sql}_GreaterThan", f"{symbol}_gt_udr"),
        (f"{sql}_GreaterThanOrEqual", f"{symbol}_ge_udr"),
        (f"{sql}_LessThan", f"{symbol}_lt_udr"),
        (f"{sql}_LessThanOrEqual", f"{symbol}_le_udr"),
    )


def range_bounds(tree: BPlusTree, branch: List[Tuple[str, Any]], encode):
    """Intersect the branch's range predicates into one interval of
    encoded keys."""
    low = high = None
    low_inc = high_inc = True
    for name, constant in branch:
        key = encode(constant)
        t_low, t_high, t_low_inc, t_high_inc = RANGES[name]
        if t_low == "K":
            cmp = 1 if low is None else tree.compare(key, low)
            if cmp > 0 or (cmp == 0 and not t_low_inc):
                low, low_inc = key, t_low_inc
        if t_high == "K":
            cmp = -1 if high is None else tree.compare(key, high)
            if cmp < 0 or (cmp == 0 and not t_high_inc):
                high, high_inc = key, t_high_inc
    return low, high, low_inc, high_inc


class BTreeDataBlade(AccessMethodBlade):
    PREFIX = "bt"
    LIBRARY_PATH = "usr/functions/btree.bld"
    AM_NAME = "btree_am"
    METADATA_TABLE = "btree_indexdata"
    OPCLASSES = (
        OpclassDefinition(
            "btree_ops",
            INDEXABLE_TYPES,
            strategies=comparison_strategies("BT"),
            supports=(("Compare", "bt_compare_udr", "int", 2),),
        ),
    )
    COMMUTATORS = (
        ("BT_GreaterThan", "BT_LessThanOrEqual"),
        ("BT_LessThanOrEqual", "BT_GreaterThan"),
    )
    NEGATORS = (("BT_Equal", "BT_NotEqual"),)
    MAGIC = b"BTB1"

    # ------------------------------------------------------------------
    # Key codec and dynamic support resolution (Step 4)
    # ------------------------------------------------------------------

    def _key_type(self, td: IndexDescriptor):
        return self.server.catalog.types.get(td.column_types[0])

    def _support_name(self, td: IndexDescriptor, needle: str) -> str:
        """The opclass's support function whose name contains *needle*."""
        opclass = self.server.catalog.opclasses.get(td.opclass_names[0])
        for name in opclass.supports:
            if needle in name.lower():
                return name
        raise AccessMethodError(
            f"operator class {opclass.name} declares no {needle} support"
        )

    def _support(self, td: IndexDescriptor, needle: str, arity: int):
        """The opclass's support function whose name contains *needle*,
        over encoded keys (*arity* 1 or 2), for one index open: the
        routine is resolved dynamically by name and signature -- the
        non-hard-coded design of Section 5.2 -- here, once, not at every
        call.  A routine that does not resolve fails each call with the
        resolver's error."""
        name = self._support_name(td, needle)
        key_type = self._key_type(td)
        receive = key_type.receive
        try:
            fn = self.server.catalog.routines.resolve(
                name, (key_type.name,) * arity
            ).fn
        except UdrError as exc:
            message = f"index {td.index_name}: {exc}"

            def unresolved(*keys: bytes):
                raise UdrError(message)

            return unresolved
        if arity == 1:
            return lambda key: fn(receive(key))
        return lambda a, b: fn(receive(a), receive(b))

    def bind(self, td: IndexDescriptor) -> None:
        """Give the attached structures this open's support functions."""
        td.user_data["tree"].compare = self._support(td, "compare", 2)

    def encode(self, td: IndexDescriptor, value: Any) -> bytes:
        return self._key_type(td).send(value)

    def decode(self, td: IndexDescriptor, key: bytes) -> Any:
        return self._key_type(td).receive(key)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def validate(self, td: IndexDescriptor) -> None:
        super().validate(td)
        self._support_name(td, "compare")

    def _open_tree(self, td, pool, fresh: bool) -> BPlusTree:
        return BPlusTree(
            BTreeNodeStore(pool),
            unbound,
            **load_root(pool, self.MAGIC, fresh, td.index_name),
        )

    def build(self, td, pools, meta, options, obs) -> Dict[str, Any]:
        return {"tree": self._open_tree(td, pools["blob"], meta is None)}

    def am_open(self, td: IndexDescriptor) -> int:
        """The kit's open, then :meth:`bind`: whether the structures are
        new or reused from the handle cache, a CREATE or DROP FUNCTION
        since the last open takes effect now."""
        super().am_open(td)
        self.bind(td)
        return 0

    def save(self, td: IndexDescriptor) -> None:
        save_root(td.user_data["pools"]["blob"], self.MAGIC, td.user_data["tree"])

    def leaf(self, td, qual: SimpleQualification) -> Tuple[str, Any]:
        """(strategy, constant), the strategy commuted so that the
        column is always its first argument."""
        name = qual.function.lower()
        if name.startswith(self.PREFIX + "_"):
            name = name[len(self.PREFIX) + 1:]
        if name not in RANGES:
            raise AccessMethodError(
                f"{qual.function} is not a {self.AM_NAME} strategy function"
            )
        if qual.constant_first:
            name = COMMUTED[name]
        return name, qual.constant

    def probe(self, td, branch):
        tree: BPlusTree = td.user_data["tree"]
        bounds = range_bounds(tree, branch, lambda value: self.encode(td, value))
        for key, rowid, fragid in tree.search_range(*bounds):
            yield rowid, fragid, key

    def cost(self, td, structures, branches) -> float:
        return structures["tree"].height + len(branches)

    def udrs(self) -> Dict[str, Callable]:
        return comparison_udrs(self.PREFIX)


def register_btree_blade(server) -> BTreeDataBlade:
    """Install the B+-tree DataBlade; indexable types: INTEGER, FLOAT,
    DATE, LVARCHAR (anything with binary send/receive and a comparator
    overload)."""
    return BTreeDataBlade(server).install()
