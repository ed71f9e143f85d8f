"""The B+-tree access method (``btree_am``) and its operator classes.

Unlike the GR-tree blade (which hard-codes everything, Section 5.2),
this blade resolves its ``Compare`` *support function* dynamically
through the operator class named at ``CREATE INDEX`` time -- so a second
operator class with a redefined comparator changes the order of an
index without touching a single purpose function, exactly the
extensibility story of Step 4.

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
from repro.server.errors import AccessMethodError

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
            if low is None or tree.compare(key, low) > 0 or (
                tree.compare(key, low) == 0 and not t_low_inc
            ):
                low, low_inc = key, t_low_inc
        if t_high == "K":
            if high is None or tree.compare(key, high) < 0 or (
                tree.compare(key, high) == 0 and not t_high_inc
            ):
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

    def _support(self, td: IndexDescriptor, needle: str, arity: int):
        """The opclass's support function whose name contains *needle*,
        over encoded keys -- resolved dynamically at every call, the
        non-hard-coded design of Section 5.2."""
        opclass = self.server.catalog.opclasses.get(td.opclass_names[0])
        for name in opclass.supports:
            if needle in name.lower():
                break
        else:
            raise AccessMethodError(
                f"operator class {opclass.name} declares no {needle} support"
            )
        key_type = self._key_type(td)
        arg_types = (key_type.name,) * arity
        routines = self.server.catalog.routines

        def support(*keys: bytes):
            routine = routines.resolve(name, arg_types)
            routines.invocations += 1
            return routine(*map(key_type.receive, keys))

        return support

    def encode(self, td: IndexDescriptor, value: Any) -> bytes:
        return self._key_type(td).send(value)

    def decode(self, td: IndexDescriptor, key: bytes) -> Any:
        return self._key_type(td).receive(key)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def validate(self, td: IndexDescriptor) -> None:
        super().validate(td)
        self._support(td, "compare", 2)

    def _open_tree(self, td, pool, fresh: bool) -> BPlusTree:
        return BPlusTree(
            BTreeNodeStore(pool),
            self._support(td, "compare", 2),
            **load_root(pool, self.MAGIC, fresh, td.index_name),
        )

    def build(self, td, pools, meta, options, obs) -> Dict[str, Any]:
        return {"tree": self._open_tree(td, pools["blob"], meta is None)}

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
