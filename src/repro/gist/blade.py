"""The generic GiST DataBlade (``gist_am``).

The paper's conclusion made concrete: *one* set of purpose functions
serves every GiST instantiation; the *operator class* chosen at
``CREATE INDEX`` time selects the extension (key class) -- "use
specially designed operator classes to extend it".  Shipping opclasses:

* ``gist_rect_ops`` -- Box column, strategies Overlap/Contains/Within/
  Equal (the R-tree instance);
* ``gist_interval_ops`` -- INTEGER/FLOAT column, comparison strategies
  (the B+-tree instance).
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.datablade.bladesmith import OpclassDefinition
from repro.datablade.kit import AccessMethodBlade, load_root, save_root
from repro.gist.extension import GistExtension
from repro.gist.extensions import IntervalExtension, RectExtension
from repro.gist.tree import GiST, GistNodeStore
from repro.rblade.blade import BOX_TYPE_NAME, register_box_type
from repro.server.access_method import IndexDescriptor, SimpleQualification
from repro.server.errors import AccessMethodError

_MAGIC = b"GIST"


class GistDataBlade(AccessMethodBlade):
    PREFIX = "gs"
    LIBRARY_PATH = "usr/functions/gist.bld"
    AM_NAME = "gist_am"
    METADATA_TABLE = "gist_indexdata"
    OPCLASSES = (
        # Rect strategies over Box under private spellings, to stay
        # independent of the R-tree blade's ``Overlap``...
        OpclassDefinition(
            "gist_rect_ops",
            (BOX_TYPE_NAME,),
            strategies=(
                ("GS_Overlap", "gist_overlap_udr"),
                ("GS_Contains", "gist_contains_udr"),
                ("GS_Within", "gist_within_udr"),
                ("GS_Equal", "gist_equal_udr"),
            ),
        ),
        # Interval strategies over numbers.
        OpclassDefinition(
            "gist_interval_ops",
            ("INTEGER", "FLOAT"),
            strategies=(
                ("GS_NumEqual", "gist_num_eq_udr"),
                ("GS_GreaterThan", "gist_num_gt_udr"),
                ("GS_GreaterThanOrEqual", "gist_num_ge_udr"),
                ("GS_LessThan", "gist_num_lt_udr"),
                ("GS_LessThanOrEqual", "gist_num_le_udr"),
            ),
        ),
    )

    def __init__(self, server) -> None:
        super().__init__(server)
        #: opclass name (lowercase) -> extension instance.
        self.extensions: Dict[str, GistExtension] = {}

    def register_extension(self, opclass_name: str, extension: GistExtension):
        self.extensions[opclass_name.lower()] = extension
        return extension

    def _extension(self, td: IndexDescriptor) -> GistExtension:
        name = td.opclass_names[0].lower()
        try:
            return self.extensions[name]
        except KeyError:
            raise AccessMethodError(
                f"no GiST extension registered for operator class {name}"
            ) from None

    # -- hooks ---------------------------------------------------------------

    def validate(self, td: IndexDescriptor) -> None:
        super().validate(td)
        self._extension(td)  # fails fast for unknown opclasses

    def build(self, td, pools, meta, options, obs) -> Dict[str, Any]:
        pool = pools["blob"]
        root = load_root(pool, _MAGIC, meta is None, td.index_name)
        tree = GiST(GistNodeStore(pool, self._extension(td)), **root)
        tree.meta_page = 0  # the kit's root record: reachable, not an orphan
        return {"tree": tree}

    def save(self, td: IndexDescriptor) -> None:
        save_root(td.user_data["pools"]["blob"], _MAGIC, td.user_data["tree"])

    def leaf(self, td, qual: SimpleQualification):
        return self._extension(td).query_for(qual.function, qual.constant)

    def probe(self, td, branch):
        """Descend by ``consistent`` on the branch's first query; a leaf
        entry is a hit when its key matches every query of the branch."""
        extension = self._extension(td)
        tree: GiST = td.user_data["tree"]
        stack = [tree.root_id]
        while stack:
            node = tree.store.read(stack.pop())
            for entry in node.entries:
                if not node.leaf:
                    if extension.consistent(entry.key, branch[0]):
                        stack.append(entry.child)
                elif all(extension.matches(entry.key, q) for q in branch):
                    yield entry.rowid, entry.fragid, entry.key

    def encode(self, td: IndexDescriptor, value: Any):
        return self._extension(td).key_for_value(value)

    def cost(self, td, structures, branches) -> float:
        return structures["tree"].height + 1

    def udrs(self) -> Dict[str, Callable]:
        return {
            "gist_overlap_udr": lambda a, b: a.intersects(b),
            "gist_contains_udr": lambda a, b: a.contains(b),
            "gist_within_udr": lambda a, b: b.contains(a),
            "gist_equal_udr": lambda a, b: a == b,
            "gist_num_eq_udr": lambda a, b: a == b,
            "gist_num_gt_udr": lambda a, b: a > b,
            "gist_num_ge_udr": lambda a, b: a >= b,
            "gist_num_lt_udr": lambda a, b: a < b,
            "gist_num_le_udr": lambda a, b: a <= b,
        }


def register_gist_blade(server) -> GistDataBlade:
    """Install the generic GiST access method with its two shipped
    operator classes (rect and interval instantiations)."""
    # The rect instantiation indexes Box columns.
    register_box_type(server)
    blade = GistDataBlade(server).install()
    blade.register_extension("gist_rect_ops", RectExtension())
    blade.register_extension("gist_interval_ops", IntervalExtension())
    return blade
