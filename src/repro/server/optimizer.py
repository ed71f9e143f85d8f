"""The optimizer's virtual-index decision (Section 4, Step 4).

"When the query optimizer meets a function in the WHERE clause of an SQL
statement, it determines if a virtual index is applicable ... by checking
if a virtual index exists for the column involved in the function, and if
this function is declared as a strategy function in the operator class of
the corresponding access method."

The planner splits the WHERE clause into top-level conjuncts, converts
the conjuncts that are strategy-function predicates over one indexed
column into a qualification descriptor (complex AND/OR combinations are
passed through whole; the DataBlade breaks them up, Section 6.3), keeps
the remainder as a residual filter, and compares ``am_scancost`` against
the sequential-scan page count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

from repro.server.access_method import (
    BooleanOperator,
    CompoundQualification,
    Qualification,
    SimpleQualification,
)
from repro.server.catalog import IndexInfo
from repro.server.errors import SqlError
from repro.server.sql import And, ColumnRef, Comparison, Expr, FunctionCall, Literal, Not, Or
from repro.server.table import Table


@dataclass
class SeqScanPlan:
    table: Table
    residual: Optional[Expr]
    cost: float


@dataclass
class IndexScanPlan:
    table: Table
    index: IndexInfo
    qualification: Qualification
    residual: Optional[Expr]
    cost: float


Plan = Union[SeqScanPlan, IndexScanPlan]


def _conjuncts(expr: Optional[Expr]) -> List[Expr]:
    if expr is None:
        return []
    if isinstance(expr, And):
        return list(expr.children)
    return [expr]


def _rebuild_conjunction(conjuncts: List[Expr]) -> Optional[Expr]:
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return And(conjuncts)


#: Comparison operators map onto strategy-function spellings, the way
#: the server maps ``>`` onto the B+-tree's ``GreaterThan()`` strategy.
#: Different blades register the same semantics under prefixed names.
_OPERATOR_STRATEGY_NAMES = {
    "=": {"equal", "bt_equal", "hb_equal", "gs_numequal", "numequal"},
    ">": {"greaterthan", "bt_greaterthan", "hb_greaterthan", "gs_greaterthan"},
    ">=": {
        "greaterthanorequal", "bt_greaterthanorequal",
        "hb_greaterthanorequal", "gs_greaterthanorequal",
    },
    "<": {"lessthan", "bt_lessthan", "hb_lessthan", "gs_lessthan"},
    "<=": {
        "lessthanorequal", "bt_lessthanorequal", "hb_lessthanorequal",
        "gs_lessthanorequal",
    },
}


#: Builds a conjunct's qualification from the conjunct itself: what
#: :func:`_converter` worked out from the conjunct's shape is in the
#: closure; the constant is read from the literal each time.
Converter = Callable[[Expr], Qualification]


def _converter(expr: Expr, index: IndexInfo, table: Table, server) -> Optional[
    Converter
]:
    """How an expression converts into a qualification for *index*, or
    None when it does not.

    Only single-column predicates survive (the paper's restriction):
    ``f(column, constant)``, ``f(constant, column)``, ``f(column)``,
    where ``f`` is a strategy function of the index's operator class and
    ``column`` is the indexed column.  Comparison operators are treated
    as spellings of the corresponding strategy functions when the
    opclass declares them (the B+-tree's GreaterThan/LessThanOrEqual).
    The answer depends on the expression's shape and the catalog, never
    on its literals.
    """
    if isinstance(expr, FunctionCall):
        return _call_converter(expr, index, table, server)
    if isinstance(expr, Comparison):
        return _comparison_converter(expr, index, table, server)
    if isinstance(expr, (And, Or)):
        children = [_converter(child, index, table, server) for child in expr.children]
        if any(child is None for child in children):
            return None
        operator = (
            BooleanOperator.AND if isinstance(expr, And) else BooleanOperator.OR
        )
        return lambda e: CompoundQualification(
            operator,
            [convert(child) for convert, child in zip(children, e.children)],
        )
    return None  # comparisons and NOT never reach the index interface


def _call_converter(
    call: FunctionCall, index: IndexInfo, table: Table, server
) -> Optional[Converter]:
    opclasses = [server.catalog.opclasses.get(name) for name in index.opclass_names]
    if not any(oc.is_strategy(call.name) for oc in opclasses):
        return None
    columns = [a for a in call.args if isinstance(a, ColumnRef)]
    literals = [a for a in call.args if isinstance(a, Literal)]
    if len(columns) != 1 or len(columns) + len(literals) != len(call.args):
        return None
    name, column = call.name, columns[0].name
    if column.lower() not in (c.lower() for c in index.columns):
        return None
    if not literals:
        return lambda e: SimpleQualification(name, column, has_constant=False)
    if len(literals) != 1 or len(call.args) != 2:
        return None
    constant_first = isinstance(call.args[0], Literal)
    position = 0 if constant_first else 1
    column_type = table.column(column).data_type

    def convert(e: FunctionCall) -> SimpleQualification:
        literal = e.args[position]
        constant = (
            column_type.input(literal.text)
            if literal.is_string
            else literal.python_value
        )
        return SimpleQualification(
            name, column, constant=constant, constant_first=constant_first
        )

    return convert


#: CPU cost, in page-read equivalents, of one UDR invocation during a
#: sequential scan (strategy functions are real code, not comparisons).
_UDR_EVAL_COST = 0.02


def _contains_udr_call(expr: Optional[Expr]) -> bool:
    if expr is None:
        return False
    if isinstance(expr, FunctionCall):
        return True
    if isinstance(expr, (And, Or)):
        return any(_contains_udr_call(child) for child in expr.children)
    if isinstance(expr, Not):
        return _contains_udr_call(expr.child)
    return False


def _comparison_converter(
    cmp: Comparison, index: IndexInfo, table: Table, server
) -> Optional[Converter]:
    spellings = _OPERATOR_STRATEGY_NAMES.get(cmp.op)
    if spellings is None:
        return None
    sides = (cmp.left, cmp.right)
    columns = [s for s in sides if isinstance(s, ColumnRef)]
    literals = [s for s in sides if isinstance(s, Literal)]
    if len(columns) != 1 or len(literals) != 1:
        return None
    column = columns[0].name
    if column.lower() not in (c.lower() for c in index.columns):
        return None
    # Does any of the index's opclasses declare a strategy spelling this
    # operator (e.g. "GreaterThan" or "BT_GreaterThan")?
    strategy_name = None
    for opclass_name in index.opclass_names:
        opclass = server.catalog.opclasses.get(opclass_name)
        for strategy in opclass.strategies:
            if strategy.lower() in spellings:
                strategy_name = strategy
                break
        if strategy_name:
            break
    if strategy_name is None:
        return None
    column_type = table.column(column).data_type
    constant_first = isinstance(cmp.left, Literal)

    def convert(e: Comparison) -> SimpleQualification:
        literal = e.left if constant_first else e.right
        constant = (
            column_type.input(literal.text)
            if literal.is_string
            else column_type.validate(literal.python_value)
        )
        return SimpleQualification(
            strategy_name, column, constant=constant, constant_first=constant_first
        )

    return convert


@dataclass
class _Candidate:
    """An index some conjuncts convert for: (position, converter) of
    each such conjunct, and the positions of the residual ones."""

    index: IndexInfo
    converters: List[Tuple[int, Converter]]
    residual: List[int]


@dataclass
class _Analysis:
    """What planning a WHERE clause learns from its shape alone, valid
    while the catalog stays at *version*."""

    version: int
    calls_udr: bool
    candidates: List[_Candidate]


class PlanCache:
    """The analysis shared by every statement of one shape: the
    statement cache hands each statement it builds its shape's
    ``PlanCache`` (``Select.plan_cache`` and the like)."""

    __slots__ = ("analysis",)

    def __init__(self) -> None:
        self.analysis: Optional[_Analysis] = None


def _analyze(server, table: Table, where: Optional[Expr], version: int) -> _Analysis:
    conjuncts = _conjuncts(where)
    candidates = []
    for index in server.catalog.indices_on(table.name):
        converters: List[Tuple[int, Converter]] = []
        residual: List[int] = []
        for position, conjunct in enumerate(conjuncts):
            convert = _converter(conjunct, index, table, server)
            if convert is None:
                residual.append(position)
            else:
                converters.append((position, convert))
        if converters:
            candidates.append(_Candidate(index, converters, residual))
    return _Analysis(version, _contains_udr_call(where), candidates)


def choose_plan(
    server, table: Table, where: Optional[Expr], cache: Optional[PlanCache] = None
) -> Plan:
    """Pick the cheapest access path for the WHERE clause.

    Which indexes apply, how each conjunct converts and what is left as
    a residual come from the shape's analysis in *cache* while the
    catalog version it was made at holds, else from a fresh one; the
    constants, ``am_scancost`` and the choice are worked out for every
    statement.  When ``server.prefer_virtual_index`` is set (the
    analogue of an optimizer directive), any applicable virtual index
    wins outright.
    """
    version = server.catalog.version
    analysis = None if cache is None else cache.analysis
    if analysis is None or analysis.version != version:
        analysis = _analyze(server, table, where, version)
        if cache is not None:
            cache.analysis = analysis
    seq_cost = float(table.page_count)
    if analysis.calls_udr:
        seq_cost += _UDR_EVAL_COST * table.row_count
    best: Plan = SeqScanPlan(table, where, seq_cost)
    index_plans: List[IndexScanPlan] = []
    conjuncts = _conjuncts(where)
    for candidate in analysis.candidates:
        usable = [convert(conjuncts[i]) for i, convert in candidate.converters]
        qualification: Qualification = (
            usable[0]
            if len(usable) == 1
            else CompoundQualification(BooleanOperator.AND, usable)
        )
        cost = server.executor.estimate_scan_cost(candidate.index, qualification)
        residual = _rebuild_conjunction([conjuncts[i] for i in candidate.residual])
        plan = IndexScanPlan(table, candidate.index, qualification, residual, cost)
        index_plans.append(plan)
        if plan.cost < best.cost:
            best = plan
    if index_plans and getattr(server, "prefer_virtual_index", False):
        return min(index_plans, key=lambda p: p.cost)
    return best
