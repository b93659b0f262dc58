"""Turn parsed queries into executable plans against a mask store.

Responsibilities: resolve the view and columns, fold metadata-only WHERE
conjuncts into the target-id prefilter, convert count calls into bound
terms (validating value ranges and converting the dialect's 1-based
inclusive corner pairs to internal 0-based half-open rectangles), classify
the query shape, compile the SELECT list into the result's columns, and
check at plan time that predicates, rankings and aggregates are boundable
-- a plan with one that is not verifies every mask.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from . import sql
from .bounds import (
    AreaTerm,
    BinOp,
    Const,
    CpTerm,
    Expr,
    NonMonotoneOperator,
    is_boundable,
)
from .executor import (
    AggSpec,
    BoolOp,
    Column,
    CpComparison,
    ExprItem,
    FilterSpec,
    HavingBool,
    HavingCmp,
    MASK_AGGS,
    MaskAggSpec,
    MetaComparison,
    Predicate,
    QueryPlan,
    ScalarAggSpec,
    TopKSpec,
    Value,
)
from .store import MaskStore, Roi, RoiBinding, ValueRange

VIEW_NAME = "masksdatabaseview"
META_COLUMNS = ("mask_id", "image_id", "model_id", "mask_type")
GROUP_KEYS = ("image_id", "model_id")


class PlanError(Exception):
    pass


class UnknownColumn(PlanError):
    pass


class MissingRoiTable(PlanError):
    pass


def _contains_cp(node) -> bool:
    if isinstance(node, sql.CpCall):
        return True
    if isinstance(node, sql.Arith):
        return _contains_cp(node.left) or _contains_cp(node.right)
    if isinstance(node, sql.ScalarAggCall):
        return _contains_cp(node.arg)
    if isinstance(node, sql.Compare):
        return _contains_cp(node.left) or _contains_cp(node.right)
    if isinstance(node, sql.BoolExpr):
        return any(_contains_cp(i) for i in node.items)
    return False


def _contains_agg(node) -> bool:
    if isinstance(node, sql.ScalarAggCall):
        return True
    if isinstance(node, sql.CpCall):
        return isinstance(node.source, sql.MaskAggCall)
    if isinstance(node, sql.Arith):
        return _contains_agg(node.left) or _contains_agg(node.right)
    return False


def _const_value(node) -> float | None:
    if isinstance(node, sql.NumberLit):
        return node.value
    if isinstance(node, sql.Arith):
        left, right = _const_value(node.left), _const_value(node.right)
        if left is None or right is None:
            return None
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        return left / right
    return None


def _meta_holds(node, columns) -> np.ndarray:
    """Boolean array over the manifest rows: where a compiled metadata tree holds."""
    if isinstance(node, BoolOp):
        parts = [_meta_holds(c, columns) for c in node.children]
        return (np.logical_and if node.op == "and" else np.logical_or).reduce(parts)
    return node.holds(columns)


class _Planner:
    def __init__(self, ast: sql.QueryAst, store: MaskStore, roi_table):
        self.ast = ast
        self.store = store
        self.roi_table = roi_table
        self.verify_all = False
        self._bindings: dict[sql.RoiSpec, RoiBinding] = {}

    # -- bindings ----------------------------------------------------------

    def roi_binding(self, spec: sql.RoiSpec) -> RoiBinding:
        """One binding per distinct roi of the query, so that equal count
        terms share one count per mask (``executor._QueryCtx`` keys terms
        by binding identity)."""
        if spec not in self._bindings:
            self._bindings[spec] = self._new_binding(spec)
        return self._bindings[spec]

    def _new_binding(self, spec: sql.RoiSpec) -> RoiBinding:
        if isinstance(spec, sql.RoiKeyword):
            if spec.kind == "full":
                return RoiBinding.full()
            if self.roi_table is None:
                raise MissingRoiTable(
                    "query uses 'object' rois but no roi table was supplied"
                )
            return RoiBinding.per_mask(self.roi_table)
        # Dialect corners are 1-based inclusive.
        if spec.x1 < 1 or spec.y1 < 1 or spec.x2 < spec.x1 or spec.y2 < spec.y1:
            raise PlanError(f"bad roi literal {spec}")
        return RoiBinding.constant(Roi(spec.x1 - 1, spec.y1 - 1, spec.x2, spec.y2))

    def value_range(self, lo: float, hi: float) -> ValueRange:
        try:
            return ValueRange(lo, hi)
        except ValueError as e:
            raise PlanError(str(e)) from e

    # -- expressions -------------------------------------------------------

    def to_expr(self, node: sql.AstExpr, *, mask_agg_sink: list | None = None) -> Expr:
        if isinstance(node, sql.NumberLit):
            return Const(node.value)
        if isinstance(node, sql.ColumnRef):
            raise UnknownColumn(
                f"column {node.name!r} cannot appear inside a count expression"
            )
        if isinstance(node, sql.AreaCall):
            return AreaTerm(self.roi_binding(node.roi))
        if isinstance(node, sql.CpCall):
            if isinstance(node.source, sql.MaskAggCall):
                if mask_agg_sink is None:
                    raise PlanError("mask aggregation requires GROUP BY")
                mask_agg_sink.append(node.source)
            return CpTerm(self.roi_binding(node.roi), self.value_range(node.lo, node.hi))
        if isinstance(node, sql.ScalarAggCall):
            raise PlanError("scalar aggregates cannot nest inside count expressions")
        if isinstance(node, sql.Arith):
            try:
                return BinOp(
                    node.op,
                    self.to_expr(node.left, mask_agg_sink=mask_agg_sink),
                    self.to_expr(node.right, mask_agg_sink=mask_agg_sink),
                )
            except NonMonotoneOperator as e:
                raise PlanError(str(e)) from e
        raise PlanError(f"cannot plan expression {node!r}")

    # -- WHERE -------------------------------------------------------------

    def split_where(self, cond) -> tuple[list, list]:
        """Top-level AND conjuncts -> (metadata-only, count-bearing)."""
        conjuncts = (
            list(cond.items) if isinstance(cond, sql.BoolExpr) and cond.op == "and" else [cond]
        )
        meta, cp = [], []
        for c in conjuncts:
            (cp if _contains_cp(c) else meta).append(c)
        return meta, cp

    def meta_filter_ids(self, meta_nodes) -> list[int]:
        """Ids of the masks every compiled metadata node accepts, in manifest order."""
        columns = self.store.columns
        keep = np.ones(len(columns["mask_id"]), dtype=bool)
        for node in meta_nodes:
            keep &= _meta_holds(node, columns)
        return columns["mask_id"][keep].tolist()

    def to_meta_node(self, cond):
        """Compile a count-free condition into MetaComparison/BoolOp nodes."""
        if isinstance(cond, sql.BoolExpr):
            return BoolOp(cond.op, tuple(self.to_meta_node(c) for c in cond.items))
        if isinstance(cond, sql.InList):
            self.check_column(cond.column)
            return MetaComparison(cond.column, "in", cond.values)
        if isinstance(cond, sql.Compare):
            return MetaComparison(self.meta_side(cond.left), cond.op, (self.meta_side(cond.right),))
        raise PlanError(f"cannot plan metadata condition {cond!r}")

    def meta_side(self, node) -> str | float:
        """A metadata comparison's side: a column name or a constant."""
        if isinstance(node, sql.ColumnRef):
            self.check_column(node.name)
            return node.name
        v = _const_value(node)
        if v is None:
            raise PlanError(f"unsupported metadata operand {node!r}")
        return v

    def check_column(self, name: str) -> None:
        if name not in META_COLUMNS:
            raise UnknownColumn(f"unknown column {name!r}")

    def to_pred_node(self, cond):
        if not _contains_cp(cond):
            return self.to_meta_node(cond)  # metadata nested under OR
        if isinstance(cond, sql.BoolExpr):
            return BoolOp(cond.op, tuple(self.to_pred_node(c) for c in cond.items))
        if isinstance(cond, sql.Compare):
            lcp, rcp = _contains_cp(cond.left), _contains_cp(cond.right)
            if cond.op == "=":
                raise PlanError("count comparisons support only > and <")
            if lcp and rcp:
                expr = BinOp("-", self.to_expr(cond.left), self.to_expr(cond.right))
                pred = Predicate(expr, cond.op, 0.0)
            elif lcp:
                t = _const_value(cond.right)
                if t is None:
                    raise PlanError("comparison threshold must be a constant")
                pred = Predicate(self.to_expr(cond.left), cond.op, t)
            else:
                t = _const_value(cond.left)
                if t is None:
                    raise PlanError("comparison threshold must be a constant")
                flipped = "<" if cond.op == ">" else ">"
                pred = Predicate(self.to_expr(cond.right), flipped, t)
            if not is_boundable(pred.expr):
                self.verify_all = True
            return CpComparison(pred)
        raise PlanError(f"cannot plan condition {cond!r}")

    # -- HAVING --------------------------------------------------------------

    def to_having(self, cond, agg_expr: sql.AstExpr, aliases: set):
        if isinstance(cond, sql.BoolExpr):
            return HavingBool(
                cond.op, tuple(self.to_having(c, agg_expr, aliases) for c in cond.items)
            )
        if isinstance(cond, sql.Compare):
            if cond.op == "=":
                raise PlanError("HAVING comparisons support only > and <")
            left_is_agg = self.refers_to_agg(cond.left, agg_expr, aliases)
            right_is_agg = self.refers_to_agg(cond.right, agg_expr, aliases)
            if left_is_agg and not right_is_agg:
                t = _const_value(cond.right)
                if t is None:
                    raise PlanError("HAVING threshold must be a constant")
                return HavingCmp(cond.op, t)
            if right_is_agg and not left_is_agg:
                t = _const_value(cond.left)
                if t is None:
                    raise PlanError("HAVING threshold must be a constant")
                return HavingCmp("<" if cond.op == ">" else ">", t)
        raise PlanError("HAVING must compare the aggregate against a constant")

    def refers_to_agg(self, node, agg_expr, aliases) -> bool:
        return node == agg_expr or isinstance(node, sql.ColumnRef) and node.name in aliases

    # -- the main entry ------------------------------------------------------

    def plan(self) -> QueryPlan:
        ast = self.ast
        if ast.from_name.lower() != VIEW_NAME:
            raise PlanError(f"unknown view {ast.from_name!r}")

        meta_conds, cp_conds = ([], [])
        if ast.where is not None:
            meta_conds, cp_conds = self.split_where(ast.where)
        target_ids = self.meta_filter_ids([self.to_meta_node(c) for c in meta_conds])

        pred_node = None
        if cp_conds:
            nodes = [self.to_pred_node(c) for c in cp_conds]
            pred_node = nodes[0] if len(nodes) == 1 else BoolOp("and", tuple(nodes))

        agg_items = [
            it
            for it in ast.select
            if isinstance(it, sql.SelectExpr) and _contains_agg(it.expr)
        ]
        if ast.group_by is not None or agg_items:
            shape, value_ast = self.plan_aggregation(pred_node, agg_items)
        elif ast.order is not None:
            shape, value_ast = self.plan_topk(pred_node)
        else:
            shape, value_ast = FilterSpec(pred_node, ast.limit), None
        return QueryPlan(target_ids, shape, self.select_items(value_ast), self.verify_all)

    def select_items(self, value_ast: sql.AstExpr | None) -> tuple:
        """The result's columns: its SELECT list, in order. A column is a
        metadata column, in a grouped query the group key, and takes no
        alias. In a filter (``value_ast`` None) an expression is evaluated
        on each row; in a top-k or grouped query it must be ``value_ast``,
        the ranked or aggregated expression, and names that value."""
        group_by, items = self.ast.group_by, []
        for it in self.ast.select:
            if isinstance(it, sql.SelectStar):
                if group_by is not None:
                    raise PlanError("SELECT * is not valid with GROUP BY")
                items.extend(Column(c) for c in META_COLUMNS)
            elif isinstance(it.expr, sql.ColumnRef):
                name = it.expr.name
                self.check_column(name)
                if group_by is not None and name != group_by:
                    raise UnknownColumn(f"grouped select may only list the group key, got {name!r}")
                if it.alias not in (None, name):
                    raise PlanError("column aliases are not supported")
                items.append(Column(name))
            elif value_ast is None:
                items.append(ExprItem(it.alias or f"expr{len(items)}", self.to_expr(it.expr)))
            elif it.expr == value_ast:
                items.append(Value(it.alias or "value"))
            else:
                raise PlanError(
                    "a top-k or grouped select may list columns and the ranked or "
                    "aggregated expression only"
                )
        names = [i.name for i in items]
        if len(set(names)) != len(names):
            raise PlanError("duplicate select column names")
        return tuple(items)

    def order_expr(self) -> sql.AstExpr:
        """ORDER BY as an AST expression, an alias resolved to its item's."""
        ref = self.ast.order.ref
        if isinstance(ref, str):
            for it in self.ast.select:
                if isinstance(it, sql.SelectExpr) and it.alias == ref:
                    return it.expr
            raise UnknownColumn(f"ORDER BY references unknown alias {ref!r}")
        return ref

    def plan_topk(self, pred_node) -> tuple[TopKSpec, sql.AstExpr]:
        expr_ast = self.order_expr()
        if not _contains_cp(expr_ast):
            raise PlanError("ORDER BY must rank by a count expression")
        expr = self.to_expr(expr_ast)
        if not is_boundable(expr):
            self.verify_all = True
        return TopKSpec(expr, self.ast.limit, self.ast.order.descending, pred_node), expr_ast

    def unselected_aggs(self) -> list[sql.AstExpr]:
        """The aggregates that a grouped query selecting none compares in
        HAVING or ranks by in ORDER BY."""
        found = []

        def walk(cond):
            if isinstance(cond, sql.BoolExpr):
                for c in cond.items:
                    walk(c)
            elif isinstance(cond, sql.Compare):
                found.extend(side for side in (cond.left, cond.right) if _contains_agg(side))

        if self.ast.having is not None:
            walk(self.ast.having)
        if self.ast.order is not None and _contains_agg(self.order_expr()):
            found.append(self.order_expr())
        return found

    def plan_aggregation(self, pred_node, agg_items) -> tuple[AggSpec, sql.AstExpr]:
        ast = self.ast
        if pred_node is not None:
            raise PlanError("WHERE count filters with GROUP BY are not supported")
        if ast.group_by is None:
            raise PlanError("aggregates require GROUP BY")
        if ast.group_by not in GROUP_KEYS:
            raise PlanError(f"GROUP BY must use one of {GROUP_KEYS}")
        aggs = [it.expr for it in agg_items] or self.unselected_aggs()
        if not aggs or any(a != aggs[0] for a in aggs):
            raise PlanError("exactly one aggregate expression is required")
        node = aggs[0]

        mask_aggs: list[sql.MaskAggCall] = []
        if isinstance(node, sql.ScalarAggCall):
            value = ScalarAggSpec(node.fn, self.to_expr(node.arg))
        else:
            expr = self.to_expr(node, mask_agg_sink=mask_aggs)
            if not mask_aggs:
                raise PlanError("grouped select must aggregate (SCALAR_AGG or MASK_AGG)")
            if len(set(mask_aggs)) != 1:
                raise PlanError("only one mask aggregate per query is supported")
            call = mask_aggs[0]
            factory = MASK_AGGS.get(call.name)
            if factory is None:
                raise PlanError(f"unknown mask aggregate {call.name!r}")
            args = () if call.threshold is None else (call.threshold,)
            value = MaskAggSpec(factory(*args), expr)
        if not is_boundable(value.expr):
            self.verify_all = True

        having = None
        if ast.having is not None:
            having = self.to_having(ast.having, node, {it.alias for it in agg_items})

        descending = None
        if ast.order is not None:
            if self.order_expr() != node:
                raise PlanError("grouped ORDER BY must rank by the aggregate")
            descending = ast.order.descending
        elif ast.limit is not None:
            raise PlanError("LIMIT on grouped queries requires ORDER BY")
        return AggSpec(ast.group_by, value, having, descending, ast.limit), node


def plan(
    ast: sql.QueryAst,
    store: MaskStore,
    roi_table: Mapping[int, Roi] | None = None,
) -> QueryPlan:
    """Plan a parsed query against a store's manifest."""
    return _Planner(ast, store, roi_table).plan()
