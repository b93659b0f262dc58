"""Filter-verification query execution.

Every query shape (filter, top-k, aggregation) follows the same two-stage
pattern: first bracket each mask's value using only its index, deciding
from the brackets alone whether the mask is certainly out, certainly in,
or undecided; then load only the undecided masks and evaluate exactly.
Results are always identical to a full scan, the only difference is how
many masks were read from disk.

Engines run in one of three modes:

* ``indexed``   -- every targeted mask must have a prebuilt index.
* ``incremental`` -- masks without an index are loaded, evaluated exactly,
  and indexed on the spot for later queries in the session.
* ``oracle``    -- no index at all; loads everything. The correctness
  reference the other two modes are tested against.
"""

from __future__ import annotations

import heapq
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

from . import bounds as bnd
from .bounds import (
    Bounds,
    CpTerm,
    Expr,
    bound_scalar_agg,
    cp_terms,
    exact_scalar_agg,
    expr_bounds,
    expr_exact,
)
from .chi import ChiBlock, IndexStore, build_chi
from .store import (
    INT64_MAX,
    INT64_MIN,
    MAX_PIXEL,
    PIXEL_DTYPE,
    DimensionMismatch,
    MaskMeta,
    MaskRecord,
    MaskStore,
    RoiBinding,
    cp_exact,
    f32_at_or_above,
)


class ExecError(Exception):
    pass


class MissingIndex(ExecError):
    pass


# -- predicates --------------------------------------------------------------


@dataclass(frozen=True)
class Predicate:
    """One-sided comparison of a count expression against a threshold."""

    expr: Expr
    comparator: str  # '>' or '<'
    threshold: float

    def __post_init__(self):
        if self.comparator not in (">", "<"):
            raise ValueError(f"unsupported comparator {self.comparator!r}")


@dataclass(frozen=True)
class CpComparison:
    pred: Predicate


_ORDER_OPS = {"<": np.less, ">": np.greater}
_FLIPPED = {"<": ">", ">": "<", "=": "="}


def _compare(a, op: str, b) -> np.ndarray:
    """``a op b`` for op in '<', '>', '=', where each side is an int64 column
    or a number, with the result Python's int/float comparison would give.

    A column is never converted to float: against a number ``c``, ``col > c``
    is ``col > floor(c)``, ``col < c`` is ``col < ceil(c)``, and ``col = c``
    holds only for an integral ``c``; numbers past the int64 range decide
    the whole column at once.
    """
    if not isinstance(a, np.ndarray):
        if not isinstance(b, np.ndarray):
            return np.bool_(a == b if op == "=" else (a < b if op == "<" else a > b))
        a, op, b = b, _FLIPPED[op], a
    if isinstance(b, np.ndarray):
        return np.equal(a, b) if op == "=" else _ORDER_OPS[op](a, b)
    if b != b:  # NaN
        return np.zeros(len(a), bool)
    if b > INT64_MAX or b < INT64_MIN:
        return np.full(len(a), op == ("<" if b > 0 else ">"))
    if op == "=":
        return np.equal(a, np.int64(b)) if b == math.floor(b) else np.zeros(len(a), bool)
    c = math.floor(b) if op == ">" else math.ceil(b)
    return _ORDER_OPS[op](a, np.int64(c))


@dataclass(frozen=True)
class MetaComparison:
    """``left op right`` over manifest columns; decidable without pixel I/O.

    An operand is a column name (see ``store.COLUMNS``) or a number.
    ``right`` holds one operand for '<' and '>'; '=' and 'in' hold when
    ``left`` equals any operand in it.
    """

    left: str | float
    op: str  # '=' | 'in' | '<' | '>'
    right: tuple

    def holds(self, columns: Mapping[str, np.ndarray], at: np.ndarray | None = None) -> np.ndarray:
        """Boolean array: where the comparison holds, for every row of
        ``columns`` or for the rows ``at``."""
        n = len(columns["mask_id"]) if at is None else len(at)

        def side(v):
            if not isinstance(v, str):
                return v
            return columns[v] if at is None else columns[v][at]

        left = side(self.left)
        if self.op in _ORDER_OPS:
            out = _compare(left, self.op, side(self.right[0]))
        else:
            out = np.zeros(n, bool)
            for v in self.right:
                out = out | _compare(left, "=", side(v))
        return np.broadcast_to(out, (n,))


@dataclass(frozen=True)
class BoolOp:
    op: str  # 'and' | 'or'
    children: tuple


PredNode = Union[CpComparison, MetaComparison, BoolOp]

_TRUE, _FALSE, _UNKNOWN = 1, 0, -1


def _compare_bounds(b: Bounds, comparator: str, threshold: float) -> int:
    """Three-valued verdict from a bracket: certain pass, certain fail, or not yet."""
    if comparator == ">":
        if b.upper <= threshold:
            return _FALSE
        if b.lower > threshold:
            return _TRUE
    else:
        if b.upper < threshold:
            return _TRUE
        if b.lower >= threshold:
            return _FALSE
    return _UNKNOWN


def _combine(op: str, verdicts: Sequence[int]) -> int:
    if op == "and":
        if any(v == _FALSE for v in verdicts):
            return _FALSE
        if all(v == _TRUE for v in verdicts):
            return _TRUE
    else:
        if any(v == _TRUE for v in verdicts):
            return _TRUE
        if all(v == _FALSE for v in verdicts):
            return _FALSE
    return _UNKNOWN


# -- aggregation specs -------------------------------------------------------


@dataclass(frozen=True)
class MaskAggregate:
    """Pixelwise combination of a group's masks into one pseudo-mask."""

    kind: str  # 'intersect' | 'min' | 'max'
    threshold: float | None = None

    def fingerprint(self) -> tuple:
        return (self.kind, self.threshold)

    def apply(self, stack: np.ndarray) -> np.ndarray:
        if self.kind == "intersect":
            # A float32 pixel is above t exactly when it is at or above the
            # next float64 after t, so compare against that rounded up.
            above = f32_at_or_above([np.nextafter(self.threshold, np.inf)])[0]
            hit = np.all(stack >= above, axis=0)
            return np.where(hit, np.float32(MAX_PIXEL), np.float32(0.0))
        if self.kind == "min":
            return np.min(stack, axis=0)
        if self.kind == "max":
            return np.max(stack, axis=0)
        raise ExecError(f"unknown mask aggregate {self.kind!r}")


MASK_AGG_REGISTRY: dict[str, object] = {}


def register_mask_agg(name: str, factory) -> None:
    """Register a MASK_AGG constructor for the query language."""
    MASK_AGG_REGISTRY[name.upper()] = factory


register_mask_agg("INTERSECT", lambda t: MaskAggregate("intersect", t))
register_mask_agg("MASK_MIN", lambda: MaskAggregate("min"))
register_mask_agg("MASK_MAX", lambda: MaskAggregate("max"))


@dataclass(frozen=True)
class ScalarAggSpec:
    fn: str  # SUM | AVG | MIN | MAX
    expr: Expr  # evaluated per member mask


@dataclass(frozen=True)
class MaskAggSpec:
    agg: MaskAggregate
    expr: Expr  # evaluated on the aggregated pseudo-mask


@dataclass(frozen=True)
class HavingCmp:
    comparator: str
    threshold: float


@dataclass(frozen=True)
class HavingBool:
    op: str  # 'and' | 'or'
    children: tuple


HavingNode = Union[HavingCmp, HavingBool]


def _having_verdict(node: HavingNode, b: Bounds) -> int:
    if isinstance(node, HavingCmp):
        return _compare_bounds(b, node.comparator, node.threshold)
    return _combine(node.op, [_having_verdict(c, b) for c in node.children])


def _having_exact(node: HavingNode, v: float) -> bool:
    if isinstance(node, HavingCmp):
        return v > node.threshold if node.comparator == ">" else v < node.threshold
    if node.op == "and":
        return all(_having_exact(c, v) for c in node.children)
    return any(_having_exact(c, v) for c in node.children)


# -- plans -------------------------------------------------------------------


@dataclass(frozen=True)
class FilterSpec:
    pred: PredNode | None  # None accepts every targeted mask
    limit: int | None = None  # plain row-count cap, lowest ids first


@dataclass(frozen=True)
class TopKSpec:
    expr: Expr
    k: int | None  # None returns all targets, ordered
    descending: bool = True
    pred: PredNode | None = None  # optional exact filter on ranked masks


@dataclass(frozen=True)
class AggSpec:
    group_key: str  # 'image_id' | 'model_id'
    value: ScalarAggSpec | MaskAggSpec
    having: HavingNode | None = None
    descending: bool | None = None  # None: no ordering requested
    limit: int | None = None


@dataclass(frozen=True)
class Column:
    name: str


@dataclass(frozen=True)
class ExprItem:
    name: str
    expr: Expr


SelectItem = Union[Column, ExprItem]


@dataclass
class QueryPlan:
    target_ids: list[int]
    shape: Union[FilterSpec, TopKSpec, AggSpec]
    select: tuple[SelectItem, ...] | None = None
    verify_all: bool = False  # planner fallback when bounds cannot apply
    label: str = ""


@dataclass
class ExecStats:
    """Per-query accounting. The three buckets partition the targeted masks:
    a mask loaded for any reason (verification, incremental indexing, or
    output values) counts as loaded, never as pruned/accepted as well."""

    masks_targeted: int = 0
    masks_pruned: int = 0
    masks_accepted_directly: int = 0
    masks_loaded: int = 0
    bytes_read: int = 0  # pixel bytes the loads read; a row span reads less than a mask
    phases: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    @property
    def fml(self) -> float:
        if self.masks_targeted == 0:
            return 0.0
        return self.masks_loaded / self.masks_targeted

    def to_json(self) -> dict:
        return {
            "masks_targeted": self.masks_targeted,
            "masks_pruned": self.masks_pruned,
            "masks_accepted_directly": self.masks_accepted_directly,
            "masks_loaded": self.masks_loaded,
            "bytes_read": self.bytes_read,
            "fml": self.fml,
            "phases": dict(self.phases),
            "warnings": list(self.warnings),
        }


@dataclass
class QueryResult:
    columns: list[str]
    rows: list[tuple]
    stats: ExecStats


# -- the engine ---------------------------------------------------------------


class Engine:
    """Executes query plans against one mask store and (optionally) indexes."""

    def __init__(
        self,
        store: MaskStore,
        index_store: IndexStore | None = None,
        *,
        mode: str = "indexed",
        threads: int = 1,
    ):
        if mode not in ("indexed", "incremental", "oracle"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode != "oracle" and index_store is None:
            raise ValueError(f"mode {mode!r} requires an index store")
        self.store = store
        self.index_store = index_store
        self.mode = mode
        self.threads = max(1, threads)
        self._agg_chi_cache: dict[tuple, ChiBlock] = {}
        # Pixel buffers given back by finished queries, per (height, width).
        self._spare: dict[tuple[int, int], list[np.ndarray]] = {}
        self._spare_lock = threading.Lock()

    # -- shared plumbing ---------------------------------------------------

    def execute(self, plan: QueryPlan) -> QueryResult:
        with _QueryCtx(self, plan) as ctx:
            if isinstance(plan.shape, FilterSpec):
                return self._execute_filter(ctx, plan)
            if isinstance(plan.shape, TopKSpec):
                return self._execute_topk(ctx, plan)
            return self._execute_aggregation(ctx, plan)

    def _take_buffer(self, shape: tuple[int, int]) -> np.ndarray:
        with self._spare_lock:
            spare = self._spare.get(shape)
            if spare:
                return spare.pop()
        return np.empty(shape, dtype=PIXEL_DTYPE)

    def _give_back(self, buffers: list[np.ndarray]) -> None:
        with self._spare_lock:
            for buf in buffers:
                self._spare.setdefault(buf.shape, []).append(buf)

    def _split_indexed(self, ids: list[int]) -> tuple[list[int], list[int]]:
        """``ids`` split, each part in order, into those with an index and
        those without. Indexed mode needs an index of every id: MissingIndex
        names the first absent one."""
        if self.mode == "oracle":
            return [], list(ids)
        absent = self.index_store.absent(ids)
        if not absent:
            return ids, []
        if self.mode == "indexed":
            raise MissingIndex(f"mask {absent[0]} has no index and mode is 'indexed'")
        gone = set(absent)
        return [m for m in ids if m not in gone], absent

    def _prefetch(self, ctx: "_QueryCtx", mask_ids: Sequence[int]) -> None:
        """Load ``mask_ids`` for counting. With several threads they are read
        here; with one, each is read where it is first counted, while its
        rows are still in cache, and any never counted when the query closes,
        so the same masks load either way."""
        todo = [m for m in dict.fromkeys(mask_ids) if m not in ctx.records]
        if not todo:
            return
        if self.threads == 1:
            ctx.due.update(dict.fromkeys(todo))
        # Pool startup only pays off for real batches.
        elif len(todo) > 8:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                for _ in pool.map(ctx.load, todo):
                    pass
        else:
            for mid in todo:
                ctx.load(mid)

    # -- filter --------------------------------------------------------------

    def _execute_filter(self, ctx: "_QueryCtx", plan: QueryPlan) -> QueryResult:
        t_start = time.perf_counter()
        stats = ctx.stats
        targets = sorted(plan.target_ids)
        stats.masks_targeted = len(targets)
        if plan.verify_all:
            stats.warnings.append("predicate not index-boundable; verifying all masks")

        accepted: list[int] = []
        to_verify: list[int] = []
        if plan.shape.pred is None:
            accepted = list(targets)  # pure metadata scan
        elif self.mode == "oracle" or plan.verify_all:
            to_verify = list(targets)
        else:
            verdicts = self._filter_verdicts(ctx, plan.shape.pred, targets)
            accepted = [targets[i] for i in np.flatnonzero(verdicts == _TRUE).tolist()]
            to_verify = [targets[i] for i in np.flatnonzero(verdicts == _UNKNOWN).tolist()]
        t_filter = time.perf_counter()

        self._prefetch(ctx, to_verify)
        verified = [
            mid
            for mid in to_verify
            if self._pred_exact(ctx, plan.shape.pred, mid)
        ]
        result_ids = sorted(accepted + verified)
        if plan.shape.limit is not None:
            result_ids = result_ids[: plan.shape.limit]
        columns, rows = self._render_filter_rows(ctx, plan, result_ids)
        return ctx.result(columns, rows, t_start, t_filter, accepted)

    def _filter_verdicts(
        self, ctx: "_QueryCtx", node: PredNode, targets: list[int]
    ) -> np.ndarray:
        """Three-valued verdict per target, from indexes and metadata only,
        as an int8 array in the order of ``targets``.

        In incremental mode masks without an index come back UNKNOWN, which
        routes them to the load-and-verify path where they get indexed.
        """
        present, absent = self._split_indexed(targets)
        if not absent:
            return self._node_verdicts_batch(ctx, node, targets)
        verdict_by_id = dict.fromkeys(absent, _UNKNOWN)
        if present:
            verdict_by_id.update(zip(present, self._node_verdicts_batch(ctx, node, present)))
        return np.array([verdict_by_id[mid] for mid in targets], dtype=np.int8)

    def _node_verdicts_batch(
        self, ctx: "_QueryCtx", node: PredNode, ids: list[int]
    ) -> np.ndarray:
        if isinstance(node, MetaComparison):
            holds = node.holds(self.store.columns, self.store.positions(ids))
            return np.where(holds, _TRUE, _FALSE).astype(np.int8)
        if isinstance(node, BoolOp):
            child = [self._node_verdicts_batch(ctx, c, ids) for c in node.children]
            stack = np.stack(child)
            out = np.full(len(ids), _UNKNOWN, dtype=np.int8)
            if node.op == "and":
                out[np.all(stack == _TRUE, axis=0)] = _TRUE
                out[np.any(stack == _FALSE, axis=0)] = _FALSE
            else:
                out[np.all(stack == _FALSE, axis=0)] = _FALSE
                out[np.any(stack == _TRUE, axis=0)] = _TRUE
            return out
        pred = node.pred
        lowers, uppers = self._expr_bounds_many(ctx, pred.expr, ids)
        out = np.full(len(ids), _UNKNOWN, dtype=np.int8)
        if pred.comparator == ">":
            out[uppers <= pred.threshold] = _FALSE
            out[lowers > pred.threshold] = _TRUE
        else:
            out[uppers < pred.threshold] = _TRUE
            out[lowers >= pred.threshold] = _FALSE
        return out

    def _expr_bounds_many(self, ctx: "_QueryCtx", expr: Expr, ids: list[int]):
        """(lower, upper) float arrays of ``expr`` for masks with indexes;
        one kernel call per count term and mask size."""
        cols, pos = self.store.columns, self.store.positions(ids)
        widths, heights = cols["width"][pos], cols["height"][pos]
        # One key per size: both fit 32 bits (see store._row_problem).
        sizes, group_of = np.unique((widths << 32) | heights, return_inverse=True)
        ids = np.asarray(ids, dtype=np.int64)
        lowers, uppers = np.empty(len(ids)), np.empty(len(ids))
        for g in range(len(sizes)):
            sel = np.flatnonzero(group_of == g)
            group = ids[sel]
            block = self.index_store.block(int(widths[sel[0]]), int(heights[sel[0]]))
            rows = np.array([block.row_of[m] for m in group.tolist()])
            lowers[sel], uppers[sel] = self._block_bounds(block, rows, group, expr)
        return lowers, uppers

    def _block_bounds(self, block: ChiBlock, rows: np.ndarray, ids: np.ndarray, expr: Expr):
        """(lower, upper) float arrays of ``expr`` for masks ``ids`` at ``rows``."""
        widths = np.full(len(ids), block.width, dtype=np.int64)
        heights = np.full(len(ids), block.height, dtype=np.int64)

        def term_bounds(term: CpTerm):
            rois = term.roi.resolve_many(ids, widths, heights)
            lo, hi = bnd.cp_bounds(block, rows, rois, term.rng)
            return lo.astype(np.float64), hi.astype(np.float64)

        def area_value(binding: RoiBinding):
            rois = binding.resolve_many(ids, widths, heights)
            return ((rois[:, 2] - rois[:, 0]) * (rois[:, 3] - rois[:, 1])).astype(np.float64)

        lo, hi = expr_bounds(expr, term_bounds, area_value)
        return np.full(len(ids), lo, dtype=np.float64), np.full(len(ids), hi, dtype=np.float64)

    def _expr_exact_for(self, ctx: "_QueryCtx", mask_id: int, expr: Expr) -> float:
        rec = ctx.record(mask_id)
        if type(expr) is CpTerm:  # the common single-count case, kept lean
            return cp_exact(rec, expr.roi.resolve(mask_id, rec.width, rec.height), expr.rng)

        def term_exact(term: CpTerm):
            roi = term.roi.resolve(mask_id, rec.width, rec.height)
            return cp_exact(rec, roi, term.rng)

        def area_value(binding: RoiBinding):
            return float(binding.resolve(mask_id, rec.width, rec.height).area)

        return expr_exact(expr, term_exact, area_value)

    def _pred_exact(self, ctx: "_QueryCtx", node: PredNode, mask_id: int) -> bool:
        if isinstance(node, MetaComparison):
            return bool(node.holds(self.store.columns, self.store.positions([mask_id]))[0])
        if isinstance(node, BoolOp):
            results = (self._pred_exact(ctx, c, mask_id) for c in node.children)
            return all(results) if node.op == "and" else any(results)
        pred = node.pred
        v = self._expr_exact_for(ctx, mask_id, pred.expr)
        return v > pred.threshold if pred.comparator == ">" else v < pred.threshold

    def _render_filter_rows(self, ctx, plan, result_ids):
        items = plan.select or (Column("mask_id"),)
        columns = [it.name for it in items]
        rows = []
        for mid in result_ids:
            meta = self.store.get_meta(mid).meta
            row = []
            for it in items:
                if isinstance(it, Column):
                    row.append(getattr(meta, it.name))
                else:
                    row.append(self._expr_exact_for(ctx, mid, it.expr))
            rows.append(tuple(row))
        return columns, rows

    # -- top-k ---------------------------------------------------------------

    def _execute_topk(self, ctx: "_QueryCtx", plan: QueryPlan) -> QueryResult:
        t_start = time.perf_counter()
        spec: TopKSpec = plan.shape
        targets = sorted(plan.target_ids)
        ctx.stats.masks_targeted = len(targets)
        k = spec.k if spec.k is not None else len(targets)
        k = min(k, len(targets))
        if k == 0:
            columns, rows = self._render_value_rows(ctx, plan, [], "mask")
            return ctx.result(columns, rows, t_start, t_start)

        bound_of: dict[int, float] = {}
        pred_verdicts: dict[int, int] = {}
        candidates = targets
        if self.mode != "oracle" and not plan.verify_all:
            if spec.pred is not None:
                verdicts = self._filter_verdicts(ctx, spec.pred, targets)
                pred_verdicts = dict(zip(targets, verdicts.tolist()))
                candidates = [m for m in targets if pred_verdicts[m] != _FALSE]
            present, _ = self._split_indexed(candidates)
            if present:
                lowers, uppers = self._expr_bounds_many(ctx, spec.expr, present)
                edge = uppers if spec.descending else lowers
                bound_of = dict(zip(present, edge))
        t_filter = time.perf_counter()

        if self.mode == "oracle":
            self._prefetch(ctx, candidates)  # everything loads anyway

        def exact(mid: int) -> float | None:
            if spec.pred is not None and pred_verdicts.get(mid, _UNKNOWN) != _TRUE:
                if not self._pred_exact(ctx, spec.pred, mid):
                    return None
            return float(self._expr_exact_for(ctx, mid, spec.expr))

        ranked = self._select_ranked(candidates, k, spec.descending, bound_of, exact)
        columns, rows = self._render_value_rows(ctx, plan, ranked, "mask")
        return ctx.result(columns, rows, t_start, t_filter)

    # -- ranked selection ------------------------------------------------------

    def _topk_threshold(self, heap: list, k: int) -> tuple | None:
        """The k-th best key kept so far, or None while fewer than k are kept.
        Overridable for fault injection: a stale (lower) key may only cause
        extra loads, never a different answer."""
        return heap[0] if len(heap) >= k else None

    def _select_ranked(self, ids, k: int, descending: bool, edge_of: dict, exact):
        """The k best ``(value, id)`` pairs among ``ids``, best first.

        A higher value wins for DESC and a lower one for ASC; equal values
        keep the lower id. Both rules live in one key, ``(±value, -id)``,
        where larger is better. ``edge_of`` maps an id to the edge of its
        bracket that could win (the upper bound for DESC, the lower for ASC);
        ids without one are visited first. ``exact(id)`` returns the exact
        value, or None when an exact WHERE or HAVING check rejects the id.

        Ids are visited in descending bound key, so the loop stops at the
        first whose bound key does not beat the k-th kept key: no later id
        can beat it either (the threshold stop of Fagin, Lotem and Naor).
        """
        if k == 0:
            return []
        sign = 1.0 if descending else -1.0

        def bound_key(i: int) -> tuple:
            edge = edge_of.get(i)
            return (np.inf if edge is None else sign * edge, -i)

        heap: list[tuple[float, int]] = []
        for i in sorted(ids, key=bound_key, reverse=True):
            threshold = self._topk_threshold(heap, k)
            if threshold is not None and bound_key(i) <= threshold:
                break
            v = exact(i)
            if v is None:
                continue
            if len(heap) < k:
                heapq.heappush(heap, (sign * v, -i))
            else:
                heapq.heappushpop(heap, (sign * v, -i))
        return [(sign * sv, -ni) for sv, ni in sorted(heap, reverse=True)]

    def _render_value_rows(self, ctx, plan, ranked, kind: str):
        """Rows for ranked (value, id) pairs; id is a mask or a group key."""
        value_name = "value"
        extra_cols: list[SelectItem] = []
        if plan.select:
            for it in plan.select:
                if isinstance(it, ExprItem):
                    value_name = it.name
                else:
                    extra_cols.append(it)
        else:
            extra_cols = [Column("mask_id" if kind == "mask" else "group")]
        columns = [c.name for c in extra_cols] + [value_name]
        rows = []
        for v, ident in ranked:
            row = []
            for c in extra_cols:
                if kind == "mask":
                    row.append(
                        ident
                        if c.name == "mask_id"
                        else getattr(self.store.get_meta(ident).meta, c.name)
                    )
                else:
                    row.append(ident)
            row.append(v)
            rows.append(tuple(row))
        return columns, rows

    # -- aggregation -----------------------------------------------------------

    def _execute_aggregation(self, ctx: "_QueryCtx", plan: QueryPlan) -> QueryResult:
        t_start = time.perf_counter()
        spec: AggSpec = plan.shape
        targets = sorted(plan.target_ids)
        ctx.stats.masks_targeted = len(targets)

        groups = self._groups(targets, spec.group_key)
        keys = sorted(groups)

        if self.mode == "oracle":
            self._prefetch(ctx, targets)  # everything loads anyway
        group_bounds = self._group_bounds(ctx, spec, groups, keys)
        t_filter = time.perf_counter()

        survivors: list[int] = []
        unknown: list[int] = []  # having verdict needs exact values
        for key in keys:
            if spec.having is None:
                survivors.append(key)
                continue
            b = group_bounds.get(key)
            verdict = _having_verdict(spec.having, b) if b is not None else _UNKNOWN
            if verdict == _FALSE:
                continue  # whole group pruned
            (survivors if verdict == _TRUE else unknown).append(key)

        ranked_query = spec.limit is not None or spec.descending is not None
        if not ranked_query:
            # Plain grouped output: resolve unknown having groups exactly.
            final = list(survivors)
            for key in unknown:
                v = self._group_exact(ctx, spec, key, groups[key])
                if _having_exact(spec.having, v):
                    final.append(key)
            final.sort()
            if self._select_wants_value(plan):
                ranked = [
                    (self._group_exact(ctx, spec, key, groups[key]), key) for key in final
                ]
                columns, rows = self._render_group_rows(plan, spec, ranked, True)
            else:
                columns, rows = self._render_group_rows(
                    plan, spec, [(0.0, key) for key in final], False
                )
            # Groups certain to pass that were never loaded count as accepted.
            accepted = [m for key in final for m in groups[key]]
        else:
            descending = True if spec.descending is None else spec.descending
            k = spec.limit if spec.limit is not None else len(groups)
            edge_of = {
                key: b.upper if descending else b.lower for key, b in group_bounds.items()
            }
            needs_exact_having = set(unknown)

            def exact(key: int) -> float | None:
                v = self._group_exact(ctx, spec, key, groups[key])
                if key in needs_exact_having and not _having_exact(spec.having, v):
                    return None
                return v

            ranked = self._select_ranked(survivors + unknown, k, descending, edge_of, exact)
            columns, rows = self._render_group_rows(plan, spec, ranked, True)
            accepted = []  # ranked queries have no accept-without-load case
        return ctx.result(columns, rows, t_start, t_filter, accepted)

    def _select_wants_value(self, plan: QueryPlan) -> bool:
        if plan.select is None:
            return True
        return any(isinstance(it, ExprItem) for it in plan.select)

    def _render_group_rows(self, plan, spec, ranked, with_value: bool):
        value_name = "value"
        key_name = spec.group_key
        if plan.select:
            for it in plan.select:
                if isinstance(it, ExprItem):
                    value_name = it.name
        if not with_value:
            return [key_name], [(key,) for _, key in ranked]
        return [key_name, value_name], [(key, v) for v, key in ranked]

    def warm_mask_agg_cache(self, plan: QueryPlan) -> int:
        """Build the aggregated-mask indexes for a grouped plan ahead of time.

        Pseudo-mask indexes can be built before measured runs, exactly like
        per-mask indexes; without this, the first execution of a mask
        aggregation pays one full materialization per group. Returns the
        number of groups indexed.
        """
        spec = plan.shape
        if not isinstance(spec, AggSpec) or not isinstance(spec.value, MaskAggSpec):
            raise ExecError("plan has no mask aggregation to warm")
        groups = self._groups(sorted(plan.target_ids), spec.group_key)
        built = 0
        for key in sorted(groups):
            members = groups[key]
            fp = self._agg_fingerprint(spec.value, members)
            if fp in self._agg_chi_cache:
                continue
            with _QueryCtx(self) as ctx:
                pseudo = self._materialize_group(ctx, spec.value, key, members)
            self._agg_chi_cache[fp] = ChiBlock.of(build_chi(pseudo, self.index_store.config))
            built += 1
        return built

    def _groups(self, targets: list[int], group_key: str) -> dict[int, list[int]]:
        """Ascending ``targets`` split by their ``group_key`` column, each
        group's members in ascending order."""
        keys = self.store.columns[group_key][self.store.positions(targets)]
        order = np.argsort(keys, kind="stable")
        uniq, first = np.unique(keys[order], return_index=True)
        members = np.split(np.asarray(targets, dtype=np.int64)[order], first[1:])
        return {k: m.tolist() for k, m in zip(uniq.tolist(), members)}

    def _group_bounds(self, ctx, spec: AggSpec, groups, keys) -> dict[int, Bounds]:
        """Bracket each group's aggregate without loading where possible."""
        out: dict[int, Bounds] = {}
        if self.mode == "oracle":
            return out
        if isinstance(spec.value, ScalarAggSpec):
            member_ids = [m for key in keys for m in groups[key]]
            present, absent = self._split_indexed(member_ids)
            bounds_of: dict[int, Bounds] = {}
            if present:
                lowers, uppers = self._expr_bounds_many(ctx, spec.value.expr, present)
                for m, lo, hi in zip(present, lowers, uppers):
                    bounds_of[m] = Bounds(float(lo), float(hi))
            if absent and self.mode == "incremental":
                # Index-less members get loaded (and indexed) right away;
                # their exact values enter the group bracket as points.
                self._prefetch(ctx, absent)
                for m in absent:
                    v = float(self._expr_exact_for(ctx, m, spec.value.expr))
                    bounds_of[m] = Bounds(v, v)
            for key in keys:
                members = groups[key]
                if all(m in bounds_of for m in members):
                    out[key] = bound_scalar_agg(
                        spec.value.fn, [bounds_of[m] for m in members]
                    )
        else:
            for key in keys:
                block = self._agg_chi_cache.get(self._agg_fingerprint(spec.value, groups[key]))
                if block is not None:
                    # A one-row call; the pseudo-mask's rois resolve as its lowest member's.
                    rep = np.array([min(groups[key])], dtype=np.int64)
                    row = np.zeros(1, dtype=np.intp)
                    lo, hi = self._block_bounds(block, row, rep, spec.value.expr)
                    out[key] = Bounds(float(lo[0]), float(hi[0]))
        return out

    def _agg_fingerprint(self, spec: MaskAggSpec, members: list[int]) -> tuple:
        return spec.agg.fingerprint() + (tuple(sorted(members)),)

    def _materialize_group(self, ctx, spec: MaskAggSpec, key, members) -> MaskRecord:
        self._prefetch(ctx, members)
        recs = [ctx.record(m) for m in sorted(members)]
        dims = {(r.width, r.height) for r in recs}
        if len(dims) != 1:
            raise DimensionMismatch(f"group {key} mixes mask dimensions {dims}")
        stack = np.stack([r.pixels for r in recs])
        agg_pixels = spec.agg.apply(stack).astype(np.float32)
        rep = recs[0]
        return MaskRecord(
            MaskMeta(rep.mask_id, key, 0, 0), rep.width, rep.height, agg_pixels
        )

    def _group_exact(self, ctx, spec: AggSpec, key, members: list[int]) -> float:
        cached = ctx.group_values.get(key)
        if cached is not None:
            return cached
        if isinstance(spec.value, ScalarAggSpec):
            self._prefetch(ctx, members)
            values = [
                float(self._expr_exact_for(ctx, m, spec.value.expr)) for m in members
            ]
            v = float(exact_scalar_agg(spec.value.fn, values))
        else:
            pseudo = self._materialize_group(ctx, spec.value, key, members)
            if self.mode != "oracle":
                fp = self._agg_fingerprint(spec.value, members)
                if fp not in self._agg_chi_cache:
                    block = ChiBlock.of(build_chi(pseudo, self.index_store.config))
                    self._agg_chi_cache[fp] = block
            rep = min(members)

            def term_exact(term: CpTerm):
                roi = term.roi.resolve(rep, pseudo.width, pseudo.height)
                return cp_exact(pseudo, roi, term.rng)

            def area_value(binding: RoiBinding):
                return float(binding.resolve(rep, pseudo.width, pseudo.height).area)

            v = float(expr_exact(spec.value.expr, term_exact, area_value))
        ctx.group_values[key] = v
        return v


def _pred_exprs(node: PredNode | None) -> list[Expr]:
    if isinstance(node, CpComparison):
        return [node.pred.expr]
    if isinstance(node, BoolOp):
        return [e for c in node.children for e in _pred_exprs(c)]
    return []


def _count_bindings(plan: QueryPlan | None) -> tuple[RoiBinding, ...] | None:
    """The roi bindings of every count term ``plan`` can evaluate on one
    mask: its predicate, its ranked or aggregated expression and its SELECT
    expressions. None when its loads read whole masks: without a plan, or
    for a mask aggregate, whose members are combined pixel by pixel."""
    if plan is None:
        return None
    shape = plan.shape
    exprs = [it.expr for it in plan.select or () if isinstance(it, ExprItem)]
    if isinstance(shape, AggSpec):
        if isinstance(shape.value, MaskAggSpec):
            return None
        exprs.append(shape.value.expr)
    else:
        exprs += _pred_exprs(shape.pred)
        if isinstance(shape, TopKSpec):
            exprs.append(shape.expr)
    # Keyed by identity: hashing a binding hashes its whole roi table.
    return tuple({id(t.roi): t.roi for e in exprs for t in cp_terms(e)}.values())


class _QueryCtx:
    """Per-query scratch: loaded records (each mask at most once) and stats.

    A load reads the rows of the mask that the plan's count terms cover,
    their union taken up front, so one read serves every count of the
    query. Records are read into pixel buffers taken from the engine's
    spares; on leaving the ``with`` block, raising or not, the records are
    dropped and every buffer goes back, so no pixel array outlives its query.
    """

    def __init__(self, engine: Engine, plan: QueryPlan | None = None):
        self.engine = engine
        self.stats = ExecStats()
        self.records: dict[int, MaskRecord] = {}
        self.due: dict[int, None] = {}  # to load by the end of the query (``_prefetch``)
        self.group_values: dict[int, float] = {}
        self._bindings = _count_bindings(plan)
        self._buffers: list[np.ndarray] = []
        self._lock = threading.Lock()

    def __enter__(self) -> "_QueryCtx":
        return self

    def __exit__(self, *exc) -> None:
        self.records.clear()
        self.engine._give_back(self._buffers)
        self._buffers = []

    def _rows_to_read(self, mask_id: int, height: int) -> tuple[int, int] | None:
        """The smallest row span covering every count term's roi on the
        mask, or None (the whole mask) when no term binds it one."""
        if self._bindings is None:
            return None
        y1, y2 = height, 0
        for binding in self._bindings:
            span = binding.row_span(mask_id, height)
            if span is not None and span[0] < span[1]:
                y1, y2 = min(y1, span[0]), max(y2, span[1])
        return (y1, y2) if y1 < y2 else None

    def load(self, mask_id: int) -> MaskRecord:
        engine = self.engine
        entry = engine.store.get_meta(mask_id)
        buf = engine._take_buffer((entry.height, entry.width))
        with self._lock:
            self._buffers.append(buf)
        # A mask indexed on the spot is read whole: its index counts every pixel.
        build = engine.mode == "incremental" and engine.index_store.get_or_absent(mask_id) is None
        rows = None if build else self._rows_to_read(mask_id, entry.height)
        rec = engine.store.get_mask(mask_id, out=buf, rows=rows)
        if build:
            engine.index_store.insert(build_chi(rec, engine.index_store.config))
        with self._lock:
            self.records[mask_id] = rec
            self.stats.bytes_read += rec.pixels.nbytes
        return rec

    def record(self, mask_id: int) -> MaskRecord:
        rec = self.records.get(mask_id)
        if rec is None:
            rec = self.load(mask_id)
        return rec

    def result(self, columns, rows, t_start: float, t_filter: float, accepted=()) -> QueryResult:
        """Close the query's stats and wrap its rows. Every targeted mask is
        loaded, accepted without a load (``accepted`` minus loaded), or pruned."""
        for mask_id in self.due:
            self.record(mask_id)
        t_end = time.perf_counter()
        stats = self.stats
        stats.masks_loaded = len(self.records)
        stats.masks_accepted_directly = sum(1 for m in accepted if m not in self.records)
        stats.masks_pruned = (
            stats.masks_targeted - stats.masks_loaded - stats.masks_accepted_directly
        )
        stats.phases = {
            "filter": t_filter - t_start,
            "verify": t_end - t_filter,
            "total": t_end - t_start,
        }
        return QueryResult(columns, rows, stats)
