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
from functools import cached_property
from typing import Mapping, Sequence, Union

import numpy as np

from . import bounds as bnd
from .bounds import (
    Bounds,
    CpTerm,
    Expr,
    bound_scalar_agg,  # noqa: F401  (perfbench's tracer times it by this name)
    bound_scalar_aggs,
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
    StoreError,
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

    @cached_property
    def _above(self) -> np.float32:
        # A float32 pixel is above t exactly when it is at or above the
        # next float64 after t, so compare against that rounded up.
        return f32_at_or_above([np.nextafter(self.threshold, np.inf)])[0]

    def fold(self, acc: np.ndarray | None, pixels: np.ndarray) -> np.ndarray:
        """``acc`` with one more member's ``pixels`` folded in, in place;
        None starts the fold. ``pixels`` is only read, so it may be a buffer
        the caller reuses."""
        if self.kind == "intersect":
            if acc is None:
                return pixels >= self._above
            return np.logical_and(acc, pixels >= self._above, out=acc)
        if self.kind in ("min", "max"):
            if acc is None:
                return pixels.copy()
            return (np.minimum if self.kind == "min" else np.maximum)(acc, pixels, out=acc)
        raise ExecError(f"unknown mask aggregate {self.kind!r}")

    def finish(self, acc: np.ndarray) -> np.ndarray:
        """The pseudo-mask's float32 pixels from a finished fold."""
        if self.kind == "intersect":
            return np.where(acc, np.float32(MAX_PIXEL), np.float32(0.0))
        return acc

    def apply(self, stack: np.ndarray) -> np.ndarray:
        """The pseudo-mask of the masks stacked along the first axis."""
        acc = None
        for pixels in stack:
            acc = self.fold(acc, pixels)
        return self.finish(acc)


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
        # Each reading thread's pixel buffer per (height, width); see ``_hot_buffer``.
        self._hot = threading.local()

    # -- shared plumbing ---------------------------------------------------

    def execute(self, plan: QueryPlan) -> QueryResult:
        ctx = _QueryCtx(self, plan)
        if isinstance(plan.shape, FilterSpec):
            return self._execute_filter(ctx, plan)
        if isinstance(plan.shape, TopKSpec):
            return self._execute_topk(ctx, plan)
        return self._execute_aggregation(ctx, plan)

    def _hot_buffer(self, height: int, width: int) -> np.ndarray:
        """The calling thread's one buffer for masks of this size. Every read
        of the thread lands in it and is counted before the next, so it stays
        in cache; an engine holds one per (size, reading thread)."""
        mine = vars(self._hot)
        buf = mine.get((height, width))
        if buf is None:
            buf = mine[height, width] = np.empty((height, width), dtype=PIXEL_DTYPE)
        return buf

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
        and counted here; with one, each is read where it is first counted,
        and any never counted when the query closes, so the same masks load
        either way."""
        todo = [m for m in dict.fromkeys(mask_ids) if m not in ctx.counts]
        if not todo:
            return
        # Whole-mask reads (mask aggregates) are folded where they are read.
        if self.threads == 1 or ctx.terms is None:
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
        counts = ctx.counts_of(mask_id)
        if type(expr) is CpTerm:  # the common single-count case, kept lean
            return ctx.count(counts, expr)
        entry = self.store.get_meta(mask_id)

        def area_value(binding: RoiBinding):
            return float(binding.resolve(mask_id, entry.width, entry.height).area)

        return expr_exact(expr, lambda term: ctx.count(counts, term), area_value)

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

        pred_verdicts: dict[int, int] = {}
        candidates, present = targets, []
        if self.mode != "oracle" and not plan.verify_all:
            if spec.pred is not None:
                verdicts = self._filter_verdicts(ctx, spec.pred, targets)
                pred_verdicts = dict(zip(targets, verdicts.tolist()))
                candidates = [m for m in targets if pred_verdicts[m] != _FALSE]
            present, _ = self._split_indexed(candidates)
        edges = np.full(len(candidates), np.nan)
        if present:
            lowers, uppers = self._expr_bounds_many(ctx, spec.expr, present)
            # Both lists ascend, so each present id's slot is a binary search.
            at = np.searchsorted(np.asarray(candidates, dtype=np.int64), present)
            edges[at] = uppers if spec.descending else lowers
        t_filter = time.perf_counter()

        if self.mode == "oracle":
            self._prefetch(ctx, candidates)  # everything loads anyway

        def exact(mid: int) -> float | None:
            if spec.pred is not None and pred_verdicts.get(mid, _UNKNOWN) != _TRUE:
                if not self._pred_exact(ctx, spec.pred, mid):
                    return None
            return float(self._expr_exact_for(ctx, mid, spec.expr))

        ranked = self._select_ranked(candidates, k, spec.descending, edges, exact)
        columns, rows = self._render_value_rows(ctx, plan, ranked, "mask")
        return ctx.result(columns, rows, t_start, t_filter)

    # -- ranked selection ------------------------------------------------------

    def _topk_threshold(self, heap: list, k: int) -> tuple | None:
        """The k-th best key kept so far, or None while fewer than k are kept.
        Overridable for fault injection: a stale (lower) key may only cause
        extra loads, never a different answer."""
        return heap[0] if len(heap) >= k else None

    def _select_ranked(self, ids, k: int, descending: bool, edges: np.ndarray, exact):
        """The k best ``(value, id)`` pairs among ``ids``, best first.

        A higher value wins for DESC and a lower one for ASC; equal values
        keep the lower id. Both rules live in one key, ``(±value, -id)``,
        where larger is better. ``edges[j]`` is the edge of ``ids[j]``'s
        bracket that could win (the upper bound for DESC, the lower for ASC),
        NaN where it has none; those ids are visited first. ``exact(id)``
        returns the exact value, or None when an exact WHERE or HAVING check
        rejects the id.

        Ids are visited in descending bound key, ``(±edge, -id)`` with +inf
        standing in for a missing edge, so the loop stops at the first whose
        bound key does not beat the k-th kept key: no later id can beat it
        either (the threshold stop of Fagin, Lotem and Naor).
        """
        if k == 0:
            return []
        sign = 1.0 if descending else -1.0
        ids = np.asarray(ids, dtype=np.int64)
        keys = sign * np.asarray(edges, dtype=np.float64)
        keys[np.isnan(keys)] = np.inf
        order = np.lexsort((ids, -keys))  # key descending, then id ascending
        heap: list[tuple[float, int]] = []
        for key, i in zip(keys[order].tolist(), ids[order].tolist()):
            threshold = self._topk_threshold(heap, k)
            if threshold is not None and (key, -i) <= threshold:
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
        lowers, uppers = self._group_bounds(ctx, spec, groups, keys)
        t_filter = time.perf_counter()

        survivors: list[int] = []
        unknown: list[int] = []  # having verdict needs exact values
        for key, lo, hi in zip(keys, lowers.tolist(), uppers.tolist()):
            if spec.having is None:
                survivors.append(key)
                continue
            verdict = _UNKNOWN if math.isnan(lo) else _having_verdict(spec.having, Bounds(lo, hi))
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
            ranked_keys = survivors + unknown
            at = np.searchsorted(np.asarray(keys, dtype=np.int64), ranked_keys)
            edges = (uppers if descending else lowers)[at]
            needs_exact_having = set(unknown)

            def exact(key: int) -> float | None:
                v = self._group_exact(ctx, spec, key, groups[key])
                if key in needs_exact_having and not _having_exact(spec.having, v):
                    return None
                return v

            ranked = self._select_ranked(ranked_keys, k, descending, edges, exact)
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
            pseudo = self._materialize_group(_QueryCtx(self), spec.value, key, members)
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

    def _group_bounds(self, ctx, spec: AggSpec, groups, keys) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) bracket of each group's aggregate, in the order of
        ``keys``, without loading where possible; NaN where a group has none."""
        lowers, uppers = np.full(len(keys), np.nan), np.full(len(keys), np.nan)
        if self.mode == "oracle":
            return lowers, uppers
        if isinstance(spec.value, ScalarAggSpec):
            expr = spec.value.expr
            member_ids = [m for key in keys for m in groups[key]]
            present, absent = self._split_indexed(member_ids)
            if not absent:
                member_lo, member_hi = self._expr_bounds_many(ctx, expr, member_ids)
            else:
                member_lo, member_hi = np.empty(len(member_ids)), np.empty(len(member_ids))
                is_absent = np.isin(member_ids, absent)
                if present:
                    bounds = self._expr_bounds_many(ctx, expr, present)
                    member_lo[~is_absent], member_hi[~is_absent] = bounds
                # Index-less members (incremental mode) get loaded and indexed
                # right away; their exact values enter the group bracket as points.
                self._prefetch(ctx, absent)
                exact = [float(self._expr_exact_for(ctx, m, expr)) for m in absent]
                member_lo[is_absent] = member_hi[is_absent] = exact
            sizes = [len(groups[key]) for key in keys]
            return bound_scalar_aggs(spec.value.fn, member_lo, member_hi, sizes)
        for g, key in enumerate(keys):
            block = self._agg_chi_cache.get(self._agg_fingerprint(spec.value, groups[key]))
            if block is not None:
                # A one-row call; the pseudo-mask's rois resolve as its lowest member's.
                rep = np.array([min(groups[key])], dtype=np.int64)
                row = np.zeros(1, dtype=np.intp)
                lo, hi = self._block_bounds(block, row, rep, spec.value.expr)
                lowers[g], uppers[g] = lo[0], hi[0]
        return lowers, uppers

    def _agg_fingerprint(self, spec: MaskAggSpec, members: list[int]) -> tuple:
        return spec.agg.fingerprint() + (tuple(sorted(members)),)

    def _materialize_group(self, ctx, spec: MaskAggSpec, key, members) -> MaskRecord:
        """The group's pseudo-mask: each member read whole into the hot
        buffer and folded into one accumulator, lowest id first."""
        members = sorted(members)
        pos = self.store.positions(members)
        widths, heights = self.store.columns["width"][pos], self.store.columns["height"][pos]
        dims = set(zip(widths.tolist(), heights.tolist()))
        if len(dims) != 1:
            raise DimensionMismatch(f"group {key} mixes mask dimensions {dims}")
        acc = None
        for m in members:
            acc = spec.agg.fold(acc, ctx.read(m).pixels)
        width, height = dims.pop()
        return MaskRecord(MaskMeta(members[0], key, 0, 0), width, height, spec.agg.finish(acc))

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


def _count_exprs(plan: QueryPlan | None) -> list[Expr] | None:
    """Every expression ``plan`` counts on one mask: its predicate, its
    ranked or aggregated expression and its SELECT expressions. None when
    its loads read whole masks and count nothing: without a plan, or for a
    mask aggregate, whose members are combined pixel by pixel."""
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
    return exprs


class _QueryCtx:
    """Per-query scratch: the counts of every loaded mask, and stats.

    A load reads the rows of the mask that the plan's count terms cover,
    their union taken up front, into the engine's hot buffer for the mask's
    size, and counts every term there at once, while the rows are still in
    cache. The query keeps only the counts, one per term, so a mask is read
    at most once and no pixels outlive their load. A term that cannot be
    counted on a mask (its roi is missing or out of bounds) keeps its error
    in place of the count; the error is raised where that count is used.
    """

    def __init__(self, engine: Engine, plan: QueryPlan | None = None):
        self.engine = engine
        self.stats = ExecStats()
        self.counts: dict[int, list] = {}  # mask id -> a count or an error per term, once loaded
        self.due: dict[int, None] = {}  # to load by the end of the query (``_prefetch``)
        self.group_values: dict[int, float] = {}
        exprs = _count_exprs(plan)
        # The plan's count terms, one per (roi binding, value range), and the
        # slot of each term object in them. Bindings are keyed by identity:
        # hashing one hashes its whole roi table.
        self.terms: list[CpTerm] | None = None if exprs is None else []
        self._slot: dict[int, int] = {}
        slots: dict[tuple, int] = {}
        for t in (t for e in exprs or () for t in cp_terms(e)):
            j = self._slot[id(t)] = slots.setdefault((id(t.roi), t.rng), len(slots))
            if j == len(self.terms):
                self.terms.append(t)
        self._bindings = {id(t.roi): t.roi for t in self.terms or ()}.values()
        self._lock = threading.Lock()

    def _rows_to_read(self, mask_id: int, height: int) -> tuple[int, int] | None:
        """The smallest row span covering every count term's roi on the
        mask, or None (the whole mask) when no term binds it one."""
        y1, y2 = height, 0
        for binding in self._bindings:
            span = binding.row_span(mask_id, height)
            if span is not None and span[0] < span[1]:
                y1, y2 = min(y1, span[0]), max(y2, span[1])
        return (y1, y2) if y1 < y2 else None

    def read(self, mask_id: int) -> MaskRecord:
        """Load ``mask_id`` into the calling thread's hot buffer, counted as
        loaded with no counts yet. The record is valid until the thread's
        next read of a mask of that size."""
        engine = self.engine
        entry = engine.store.get_meta(mask_id)
        # A mask indexed on the spot is read whole: its index counts every pixel.
        build = engine.mode == "incremental" and engine.index_store.get_or_absent(mask_id) is None
        rows = None if build else self._rows_to_read(mask_id, entry.height)
        buf = engine._hot_buffer(entry.height, entry.width)
        rec = engine.store.get_mask(mask_id, out=buf, rows=rows)
        if build:
            engine.index_store.insert(build_chi(rec, engine.index_store.config))
        with self._lock:
            self.counts[mask_id] = []
            self.stats.bytes_read += rec.pixels.nbytes
        return rec

    def load(self, mask_id: int) -> list:
        """Read ``mask_id`` and count every term of the plan on it."""
        rec = self.read(mask_id)
        counts = []
        for t in self.terms or ():
            try:
                counts.append(cp_exact(rec, t.roi.resolve(mask_id, rec.width, rec.height), t.rng))
            except StoreError as e:
                counts.append(e)
        self.counts[mask_id] = counts
        return counts

    def counts_of(self, mask_id: int) -> list:
        counts = self.counts.get(mask_id)
        return self.load(mask_id) if counts is None else counts

    def count(self, counts: list, term: CpTerm) -> int:
        """``term``'s count among a mask's ``counts``; raises the error kept
        in its place."""
        v = counts[self._slot[id(term)]]
        if type(v) is not int:
            raise v
        return v

    def result(self, columns, rows, t_start: float, t_filter: float, accepted=()) -> QueryResult:
        """Close the query's stats and wrap its rows. Every targeted mask is
        loaded, accepted without a load (``accepted`` minus loaded), or pruned."""
        for mask_id in self.due:
            if mask_id not in self.counts:
                self.read(mask_id)
        t_end = time.perf_counter()
        stats = self.stats
        stats.masks_loaded = len(self.counts)
        stats.masks_accepted_directly = sum(1 for m in accepted if m not in self.counts)
        stats.masks_pruned = (
            stats.masks_targeted - stats.masks_loaded - stats.masks_accepted_directly
        )
        stats.phases = {
            "filter": t_filter - t_start,
            "verify": t_end - t_filter,
            "total": t_end - t_start,
        }
        return QueryResult(columns, rows, stats)
