"""Filter-verification query execution.

Every query shape (filter, top-k, aggregation) follows the same two-stage
pattern: first bracket each mask's value using only its index, deciding
from the brackets alone whether the mask is certainly out, certainly in,
or undecided; then load only the undecided masks and evaluate exactly.
Results are always identical to a full scan, the only difference is how
many masks were read from disk.

An exact value is a bracket of width 0, so both stages share one
evaluator (``Engine._brackets``), and a filter decides its whole verify
set in one call of the verdict path that decided the brackets. The other
way round, a bracket of width 0 from the mask's own index row is its
exact count: the query keeps it, so a mask whose bracket has width 0 is
never read. The exact stage also reuses the areas the bound stage
resolved.

Engines run in one of three modes:

* ``indexed``   -- every targeted mask must have a prebuilt index.
* ``incremental`` -- a mask without an index is undecided, so it is read
  where one of its counts is first needed, and indexed there for later
  queries in the session.
* ``oracle``    -- no index at all, so every mask is undecided and read
  where one of its counts is first needed. The correctness reference the
  other two modes are tested against.
"""

from __future__ import annotations

import heapq
import math
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence, Union

import numpy as np

from . import bounds as bnd
from .bounds import (
    CpTerm,
    Expr,
    bound_scalar_agg,
    cp_terms,
    expr_bounds,
)
from .chi import ChiBlock, IndexStore, build_chi
from .store import (
    INT64_MAX,
    INT64_MIN,
    MAX_PIXEL,
    PIXEL_DTYPE,
    DimensionMismatch,
    ManifestEntry,
    MaskMeta,
    MaskRecord,
    MaskStore,
    Roi,
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


def _verdicts(lowers: np.ndarray, uppers: np.ndarray, comparator: str, threshold: float):
    """Three-valued verdict per bracket, as int8: certain pass, certain fail,
    or not yet. A NaN bracket (no bound) is not yet."""
    out = np.full(len(lowers), _UNKNOWN, dtype=np.int8)
    if comparator == ">":
        out[uppers <= threshold] = _FALSE
        out[lowers > threshold] = _TRUE
    else:
        out[uppers < threshold] = _TRUE
        out[lowers >= threshold] = _FALSE
    return out


def _decide(node, at: np.ndarray, leaf) -> np.ndarray:
    """Verdict of ``node``, a leaf or a ``BoolOp``/``HavingBool``, per row
    of ``at``, as int8; ``leaf(node, rows)`` gives a leaf's verdicts on some
    of the rows. A child of 'and'/'or' sees only the rows that the children
    before it left undecided, so a leaf raises only where a full scan would
    evaluate it."""
    if not isinstance(node, (BoolOp, HavingBool)):
        return leaf(node, at)
    decided = _FALSE if node.op == "and" else _TRUE
    out = np.full(len(at), _TRUE + _FALSE - decided, dtype=np.int8)
    for child in node.children:
        open_ = np.flatnonzero(out != decided)
        if len(open_) == 0:
            break
        v = _decide(child, at[open_], leaf)
        # An undecided row stays undecided unless this child decides it.
        out[open_] = np.where((out[open_] == _UNKNOWN) & (v != decided), _UNKNOWN, v)
    return out


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


# The query language's MASK_AGG constructors, by upper-case name.
MASK_AGGS = {
    "INTERSECT": lambda t: MaskAggregate("intersect", t),
    "MASK_MIN": lambda: MaskAggregate("min"),
    "MASK_MAX": lambda: MaskAggregate("max"),
}


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


def _having_verdicts(node: HavingNode, lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
    """Verdict of ``node`` per group bracket; see ``_verdicts``. A bracket
    of width 0, an exact value, gets the exact verdict."""
    return _decide(node, np.arange(len(lowers)), lambda c, at: _verdicts(
        lowers[at], uppers[at], c.comparator, c.threshold))


# -- plans -------------------------------------------------------------------


def _check_cap(name: str, value: int | None) -> None:
    if value is not None and value < 0:
        raise ValueError(f"{name} must not be negative, got {value!r}")


@dataclass(frozen=True)
class FilterSpec:
    pred: PredNode | None  # None accepts every targeted mask
    limit: int | None = None  # plain row-count cap, lowest ids first

    def __post_init__(self):
        _check_cap("limit", self.limit)


@dataclass(frozen=True)
class TopKSpec:
    expr: Expr
    k: int | None  # None returns all targets, ordered
    descending: bool = True
    pred: PredNode | None = None  # optional exact filter on ranked masks

    def __post_init__(self):
        _check_cap("k", self.k)


@dataclass(frozen=True)
class AggSpec:
    group_key: str  # 'image_id' | 'model_id'
    value: ScalarAggSpec | MaskAggSpec
    having: HavingNode | None = None
    descending: bool | None = None  # None: no ordering requested
    limit: int | None = None

    def __post_init__(self):
        _check_cap("limit", self.limit)


@dataclass(frozen=True)
class Column:
    name: str


@dataclass(frozen=True)
class ExprItem:
    name: str
    expr: Expr  # evaluated exactly on each result mask


@dataclass(frozen=True)
class Value:
    """The ranked value of a top-k row, or the aggregate of a group."""

    name: str


SelectItem = Union[Column, ExprItem, Value]


@dataclass
class QueryPlan:
    target_ids: list[int]
    shape: Union[FilterSpec, TopKSpec, AggSpec]
    # The result's columns, in order; None: the mask id, or the mask id or
    # group key and the value.
    select: tuple[SelectItem, ...] | None = None
    verify_all: bool = False  # planner fallback when bounds cannot apply


@dataclass
class ExecStats:
    """Per-query accounting. The three buckets partition the targeted masks:
    a mask loaded for any reason (verification, incremental indexing, or
    output values) counts as loaded, never as pruned/accepted as well."""

    masks_targeted: int = 0
    masks_pruned: int = 0
    masks_accepted_directly: int = 0
    masks_loaded: int = 0
    # (mask, count term) pairs a zero-width index bracket answered, of masks never loaded
    counts_from_index: int = 0
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
            "counts_from_index": self.counts_from_index,
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
        # Every read happens on the calling thread; ``threads`` is kept so
        # that callers which pass ``threads=1`` keep working.
        if threads != 1:
            raise ValueError(f"threads must be 1, got {threads!r}")
        if mode not in ("indexed", "incremental", "oracle"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode != "oracle" and index_store is None:
            raise ValueError(f"mode {mode!r} requires an index store")
        self.store = store
        self.index_store = index_store
        self.mode = mode
        self._agg_chi_cache: dict[tuple, ChiBlock] = {}
        # Each calling thread's pixel buffer per (height, width); see ``_hot_buffer``.
        self._hot = threading.local()

    # -- shared plumbing ---------------------------------------------------

    def execute(self, plan: QueryPlan) -> QueryResult:
        ctx = _QueryCtx(self, plan)
        targets = sorted(plan.target_ids)
        ctx.stats.masks_targeted = len(targets)
        if plan.verify_all:
            ctx.stats.warnings.append("not index-boundable; verifying all masks")
        shape = plan.shape
        if (shape.k if isinstance(shape, TopKSpec) else shape.limit) == 0:
            return ctx.result(*self._render(ctx, plan, [], []), ctx.t_start)
        if isinstance(shape, FilterSpec):
            return self._execute_filter(ctx, plan, targets)
        if isinstance(shape, TopKSpec):
            return self._execute_topk(ctx, plan, targets)
        return self._execute_aggregation(ctx, plan, targets)

    def _hot_buffer(self, height: int, width: int) -> np.ndarray:
        """The calling thread's one buffer for masks of this size. Every read
        of the thread lands in it and is counted before the next, so it stays
        in cache; an engine holds one per (size, thread that queries it)."""
        mine = vars(self._hot)
        buf = mine.get((height, width))
        if buf is None:
            buf = mine[height, width] = np.empty((height, width), dtype=PIXEL_DTYPE)
        return buf

    def _has_index(self, ids: Sequence[int]) -> np.ndarray:
        """Boolean array: which of ``ids`` have an index. Indexed mode needs
        an index of every id: MissingIndex names the first absent one."""
        if self.mode == "oracle":
            return np.zeros(len(ids), dtype=bool)
        has = self.index_store.has(ids)
        if self.mode == "indexed" and not has.all():
            first = ids[int(np.argmin(has))]
            raise MissingIndex(f"mask {first} has no index and mode is 'indexed'")
        return has

    # -- filter --------------------------------------------------------------

    def _execute_filter(self, ctx: "_QueryCtx", plan: QueryPlan, targets) -> QueryResult:
        accepted: list[int] = []
        to_verify: list[int] = []
        if plan.shape.pred is None:
            accepted = list(targets)  # pure metadata scan
        elif plan.verify_all:
            to_verify = list(targets)
        else:
            verdicts = self._filter_verdicts(ctx, plan.shape.pred, targets)
            accepted = [targets[i] for i in np.flatnonzero(verdicts == _TRUE).tolist()]
            to_verify = [targets[i] for i in np.flatnonzero(verdicts == _UNKNOWN).tolist()]
        t_filter = time.perf_counter()

        verified = []
        if to_verify:
            verdicts = self._node_verdicts(ctx, plan.shape.pred, to_verify, exact=True)
            verified = [to_verify[i] for i in np.flatnonzero(verdicts == _TRUE).tolist()]
        result_ids = sorted(accepted + verified)
        if plan.shape.limit is not None:
            result_ids = result_ids[: plan.shape.limit]
        return ctx.result(*self._render(ctx, plan, result_ids), t_filter, accepted + verified)

    def _filter_verdicts(
        self, ctx: "_QueryCtx", node: PredNode, targets: list[int]
    ) -> np.ndarray:
        """Three-valued verdict per target, from indexes and metadata only,
        as an int8 array in the order of ``targets``.

        In incremental mode masks without an index come back UNKNOWN, which
        routes them to the load-and-verify path where they get indexed.
        """
        has = self._has_index(targets)
        out = np.full(len(targets), _UNKNOWN, dtype=np.int8)
        if has.any():
            out[has] = self._node_verdicts(ctx, node, np.asarray(targets)[has])
        return out

    def _node_verdicts(self, ctx: "_QueryCtx", node: PredNode, ids, exact: bool = False):
        """Three-valued verdict of ``node`` per mask of ``ids``, as int8: from
        the brackets of the masks' indexes or, with ``exact``, from the
        zero-width brackets of their counts."""

        def leaf(node, at):
            if isinstance(node, MetaComparison):
                holds = node.holds(self.store.columns, self.store.positions(at))
                return np.where(holds, _TRUE, _FALSE).astype(np.int8)
            expr = node.pred.expr
            bracket = self._brackets if exact else self._expr_bounds_many
            lo, hi = bracket(ctx, expr, at)
            return _verdicts(lo, hi, node.pred.comparator, node.pred.threshold)

        return _decide(node, np.asarray(ids, dtype=np.int64), leaf)

    def _expr_bounds_many(self, ctx: "_QueryCtx", expr: Expr, ids):
        """(lower, upper) float arrays of ``expr`` for masks with indexes;
        one kernel call per count term and mask size. ``ctx`` keeps each
        count whose bracket has width 0, and each area resolved."""
        ids = np.asarray(ids, dtype=np.int64)
        cols, pos = self.store.columns, self.store.positions(ids)
        widths, heights = cols["width"][pos], cols["height"][pos]
        # One key per size: both fit 32 bits (see store._row_problem).
        sizes, group_of = np.unique((widths << 32) | heights, return_inverse=True)
        blocks = []
        for g in range(len(sizes)):
            at = np.flatnonzero(group_of == g)
            block = self.index_store.block(int(widths[at[0]]), int(heights[at[0]]))
            blocks.append((block, block.rows_of(ids[at]), at))
        return self._brackets(ctx, expr, ids, blocks)

    def _brackets(self, ctx: "_QueryCtx", expr: Expr, ids: np.ndarray, blocks=None, counts=None):
        """(lower, upper) arrays of ``expr`` over the masks ``ids`` (int64).
        With ``blocks``, (block, rows, at) triples, each count is bracketed
        from the index rows of ``ids[at]``; a ``ctx`` given then keeps the
        counts of zero-width brackets (see ``_QueryCtx.keep``), so these
        rows must be the masks' own. Without, a count is the zero-width
        bracket of its exact value: ``counts[id(term)]`` where given, else
        the one known to ``ctx``, loading masks as needed. A ``ctx`` keeps
        each area resolved, and answers each it kept."""
        n, sizes, resolved = len(ids), [], {}

        def rois(binding):
            if id(binding) not in resolved:
                if not sizes:
                    pos = self.store.positions(ids)
                    sizes.extend(self.store.columns[c][pos] for c in ("width", "height"))
                resolved[id(binding)] = binding.resolve_many(ids, *sizes)
            return resolved[id(binding)]

        def leaf(term: CpTerm):
            if blocks is None:
                v = ctx.column(ids, term) if counts is None else counts[id(term)]
                return v, v
            at_rois = rois(term.roi)
            lo, hi = np.empty(n), np.empty(n)
            for block, rows, at in blocks:
                lo[at], hi[at] = bnd.cp_bounds(block, rows, at_rois[at], term.rng)
            if ctx is not None:
                ctx.keep(term, ids, lo, hi)
            return lo, hi

        def area(binding):
            a = None if ctx is None else ctx.areas_of(binding, ids)
            if a is None:
                r = rois(binding)
                a = ((r[:, 2] - r[:, 0]) * (r[:, 3] - r[:, 1])).astype(np.float64)
                if ctx is not None:
                    ctx.keep_areas(binding, ids, a)
            return a

        lo, hi = expr_bounds(expr, leaf, area)
        if not isinstance(lo, np.ndarray):  # a constant expression
            lo, hi = np.full(n, lo), np.full(n, hi)
        return lo, hi

    def _render(self, ctx: "_QueryCtx", plan: QueryPlan, keys, values=None):
        """The result's column names and rows: one row per key of ``keys``,
        its mask ids or group keys, with one entry per item of the SELECT
        list. A ``Column`` gives the key itself or that mask's manifest
        column, a ``Value`` the ranked or aggregate value in ``values``, and
        an ``ExprItem`` its exact value on that mask."""
        shape, items = plan.shape, _select_items(plan)
        grouped = isinstance(shape, AggSpec)
        key = shape.group_key if grouped else "mask_id"
        ids = np.asarray(keys, dtype=np.int64)
        columns = []
        for it in items:
            if isinstance(it, Value) and values is not None:
                columns.append(values)
            elif isinstance(it, Column) and it.name == key:
                columns.append(ids.tolist())
            elif isinstance(it, Column) and not grouped:
                columns.append(self.store.columns[it.name][self.store.positions(ids)].tolist())
            elif isinstance(it, ExprItem) and not grouped:
                columns.append(self._brackets(ctx, it.expr, ids)[0].tolist())
            else:
                raise ExecError(f"{it!r} has no value in a {type(shape).__name__} result")
        return [it.name for it in items], list(zip(*columns))

    # -- top-k ---------------------------------------------------------------

    def _execute_topk(self, ctx: "_QueryCtx", plan: QueryPlan, targets) -> QueryResult:
        spec: TopKSpec = plan.shape
        k = min(len(targets) if spec.k is None else spec.k, len(targets))
        passed: set[int] = set()  # targets whose WHERE holds by its bracket alone
        candidates, has = targets, np.zeros(len(targets), dtype=bool)
        if not plan.verify_all:
            if spec.pred is not None:
                verdicts = self._filter_verdicts(ctx, spec.pred, targets)
                ids = np.asarray(targets, dtype=np.int64)
                passed = set(ids[verdicts == _TRUE].tolist())
                candidates = ids[verdicts != _FALSE].tolist()
            has = self._has_index(candidates)
        edges = np.full(len(candidates), np.nan)
        if has.any():
            present = np.asarray(candidates, dtype=np.int64)[has]
            lowers, uppers = self._expr_bounds_many(ctx, spec.expr, present)
            edges[has] = uppers if spec.descending else lowers
        t_filter = time.perf_counter()

        def exact(mid: int) -> float | None:
            at = np.array([mid])
            if spec.pred is not None and mid not in passed:
                if self._node_verdicts(ctx, spec.pred, at, exact=True)[0] != _TRUE:
                    return None
            return float(self._brackets(ctx, spec.expr, at)[0][0])

        ranked = self._select_ranked(candidates, k, spec.descending, edges, exact)
        ids = [m for _, m in ranked]
        return ctx.result(*self._render(ctx, plan, ids, [v for v, _ in ranked]), t_filter, ids)

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

    # -- aggregation -----------------------------------------------------------

    def _execute_aggregation(self, ctx: "_QueryCtx", plan: QueryPlan, targets) -> QueryResult:
        spec: AggSpec = plan.shape
        groups = self._groups(targets, spec.group_key)
        keys = sorted(groups)
        lowers, uppers = self._group_bounds(ctx, plan, groups, keys)
        t_filter = time.perf_counter()

        survivors, unknown = keys, []  # unknown: the having verdict needs exact values
        if spec.having is not None:
            verdicts = _having_verdicts(spec.having, lowers, uppers)
            survivors = [k for k, v in zip(keys, verdicts.tolist()) if v == _TRUE]
            unknown = [k for k, v in zip(keys, verdicts.tolist()) if v == _UNKNOWN]

        if spec.limit is None and spec.descending is None:
            # Plain grouped output: resolve unknown having groups exactly.
            answered = list(survivors)
            if unknown:
                v = np.array([self._group_exact(ctx, spec, key, groups[key]) for key in unknown])
                verdicts = _having_verdicts(spec.having, v, v)
                answered += [k for k, d in zip(unknown, verdicts.tolist()) if d == _TRUE]
            answered.sort()
            values = None
            if any(isinstance(it, Value) for it in _select_items(plan)):
                values = [self._group_exact(ctx, spec, key, groups[key]) for key in answered]
        else:
            descending = True if spec.descending is None else spec.descending
            k = spec.limit if spec.limit is not None else len(groups)
            ranked_keys = survivors + unknown
            at = np.searchsorted(np.asarray(keys, dtype=np.int64), ranked_keys)
            edges = (uppers if descending else lowers)[at]
            needs_exact_having = set(unknown)

            def exact(key: int) -> float | None:
                v = self._group_exact(ctx, spec, key, groups[key])
                if key in needs_exact_having:
                    point = np.full(1, v)
                    if _having_verdicts(spec.having, point, point)[0] != _TRUE:
                        return None
                return v

            ranked = self._select_ranked(ranked_keys, k, descending, edges, exact)
            answered, values = [key for _, key in ranked], [v for v, _ in ranked]
        # Members of answered groups that were never loaded count as accepted.
        members = [m for key in answered for m in groups[key]]
        return ctx.result(*self._render(ctx, plan, answered, values), t_filter, members)

    def _groups(self, targets: list[int], group_key: str) -> dict[int, list[int]]:
        """Ascending ``targets`` split by their ``group_key`` column, each
        group's members in ascending order."""
        keys = self.store.columns[group_key][self.store.positions(targets)]
        order = np.argsort(keys, kind="stable")
        uniq, first = np.unique(keys[order], return_index=True)
        members = np.asarray(targets, dtype=np.int64)[order].tolist()
        ends = first.tolist()[1:] + [len(members)]
        return {k: members[a:b] for k, a, b in zip(uniq.tolist(), first.tolist(), ends)}

    def _group_bounds(self, ctx, plan: QueryPlan, groups, keys) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) bracket of each group's aggregate, in the order of
        ``keys``, without loading where possible; NaN where a group has none.
        A ``verify_all`` plan brackets nothing: every member is exact."""
        spec: AggSpec = plan.shape
        lowers, uppers = np.full(len(keys), np.nan), np.full(len(keys), np.nan)
        if isinstance(spec.value, ScalarAggSpec):
            expr = spec.value.expr
            ids = np.array([m for key in keys for m in groups[key]], dtype=np.int64)
            has = np.zeros(len(ids), dtype=bool) if plan.verify_all else self._has_index(ids)
            member_lo, member_hi = np.empty(len(ids)), np.empty(len(ids))
            if has.any():
                member_lo[has], member_hi[has] = self._expr_bounds_many(ctx, expr, ids[has])
            if not has.all():
                # Index-less members (every member in oracle mode) enter the
                # group bracket as exact points, each read where one of its
                # counts is needed, and indexed there in incremental mode.
                member_lo[~has], member_hi[~has] = self._brackets(ctx, expr, ids[~has])
            sizes = [len(groups[key]) for key in keys]
            return bound_scalar_agg(spec.value.fn, member_lo, member_hi, sizes)
        if plan.verify_all:
            return lowers, uppers
        for g, key in enumerate(keys):
            block = self._agg_chi_cache.get(self._agg_fingerprint(spec.value, groups[key]))
            if block is not None:
                # A one-row call; the pseudo-mask's rois resolve as its lowest
                # member's. Its bracket is the pseudo-mask's, not that member's,
                # so no ctx keeps it.
                rep = np.array([min(groups[key])], dtype=np.int64)
                row = (block, np.zeros(1, dtype=np.intp), slice(None))
                lo, hi = self._brackets(None, spec.value.expr, rep, [row])
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
            acc = spec.agg.fold(acc, ctx.read(self.store.get_meta(m)).pixels)
        width, height = dims.pop()
        return MaskRecord(MaskMeta(members[0], key, 0, 0), width, height, spec.agg.finish(acc))

    def _group_exact(self, ctx, spec: AggSpec, key, members: list[int]) -> float:
        cached = ctx.group_values.get(key)
        if cached is not None:
            return cached
        expr = spec.value.expr
        if isinstance(spec.value, ScalarAggSpec):
            exact, _ = self._brackets(ctx, expr, np.asarray(members, dtype=np.int64))
            v = float(bound_scalar_agg(spec.value.fn, exact, exact, [len(members)])[0][0])
        else:
            pseudo = self._materialize_group(ctx, spec.value, key, members)
            if self.mode != "oracle":
                fp = self._agg_fingerprint(spec.value, members)
                if fp not in self._agg_chi_cache:
                    block = ChiBlock.of(build_chi(pseudo, self.index_store.config))
                    self._agg_chi_cache[fp] = block
            # The pseudo-mask's rois resolve as its lowest member's.
            rep, w, h = min(members), pseudo.width, pseudo.height
            counts = {
                id(t): np.array([cp_exact(pseudo, t.roi.resolve(rep, w, h), t.rng)])
                for t in cp_terms(expr)
            }
            v = float(self._brackets(ctx, expr, np.array([rep]), counts=counts)[0][0])
        ctx.group_values[key] = v
        return v


def _select_items(plan: QueryPlan) -> tuple[SelectItem, ...]:
    """``plan``'s SELECT list; without one, a filter's mask id, or a top-k
    row's mask id or a group's key, then its value."""
    if plan.select:
        return plan.select
    if isinstance(plan.shape, FilterSpec):
        return (Column("mask_id"),)
    key = plan.shape.group_key if isinstance(plan.shape, AggSpec) else "mask_id"
    return (Column(key), Value("value"))


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

    Every load happens on the thread that executes the query, where a
    count of the mask is first needed; a mask none of whose counts is
    needed is never read. In incremental mode a load of a mask without an
    index builds its index. A load resolves each of the plan's count terms'
    rois on the mask once, reads the union of their rows into the engine's
    hot buffer for the mask's size, and counts every term there on its roi,
    while the rows are still in cache. The query keeps only the counts, one
    per term, so a mask is read at most once and no pixels outlive their
    load. A term that cannot be counted on a mask (its roi is missing or
    out of bounds) keeps its error in place of the count; the error is
    raised where that count is used.

    The bound stage's zero-width brackets are counts too: ``keep`` holds
    each, per term, and ``column`` answers from it in place of a load. The
    areas it resolved are kept the same way, for the exact stage.
    """

    def __init__(self, engine: Engine, plan: QueryPlan | None = None):
        self.engine = engine
        self.t_start = time.perf_counter()
        self.stats = ExecStats()
        self.counts: dict[int, list] = {}  # mask id -> a count or an error per term, once loaded
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
        # Per slot, mask id -> the count its zero-width bracket gave, and the
        # (mask id, slot) pairs column answered from these.
        self.closed: list[dict[int, int]] = [{} for _ in self.terms or ()]
        self.answered: set[tuple[int, int]] = set()
        self.areas: dict[int, dict[int, float]] = {}  # id(binding) -> mask id -> area

    def keep(self, term: CpTerm, ids: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
        """Keep ``term``'s count on each mask of ``ids`` whose bracket
        [lo, hi], from that mask's own index row, has width 0. A sound
        bracket of width 0 is the count ``cp_exact`` would give."""
        j = self._slot.get(id(term))
        if j is not None:
            at = np.flatnonzero(lo == hi)
            self.closed[j].update(zip(ids[at].tolist(), lo[at].astype(np.int64).tolist()))

    def keep_areas(self, binding, ids: np.ndarray, areas: np.ndarray) -> None:
        self.areas.setdefault(id(binding), {}).update(zip(ids.tolist(), areas.tolist()))

    def areas_of(self, binding, ids: np.ndarray) -> np.ndarray | None:
        """The kept areas of ``binding``'s rois on ``ids``, or None unless
        every one of them is kept."""
        kept = self.areas.get(id(binding))
        if kept is None:
            return None
        try:
            return np.array([kept[m] for m in ids.tolist()], dtype=np.float64)
        except KeyError:
            return None

    def read(self, entry: ManifestEntry, rows: tuple[int, int] | None = None) -> MaskRecord:
        """Load rows ``rows`` (None: all) of ``entry``'s mask into the calling
        thread's hot buffer, counted as loaded with no counts yet. The record
        is valid until the thread's next read of a mask of that size."""
        engine, mask_id = self.engine, entry.mask_id
        # A mask indexed on the spot is read whole: its index counts every pixel.
        build = engine.mode == "incremental" and mask_id not in engine.index_store
        buf = engine._hot_buffer(entry.height, entry.width)
        rec = engine.store.get_mask(mask_id, out=buf, rows=None if build else rows)
        if build:
            engine.index_store.insert(build_chi(rec, engine.index_store.config))
        self.counts[mask_id] = []
        self.stats.bytes_read += rec.pixels.nbytes
        return rec

    def load(self, mask_id: int) -> list:
        """Read ``mask_id`` and count every term of the plan on it. Each
        term's roi is resolved once: the load reads the union of their rows,
        each clipped to the mask's height (all rows when none resolves), and
        counts each term on its roi."""
        entry = self.engine.store.get_meta(mask_id)
        height, terms = entry.height, self.terms or ()
        rois, y1, y2 = [], height, 0
        for t in terms:
            try:
                roi = t.roi.resolve(mask_id, entry.width, height)
            except StoreError as e:
                roi = e
            else:
                if roi.y1 < height:  # a roi wholly below the mask adds no rows
                    y1, y2 = min(y1, roi.y1), max(y2, min(roi.y2, height))
            rois.append(roi)
        rec = self.read(entry, (y1, y2) if y1 < y2 else None)
        counts = []
        for t, roi in zip(terms, rois):
            if isinstance(roi, Roi):  # else the error resolving it raised
                try:
                    roi = cp_exact(rec, roi, t.rng)
                except StoreError as e:
                    roi = e
            counts.append(roi)
        self.counts[mask_id] = counts
        return counts

    def column(self, ids: np.ndarray, term: CpTerm) -> np.ndarray:
        """``term``'s count on each mask of ``ids``, as int64, from a load,
        else from a zero-width bracket, else loading the mask; raises the
        error kept in place of a count."""
        j = self._slot[id(term)]
        closed, values = self.closed[j], []
        for mask_id in ids.tolist():
            counts = self.counts.get(mask_id)
            if counts is not None:
                v = counts[j]
            elif mask_id in closed:
                v = closed[mask_id]
                self.answered.add((mask_id, j))
            else:
                v = self.load(mask_id)[j]
            if type(v) is not int:
                raise v
            values.append(v)
        return np.array(values, dtype=np.int64)

    def result(self, columns, rows, t_filter: float, accepted=()) -> QueryResult:
        """Close the query's stats and wrap its rows. Every targeted mask is
        loaded, accepted without a load (``accepted`` minus loaded), or pruned."""
        t_start, t_end = self.t_start, time.perf_counter()
        stats = self.stats
        stats.masks_loaded = len(self.counts)
        stats.counts_from_index = sum(1 for m, _ in self.answered if m not in self.counts)
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
