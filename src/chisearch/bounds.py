"""Sound lower/upper bounds on pixel counts, from the index alone.

For an arbitrary query rectangle and value range the index cannot answer
exactly, but it can bracket the answer, one grid cell at a time. Along the
value axis the range is widened to the nearest bin edges outside it,
[lo, hi), and narrowed to those inside it, [a, z). For each cell c, one
difference of its reverse-cumulative bin counts gives U_c, its count over
[lo, hi), and another L_c, its count over [a, z). With a_c the area of
roi ∩ c and A_c the cell's own area (edge cells are narrower), the pixels
counted in roi ∩ c number at most min(U_c, a_c) and at least
max(0, L_c - (A_c - a_c)). Summing over the cells gives the bracket. Cells
outside the roi add nothing, and cells inside it add U_c and L_c, so
aligned rois with on-edge ranges come out exact. Only the boundary cells
carry slack, each its own.

``cp_bounds`` is the one bound kernel: it brackets many masks of one size
at once, reading the per-cell rows of their ``ChiBlock``. An exact value
is a bracket of width 0 through ``expr_bounds`` and ``bound_scalar_agg``.

All functions here are pure: they only read their inputs and return
fresh arrays. ``cp_bounds`` works in the calling thread's scratch buffers
(``chi.scratch``), so repeated calls take no fresh pages.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence, Union

import numpy as np

from .chi import ChiBlock, scratch
from .store import RoiBinding, ValueRange


class NonMonotoneOperator(ValueError):
    """Raised when an expression uses an operator bounds cannot pass through."""


class EmptyGroup(ValueError):
    pass


def cp_bounds(block: ChiBlock, rows: np.ndarray, rois: np.ndarray, rng: ValueRange):
    """Bracket the count of pixels with values in [rng.lo, rng.hi) inside
    ``rois[i]`` of the mask at row ``rows[i]`` of ``block``, for every i.

    ``rows`` is an int array (n,) of rows in use and ``rois`` an int array
    (n, 4) of x1, y1, x2, y2. Returns int64 arrays (lower, upper). One mask
    is a one-row call.
    """
    n = len(rows)
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    counts = block.counts
    if rows.min() < 0 or rows.max() >= block.n:
        raise IndexError(f"rows outside the {block.n} in use")
    lo, hi = block.config.outer_bin_span(rng)
    a, z = block.config.inner_bin_span(rng)
    k = 2 if a < z else 1  # count [lo, hi), and [a, z) unless it is empty

    # Gather plane (row, bin) of each mask and bin edge into the calling
    # thread's scratch, by its index in the (rows * planes) stack of planes;
    # the take cannot clip, as rows were checked, and ``mode="raise"`` would
    # buffer ``out``. One difference of the reverse-cumulative planes then
    # gives each cell's U_c, then L_c, each in [0, A_c] (``load_index``
    # refuses rows where a plane exceeds the one below).
    shape = (k, n) + counts.shape[2:]  # (k, n, cells x, cells y)
    dtype = counts.dtype
    planes_of = scratch("bounds_planes", math.prod(shape), dtype, dtype)
    cells, caps = (b.reshape(shape) for b in planes_of)
    planes = counts.reshape((-1,) + counts.shape[2:])
    first = rows * counts.shape[1]
    planes.take(first + np.array([lo, a][:k])[:, None], axis=0, out=cells, mode="clip")
    planes.take(first + np.array([hi, z][:k])[:, None], axis=0, out=caps, mode="clip")
    np.subtract(cells, caps, out=cells)

    # How much of each grid column (then row) the roi spans, as int64, so
    # no coordinate wraps: ending each span at max(min(x2, cell end), its
    # start) keeps it at 0 where the roi misses the cell. A span is at most
    # a cell's width, so it fits the count dtype.
    n_cx = block.n_cx
    spans = scratch("bounds_spans", n * len(block.cell_lo), np.int64, np.int64, dtype)
    start, end, span = (b.reshape(n, -1) for b in spans)
    for axis, cols in ((0, slice(None, n_cx)), (1, slice(n_cx, None))):
        np.maximum(rois[:, axis, None], block.cell_lo[cols], out=start[:, cols])
        np.minimum(rois[:, axis + 2, None], block.cell_hi[cols], out=end[:, cols])
    np.maximum(end, start, out=end)
    np.subtract(end, start, out=span, casting="unsafe")

    # caps, reused, gets each cell's overlap with the roi, a_c = ax * ay, and
    # the upper bound sums min(U_c, a_c). For the lower bound, caps[1] gets
    # the cell's area outside the roi, A_c - a_c, and the lower bound sums
    # max(L_c, A_c - a_c) - (A_c - a_c).
    np.multiply(span[:, :n_cx, None], span[:, None, n_cx:], out=caps[0])
    if k == 2:
        np.subtract(block.cell_area, caps[0], out=caps[1])
        np.maximum(cells[1], caps[1], out=cells[1])
        np.subtract(cells[1], caps[1], out=caps[1])
    np.minimum(cells[0], caps[0], out=caps[0])
    # Each sum is at most the mask's pixel count, below 2**32, so it adds up
    # in the count dtype where that holds the pixel count, else in uint32.
    wide = dtype if block.width * block.height <= np.iinfo(dtype).max else np.uint32
    sums = caps.reshape(k, n, -1).sum(axis=2, dtype=wide).astype(np.int64)
    return (sums[1] if k == 2 else np.zeros(n, dtype=np.int64)), sums[0]


# -- expressions over counts ------------------------------------------------
#
# Filter predicates and rankings are arithmetic over count terms for one
# mask, e.g. cp(...) - cp(...) or cp(...) / area(...). Bounds propagate
# through them by interval arithmetic, which is sound for +, -, * and
# division by a nonzero constant regardless of operand signs. Fed exact
# counts, every interval keeps width 0 and is the exact value.


@dataclass(frozen=True)
class CpTerm:
    roi: RoiBinding
    rng: ValueRange


@dataclass(frozen=True)
class AreaTerm:
    """Area of the bound region; a per-mask constant known without loading."""

    roi: RoiBinding


@dataclass(frozen=True)
class Const:
    value: float


_ALLOWED_OPS = ("+", "-", "*", "/")


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"

    def __post_init__(self):
        if self.op not in _ALLOWED_OPS:
            raise NonMonotoneOperator(f"operator {self.op!r} not supported")
        if self.op == "/" and isinstance(self.right, Const) and self.right.value == 0:
            raise NonMonotoneOperator("division by zero")


Expr = Union[CpTerm, AreaTerm, Const, BinOp]

Interval = tuple  # (lo, hi) of floats or aligned ndarrays


def interval_add(x: Interval, y: Interval) -> Interval:
    return (x[0] + y[0], x[1] + y[1])


def interval_sub(x: Interval, y: Interval) -> Interval:
    return (x[0] - y[1], x[1] - y[0])


def interval_mul(x: Interval, y: Interval) -> Interval:
    p1, p2, p3, p4 = x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1]
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return (lo, hi)


def interval_div(x: Interval, c) -> Interval:
    lo, hi = x[0] / c, x[1] / c
    return (np.minimum(lo, hi), np.maximum(lo, hi))


def is_boundable(expr: Expr) -> bool:
    """Whether interval propagation applies: division is only invertible by
    per-mask constants, so any other denominator forces exact evaluation."""
    if isinstance(expr, (CpTerm, AreaTerm, Const)):
        return True
    if expr.op == "/" and not isinstance(expr.right, (Const, AreaTerm)):
        return False
    return is_boundable(expr.left) and is_boundable(expr.right)


def expr_bounds(
    expr: Expr,
    cp_term_bounds: Callable[[CpTerm], Interval],
    area_value: Callable[[RoiBinding], float],
) -> Interval:
    """Interval for ``expr``; works elementwise when the callbacks vectorize.
    A divisor must have width 0 (a constant, an area or an exact count) and
    raises ZeroDivisionError where it is 0, as exact arithmetic would."""
    if isinstance(expr, CpTerm):
        return cp_term_bounds(expr)
    if isinstance(expr, AreaTerm):
        v = area_value(expr.roi)
        return (v, v)
    if isinstance(expr, Const):
        return (expr.value, expr.value)
    left = expr_bounds(expr.left, cp_term_bounds, area_value)
    right = expr_bounds(expr.right, cp_term_bounds, area_value)
    if expr.op == "/":
        divisor, upper = right
        if upper is not divisor and not np.array_equal(divisor, upper):
            raise NonMonotoneOperator("division only by brackets of width 0")
        if np.count_nonzero(divisor) < np.size(divisor):
            raise ZeroDivisionError("division by zero")
        return interval_div(left, divisor)
    if expr.op == "+":
        return interval_add(left, right)
    if expr.op == "-":
        return interval_sub(left, right)
    return interval_mul(left, right)


def cp_terms(expr: Expr) -> list[CpTerm]:
    """All count leaves of an expression, in evaluation order."""
    if isinstance(expr, CpTerm):
        return [expr]
    if isinstance(expr, BinOp):
        return cp_terms(expr.left) + cp_terms(expr.right)
    return []


_SCALAR_AGGS = ("SUM", "AVG", "MIN", "MAX")


def _sum_in_order(values):
    """``values`` added one by one, first to last, like ``sum`` before
    Python 3.12 (which compensates). In-order rounding is monotone, so a sum
    of lower bounds never passes the sum of the values they bound."""
    return reduce(operator.add, values, 0)


def bound_scalar_agg(agg: str, lowers: np.ndarray, uppers: np.ndarray, sizes: Sequence[int]):
    """Bracket a scalar aggregate (SUM, AVG, MIN or MAX) of exact values,
    per group, from per-item brackets: group g's items are the next
    ``sizes[g]`` of the float arrays ``lowers`` and ``uppers``. Returns
    float arrays (lower, upper), one entry per group; a group of exact
    items (zero width) gets its exact aggregate.

    A sum adds each group's items in order, as ``_sum_in_order`` does: row j
    of a zero-padded (largest size, groups) matrix holds every group's j-th
    item, and the rows are added one after another. ``np.add.reduceat``
    (pairwise past 8 items) or differences of a cumulative sum would round
    differently, so a bracket could fall an ulp inside the exact AVG.
    """
    lowers, uppers = np.asarray(lowers, np.float64), np.asarray(uppers, np.float64)
    sizes = np.asarray(sizes, dtype=np.intp)
    if len(sizes) and sizes.min() < 1:
        raise EmptyGroup(f"{agg} over an empty group")
    agg = agg.upper()
    if agg not in _SCALAR_AGGS:
        raise NonMonotoneOperator(f"unknown scalar aggregate {agg!r}")
    if len(sizes) == 0:
        return np.zeros(0), np.zeros(0)
    if len(sizes) == 1 and agg in ("SUM", "AVG"):
        # One group, as for an exact group value: its items added in order, unpadded.
        n = int(sizes[0]) if agg == "AVG" else 1  # x / 1 is x
        lo, hi = (_sum_in_order(items.tolist()) / n for items in (lowers, uppers))
        return np.array([lo]), np.array([hi])
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    if agg in ("MIN", "MAX"):
        reduce_at = (np.minimum if agg == "MIN" else np.maximum).reduceat
        return reduce_at(lowers, starts), reduce_at(uppers, starts)
    group = np.repeat(np.arange(len(sizes)), sizes)
    place = np.arange(len(group)) - starts[group]  # each item's place in its group
    out = []
    for items in (lowers, uppers):
        padded = np.zeros((int(sizes.max()), len(sizes)))
        padded[place, group] = items
        total = np.zeros(len(sizes))
        for row in padded:
            total += row
        out.append(total / sizes if agg == "AVG" else total)
    return out[0], out[1]
