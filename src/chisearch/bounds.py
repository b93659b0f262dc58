"""Sound lower/upper bounds on pixel counts, from the index alone.

For an arbitrary query rectangle and value range the index cannot answer
exactly, but it can bracket the answer. Spatially, the query rectangle is
snapped outward and inward to the nearest grid-aligned rectangles; along the
value axis, the range is widened and narrowed to the nearest bin edges.
Combining an enclosing region with a widened range can only overcount;
combining an enclosed region with a narrowed range can only undercount.
The slack of the other region is charged at one pixel per cell of area,
which yields a second bound of each kind; we always take the better one.
``cp_bounds`` is the one bound kernel: it brackets many masks of one size
at once, reading the padded rows of their ``ChiBlock``.

All functions here are pure: they only read their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .chi import ChiBlock, ChiConfig
from .store import RoiBinding, ValueRange


class NonMonotoneOperator(ValueError):
    """Raised when an expression uses an operator bounds cannot pass through."""


class EmptyGroup(ValueError):
    pass


@dataclass(frozen=True)
class Bounds:
    """Closed interval [lower, upper] guaranteed to contain the exact value."""

    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"inverted bounds {self!r}")

    @property
    def exact(self) -> bool:
        return self.lower == self.upper


def snap_rois(rois: np.ndarray, width: int, height: int, config: ChiConfig):
    """Grid-aligned rectangles (outer, inner) bracketing each roi of a mask.

    ``rois`` is an int array (n, 4) of x1, y1, x2, y2 inside a width x height
    mask. ``outer`` is the smallest aligned rectangle covering each roi;
    ``inner`` the largest it covers, of zero area when none exists. Both come
    back as (4, n) arrays of boundary ranks, rows x1, y1, x2, y2: along each
    axis rank i is the boundary i * cell, and the last rank is the mask edge.
    """
    lo, hi = np.ascontiguousarray(rois.T).reshape(2, 2, -1)  # (x1, y1), (x2, y2)
    cell = np.array([[config.cell_width], [config.cell_height]])
    extent = np.array([[width], [height]])
    last = -(-extent // cell)
    up_lo, up_hi = (np.minimum(-(-v // cell), last) for v in (lo, hi))
    down_hi = np.maximum(np.where(hi == extent, last, hi // cell), up_lo)
    return np.concatenate([lo // cell, up_hi]), np.concatenate([up_lo, down_hi])


def _area(rects: np.ndarray) -> np.ndarray:
    return (rects[2] - rects[0]) * (rects[3] - rects[1])


def _region_counts(block: ChiBlock, rows, ranks: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Pixels of each aligned rect at or above each bin edge, shape (len(bins), n):
    four corner lookups, widened to int64 before subtracting so nothing wraps."""
    _, nx, ny, nb = block.counts.shape
    # Corners (x1, y1), (x1, y2), (x2, y1), (x2, y2) of each rect.
    at = ((rows * nx + ranks[[0, 0, 2, 2]]) * ny + ranks[[1, 3, 1, 3]]) * nb
    c = block.counts.reshape(-1).take(at[:, None, :] + bins[:, None]).astype(np.int64)
    return c[3] - c[1] - c[2] + c[0]


def cp_bounds(block: ChiBlock, rows: np.ndarray, rois: np.ndarray, rng: ValueRange):
    """Bracket the count of pixels with values in [rng.lo, rng.hi) inside
    ``rois[i]`` of the mask at row ``rows[i]`` of ``block``, for every i.

    ``rows`` is an int array (n,) and ``rois`` an int array (n, 4) of x1,
    y1, x2, y2. Returns int64 arrays (lower, upper). One mask is a one-row
    call.
    """
    config, n = block.config, len(rows)
    rects = np.concatenate(snap_rois(rois, block.width, block.height, config), axis=1)
    cell = np.array([[config.cell_width], [config.cell_height]] * 2)
    edge = np.array([[block.width], [block.height]] * 2)
    area = _area(rois.T)
    snapped_area = _area(np.minimum(rects * cell, edge))
    outer_area, inner_area = snapped_area[:n], snapped_area[n:]

    lo, hi = config.outer_bin_span(rng)
    a, z = config.inner_bin_span(rng)
    c = _region_counts(block, np.concatenate([rows, rows]), rects, np.array([lo, hi, a, z]))
    # Rows: the count over the widened range, then over the narrowed one;
    # columns: the outer rectangles, then the inner ones.
    spans = c[0::2] - c[1::2]
    outer_n, inner_n = spans[:, :n], spans[:, n:]

    upper = np.minimum(np.minimum(outer_n[0], inner_n[0] + area - inner_area), area)
    if a >= z:
        return np.zeros(n, dtype=np.int64), upper
    lower = np.maximum(np.maximum(inner_n[1], outer_n[1] - (outer_area - area)), 0)
    return lower, upper


# -- expressions over counts ------------------------------------------------
#
# Filter predicates and rankings are arithmetic over count terms for one
# mask, e.g. cp(...) - cp(...) or cp(...) / area(...). Bounds propagate
# through them by interval arithmetic, which is sound for +, -, * and
# division by a nonzero constant regardless of operand signs.


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
    """Interval for ``expr``; works elementwise when the callbacks vectorize."""
    if isinstance(expr, CpTerm):
        return cp_term_bounds(expr)
    if isinstance(expr, AreaTerm):
        v = area_value(expr.roi)
        return (v, v)
    if isinstance(expr, Const):
        return (expr.value, expr.value)
    left = expr_bounds(expr.left, cp_term_bounds, area_value)
    if expr.op == "/":
        if isinstance(expr.right, Const):
            return interval_div(left, expr.right.value)
        if isinstance(expr.right, AreaTerm):
            return interval_div(left, area_value(expr.right.roi))
        raise NonMonotoneOperator("division only by constants or areas")
    right = expr_bounds(expr.right, cp_term_bounds, area_value)
    if expr.op == "+":
        return interval_add(left, right)
    if expr.op == "-":
        return interval_sub(left, right)
    return interval_mul(left, right)


def expr_exact(
    expr: Expr,
    cp_term_exact: Callable[[CpTerm], float],
    area_value: Callable[[RoiBinding], float],
):
    """Exact value of ``expr``; the oracle path, loading whatever it needs."""
    if isinstance(expr, CpTerm):
        return cp_term_exact(expr)
    if isinstance(expr, AreaTerm):
        return area_value(expr.roi)
    if isinstance(expr, Const):
        return expr.value
    left = expr_exact(expr.left, cp_term_exact, area_value)
    if expr.op == "/":
        return left / expr_exact(expr.right, cp_term_exact, area_value)
    right = expr_exact(expr.right, cp_term_exact, area_value)
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    return left * right


def cp_terms(expr: Expr) -> list[CpTerm]:
    """All count leaves of an expression, in evaluation order."""
    if isinstance(expr, CpTerm):
        return [expr]
    if isinstance(expr, BinOp):
        return cp_terms(expr.left) + cp_terms(expr.right)
    return []


_SCALAR_AGGS = ("SUM", "AVG", "MIN", "MAX")


def bound_scalar_agg(agg: str, items: Sequence[Bounds]) -> Bounds:
    """Bracket a scalar aggregate of exact values given per-item brackets."""
    if not items:
        raise EmptyGroup(f"{agg} over an empty group")
    agg = agg.upper()
    lowers = [b.lower for b in items]
    uppers = [b.upper for b in items]
    if agg == "SUM":
        return Bounds(sum(lowers), sum(uppers))
    if agg == "AVG":
        return Bounds(sum(lowers) / len(items), sum(uppers) / len(items))
    if agg == "MIN":
        return Bounds(min(lowers), min(uppers))
    if agg == "MAX":
        return Bounds(max(lowers), max(uppers))
    raise NonMonotoneOperator(f"unknown scalar aggregate {agg!r}")


def exact_scalar_agg(agg: str, values: Sequence[float]) -> float:
    if not values:
        raise EmptyGroup(f"{agg} over an empty group")
    agg = agg.upper()
    if agg == "SUM":
        return sum(values)
    if agg == "AVG":
        return sum(values) / len(values)
    if agg == "MIN":
        return min(values)
    if agg == "MAX":
        return max(values)
    raise NonMonotoneOperator(f"unknown scalar aggregate {agg!r}")
