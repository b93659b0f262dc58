"""Sound lower/upper bounds on pixel counts, from the index alone.

For an arbitrary query rectangle and value range the index cannot answer
exactly, but it can bracket the answer, one grid cell at a time. Along the
value axis the range is widened to the nearest bin edges outside it,
[lo, hi), and narrowed to those inside it, [a, z). For each cell c, four
corner lookups give U_c, its count over [lo, hi), and L_c, its count over
[a, z). With a_c the area of roi ∩ c and A_c the cell's own area (edge
cells are narrower), the pixels counted in roi ∩ c number at most
min(U_c, a_c) and at least max(0, L_c - (A_c - a_c)). Summing over the
cells gives the bracket. Cells outside the roi add nothing, and cells
inside it add U_c and L_c, so aligned rois with on-edge ranges come out
exact. Only the boundary cells carry slack, each its own.

``cp_bounds`` is the one bound kernel: it brackets many masks of one size
at once, reading the bin-major rows of their ``ChiBlock``.

All functions here are pure: they only read their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .chi import ChiBlock
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


def cp_bounds(block: ChiBlock, rows: np.ndarray, rois: np.ndarray, rng: ValueRange):
    """Bracket the count of pixels with values in [rng.lo, rng.hi) inside
    ``rois[i]`` of the mask at row ``rows[i]`` of ``block``, for every i.

    ``rows`` is an int array (n,) and ``rois`` an int array (n, 4) of x1,
    y1, x2, y2. Returns int64 arrays (lower, upper). One mask is a one-row
    call.
    """
    n = len(rows)
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    lo, hi = block.config.outer_bin_span(rng)
    a, z = block.config.inner_bin_span(rng)
    k = 2 if a < z else 1  # count [lo, hi), and [a, z) unless it is empty

    # Each cell's count over [lo, hi), then over [a, z): differences of the
    # reverse-cumulative bins, then of the prefix corners along x and y, in
    # place over one flat array. Slot (i, j) of a plane then holds cell
    # (i, j)'s count, except the last slot along either axis, where the
    # differences straddle two planes or two corner rows and hold no cell.
    # The unsigned arithmetic wraps, but each true count lies in [0, width *
    # height], inside the block's dtype, so every difference comes out exact.
    cells = block.counts[rows, np.array([lo, a][:k])[:, None]]  # (k, n, slots x, slots y)
    caps = block.counts[rows, np.array([hi, z][:k])[:, None]]
    np.subtract(cells, caps, out=cells)
    flat, ny = cells.reshape(-1), cells.shape[3]
    np.subtract(flat[ny:], flat[:-ny], out=flat[:-ny])
    np.subtract(flat[1:], flat[:-1], out=flat[:-1])

    # caps, reused, gets each cell's overlap with the roi, a_c = ax * ay, and
    # the upper bound sums min(U_c, a_c). For the lower bound, caps[1] gets
    # the cell's area outside the roi, A_c - a_c, and the lower bound sums
    # max(L_c, A_c - a_c) - (A_c - a_c). The empty slots have a_c = 0 and
    # A_c = the dtype's maximum (see ``ChiBlock``), so they add 0 to both.
    dtype = block.counts.dtype
    x1, y1, x2, y2 = (c[:, None] for c in rois.T)
    ax = np.maximum(np.minimum(x2, block.slot_x1) - np.maximum(x1, block.slot_x0), 0)
    ay = np.maximum(np.minimum(y2, block.slot_y1) - np.maximum(y1, block.slot_y0), 0)
    np.multiply(ax.astype(dtype)[:, :, None], ay.astype(dtype)[:, None, :], out=caps[0])
    if k == 2:
        np.subtract(block.slot_area, caps[0], out=caps[1])
        np.maximum(cells[1], caps[1], out=cells[1])
        np.subtract(cells[1], caps[1], out=caps[1])
    np.minimum(cells[0], caps[0], out=caps[0])
    # Each sum is at most the roi's area, so it fits the dtype too.
    sums = caps.reshape(k, n, -1).sum(axis=2, dtype=dtype).astype(np.int64)
    return (sums[1] if k == 2 else np.zeros(n, dtype=np.int64)), sums[0]


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
