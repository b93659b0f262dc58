"""Shared fixtures: brute-force oracles, the worked grid example, corpora."""

from __future__ import annotations

import importlib.util
import struct
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import pytest
from hypothesis import settings

from chisearch.bounds import (
    AreaTerm,
    Const,
    CpTerm,
    EmptyGroup,
    Expr,
    NonMonotoneOperator,
    _sum_in_order,
    cp_bounds,
)
from chisearch.chi import ChiBlock, ChiConfig, ChiIndex, IndexStore, build_chi, grid_boundaries
from chisearch.executor import MaskAggregate
from chisearch.store import MaskMeta, MaskRecord, MaskStore, Roi, RoiBinding, ValueRange

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


# -- independent oracles ------------------------------------------------------


def count_pixels_loop(pixels: np.ndarray, roi: Roi, lo: float, hi: float) -> int:
    """Plain per-pixel loop; the independent reference for every count. Each
    pixel is compared as a Python float, so [lo, hi) is decided exactly."""
    n = 0
    for y in range(roi.y1, roi.y2):
        for x in range(roi.x1, roi.x2):
            if lo <= float(pixels[y, x]) < hi:
                n += 1
    return n


def region_hist_loop(pixels: np.ndarray, roi: Roi, edges: np.ndarray) -> list[int]:
    """Reverse-cumulative counts per bin edge, by brute force; last entry 0."""
    counts = [
        count_pixels_loop(pixels, roi, float(e), float("inf")) for e in edges[:-1]
    ]
    return counts + [0]


def record(pixels: np.ndarray, mask_id: int = 1, image_id: int = 1, model_id: int = 1,
           mask_type: int = 1) -> MaskRecord:
    pixels = np.asarray(pixels, dtype=np.float32)
    h, w = pixels.shape
    return MaskRecord(MaskMeta(mask_id, image_id, model_id, mask_type), w, h, pixels)


def random_record(rng: np.random.Generator, width: int, height: int, mask_id: int = 1):
    return record(rng.random((height, width), dtype=np.float32), mask_id=mask_id)


def roi_array(*rois: Roi) -> np.ndarray:
    return np.array([[r.x1, r.y1, r.x2, r.y2] for r in rois], dtype=np.int64)


def reference_bounds(pixels: np.ndarray, config: ChiConfig, rois: np.ndarray, rng: ValueRange):
    """The per-cell bracket straight from the pixels, for each mask of the
    (n, height, width) stack ``pixels`` and its roi ``rois[i]`` (x1, y1,
    x2, y2): each cell's counts over the widened and narrowed bin spans are
    counted from its pixels as float64, with no index. Same results as
    ``cp_bounds``: int64 arrays (lower, upper)."""
    n, height, width = pixels.shape
    grid = grid_boundaries(width, height, config)
    xs, ys = (0,) + grid.xs, (0,) + grid.ys
    edges = config.bin_edges
    lo, hi = config.outer_bin_span(rng)
    a, z = config.inner_bin_span(rng)
    lower, upper = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    for x0, x1 in zip(xs, xs[1:]):
        ax = np.maximum(np.minimum(rois[:, 2], x1) - np.maximum(rois[:, 0], x0), 0)
        for y0, y1 in zip(ys, ys[1:]):
            ay = np.maximum(np.minimum(rois[:, 3], y1) - np.maximum(rois[:, 1], y0), 0)
            cell = pixels[:, y0:y1, x0:x1].astype(np.float64)
            overlap = ax * ay
            outside = (x1 - x0) * (y1 - y0) - overlap
            over = ((cell >= edges[lo]) & (cell < edges[hi])).sum(axis=(1, 2))
            upper += np.minimum(over, overlap)
            if a < z:
                inner = ((cell >= edges[a]) & (cell < edges[z])).sum(axis=(1, 2))
                lower += np.maximum(inner - outside, 0)
    return lower, upper


# Exact arithmetic on Python numbers, the reference that ``expr_bounds``
# on zero-width leaves and ``bound_scalar_agg`` on equal ends must equal.


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


def exact_scalar_agg(agg: str, values: Sequence[float]) -> float:
    if not values:
        raise EmptyGroup(f"{agg} over an empty group")
    agg = agg.upper()
    if agg == "SUM":
        return _sum_in_order(values)
    if agg == "AVG":
        return _sum_in_order(values) / len(values)
    if agg == "MIN":
        return min(values)
    if agg == "MAX":
        return max(values)
    raise NonMonotoneOperator(f"unknown scalar aggregate {agg!r}")


@dataclass(frozen=True)
class Bounds:
    """Closed interval [lower, upper] guaranteed to contain the exact value."""

    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"inverted bounds {self!r}")


def bound_scalar_agg(agg: str, items: Sequence[Bounds]) -> Bounds:
    """Bracket a scalar aggregate of exact values given per-item brackets,
    one group at a time: the reference ``bounds.bound_scalar_agg`` must
    equal bit for bit on every group."""
    if not items:
        raise EmptyGroup(f"{agg} over an empty group")
    agg = agg.upper()
    lowers = [b.lower for b in items]
    uppers = [b.upper for b in items]
    if agg == "SUM":
        return Bounds(_sum_in_order(lowers), _sum_in_order(uppers))
    if agg == "AVG":
        return Bounds(_sum_in_order(lowers) / len(items), _sum_in_order(uppers) / len(items))
    if agg == "MIN":
        return Bounds(min(lowers), min(uppers))
    if agg == "MAX":
        return Bounds(max(lowers), max(uppers))
    raise NonMonotoneOperator(f"unknown scalar aggregate {agg!r}")


def index_of(store: IndexStore, mask_id: int) -> ChiIndex | None:
    """A copy of ``mask_id``'s index, out of its row in ``store``'s block of
    its size, or None when ``store`` has not indexed it."""
    for block in store.blocks():
        row = block.find(mask_id)
        if row >= 0:
            counts = block.counts[row, :-1].copy()
            return ChiIndex(mask_id, block.width, block.height, store.config, counts)
    return None


def stacked_pseudo_mask(agg: MaskAggregate, stack: np.ndarray) -> np.ndarray:
    """The pseudo-mask of the masks stacked along the first axis of
    ``stack``: ``agg`` folded over them in order, then finished."""
    acc = None
    for pixels in stack:
        acc = agg.fold(acc, pixels)
    return agg.finish(acc)


def bounds_of(index, roi: Roi, vr: ValueRange) -> tuple[int, int]:
    """(lower, upper) for one mask's count: a one-row kernel call. ``index``
    is a ChiIndex or a ChiBlock whose only row is that mask."""
    block = index if isinstance(index, ChiBlock) else ChiBlock.of(index)
    lo, hi = cp_bounds(block, np.zeros(1, dtype=np.intp), roi_array(roi), vr)
    return int(lo[0]), int(hi[0])


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


def snapped(roi: Roi, width: int, height: int, config: ChiConfig):
    """The outer and inner rectangles of ``snap_rois`` for ``roi``, as
    coordinate lists x1, y1, x2, y2 read off the grid's boundary list."""
    g = grid_boundaries(width, height, config)
    xs, ys = (0,) + g.xs, (0,) + g.ys
    outer, inner = snap_rois(roi_array(roi), width, height, config)
    return [[xs[r[0]], ys[r[1]], xs[r[2]], ys[r[3]]] for r in (outer[:, 0], inner[:, 0])]


def corner_counts(counts: np.ndarray) -> np.ndarray:
    """Per-cell counts ``[..., cx, cy]`` summed into the corner counts of
    formats 1 and 2: the pixels of the rectangle from the origin to each
    cell's far corner, int64."""
    return counts.astype(np.int64).cumsum(axis=-2).cumsum(axis=-1)


def _area(rects: np.ndarray) -> np.ndarray:
    return (rects[2] - rects[0]) * (rects[3] - rects[1])


def two_candidate_bounds(block: ChiBlock, rows: np.ndarray, rois: np.ndarray, rng: ValueRange):
    """The bracket ``cp_bounds`` gave before it went per cell; the reference
    it must never be looser than.

    Combining the outer rectangle with the widened bin span can only
    overcount, and the inner rectangle with the narrowed span can only
    undercount. Charging the other rectangle's slack at one pixel per pixel
    of area gives a second candidate on each side; the tighter one wins.
    Same arguments and int64 results as ``cp_bounds``.
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
    bins = np.array([[lo], [hi], [a], [z]])
    # Corner counts of every gathered row, with a zero row and column at
    # the origin.
    cells = block.counts[np.concatenate([rows, rows])]
    corners = np.zeros(cells.shape[:2] + (cells.shape[2] + 1, cells.shape[3] + 1), np.int64)
    corners[:, :, 1:, 1:] = corner_counts(cells)
    # Corners (x1, y1), (x1, y2), (x2, y1), (x2, y2) of each rect; rows of c
    # are the bins, columns the rects.
    at = np.arange(2 * n)
    c00, c01, c10, c11 = (
        corners[at, bins, rects[i], rects[j]] for i, j in ((0, 1), (0, 3), (2, 1), (2, 3))
    )
    region = c11 - c01 - c10 + c00
    spans = region[0::2] - region[1::2]  # the widened span, then the narrowed one
    outer_n, inner_n = spans[:, :n], spans[:, n:]

    upper = np.minimum(np.minimum(outer_n[0], inner_n[0] + area - inner_area), area)
    if a >= z:
        return np.zeros(n, dtype=np.int64), upper
    lower = np.maximum(np.maximum(inner_n[1], outer_n[1] - (outer_area - area)), 0)
    return lower, upper


def random_roi_in(rng: np.random.Generator, width: int, height: int) -> Roi:
    x1 = int(rng.integers(0, width))
    x2 = int(rng.integers(x1 + 1, width + 1))
    y1 = int(rng.integers(0, height))
    y2 = int(rng.integers(y1 + 1, height + 1))
    return Roi(x1, y1, x2, y2)


def random_range(rng: np.random.Generator) -> ValueRange:
    lo = float(rng.uniform(0.0, 0.98))
    hi = float(rng.uniform(lo + 1e-6, 1.0))
    return ValueRange(lo, hi)


def load_repo_module(relpath: str):
    """Import a module of the repo that is not in a package, such as a script."""
    path = Path(__file__).resolve().parents[1] / relpath
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- the worked 8x8 example ---------------------------------------------------
#
# Low value 0.1 everywhere, 0.9 at nine chosen pixels. With 2x2 cells and
# two value bins this reproduces every number in the worked index example:
# corner counts [4, 0] and [16, 3] (the first cell alone, and the sum of the
# four cells of [0, 4) x [0, 4)), region counts 2 and 8, and the upper
# bounds 8 and 7 for the rectangle [2,5)x[2,5) with values in (0.6, 1.0).

GRID_EXAMPLE_HIGH = {(3, 1), (2, 2), (3, 3), (4, 2), (5, 3), (2, 4), (3, 5), (4, 4), (5, 5)}


@pytest.fixture(scope="session")
def grid_example() -> MaskRecord:
    px = np.full((8, 8), 0.1, dtype=np.float32)
    for x, y in GRID_EXAMPLE_HIGH:
        px[y, x] = 0.9
    return record(px)


@pytest.fixture(scope="session")
def grid_example_index(grid_example) -> "build_chi":
    return build_chi(grid_example, ChiConfig(2, 2, 2))


# -- small on-disk corpora ----------------------------------------------------


def index_file_bytes(config: ChiConfig, builds, version: int = 3) -> bytes:
    """An index file packed by hand from ``ChiIndex`` builds: in format 3
    (one section per mask size, per-cell rows in the count dtype), in
    format 2 (the same sections of uint32 corner counts), or in the
    per-mask records of format 1."""
    raw = b"MCHI1\n" + struct.pack("<IIIIffQ", version, config.bins, config.cell_width,
                                    config.cell_height, 0.0, 1.0, len(builds))
    if version == 1:
        for idx in sorted(builds, key=lambda i: i.mask_id):
            _, n_cx, n_cy = idx.counts.shape
            raw += struct.pack("<QIIII", idx.mask_id, idx.width, idx.height, n_cx, n_cy)
            raw += corner_counts(idx.counts).transpose(1, 2, 0).astype("<u4").tobytes()
        return raw
    for size in sorted({(i.width, i.height) for i in builds}):
        section = sorted((i for i in builds if (i.width, i.height) == size), key=lambda i: i.mask_id)
        raw += struct.pack("<IIQ", *size, len(section))
        raw += b"".join(struct.pack("<Q", i.mask_id) for i in section)
        for i in section:
            v3 = i.counts.astype(config.count_dtype)
            raw += (v3 if version == 3 else corner_counts(i.counts).astype("<u4")).tobytes()
    return raw


def build_store(tmp_path, records) -> MaskStore:
    st = MaskStore.create(tmp_path)
    for rec in records:
        st.ingest_mask(rec.meta, rec.width, rec.height, rec.pixels)
    st.close()
    return MaskStore.open(tmp_path)


def build_index(store: MaskStore, config: ChiConfig) -> IndexStore:
    index = IndexStore(config)
    for mid in store.mask_ids():
        index.insert(build_chi(store.get_mask(mid), config))
    return index


@pytest.fixture()
def small_corpus(tmp_path):
    """40 uniform 24x24 masks, two per image, with a shared index."""
    rng = np.random.default_rng(1234)
    records = [
        record(
            rng.random((24, 24), dtype=np.float32),
            mask_id=i + 1,
            image_id=1 + i // 2,
            model_id=1 + i % 2,
        )
        for i in range(40)
    ]
    store = build_store(tmp_path / "store", records)
    index = build_index(store, ChiConfig(6, 6, 4))
    yield store, index
    store.close()
