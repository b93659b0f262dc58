import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chisearch import bounds
from chisearch.bounds import (
    AreaTerm,
    BinOp,
    Const,
    CpTerm,
    EmptyGroup,
    NonMonotoneOperator,
    cp_bounds,
    cp_terms,
    expr_bounds,
    is_boundable,
)
from chisearch.chi import ChiBlock, ChiConfig, IndexStore, build_chi, grid_boundaries
from chisearch.corpus import blob_mask
from chisearch.store import Roi, RoiBinding, ValueRange, cp_exact

from conftest import (
    Bounds,
    bound_scalar_agg,
    bounds_of,
    count_pixels_loop,
    exact_scalar_agg,
    expr_exact,
    random_range,
    random_roi_in,
    record,
    reference_bounds,
    roi_array,
    snapped,
    two_candidate_bounds,
)


def test_snap_regions_worked_example():
    outer, inner = snapped(Roi(2, 2, 5, 5), 8, 8, ChiConfig(2, 2, 2))
    assert outer == [2, 2, 6, 6]
    assert inner == [2, 2, 4, 4]


def test_snap_fixed_point_on_aligned_roi():
    outer, inner = snapped(Roi(2, 4, 6, 8), 8, 8, ChiConfig(2, 2, 2))
    assert outer == inner == [2, 4, 6, 8]


def test_snap_inside_one_cell():
    outer, (x1, y1, x2, y2) = snapped(Roi(1, 1, 3, 3), 8, 8, ChiConfig(4, 4, 2))
    assert x1 >= x2 and y1 >= y2  # no aligned rectangle fits inside
    assert outer == [0, 0, 4, 4]


def test_snap_ragged_edges():
    outer, inner = snapped(Roi(8, 5, 10, 7), 10, 7, ChiConfig(3, 3, 2))
    assert outer == [6, 3, 10, 7]
    assert inner == [9, 6, 10, 7]


def test_upper_bound_worked_example(grid_example, grid_example_index):
    roi = Roi(2, 2, 5, 5)
    vr = ValueRange(0.6, 1.0)
    # Enclosing-region bound 8, enclosed-region bound 2 + 9 - 4 = 7. The
    # widened range is bin 1, [0.5, 1.0), which aligned regions count exactly.
    idx = grid_example_index
    assert bounds_of(idx, Roi(2, 2, 6, 6), ValueRange(0.5, 1.0)) == (8, 8)
    assert bounds_of(idx, Roi(2, 2, 4, 4), ValueRange(0.5, 1.0)) == (2, 2)
    assert bounds_of(idx, roi, vr)[1] == 7
    assert cp_exact(grid_example, roi, vr) <= 7


def test_bounds_exact_when_aligned(grid_example, grid_example_index):
    roi = Roi(2, 2, 6, 6)  # on the grid
    vr = ValueRange(0.5, 1.0)  # on a bin edge
    lower, upper = bounds_of(grid_example_index, roi, vr)
    exact = cp_exact(grid_example, roi, vr)
    assert lower == upper == exact == 8


def test_lower_bound_full_domain_equals_area(grid_example, grid_example_index):
    roi = Roi(0, 0, 8, 8)
    assert bounds_of(grid_example_index, roi, ValueRange(0.0, 1.0))[0] == 64


def test_lower_bound_vacuous_inside_cell():
    rng = np.random.default_rng(0)
    rec = record(rng.random((16, 16), dtype=np.float32))
    idx = build_chi(rec, ChiConfig(8, 8, 2))
    assert bounds_of(idx, Roi(1, 1, 3, 3), ValueRange(0.3, 0.4))[0] == 0


def _soundness_trial(rng, width, height, cfg):
    rec = record(rng.random((height, width), dtype=np.float32))
    block = ChiBlock.of(build_chi(rec, cfg))
    fails = []
    for _ in range(40):
        roi = random_roi_in(rng, width, height)
        vr = random_range(rng)
        exact = cp_exact(rec, roi, vr)
        lower, upper = bounds_of(block, roi, vr)
        if not (0 <= lower <= exact <= upper <= roi.area):
            fails.append((roi, vr, exact, lower, upper))
    return fails


def test_bounds_bracket_exact_value_randomized():
    rng = np.random.default_rng(99)
    fails = []
    for _ in range(50):
        w, h = int(rng.integers(4, 48)), int(rng.integers(4, 48))
        cfg = ChiConfig(int(rng.integers(1, 12)), int(rng.integers(1, 12)), int(rng.integers(1, 9)))
        fails += _soundness_trial(rng, w, h, cfg)
    assert fails == []


@given(seed=st.integers(0, 100_000))
def test_bounds_sound_property(seed):
    rng = np.random.default_rng(seed)
    w, h = int(rng.integers(2, 20)), int(rng.integers(2, 20))
    cfg = ChiConfig(int(rng.integers(1, 7)), int(rng.integers(1, 7)), int(rng.integers(1, 6)))
    rec = record(rng.random((h, w), dtype=np.float32))
    idx = build_chi(rec, cfg)
    roi = random_roi_in(rng, w, h)
    vr = random_range(rng)
    exact = cp_exact(rec, roi, vr)
    lower, upper = bounds_of(idx, roi, vr)
    assert 0 <= lower <= exact <= upper <= roi.area


def test_exactness_on_aligned_inputs_randomized():
    rng = np.random.default_rng(7)
    for _ in range(200):
        w, h = int(rng.integers(4, 40)), int(rng.integers(4, 40))
        cfg = ChiConfig(int(rng.integers(1, 9)), int(rng.integers(1, 9)),
                        int(2 ** rng.integers(0, 5)))
        rec = record(rng.random((h, w), dtype=np.float32))
        idx = build_chi(rec, cfg)
        g = grid_boundaries(w, h, cfg)
        xs, ys = (0,) + g.xs, (0,) + g.ys
        i1 = int(rng.integers(0, len(xs) - 1)); i2 = int(rng.integers(i1 + 1, len(xs)))
        j1 = int(rng.integers(0, len(ys) - 1)); j2 = int(rng.integers(j1 + 1, len(ys)))
        roi = Roi(xs[i1], ys[j1], xs[i2], ys[j2])
        a = int(rng.integers(0, cfg.bins)); z = int(rng.integers(a + 1, cfg.bins + 1))
        vr = ValueRange(float(cfg.bin_edges[a]), float(cfg.bin_edges[z]))
        lower, upper = bounds_of(idx, roi, vr)
        assert lower == upper == cp_exact(rec, roi, vr)


# -- the upper-bound argument, step by step ------------------------------------


def test_widened_bin_range_overcounts():
    # Reading the histogram at the widened bin edges never undercounts.
    rng = np.random.default_rng(31)
    rec = record(rng.random((12, 12), dtype=np.float32))
    cfg = ChiConfig(3, 3, 5)
    block = ChiBlock.of(build_chi(rec, cfg))
    g = grid_boundaries(12, 12, cfg)
    for _ in range(100):
        roi = Roi(0, 0, int(rng.choice(g.xs)), int(rng.choice(g.ys)))
        vr = random_range(rng)
        lo, hi = cfg.outer_bin_span(vr)
        widened = ValueRange(float(cfg.bin_edges[lo]), float(cfg.bin_edges[hi]))
        count, upper = bounds_of(block, roi, widened)
        assert count == upper  # aligned region and range: the histogram reading
        assert count >= cp_exact(rec, roi, vr)


def test_spatial_additivity_of_count():
    rng = np.random.default_rng(37)
    rec = record(rng.random((15, 15), dtype=np.float32))
    vr = ValueRange(0.4, 0.9)
    outer = Roi(2, 3, 13, 14)
    inner = Roi(5, 5, 9, 9)
    ring = [
        Roi(outer.x1, outer.y1, outer.x2, inner.y1),
        Roi(outer.x1, inner.y1, inner.x1, inner.y2),
        Roi(inner.x2, inner.y1, outer.x2, inner.y2),
        Roi(outer.x1, inner.y2, outer.x2, outer.y2),
    ]
    total = cp_exact(rec, inner, vr) + sum(cp_exact(rec, r, vr) for r in ring)
    assert total == cp_exact(rec, outer, vr)


def test_count_capped_by_area():
    rng = np.random.default_rng(41)
    rec = record(rng.random((10, 10), dtype=np.float32))
    for _ in range(50):
        roi = random_roi_in(rng, 10, 10)
        vr = random_range(rng)
        assert cp_exact(rec, roi, vr) <= roi.area


def test_upper_bound_never_exceeds_area():
    rng = np.random.default_rng(43)
    rec = record(rng.random((20, 20), dtype=np.float32))
    block = ChiBlock.of(build_chi(rec, ChiConfig(16, 16, 2)))  # huge cells force loose regions
    for _ in range(100):
        roi = random_roi_in(rng, 20, 20)
        vr = random_range(rng)
        lower, upper = bounds_of(block, roi, vr)
        assert upper <= roi.area
        assert lower >= 0


def test_refinement_never_loosens():
    # Halving the cell size and doubling the bins divides every boundary,
    # so the finer bounds sit inside the coarser ones.
    rng = np.random.default_rng(47)
    coarse = ChiConfig(8, 8, 4)
    fine = ChiConfig(4, 4, 8)
    for _ in range(20):
        rec = record(rng.random((32, 32), dtype=np.float32))
        block_c = ChiBlock.of(build_chi(rec, coarse))
        block_f = ChiBlock.of(build_chi(rec, fine))
        for _ in range(25):
            roi = random_roi_in(rng, 32, 32)
            vr = random_range(rng)
            lower_c, upper_c = bounds_of(block_c, roi, vr)
            lower_f, upper_f = bounds_of(block_f, roi, vr)
            assert upper_f <= upper_c
            assert lower_f >= lower_c


# -- the per-cell bound against the two-candidate reference ---------------------


def _edge_values(cfg: ChiConfig) -> np.ndarray:
    """Every bin edge as a float32 pixel, and the float32 steps either side."""
    edges = cfg.bin_edges.astype(np.float32)
    values = np.concatenate([edges, np.nextafter(edges, np.float32(-1)),
                             np.nextafter(edges, np.float32(2))])
    return values[(values >= 0) & (values < 1)]


def _edge_ranges(rng, cfg: ChiConfig) -> list[ValueRange]:
    """Ranges with ends on, and one float32 step beside, bin edges."""
    ends = np.unique(np.concatenate([cfg.bin_edges, _edge_values(cfg)]))
    out = []
    for _ in range(6):
        lo, hi = sorted(rng.choice(ends, size=2, replace=False).tolist())
        out.append(ValueRange(lo, hi))
    return out


def _edge_rois(rng, w: int, h: int, cfg: ChiConfig) -> list[Roi]:
    """Random rois, one-pixel-wide strips, rois inside a single cell (no
    inner rectangle) and grid-aligned rois."""
    x, y = int(rng.integers(0, w)), int(rng.integers(0, h))
    g = grid_boundaries(w, h, cfg)
    xs, ys = (0,) + g.xs, (0,) + g.ys
    i = int(rng.integers(0, len(xs) - 1))
    j = int(rng.integers(0, len(ys) - 1))
    return [random_roi_in(rng, w, h) for _ in range(4)] + [
        Roi(x, 0, x + 1, h),
        Roi(0, y, w, y + 1),
        Roi(x, y, x + 1, y + 1),
        Roi(xs[i] + (xs[i + 1] - xs[i]) // 2, ys[j], xs[i + 1], ys[j + 1]),
        Roi(xs[i], ys[j], xs[int(rng.integers(i + 1, len(xs)))], ys[-1]),
    ]


def test_per_cell_bound_sound_and_never_looser_than_reference():
    # Grids that do not divide the mask and cells larger than it, pixels on
    # and beside every bin edge, several masks per block so that each call
    # brackets rows of different masks at once.
    rng = np.random.default_rng(61)
    cases = tighter = 0
    for _ in range(60):
        w, h = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        cfg = ChiConfig(int(rng.integers(1, 40)), int(rng.integers(1, 40)),
                        int(rng.integers(1, 9)))
        values = np.concatenate([_edge_values(cfg), rng.random(8, dtype=np.float32)])
        recs = [record(rng.choice(values, size=(h, w)), mask_id=m) for m in range(3)]
        store = IndexStore(cfg)
        for rec in recs:
            store.insert(build_chi(rec, cfg))
        block = store.block(w, h)
        rois = _edge_rois(rng, w, h, cfg)
        rows = rng.integers(0, len(recs), size=len(rois))
        for vr in _edge_ranges(rng, cfg) + [random_range(rng)]:
            lower, upper = cp_bounds(block, rows, roi_array(*rois), vr)
            ref_lower, ref_upper = two_candidate_bounds(block, rows, roi_array(*rois), vr)
            for k, roi in enumerate(rois):
                exact = count_pixels_loop(recs[rows[k]].pixels, roi, vr.lo, vr.hi)
                assert 0 <= lower[k] <= exact <= upper[k] <= roi.area, (w, h, cfg, roi, vr)
                assert ref_lower[k] <= lower[k] and upper[k] <= ref_upper[k], (cfg, roi, vr)
                cases += 1
                tighter += bool(lower[k] > ref_lower[k] or upper[k] < ref_upper[k])
    assert cases > 3000
    assert tighter > 0


def test_per_cell_bound_exact_on_aligned_rois_with_edge_ranges():
    rng = np.random.default_rng(67)
    for _ in range(100):
        w, h = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        cfg = ChiConfig(int(rng.integers(1, 40)), int(rng.integers(1, 40)),
                        int(rng.integers(1, 9)))
        rec = record(rng.choice(_edge_values(cfg), size=(h, w)))
        g = grid_boundaries(w, h, cfg)
        xs, ys = (0,) + g.xs, (0,) + g.ys
        i1 = int(rng.integers(0, len(xs) - 1)); i2 = int(rng.integers(i1 + 1, len(xs)))
        j1 = int(rng.integers(0, len(ys) - 1)); j2 = int(rng.integers(j1 + 1, len(ys)))
        roi = Roi(xs[i1], ys[j1], xs[i2], ys[j2])
        a = int(rng.integers(0, cfg.bins)); z = int(rng.integers(a + 1, cfg.bins + 1))
        vr = ValueRange(float(cfg.bin_edges[a]), float(cfg.bin_edges[z]))
        exact = count_pixels_loop(rec.pixels, roi, vr.lo, vr.hi)
        assert bounds_of(build_chi(rec, cfg), roi, vr) == (exact, exact)


def test_per_cell_bound_strictly_tighter_worked_example():
    # An 8x8 mask, 4x4 cells, high values only in the top-left cell. The
    # roi [1, 7) x [0, 4) covers 12 pixels of each of the two top cells and
    # no whole cell. The reference charges the outer rectangle's 16 high
    # pixels to the upper side and credits only 16 - 8 to the lower; per
    # cell, the high cell gives at most and at least 12, the other 0.
    px = np.full((8, 8), 0.1, dtype=np.float32)
    px[:4, :4] = 0.9
    block = ChiBlock.of(build_chi(record(px), ChiConfig(4, 4, 2)))
    rows, rois, vr = np.zeros(1, dtype=np.intp), roi_array(Roi(1, 0, 7, 4)), ValueRange(0.5, 1.0)
    assert [int(v[0]) for v in two_candidate_bounds(block, rows, rois, vr)] == [8, 16]
    assert [int(v[0]) for v in cp_bounds(block, rows, rois, vr)] == [12, 12]
    assert count_pixels_loop(px, Roi(1, 0, 7, 4), 0.5, 1.0) == 12


def test_block_dtype_holds_every_count():
    # A count is at most its cell's area: cells under 2**16 pixels count in
    # 16 bits, whatever the mask size, and cells of 2**16 pixels in 32 bits.
    # Either way a whole-mask count of 2**16 or more comes out whole.
    for (w, h), cfg in itertools.product(((255, 257), (256, 256)),
                                         (ChiConfig(60, 60, 4), ChiConfig(256, 256, 4))):
        px = np.zeros((h, w), dtype=np.float32)
        px[:, w // 2 :] = 0.75
        block = ChiBlock.of(build_chi(record(px), cfg))
        assert block.counts.dtype == (np.uint16 if cfg.cell_width < 256 else np.uint32)
        assert bounds_of(block, Roi(0, 0, w, h), ValueRange(0.0, 1.0)) == (w * h, w * h)
        half = w * h - (w // 2) * h
        assert bounds_of(block, Roi(0, 0, w, h), ValueRange(0.5, 1.0)) == (half, half)
        roi = Roi(1, 1, w - 1, h - 1)
        exact = cp_exact(record(px), roi, ValueRange(0.5, 0.8))
        lower, upper = bounds_of(block, roi, ValueRange(0.5, 0.8))
        assert 0 <= lower <= exact <= upper <= roi.area


def _reference_cases(rng):
    """(width, height, config): mixed sizes, narrow edge cells, non-square
    grids and cells larger than the mask; a 70,000 x 1 mask, whose
    coordinates and whole-mask counts pass 2**16 while its cells count in
    16 bits; and cells of 2**16 pixels or more, which count in 32 bits."""
    cases = [
        (int(rng.integers(1, 40)), int(rng.integers(1, 40)),
         ChiConfig(int(rng.integers(1, 13)), int(rng.integers(1, 13)), int(rng.integers(1, 18))))
        for _ in range(40)
    ]
    return cases + [
        (70_000, 1, ChiConfig(3_000, 1, 8)),
        (1, 70_000, ChiConfig(5, 999, 5)),
        (300, 260, ChiConfig(256, 256, 5)),
        (40, 30, ChiConfig(2**16, 1, 3)),
    ]


def test_cp_bounds_matches_pixel_reference_bit_for_bit():
    rng = np.random.default_rng(71)
    checked = 0
    for w, h, cfg in _reference_cases(rng):
        values = np.concatenate([_edge_values(cfg), rng.random(8, dtype=np.float32)])
        pixels = rng.choice(values, size=(3, h, w))
        store = IndexStore(cfg)
        for m in (2, 0, 1):
            store.insert(build_chi(record(pixels[m], mask_id=m), cfg))
        block = store.block(w, h)
        assert block.counts.dtype == cfg.count_dtype
        rois = _edge_rois(rng, w, h, cfg) + [Roi(0, 0, w, h)]
        ids = rng.integers(0, 3, size=len(rois))
        rows = block.rows_of(ids)
        for vr in _edge_ranges(rng, cfg) + [random_range(rng), ValueRange(0.0, 1.0)]:
            got = cp_bounds(block, rows, roi_array(*rois), vr)
            want = reference_bounds(pixels[ids], cfg, roi_array(*rois), vr)
            assert all(np.array_equal(g, r) for g, r in zip(got, want)), (w, h, cfg, vr)
            checked += len(rois)
        full = cp_bounds(block, rows[-1:], roi_array(Roi(0, 0, w, h)), ValueRange(0.0, 1.0))
        assert [int(v[0]) for v in full] == [w * h, w * h]
    assert checked > 3000


def test_cp_bounds_matches_pixel_reference_on_a_1000_mask_corpus():
    # 1,000 blob masks of 56 x 56 at 7 x 7 cells and 16 bins, the
    # benchmark's 224 x 224 geometry at a quarter of the scale.
    rng = np.random.default_rng(73)
    cfg = ChiConfig(7, 7, 16)
    pixels = np.stack([blob_mask(rng, 56, 56) for _ in range(1000)])
    store = IndexStore(cfg)
    for m in rng.permutation(1000).tolist():
        store.insert(build_chi(record(pixels[m], mask_id=m), cfg))
    block = store.block(56, 56)
    rows = block.rows_of(np.arange(1000))
    for vr in (ValueRange(0.6, 1.0), ValueRange(0.3, 0.7), ValueRange(0.0, 0.5),
               ValueRange(0.05, 0.9), ValueRange(0.5, 0.51), ValueRange(0.0625, 0.9375)):
        x1, y1 = rng.integers(0, 56, size=(2, 1000))
        rois = np.stack([x1, y1, rng.integers(x1 + 1, 57), rng.integers(y1 + 1, 57)], axis=1)
        got = cp_bounds(block, rows, rois, vr)
        want = reference_bounds(pixels, cfg, rois, vr)
        assert all(np.array_equal(g, r) for g, r in zip(got, want)), vr


def test_empty_call_returns_empty_brackets():
    block = ChiBlock.of(build_chi(record(np.zeros((4, 4))), ChiConfig(2, 2, 2)))
    lower, upper = cp_bounds(block, np.zeros(0, dtype=np.intp),
                             np.zeros((0, 4), dtype=np.int64), ValueRange(0.2, 0.7))
    assert lower.shape == upper.shape == (0,) and lower.dtype == upper.dtype == np.int64


# -- expression intervals --------------------------------------------------------


def _leafless(v):
    return lambda term: (_ for _ in ()).throw(AssertionError("no leaves expected"))


def test_interval_subtraction():
    values = {"a": (1.0, 3.0), "b": (2.0, 2.0)}
    terms = {
        "a": CpTerm(RoiBinding.full(), ValueRange(0.0, 0.5)),
        "b": CpTerm(RoiBinding.full(), ValueRange(0.5, 1.0)),
    }
    expr = BinOp("-", terms["a"], terms["b"])

    def leaf(term):
        return values["a"] if term is terms["a"] else values["b"]

    lo, hi = expr_bounds(expr, leaf, lambda b: 0.0)
    assert (lo, hi) == (-1.0, 1.0)


def test_degenerate_sum_of_exact_leaves():
    t1 = CpTerm(RoiBinding.full(), ValueRange(0.0, 0.5))
    t2 = CpTerm(RoiBinding.full(), ValueRange(0.5, 1.0))
    lo, hi = expr_bounds(BinOp("+", t1, t2), lambda t: (4.0, 4.0), lambda b: 0.0)
    assert lo == hi == 8.0


def test_random_expressions_bracket_exact():
    rng = np.random.default_rng(53)
    for _ in range(150):
        w = h = 16
        rec = record(rng.random((h, w), dtype=np.float32))
        idx = build_chi(rec, ChiConfig(4, 4, 4))
        t1 = CpTerm(RoiBinding.constant(random_roi_in(rng, w, h)), random_range(rng))
        t2 = CpTerm(RoiBinding.constant(random_roi_in(rng, w, h)), random_range(rng))
        op = rng.choice(["+", "-", "*"])
        expr = BinOp(str(op), t1, BinOp("/", t2, Const(3.0)))

        def leaf_bounds(term):
            lower, upper = bounds_of(idx, term.roi.resolve(1, w, h), term.rng)
            return (float(lower), float(upper))

        def leaf_exact(term):
            return cp_exact(rec, term.roi.resolve(1, w, h), term.rng)

        lo, hi = expr_bounds(expr, leaf_bounds, lambda b: 0.0)
        exact = expr_exact(expr, leaf_exact, lambda b: 0.0)
        assert lo <= exact <= hi


def test_area_term_and_division():
    t = CpTerm(RoiBinding.constant(Roi(0, 0, 4, 4)), ValueRange(0.0, 1.0))
    expr = BinOp("/", t, AreaTerm(RoiBinding.constant(Roi(0, 0, 4, 4))))
    lo, hi = expr_bounds(expr, lambda term: (8.0, 12.0), lambda b: 16.0)
    assert (lo, hi) == (0.5, 0.75)


def test_expr_bounds_on_point_leaves_is_the_exact_value_bit_for_bit():
    """An exact value is a bracket of width 0. Fed zero-width leaves for
    many masks at once (int64 counts, float64 areas), ``expr_bounds`` gives
    at both ends what ``expr_exact`` gives on each mask's Python numbers:
    the same bits and the same type, also where a count divides. Where any
    mask divides by 0, both raise ZeroDivisionError."""
    rng = np.random.default_rng(67)
    terms = [CpTerm(RoiBinding.full(), ValueRange(k / 4, (k + 1) / 4)) for k in range(4)]
    areas = [AreaTerm(RoiBinding.constant(Roi(0, 0, k, k))) for k in (3, 7)]

    def random_expr(depth):
        if depth == 0 or rng.random() < 0.3:
            leaf = rng.integers(3)
            if leaf == 0:
                return terms[rng.integers(len(terms))]
            if leaf == 1:
                return areas[rng.integers(len(areas))]
            return Const(float(rng.choice([-2.5, 0.1, 3.0])))
        return BinOp(str(rng.choice(["+", "-", "*", "/"])), random_expr(depth - 1),
                     random_expr(depth - 1))

    def count_divides(e):
        if not isinstance(e, BinOp):
            return False
        return (e.op == "/" and bool(cp_terms(e.right))) or count_divides(e.left) or \
            count_divides(e.right)

    def bits(values):
        return [(type(v), v.hex() if isinstance(v, float) else v) for v in values]

    n, seen = 8, set()
    for trial in range(400):
        expr = random_expr(3)
        counts = {id(t): rng.integers(0 if rng.random() < 0.2 else 1, 60, n) for t in terms}
        area = {id(a.roi): rng.integers(1, 50, n).astype(np.float64) for a in areas}
        try:
            want = [expr_exact(expr, lambda t: int(counts[id(t)][i]),
                               lambda b: float(area[id(b)][i])) for i in range(n)]
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                expr_bounds(expr, lambda t: (counts[id(t)],) * 2, lambda b: area[id(b)])
            seen.add("zero")
            continue
        lo, hi = expr_bounds(expr, lambda t: (counts[id(t)],) * 2, lambda b: area[id(b)])
        for end in (lo, hi):
            assert bits(np.broadcast_to(end, n).tolist()) == bits(want), (trial, expr)
        if count_divides(expr):
            seen.add("count divisor")
    assert seen == {"zero", "count divisor"}


def test_non_monotone_rejections():
    t = CpTerm(RoiBinding.full(), ValueRange(0.0, 0.5))
    with pytest.raises(NonMonotoneOperator):
        BinOp("%", t, Const(2.0))
    with pytest.raises(NonMonotoneOperator):
        BinOp("/", t, Const(0.0))
    assert not is_boundable(BinOp("/", t, t))
    with pytest.raises(NonMonotoneOperator):
        expr_bounds(BinOp("/", t, t), lambda term: (1.0, 2.0), lambda b: 0.0)


# -- scalar aggregate intervals ----------------------------------------------------


def test_scalar_agg_examples():
    items = [Bounds(1, 3), Bounds(2, 2)]
    assert bound_scalar_agg("SUM", items) == Bounds(3, 5)
    assert bound_scalar_agg("MIN", items) == Bounds(1, 2)
    assert bound_scalar_agg("MAX", items) == Bounds(2, 3)
    assert bound_scalar_agg("AVG", items) == Bounds(1.5, 2.5)


def test_scalar_agg_brackets_exact_randomized():
    rng = np.random.default_rng(59)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        exact = rng.uniform(-10, 10, size=n)
        slack_lo = rng.uniform(0, 3, size=n)
        slack_hi = rng.uniform(0, 3, size=n)
        items = [Bounds(e - a, e + b) for e, a, b in zip(exact, slack_lo, slack_hi)]
        for agg in ("SUM", "AVG", "MIN", "MAX"):
            b = bound_scalar_agg(agg, items)
            v = exact_scalar_agg(agg, list(exact))
            assert b.lower <= v <= b.upper


def test_group_brackets_equal_one_group_at_a_time():
    """``bounds.bound_scalar_agg`` is the scalar reference ``bound_scalar_agg``
    per group, bit for bit, from one member up to 600, over all groups at
    once or one at a time; on exact members it brackets the exact value,
    and gives a group of zero width ``exact_scalar_agg``'s value bit for bit."""
    rng = np.random.default_rng(61)
    sizes = [1, 2, 7, 8, 9, 17, 600] + rng.integers(1, 40, size=40).tolist()
    rng.shuffle(sizes)
    n = sum(sizes)
    exact = rng.uniform(-1e3, 1e3, n) * rng.choice([1e-6, 1.0, 1e6], n)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    for lowers, uppers in (
        (exact - rng.uniform(0, 5, n), exact + rng.uniform(0, 5, n)),
        (exact, exact),
    ):
        for agg in ("SUM", "AVG", "MIN", "MAX"):
            lo, hi = bounds.bound_scalar_agg(agg, lowers, uppers, sizes)
            assert lo.shape == hi.shape == (len(sizes),)
            for g, (start, size) in enumerate(zip(starts, sizes)):
                part = slice(start, start + size)
                items = [Bounds(float(a), float(b)) for a, b in zip(lowers[part], uppers[part])]
                want = bound_scalar_agg(agg, items)
                assert (float(lo[g]).hex(), float(hi[g]).hex()) == (
                    want.lower.hex(), want.upper.hex()), (agg, size)
                assert lo[g] <= exact_scalar_agg(agg, exact[part].tolist()) <= hi[g]
                # The group alone, as an exact group value is computed.
                one = bounds.bound_scalar_agg(agg, lowers[part], uppers[part], [size])
                assert (float(one[0][0]).hex(), float(one[1][0]).hex()) == (
                    want.lower.hex(), want.upper.hex()), (agg, size)
            if lowers is exact:
                for start, size in zip(starts, sizes):
                    part = exact[start:start + size]
                    v, _ = bounds.bound_scalar_agg(agg, part, part, [size])
                    assert float(v[0]).hex() == float(exact_scalar_agg(agg, part.tolist())).hex()
    # Pairwise summation rounds differently: the in-order sums above are not
    # what np.add.reduceat would give.
    lo, _ = bounds.bound_scalar_agg("SUM", exact, exact, sizes)
    assert (lo != np.add.reduceat(exact, starts)).any()


def test_group_brackets_of_no_groups_and_empty_groups():
    lo, hi = bounds.bound_scalar_agg("AVG", np.zeros(0), np.zeros(0), [])
    assert lo.shape == hi.shape == (0,)
    with pytest.raises(EmptyGroup):
        bounds.bound_scalar_agg("SUM", np.ones(2), np.ones(2), [2, 0])
    with pytest.raises(NonMonotoneOperator):
        bounds.bound_scalar_agg("MEDIAN", np.ones(2), np.ones(2), [2])


def test_empty_group_raises():
    with pytest.raises(EmptyGroup):
        bound_scalar_agg("SUM", [])
    with pytest.raises(EmptyGroup):
        exact_scalar_agg("AVG", [])


def test_cp_bounds_gathers_into_scratch_once_warm():
    # 1,000 rows of 224x224 masks at 28x28 cells and 16 bins: the gathered
    # planes alone are two 324 KB arrays, which live in the thread's scratch
    # after the first call.
    cfg = ChiConfig(28, 28, 16)
    rng = np.random.default_rng(12)
    builds = [build_chi(record(rng.random((224, 224), dtype=np.float32)), cfg) for _ in range(4)]
    store = IndexStore(cfg)
    for m in range(1000):
        b = builds[m % 4]
        store.insert(type(b)(m, b.width, b.height, cfg, b.counts))
    block = store.block(224, 224)
    rows = block.rows_of(np.arange(1000))
    x1, y1 = rng.integers(0, 224, size=(2, 1000))
    rois = np.stack([x1, y1, rng.integers(x1 + 1, 225), rng.integers(y1 + 1, 225)], axis=1)
    vr = ValueRange(0.3, 0.7)
    warm = cp_bounds(block, rows, rois, vr)
    tracemalloc.start()
    try:
        again = cp_bounds(block, rows, rois, vr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024
    assert all(np.array_equal(a, b) for a, b in zip(warm, again))
    ref = two_candidate_bounds(block, rows, rois, vr)
    assert (ref[0] <= again[0]).all() and (again[1] <= ref[1]).all()


def test_cp_bounds_refuses_rows_not_in_use():
    block = ChiBlock.of(build_chi(record(np.zeros((4, 4))), ChiConfig(2, 2, 2)))
    roi = roi_array(Roi(0, 0, 4, 4))
    for row in (-1, 1):
        with pytest.raises(IndexError):
            cp_bounds(block, np.array([row]), roi, ValueRange(0.0, 0.5))
