import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chisearch.bounds import (
    AreaTerm,
    BinOp,
    Bounds,
    Const,
    CpTerm,
    EmptyGroup,
    NonMonotoneOperator,
    bound_scalar_agg,
    bound_scalar_aggs,
    cp_bounds,
    exact_scalar_agg,
    expr_bounds,
    expr_exact,
    is_boundable,
)
from chisearch.chi import ChiBlock, ChiConfig, IndexStore, build_chi, grid_boundaries
from chisearch.store import Roi, RoiBinding, ValueRange, cp_exact

from conftest import (
    bounds_of,
    count_pixels_loop,
    random_range,
    random_roi_in,
    record,
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
    # Blocks of masks under 2**16 pixels count in 16 bits; at 2**16 pixels a
    # full-mask count no longer fits, and the block counts in 32 bits.
    for w, h in ((255, 257), (256, 256)):
        px = np.zeros((h, w), dtype=np.float32)
        px[:, w // 2 :] = 0.75
        block = ChiBlock.of(build_chi(record(px), ChiConfig(60, 60, 4)))
        assert block.counts.dtype == (np.uint16 if w * h < 2**16 else np.uint32)
        assert bounds_of(block, Roi(0, 0, w, h), ValueRange(0.0, 1.0)) == (w * h, w * h)
        half = w * h - (w // 2) * h
        assert bounds_of(block, Roi(0, 0, w, h), ValueRange(0.5, 1.0)) == (half, half)
        roi = Roi(1, 1, w - 1, h - 1)
        exact = cp_exact(record(px), roi, ValueRange(0.5, 0.8))
        lower, upper = bounds_of(block, roi, ValueRange(0.5, 0.8))
        assert 0 <= lower <= exact <= upper <= roi.area


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
    """``bound_scalar_aggs`` is ``bound_scalar_agg`` per group, bit for bit,
    from one member up to 600; on exact members it brackets the exact value."""
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
            lo, hi = bound_scalar_aggs(agg, lowers, uppers, sizes)
            assert lo.shape == hi.shape == (len(sizes),)
            for g, (start, size) in enumerate(zip(starts, sizes)):
                part = slice(start, start + size)
                items = [Bounds(float(a), float(b)) for a, b in zip(lowers[part], uppers[part])]
                want = bound_scalar_agg(agg, items)
                assert (float(lo[g]).hex(), float(hi[g]).hex()) == (
                    want.lower.hex(), want.upper.hex()), (agg, size)
                assert lo[g] <= exact_scalar_agg(agg, exact[part].tolist()) <= hi[g]
    # Pairwise summation rounds differently: the in-order sums above are not
    # what np.add.reduceat would give.
    lo, _ = bound_scalar_aggs("SUM", exact, exact, sizes)
    assert (lo != np.add.reduceat(exact, starts)).any()


def test_group_brackets_of_no_groups_and_empty_groups():
    lo, hi = bound_scalar_aggs("AVG", np.zeros(0), np.zeros(0), [])
    assert lo.shape == hi.shape == (0,)
    with pytest.raises(EmptyGroup):
        bound_scalar_aggs("SUM", np.ones(2), np.ones(2), [2, 0])
    with pytest.raises(NonMonotoneOperator):
        bound_scalar_aggs("MEDIAN", np.ones(2), np.ones(2), [2])


def test_empty_group_raises():
    with pytest.raises(EmptyGroup):
        bound_scalar_agg("SUM", [])
    with pytest.raises(EmptyGroup):
        exact_scalar_agg("AVG", [])
