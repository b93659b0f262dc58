import os
import stat
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chisearch import chi
from chisearch.bounds import cp_bounds
from chisearch.chi import (
    CHI_MAGIC,
    ChiBlock,
    ChiError,
    ChiConfig,
    ConfigMismatch,
    CorruptIndex,
    IndexStore,
    MAX_BINS,
    OverflowDetected,
    build_chi,
    grid_boundaries,
    load_index,
    merge_index,
    persist_index,
)
from chisearch.store import MAX_PIXEL, MaskMeta, MaskRecord, Roi, ValueRange, cp_exact

from conftest import (
    bounds_of,
    corner_counts,
    count_pixels_loop,
    index_file_bytes,
    index_of,
    record,
    region_hist_loop,
    roi_array,
    snapped,
)


def test_grid_boundaries_include_ragged_edge():
    g = grid_boundaries(10, 7, ChiConfig(3, 3, 4))
    assert g.xs == (3, 6, 9, 10)
    assert g.ys == (3, 6, 7)
    g2 = grid_boundaries(8, 8, ChiConfig(2, 2, 2))
    assert g2.xs == (2, 4, 6, 8)


def test_worked_example_corner_counts(grid_example_index):
    # First cell corner: four pixels total, none at or above 0.5; the
    # fourth-cell corner covers sixteen pixels, three of them high. The
    # first cell's own counts are its corner's; the fourth corner's are
    # the sum of the four cells of [0, 4) x [0, 4).
    corners = corner_counts(grid_example_index.counts)
    assert corners[:, 0, 0].tolist() == [4, 0]
    assert corners[:, 1, 1].tolist() == [16, 3]
    assert grid_example_index.counts[:, 0, 0].tolist() == [4, 0]
    assert grid_example_index.counts[:, :2, :2].sum(axis=(1, 2)).tolist() == [16, 3]


def test_zero_mask_prefixes():
    rec = record(np.zeros((4, 4), dtype=np.float32))
    idx = build_chi(rec, ChiConfig(2, 2, 2))
    corners = corner_counts(idx.counts)
    for i, x in enumerate((2, 4)):
        for j, y in enumerate((2, 4)):
            assert corners[0, i, j] == x * y
            assert corners[1, i, j] == 0
            assert idx.counts[:, i, j].tolist() == [4, 0]


def test_counts_match_brute_force_on_ragged_grid():
    rng = np.random.default_rng(9)
    rec = record(rng.random((7, 10), dtype=np.float32))
    cfg = ChiConfig(3, 3, 4)
    idx = build_chi(rec, cfg)
    corners = corner_counts(idx.counts)
    g = grid_boundaries(10, 7, cfg)
    xs, ys = (0,) + g.xs, (0,) + g.ys
    for i, x in enumerate(g.xs):
        for j, y in enumerate(g.ys):
            for b in range(cfg.bins):
                edge = float(cfg.bin_edges[b])
                want = count_pixels_loop(rec.pixels, Roi(0, 0, x, y), edge, float("inf"))
                assert corners[b, i, j] == want
                cell = Roi(xs[i], ys[j], x, y)
                assert idx.counts[b, i, j] == count_pixels_loop(rec.pixels, cell, edge, 2.0)


@given(
    seed=st.integers(0, 10_000),
    width=st.integers(1, 16),
    height=st.integers(1, 16),
    cw=st.integers(1, 6),
    ch=st.integers(1, 6),
    bins=st.integers(1, 6),
)
def test_defining_invariant_property(seed, width, height, cw, ch, bins):
    rng = np.random.default_rng(seed)
    rec = record(rng.random((height, width), dtype=np.float32))
    cfg = ChiConfig(cw, ch, bins)
    idx = build_chi(rec, cfg)
    corners = corner_counts(idx.counts)
    g = grid_boundaries(width, height, cfg)
    xs, ys = (0,) + g.xs, (0,) + g.ys
    for i, x in enumerate(g.xs):
        for j, y in enumerate(g.ys):
            prefix, cell = Roi(0, 0, x, y), Roi(xs[i], ys[j], x, y)
            assert corners[0, i, j] == x * y
            assert idx.counts[0, i, j] == cell.area
            for b in range(bins):
                lo = float(cfg.bin_edges[b])
                assert corners[b, i, j] == cp_exact(rec, prefix, ValueRange(lo, 1.0))
                assert idx.counts[b, i, j] == cp_exact(rec, cell, ValueRange(lo, 1.0))


def test_counts_monotone_in_all_axes():
    rng = np.random.default_rng(11)
    idx = build_chi(record(rng.random((20, 20), dtype=np.float32)), ChiConfig(4, 4, 5))
    assert (np.diff(idx.counts.astype(np.int64), axis=0) <= 0).all()
    c = corner_counts(idx.counts)
    assert (np.diff(c, axis=0) <= 0).all()
    assert (np.diff(c, axis=1) >= 0).all()
    assert (np.diff(c, axis=2) >= 0).all()


def test_in_memory_count_size_matches_formula():
    rng = np.random.default_rng(0)
    idx = build_chi(record(rng.random((224, 224), dtype=np.float32)), ChiConfig(28, 28, 16))
    assert idx.counts.nbytes == idx.payload_bytes == 2 * 16 * 8 * 8 == 2048
    big = build_chi(record(rng.random((448, 448), dtype=np.float32)), ChiConfig(64, 64, 16))
    assert big.counts.nbytes == 7 * 7 * 16 * 2 == 1568
    # Cells of 2**16 pixels or more count in 32 bits, whatever the mask size.
    huge = build_chi(record(rng.random((8, 8), dtype=np.float32)), ChiConfig(256, 256, 16))
    assert huge.counts.dtype == np.uint32 and huge.counts.nbytes == 1 * 1 * 16 * 4


def test_bin_edges_are_k_over_bins():
    # Every edge is k / bins correctly rounded: decimal range ends a user
    # types at 10 or 20 bins sit on their edges, and at 16 bins the edges
    # are those of the former product (1 / bins) * k, bit for bit.
    for bins in (1, 3, 10, 16, 20, 100):
        edges = ChiConfig(1, 1, bins).bin_edges
        assert edges.tolist() == [k / bins for k in range(bins + 1)]
    assert ChiConfig(1, 1, 10).bin_edges[[3, 6, 7]].tolist() == [0.3, 0.6, 0.7]
    assert np.array_equal(ChiConfig(1, 1, 16).bin_edges, (1.0 / 16) * np.arange(17))


def test_ten_bins_bracket_a_decimal_range_exactly_on_an_aligned_roi():
    rng = np.random.default_rng(21)
    cfg = ChiConfig(4, 4, 10)
    px = rng.random((12, 16), dtype=np.float32)
    px[0, :6] = [0.3, np.nextafter(np.float32(0.3), np.float32(0)), 0.8,
                 np.nextafter(np.float32(0.8), np.float32(0)), 0.29, 0.81]
    rec = record(px)
    vr = ValueRange(0.3, 0.8)
    assert cfg.inner_bin_span(vr) == cfg.outer_bin_span(vr) == (3, 8)
    for roi in (Roi(0, 0, 16, 12), Roi(4, 0, 12, 8), Roi(0, 4, 4, 12)):
        exact = count_pixels_loop(rec.pixels, roi, vr.lo, vr.hi)
        assert bounds_of(build_chi(rec, cfg), roi, vr) == (exact, exact)


def _reference_build(mask, config):
    """The straightforward build: float64 searchsorted and per-pixel cell ids."""
    grid = grid_boundaries(mask.width, mask.height, config)
    n_cx, n_cy, b = len(grid.xs), len(grid.ys), config.bins
    bins = np.searchsorted(config.bin_edges, mask.pixels.ravel(), side="right") - 1
    ys, xs = np.divmod(np.arange(mask.width * mask.height), mask.width)
    cx = np.minimum(xs // config.cell_width, n_cx - 1)
    cy = np.minimum(ys // config.cell_height, n_cy - 1)
    flat = (cx * n_cy + cy) * b + bins
    per_cell = np.bincount(flat, minlength=n_cx * n_cy * b).reshape(n_cx, n_cy, b)
    rev = np.cumsum(per_cell[:, :, ::-1], axis=2)[:, :, ::-1]
    return rev.transpose(2, 0, 1).astype(np.uint32)


def _around_edges(edges):
    """Float32 pixels at each edge (as close as float32 gets) and one float32
    step either side, plus the domain's ends, all in [0, 1)."""
    f32 = np.float32
    near = edges.astype(f32)
    values = np.concatenate(
        [near, np.nextafter(near, f32(np.inf)), np.nextafter(near, f32(-np.inf)),
         [f32(0.0), f32(MAX_PIXEL)]]
    ).astype(f32)
    return values[(values >= 0) & (values < 1)]


def test_build_matches_float64_reference_on_bin_edges():
    rng = np.random.default_rng(8)
    f32 = np.float32
    for bins in (1, 3, 7, 10, 16, 33, 100, 255, 1000):
        edges = ChiConfig(1, 1, bins).bin_edges
        values = _around_edges(edges)
        # Every value on both sides of every edge actually occurs.
        assert all((values < e).any() and (values >= e).any() for e in edges[1:-1])
        for (w, h), (cw, ch) in (
            ((23, 17), (5, 7)), ((17, 23), (4, 4)), ((9, 6), (10, 10)), ((1, 1), (1, 1)),
            ((31, 12), (8, 5)), ((61, 53), (16, 16)),
        ):
            cfg = ChiConfig(cw, ch, bins)
            px = rng.choice(values, size=(h, w))
            px.ravel()[: len(values)] = values[: w * h]
            mask = record(px)
            got = build_chi(mask, cfg).counts
            assert got.dtype == np.uint16
            assert np.array_equal(got, _reference_build(mask, cfg)), (bins, w, h, cw, ch)
        # A seeded batch of 10**5 random values, after every edge value above.
        batch = rng.random(10**5, dtype=f32)
        batch[: len(values)] = values
        mask = record(batch.reshape(400, 250))
        cfg = ChiConfig(64, 100, bins)
        assert np.array_equal(build_chi(mask, cfg).counts, _reference_build(mask, cfg)), bins
    # Bin counts up to MAX_BINS, on a seeded sample of edges: one cell each,
    # as the build counts cells x bins.
    for bins in (65_535, 2**20 + 7, MAX_BINS):
        ks = np.unique(np.concatenate([[1, 2, bins - 2, bins - 1], rng.integers(1, bins, 2000)]))
        edges = ChiConfig(1, 1, bins).bin_edges[ks]
        values = _around_edges(edges)
        assert all((values < e).any() and (values >= e).any() for e in edges)
        cfg = ChiConfig(len(values), 1, bins)
        mask = record(values[None, :])
        got = build_chi(mask, cfg).counts
        assert got.dtype == np.uint16 and got.shape == (bins, 1, 1)
        assert np.array_equal(got, _reference_build(mask, cfg)), bins


def test_config_rejects_more_bins_than_the_build_can_place():
    assert ChiConfig(1, 1, MAX_BINS).bins == MAX_BINS
    with pytest.raises(ValueError):
        ChiConfig(1, 1, MAX_BINS + 1)


def test_overflow_guard():
    fake = MaskRecord(MaskMeta(1, 1, 1, 1), 1 << 16, 1 << 16, np.zeros((1, 1), np.float32))
    with pytest.raises(OverflowDetected):
        build_chi(fake, ChiConfig(2, 2, 2))


# -- available regions ---------------------------------------------------------


def _is_aligned(roi, w, h, cfg):
    outer, inner = snapped(roi, w, h, cfg)
    return outer == inner == [roi.x1, roi.y1, roi.x2, roi.y2]


def test_available_region_examples(grid_example):
    # The worked example's regions, converted to 0-based half-open form: an
    # aligned rectangle snaps to itself both ways, any other does not.
    assert _is_aligned(Roi(2, 2, 4, 6), 8, 8, ChiConfig(2, 2, 2))
    assert not _is_aligned(Roi(3, 3, 5, 5), 8, 8, ChiConfig(2, 2, 2))


def test_full_mask_always_available():
    for w, h, cw, ch in ((8, 8, 2, 2), (10, 7, 3, 3), (5, 9, 4, 2), (3, 2, 8, 8)):
        assert _is_aligned(Roi(0, 0, w, h), w, h, ChiConfig(cw, ch, 2))


def test_negative_zero_pixels_bin_with_zero():
    # validate_pixels accepts -0.0 and cp_exact counts it in [0, hi); the
    # build's float-to-int cast must put it in bin 0 like +0.0.
    rng = np.random.default_rng(31)
    px = rng.random((11, 13), dtype=np.float32)
    px[::2, ::3] = -0.0
    rec, cfg = record(px), ChiConfig(4, 3, 5)
    assert np.signbit(rec.pixels).sum() == 6 * 5
    idx = build_chi(rec, cfg)
    assert np.array_equal(idx.counts, build_chi(record(np.abs(px)), cfg).counts)
    whole = Roi(0, 0, 13, 11)
    (hist,) = _aligned_histogram(idx, [whole])
    assert hist == region_hist_loop(rec.pixels, whole, cfg.bin_edges)
    for roi in (whole, Roi(1, 1, 7, 10), Roi(0, 0, 3, 2), Roi(5, 2, 13, 5)):
        for vr in (ValueRange(0.0, 0.1), ValueRange(0.0, 0.5), ValueRange(0.0, 1.0)):
            lower, upper = bounds_of(idx, roi, vr)
            exact = cp_exact(rec, roi, vr)
            assert exact == count_pixels_loop(rec.pixels, roi, vr.lo, vr.hi)
            assert lower <= exact <= upper


def _peak_bytes(fn) -> int:
    """Peak traced bytes of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_chi_takes_no_per_pixel_arrays_once_warm():
    # A 224x224 build bins 50,176 pixels; its per-pixel arrays (about 650
    # KiB) live in the thread's scratch after the first call.
    rec = record(np.random.default_rng(2).random((224, 224), dtype=np.float32))
    cfg = ChiConfig(28, 28, 16)
    warm = build_chi(rec, cfg)
    assert _peak_bytes(lambda: build_chi(rec, cfg)) < 128 * 1024
    assert np.array_equal(build_chi(rec, cfg).counts, warm.counts)


# -- region histograms ----------------------------------------------------------


def _aligned_histogram(index, rois):
    """Pixels of each aligned roi at or above each bin edge, plus the final
    zero, read as exact brackets over [edge, 1.0) from one multi-row call."""
    block, edges = ChiBlock.of(index), index.config.bin_edges
    rows = np.zeros(len(rois), dtype=np.intp)
    cols = []
    for e in edges[:-1]:
        lower, upper = cp_bounds(block, rows, roi_array(*rois), ValueRange(float(e), 1.0))
        assert (lower == upper).all()
        cols.append(lower)
    return [c + [0] for c in np.stack(cols, axis=1).tolist()]


def test_worked_example_region_histograms(grid_example_index):
    # Inner rectangle count 2, enclosing rectangle count 8 (bin index 1).
    inner, outer = _aligned_histogram(grid_example_index, [Roi(2, 2, 4, 4), Roi(2, 2, 6, 6)])
    assert inner == [4, 2, 0]
    assert outer == [16, 8, 0]


def test_prefix_region_equals_corner_row(grid_example_index):
    (hist,) = _aligned_histogram(grid_example_index, [Roi(0, 0, 4, 4)])
    assert hist[:-1] == corner_counts(grid_example_index.counts)[:, 1, 1].tolist()
    # In the block row, that corner's counts are the sums of its four cells,
    # and the extra top bin is zero.
    row = ChiBlock.of(grid_example_index).counts[0]
    assert row[:-1, :2, :2].sum(axis=(1, 2)).tolist() == hist[:-1]
    assert np.array_equal(row[:-1], grid_example_index.counts) and not row[-1].any()


def test_region_histogram_matches_brute_force_everywhere():
    rng = np.random.default_rng(23)
    rec = record(rng.random((11, 13), dtype=np.float32))
    cfg = ChiConfig(4, 3, 5)
    idx = build_chi(rec, cfg)
    g = grid_boundaries(13, 11, cfg)
    xs, ys = (0,) + g.xs, (0,) + g.ys
    rois = [
        Roi(x1, y1, x2, y2)
        for ix1, x1 in enumerate(xs)
        for x2 in xs[ix1 + 1 :]
        for iy1, y1 in enumerate(ys)
        for y2 in ys[iy1 + 1 :]
    ]
    for roi, got in zip(rois, _aligned_histogram(idx, rois)):
        assert got == region_hist_loop(rec.pixels, roi, cfg.bin_edges)
        assert got[0] == roi.area


def test_narrowed_value_domain_repro_is_sound():
    # A config once could narrow the value domain to [0, 0.3); pixels above
    # it spilled into the next cell and this bracket read [512, 512]. The
    # domain is now fixed at [0, 1).
    with pytest.raises(TypeError):
        ChiConfig(16, 16, 4, 0.0, 0.3)
    px = np.full((64, 64), 0.1, dtype=np.float32)
    px[16:32, 0:16] = 0.9
    rec = record(px)
    roi, vr = Roi(0, 0, 16, 32), ValueRange(0.0, 0.3)
    lower, upper = bounds_of(build_chi(rec, ChiConfig(16, 16, 4)), roi, vr)
    assert lower <= cp_exact(rec, roi, vr) == 256 <= upper


# -- the block -------------------------------------------------------------------


def test_block_growth_doubles_and_keeps_rows_in_place():
    cfg = ChiConfig(4, 3, 3)
    rng = np.random.default_rng(17)
    n = 37
    builds = [
        build_chi(record(rng.random((10, 7), dtype=np.float32), mask_id=100 + i), cfg)
        for i in range(n)
    ]
    store = IndexStore(cfg)
    allocations, before = 0, None
    for i, idx in enumerate(builds):
        store.insert(idx)
        after = store.block(7, 10).counts
        if after is before:
            assert np.shares_memory(before[:i], after)  # earlier rows stay put
        else:
            allocations += 1
        before = after
    assert allocations <= int(np.ceil(np.log2(n))) + 1
    block = store.block(7, 10)
    for idx in builds:
        (row,) = block.rows_of(np.array([idx.mask_id]))
        assert np.array_equal(block.counts[row, :-1], idx.counts)
    store.insert(builds[3])  # a re-inserted id keeps its row
    assert block.rows_of(np.array([builds[3].mask_id]))[0] == 3 and block.n == n


def test_block_lookups_mix_sorted_ids_and_rows_appended_since():
    # Ids arrive out of order, and lookups come between appends: each one
    # reads the sorted copy of the id column plus the rows appended since,
    # and a long enough run of appends sorts the column again.
    cfg = ChiConfig(4, 4, 2)
    counts = build_chi(record(np.zeros((4, 4), dtype=np.float32)), cfg).counts
    ids = np.random.default_rng(3).permutation(2000)[:700] * 3
    store = IndexStore(cfg)
    for i, m in enumerate(ids.tolist()):
        store.insert(chi.ChiIndex(m, 4, 4, cfg, counts))
        if i % 97 == 0:
            assert store.has(ids[: i + 1]).all() and not store.has(ids[: i + 1] + 1).any()
    block = store.block(4, 4)
    for m in ids[::50].tolist():  # a re-inserted id keeps its row
        store.insert(chi.ChiIndex(m, 4, 4, cfg, counts))
    assert block.n == len(store) == 700
    assert block.rows_of(ids).tolist() == list(range(700))
    assert [block.find(m) for m in ids.tolist()] == list(range(700))
    assert (block.rows_of(ids + 1) == -1).all()
    assert not any(m + 1 in store for m in ids.tolist()) and -1 not in store
    assert store.mask_ids() == sorted(ids.tolist())


def test_concurrent_inserts_land_in_their_own_rows():
    # Eight threads on two cores, released together with a short switch
    # interval, grow two blocks at once; every mask must end in its own row.
    cfg = ChiConfig(3, 3, 4)
    rng = np.random.default_rng(29)
    dims = ((9, 7), (5, 5))
    n = 800
    builds = [
        build_chi(record(rng.random(dims[i % 2], dtype=np.float32), mask_id=i), cfg)
        for i in range(n)
    ]
    store = IndexStore(cfg)
    start = threading.Barrier(8, timeout=60)
    errors = []

    def worker(k):
        try:
            start.wait()
            for idx in builds[k::8]:
                store.insert(idx)
        except Exception as e:  # re-raised below: a dead worker fails the test
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert store.mask_ids() == list(range(n))
    for h, w in dims:
        block = store.block(w, h)
        ids = np.array([idx.mask_id for idx in builds if (idx.width, idx.height) == (w, h)])
        assert sorted(block.rows_of(ids).tolist()) == list(range(n // 2))
    for idx in builds:
        block = store.block(idx.width, idx.height)
        (row,) = block.rows_of(np.array([idx.mask_id]))
        assert np.array_equal(block.counts[row, :-1], idx.counts)


# -- persistence ---------------------------------------------------------------


def _store_with_masks(seed=3, n=4, w=17, h=9, cfg=ChiConfig(4, 4, 3)):
    rng = np.random.default_rng(seed)
    store = IndexStore(cfg)
    for i in range(n):
        store.insert(build_chi(record(rng.random((h, w), dtype=np.float32), mask_id=i + 1), cfg))
    return store


def test_persist_load_roundtrip_bit_exact(tmp_path):
    store = _store_with_masks()
    path = tmp_path / "idx.chi"
    persist_index(store, path)
    loaded = load_index(path)
    assert loaded.config == store.config
    assert loaded.mask_ids() == store.mask_ids()
    for mid in store.mask_ids():
        assert np.array_equal(index_of(loaded, mid).counts, index_of(store, mid).counts)
    # Writing the loaded store again reproduces the same bytes.
    path2 = tmp_path / "idx2.chi"
    persist_index(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_persisted_payload_size_formula(tmp_path):
    rng = np.random.default_rng(1)
    cfg = ChiConfig(28, 28, 16)
    store = IndexStore(cfg)
    store.insert(build_chi(record(rng.random((224, 224), dtype=np.float32)), cfg))
    path = tmp_path / "one.chi"
    persist_index(store, path)
    header = len(CHI_MAGIC) + 32  # version, bins, cell dims, domain, count
    section = 16  # width, height, mask count
    per_mask_id = 8
    assert path.stat().st_size == header + section + per_mask_id + 2 * 16 * 8 * 8 == 2110
    assert store.payload_bytes() == 2048


def test_load_rejects_corruption(tmp_path):
    store = _store_with_masks()
    path = tmp_path / "idx.chi"
    persist_index(store, path)
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "bad_magic.chi"
    bad_magic.write_bytes(b"NOPE!\n" + bytes(raw[6:]))
    with pytest.raises(CorruptIndex):
        load_index(bad_magic)

    truncated = tmp_path / "trunc.chi"
    truncated.write_bytes(bytes(raw[:-10]))
    with pytest.raises(CorruptIndex):
        load_index(truncated)

    trailing = tmp_path / "trail.chi"
    trailing.write_bytes(bytes(raw) + b"\x00\x00")
    with pytest.raises(CorruptIndex):
        load_index(trailing)


def test_load_rejects_foreign_value_domain(tmp_path):
    store = _store_with_masks()
    path = tmp_path / "idx.chi"
    persist_index(store, path)
    raw = bytearray(path.read_bytes())
    off = len(CHI_MAGIC) + 16  # after version, bins and cell dims
    assert struct.unpack_from("<ff", raw, off) == (0.0, 1.0)
    struct.pack_into("<ff", raw, off, 0.0, 0.3)
    narrowed = tmp_path / "narrowed.chi"
    narrowed.write_bytes(bytes(raw))
    with pytest.raises(CorruptIndex):
        load_index(narrowed)


def test_load_rejects_degenerate_config(tmp_path):
    store = _store_with_masks()
    path = tmp_path / "idx.chi"
    persist_index(store, path)
    raw = path.read_bytes()
    for field, name in ((1, "bins"), (2, "cell_w"), (3, "cell_h")):
        header = bytearray(raw)
        struct.pack_into("<I", header, len(CHI_MAGIC) + 4 * field, 0)
        bad = tmp_path / f"zero_{name}.chi"
        bad.write_bytes(bytes(header))
        with pytest.raises(CorruptIndex):
            load_index(bad)


def test_failed_persist_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "idx.chi"
    persist_index(_store_with_masks(), path)
    before = path.read_bytes()

    bigger = _store_with_masks(seed=5, n=6)
    rng = np.random.default_rng(5)
    for m, w in ((7, 5), (8, 9)):  # two more mask sizes, so three sections
        px = rng.random((9, w), dtype=np.float32)
        bigger.insert(build_chi(record(px, mask_id=m), bigger.config))
    calls = []

    class FailOnThirdSection(struct.Struct):
        def pack(self, *fields):
            calls.append(fields[0])
            if len(calls) == 3:
                raise OSError("disk full")
            return super().pack(*fields)

    monkeypatch.setattr(chi, "_SECTION", FailOnThirdSection(chi._SECTION.format))
    with pytest.raises(OSError, match="disk full"):
        persist_index(bigger, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["idx.chi"]
    monkeypatch.undo()
    persist_index(bigger, path)  # a later persist still replaces it
    assert load_index(path).mask_ids() == bigger.mask_ids()


def test_persist_writes_v3_sections_from_block_rows(tmp_path):
    # Mixed sizes, inserted out of id order, with 16x16 cells (uint16
    # counts) and with 256x256 cells (2**16 pixels: uint32 counts). The file
    # holds one v3 section per size, ids ascending, of the built indexes,
    # byte for byte.
    rng = np.random.default_rng(41)
    sizes = {5: (17, 9), 2: (256, 256), 9: (8, 8), 1: (17, 9), 7: (256, 256), 3: (8, 8)}
    for cfg, dtype in ((ChiConfig(16, 16, 3), np.uint16), (ChiConfig(256, 256, 3), np.uint32)):
        builds = [
            build_chi(record(rng.random((h, w), dtype=np.float32), mask_id=m), cfg)
            for m, (w, h) in sizes.items()
        ]
        store = IndexStore(cfg)
        for idx in builds:
            store.insert(idx)
        assert {b.counts.dtype for b in store.blocks()} == {np.dtype(dtype)}
        expected = index_file_bytes(cfg, builds)
        assert len(expected) == (len(CHI_MAGIC) + 32 + 3 * 16
                                 + sum(8 + i.counts.nbytes for i in builds))
        assert store.payload_bytes() == sum(i.counts.nbytes for i in builds)
        path = tmp_path / "mixed.chi"
        persist_index(store, path)
        assert path.read_bytes() == expected
        loaded = load_index(path)
        assert loaded.mask_ids() == sorted(sizes) and len(loaded) == len(builds)
        for idx in builds:
            assert np.array_equal(index_of(loaded, idx.mask_id).counts, idx.counts)
        persist_index(loaded, tmp_path / "again.chi")
        assert (tmp_path / "again.chi").read_bytes() == expected


def test_load_rejects_a_record_id_past_int64(tmp_path):
    store = _store_with_masks(n=2)
    path = tmp_path / "idx.chi"
    persist_index(store, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<Q", raw, len(CHI_MAGIC) + 32 + 16, 2**63)  # the first section's first id
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptIndex, match="outside"):
        load_index(path)


def test_load_refuses_a_v1_file_and_says_to_rebuild(tmp_path):
    store = _store_with_masks()
    path = tmp_path / "v1.chi"
    builds = [index_of(store, m) for m in store.mask_ids()]
    path.write_bytes(index_file_bytes(store.config, builds, version=1))
    with pytest.raises(CorruptIndex, match=r"version 1\b.*rebuild"):
        load_index(path)


def test_load_refuses_a_ten_bin_v2_file_and_says_to_rebuild(tmp_path):
    # A v2 file of 10 bins was binned against edges that miss k / 10 by an
    # ulp, so its counts cannot be read against today's edges.
    store = _store_with_masks(cfg=ChiConfig(4, 4, 10))
    path = tmp_path / "v2.chi"
    builds = [index_of(store, m) for m in store.mask_ids()]
    path.write_bytes(index_file_bytes(store.config, builds, version=2))
    with pytest.raises(CorruptIndex, match=r"version 2\b.*rebuild"):
        load_index(path)


def test_load_rejects_a_corrupt_mask_size_before_allocating(tmp_path):
    store = _store_with_masks()  # 17x9 masks, 4x4 cells, 3 bins
    path = tmp_path / "idx.chi"
    persist_index(store, path)
    raw = path.read_bytes()
    section = len(CHI_MAGIC) + 32
    assert struct.unpack_from("<II", raw, section) == (17, 9)
    # 17 x 2**31 pixels overflow 32-bit counts; 1 x 2**31 would fit them,
    # but its rows (2**29 cells tall) run far past the end of the file.
    for width, height in ((17, 2**31), (1, 2**31)):
        bad = bytearray(raw)
        struct.pack_into("<II", bad, section, width, height)
        path.write_bytes(bytes(bad))
        tracemalloc.start()
        try:
            with pytest.raises(CorruptIndex, match="pixels|past the end"):
                load_index(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (width, height, peak)


def test_load_rejects_a_count_a_uint16_block_would_wrap(tmp_path):
    # The kernel's unsigned plane differences stay in [0, cell area] only
    # if no count exceeds its cell's area and no bin's count exceeds the
    # bin's below; either file would wrap L_c and make a lower bound
    # unsound. Both are hand-packed: a count of 13 in a 3x4 edge cell, below
    # a full cell's 16 and the mask's 56 pixels, and a bin-1 count of 5
    # above a bin-0 count of 4.
    cfg = ChiConfig(4, 4, 3)
    rng = np.random.default_rng(14)
    good = build_chi(record(rng.random((8, 7), dtype=np.float32), mask_id=3), cfg)
    assert good.counts.dtype == np.uint16 and good.counts[0].tolist() == [[16, 16], [12, 12]]
    over_area, over_bin = good.counts.copy(), good.counts.copy()
    over_area[0, 1, 0] = 13
    over_bin[:, 1, 1] = [4, 5, 0]
    path = tmp_path / "idx.chi"
    for counts, message in ((over_area, "above its cell's area"),
                            (over_bin, "above the bin's below")):
        bad = chi.ChiIndex(3, 7, 8, cfg, counts)
        path.write_bytes(index_file_bytes(cfg, [bad]))
        with pytest.raises(CorruptIndex, match=message):
            load_index(path)
    path.write_bytes(index_file_bytes(cfg, [good]))
    assert np.array_equal(index_of(load_index(path), 3).counts, good.counts)


def test_load_rejects_sections_out_of_order_or_sharing_ids(tmp_path):
    cfg = ChiConfig(4, 4, 3)  # widths 5, 6 and 7 all take two cells
    rng = np.random.default_rng(12)

    def build(m, w):
        return build_chi(record(rng.random((9, w), dtype=np.float32), mask_id=m), cfg)

    a, b, c = build(1, 5), build(2, 5), build(3, 7)
    path = tmp_path / "idx.chi"
    good = index_file_bytes(cfg, [a, b, c])
    path.write_bytes(good)
    assert load_index(path).mask_ids() == [1, 2, 3]
    sections = (len(CHI_MAGIC) + 32, len(CHI_MAGIC) + 32 + 16 + 2 * (8 + a.counts.nbytes))
    swapped_ids = bytearray(good)
    struct.pack_into("<QQ", swapped_ids, sections[0] + 16, 2, 1)
    same_size = bytearray(good)
    for at in sections:
        struct.pack_into("<I", same_size, at, 6)
    cases = {
        "not ascending or outside": swapped_ids,
        "not in ascending size": same_size,
        "also in an earlier section": index_file_bytes(cfg, [a, b, build(2, 7)]),
    }
    for message, raw in cases.items():
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptIndex, match=message):
            load_index(path)


def test_persisted_bytes_do_not_depend_on_how_the_store_was_filled(tmp_path):
    # Three sizes, in uint16 blocks and, with 256x256 cells, in uint32
    # ones; stores filled by shuffled inserts, by merging two halves and by
    # loading a file persist alike.
    rng = np.random.default_rng(43)
    sizes = [(17, 9), (256, 256), (8, 8)] * 4
    ids = (rng.permutation(40)[: len(sizes)] * 7 + 3).tolist()
    for cfg in (ChiConfig(16, 16, 3), ChiConfig(256, 256, 3)):
        builds = [
            build_chi(record(rng.random((h, w), dtype=np.float32), mask_id=m), cfg)
            for m, (w, h) in zip(ids, sizes)
        ]
        shuffled = IndexStore(cfg)
        for i in rng.permutation(len(builds)).tolist():
            shuffled.insert(builds[i])
        halves = [IndexStore(cfg), IndexStore(cfg)]
        for i, idx in enumerate(builds):
            halves[i % 2].insert(idx)
        persist_index(shuffled, tmp_path / "shuffled.chi")
        persist_index(merge_index(*halves), tmp_path / "merged.chi")
        persist_index(load_index(tmp_path / "shuffled.chi"), tmp_path / "loaded.chi")
        expected = index_file_bytes(cfg, builds)
        assert shuffled.block(256, 256).counts.dtype == cfg.count_dtype
        for name in ("shuffled", "merged", "loaded"):
            assert (tmp_path / f"{name}.chi").read_bytes() == expected, (cfg, name)


def test_an_id_indexed_at_one_size_is_refused_at_another():
    cfg = ChiConfig(4, 4, 3)
    rng = np.random.default_rng(8)
    store = IndexStore(cfg)
    store.insert(build_chi(record(rng.random((8, 8), dtype=np.float32), mask_id=4), cfg))
    with pytest.raises(ChiError, match="indexed as 8x8"):
        store.insert(build_chi(record(rng.random((6, 8), dtype=np.float32), mask_id=4), cfg))
    assert store.mask_ids() == [4] and len(store.blocks()) == 1


def test_persist_fsyncs_directory_after_rename(tmp_path, monkeypatch):
    store = _store_with_masks()
    path = tmp_path / "idx.chi"
    expected = index_file_bytes(store.config, [index_of(store, m) for m in store.mask_ids()])

    synced = []  # (is a directory, target in place, temp files left)
    real_fsync = os.fsync

    def spy(fd):
        synced.append((
            stat.S_ISDIR(os.fstat(fd).st_mode),
            path.exists(),
            sorted(p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")),
        ))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    persist_index(store, path)
    assert synced[0][:2] == (False, False)  # the temp file, before the rename
    assert synced[-1] == (True, True, [])  # the directory, after it
    assert path.read_bytes() == expected


def test_merge_refuses_config_mismatch():
    a = _store_with_masks(cfg=ChiConfig(4, 4, 3))
    b = _store_with_masks(cfg=ChiConfig(2, 2, 3))
    with pytest.raises(ConfigMismatch):
        merge_index(a, b)
    c = _store_with_masks(seed=99, cfg=ChiConfig(4, 4, 3))
    merged = merge_index(a, c)
    assert len(merged) == len(a)


def test_merge_folds_block_by_block_last_write_wins():
    # dst holds ids 1-4 (17x9) and 20 (8x8); src overwrites 3 and 4 and
    # brings 5-7 at 17x9 and 21 at a new size. Rows already in dst keep
    # their place, new ones append, and an id indexed at another size is
    # refused before anything is written.
    cfg = ChiConfig(4, 4, 3)
    rng = np.random.default_rng(19)

    def build(m, w, h):
        return build_chi(record(rng.random((h, w), dtype=np.float32), mask_id=m), cfg)

    dst, src = IndexStore(cfg), IndexStore(cfg)
    for idx in [build(m, 17, 9) for m in (4, 2, 1, 3)] + [build(20, 8, 8)]:
        dst.insert(idx)
    incoming = [build(m, 17, 9) for m in (7, 3, 5, 4, 6)] + [build(21, 5, 5)]
    for idx in incoming:
        src.insert(idx)
    block = dst.block(17, 9)
    before = {m: block.find(m) for m in (1, 2, 3, 4)}
    assert merge_index(dst, src) is dst
    assert dst.mask_ids() == [1, 2, 3, 4, 5, 6, 7, 20, 21]
    assert {m: dst.block(17, 9).find(m) for m in (1, 2, 3, 4)} == before
    assert dst.block(17, 9).n == 7 and dst.block(5, 5).n == 1
    for idx in incoming:
        assert np.array_equal(index_of(dst, idx.mask_id).counts, idx.counts)

    clash = IndexStore(cfg)
    clash.insert(build(30, 17, 9))
    clash.insert(build(20, 6, 6))  # 20 is 8x8 in dst
    snapshot = {m: index_of(dst, m).counts.copy() for m in dst.mask_ids()}
    with pytest.raises(ChiError, match="mask 20 is indexed as 8x8, not 6x6"):
        merge_index(dst, clash)
    assert 30 not in dst and (6, 6) not in {(b.width, b.height) for b in dst.blocks()}
    assert all(np.array_equal(index_of(dst, m).counts, c) for m, c in snapshot.items())


def test_insert_refuses_config_mismatch():
    store = IndexStore(ChiConfig(4, 4, 3))
    rng = np.random.default_rng(0)
    idx = build_chi(record(rng.random((8, 8), dtype=np.float32)), ChiConfig(2, 2, 3))
    with pytest.raises(ConfigMismatch):
        store.insert(idx)


def test_get_or_absent():
    """An inserted index reads back whole from its block row (through the
    tests' ``index_of``), and an absent one reads as None."""
    cfg = ChiConfig(4, 4, 3)
    store = IndexStore(cfg)
    assert index_of(store, 1) is None
    rng = np.random.default_rng(0)
    idx = build_chi(record(rng.random((8, 8), dtype=np.float32), mask_id=1), cfg)
    store.insert(idx)
    got = index_of(store, 1)
    assert (got.mask_id, got.width, got.height, got.config) == (1, 8, 8, cfg)
    assert got.counts.dtype == np.uint16 and np.array_equal(got.counts, idx.counts)
    assert 1 in store and 2 not in store
