import os
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chisearch.store import (
    COLUMNS,
    DATA_NAME,
    PIXEL_DTYPE,
    DimensionMismatch,
    DuplicateMaskId,
    MANIFEST_NAME,
    MAX_PIXEL,
    MaskMeta,
    MaskRecord,
    MaskStore,
    MissingRoiBinding,
    NotFound,
    Roi,
    RoiBinding,
    RoiOutOfBounds,
    RoiTable,
    STORE_MAGIC,
    StoreError,
    ValueOutOfRange,
    ValueRange,
    cp_exact,
    load_roi_table,
    read_f32_file,
    write_roi_table,
)

from chisearch.chi import ChiConfig, ChiError, build_chi

from conftest import build_store, count_pixels_loop, random_range, random_roi_in, record


def make_store(tmp_path):
    return MaskStore.create(tmp_path / "store")


def test_ingest_roundtrips_exactly(tmp_path):
    st_w = make_store(tmp_path)
    pixels = [0.1, 0.2, 0.3, 0.4]
    assert st_w.ingest_mask(MaskMeta(1, 1, 1, 1), 2, 2, pixels) == 1
    st_w.close()
    store = MaskStore.open(tmp_path / "store")
    rec = store.get_mask(1)
    assert rec.pixels.tolist() == [[np.float32(0.1), np.float32(0.2)],
                                   [np.float32(0.3), np.float32(0.4)]]
    assert rec.meta == MaskMeta(1, 1, 1, 1)
    store.close()


def test_pixel_value_one_rejected(tmp_path):
    st_w = make_store(tmp_path)
    with pytest.raises(ValueOutOfRange):
        st_w.ingest_mask(MaskMeta(1, 1, 1, 1), 2, 2, [0.1, 1.0, 0.3, 0.4])
    st_w.close()


def test_clamp_flag_lowers_ones(tmp_path):
    st_w = make_store(tmp_path)
    st_w.ingest_mask(MaskMeta(1, 1, 1, 1), 2, 2, [0.1, 1.0, 0.3, 0.4], clamp=True)
    st_w.close()
    store = MaskStore.open(tmp_path / "store")
    assert float(store.get_mask(1).pixels[0, 1]) == MAX_PIXEL
    store.close()


def test_nan_rejected_even_with_clamp(tmp_path):
    st_w = make_store(tmp_path)
    with pytest.raises(ValueOutOfRange):
        st_w.ingest_mask(MaskMeta(1, 1, 1, 1), 2, 2, [0.1, float("nan"), 0.3, 0.4], clamp=True)
    st_w.close()


def test_payload_is_4_bytes_per_pixel(tmp_path):
    rng = np.random.default_rng(0)
    st_w = make_store(tmp_path)
    st_w.ingest_mask(MaskMeta(1, 1, 1, 1), 448, 448, rng.random((448, 448), dtype=np.float32))
    st_w.close()
    data = (tmp_path / "store" / DATA_NAME).read_bytes()
    assert data[: len(STORE_MAGIC)] == STORE_MAGIC
    assert len(data) == len(STORE_MAGIC) + 448 * 448 * 4


def test_dimension_mismatch_and_duplicates(tmp_path):
    st_w = make_store(tmp_path)
    with pytest.raises(DimensionMismatch):
        st_w.ingest_mask(MaskMeta(1, 1, 1, 1), 2, 2, [0.1, 0.2, 0.3])
    st_w.ingest_mask(MaskMeta(1, 1, 1, 1), 1, 1, [0.5])
    with pytest.raises(DuplicateMaskId):
        st_w.ingest_mask(MaskMeta(1, 2, 3, 4), 1, 1, [0.5])
    st_w.close()


def test_get_unknown_id_not_found(tmp_path):
    st_w = make_store(tmp_path)
    st_w.ingest_mask(MaskMeta(1, 1, 1, 1), 1, 1, [0.5])
    st_w.close()
    store = MaskStore.open(tmp_path / "store")
    with pytest.raises(NotFound):
        store.get_mask(99)
    store.close()


def test_manifest_format_is_tab_separated_decimal(tmp_path):
    st_w = make_store(tmp_path)
    st_w.ingest_mask(MaskMeta(7, 8, 9, 2), 3, 2, [0.1] * 6)
    st_w.close()
    line = (tmp_path / "store" / MANIFEST_NAME).read_text().strip()
    assert line == f"7\t8\t9\t2\t3\t2\t{len(STORE_MAGIC)}"


def _store_with_manifest_line(tmp_path, fields):
    """A store with 16 pixels of data whose manifest is the one line
    ``fields`` plus the first pixel's offset; returns its directory."""
    st_w = make_store(tmp_path)
    st_w.ingest_mask(MaskMeta(1, 1, 1, 1), 4, 4, [0.5] * 16)
    st_w.close()
    d = tmp_path / "store"
    line = "\t".join(str(f) for f in (*fields, len(STORE_MAGIC)))
    (d / MANIFEST_NAME).write_text("\n" + line + "\n")
    return d


@pytest.mark.parametrize(
    "fields, message",
    [
        ((2, 1, 1, 1, 0, 0), "bad dimensions 0x0"),
        ((2, 1, 1, 1, -4, 4), "bad dimensions -4x4"),
        ((2, 1, 1, 1, 2**32, 1), "bad dimensions 4294967296x1"),
        ((2**64, 1, 1, 1, 1, 1), "mask_id 18446744073709551616"),
        ((-1, 1, 1, 1, 1, 1), "mask_id -1"),
        ((2, 2**63, 1, 1, 1, 1), "image_id"),
        ((2, 1, -(2**63) - 1, 1, 1, 1), "model_id"),
    ],
)
def test_open_rejects_rows_that_cannot_be_masks(tmp_path, fields, message):
    d = _store_with_manifest_line(tmp_path, fields)
    with pytest.raises(StoreError, match=f"manifest line 2: {message}"):
        MaskStore.open(d)


def test_open_accepts_int64_extremes(tmp_path):
    d = _store_with_manifest_line(tmp_path, (2**63 - 1, -(2**63), 2**63 - 1, 0, 2, 2))
    store = MaskStore.open(d)
    assert [store.columns[c].tolist() for c in COLUMNS] == [
        [2**63 - 1], [-(2**63)], [2**63 - 1], [0], [2], [2]
    ]
    assert store.positions([2**63 - 1]).tolist() == [0]
    assert store.get_mask(2**63 - 1).pixels.shape == (2, 2)
    store.close()


def test_ingest_rejects_ids_past_int64(tmp_path):
    st_w = make_store(tmp_path)
    for meta in (MaskMeta(2**64, 1, 1, 1), MaskMeta(-1, 1, 1, 1), MaskMeta(1, 2**63, 1, 1)):
        with pytest.raises(StoreError):
            st_w.ingest_mask(meta, 1, 1, [0.5])
    assert len(st_w) == 0
    st_w.close()


def test_manifest_columns_and_positions(tmp_path):
    st_w = make_store(tmp_path)
    rows = [(9, 4, 2, 1, 3, 2), (2, 4, 1, 7, 1, 1), (5, -3, 2, 1, 2, 3)]
    for mid, img, mdl, mtype, w, h in rows:
        st_w.ingest_mask(MaskMeta(mid, img, mdl, mtype), w, h, [0.5] * (w * h))
    with pytest.raises(StoreError):  # a store being written has no columns yet
        st_w.columns
    st_w.close()
    store = MaskStore.open(tmp_path / "store")
    assert set(store.columns) == set(COLUMNS)
    for i, name in enumerate(COLUMNS):
        col = store.columns[name]
        assert col.dtype == np.int64 and not col.flags.writeable
        assert col.tolist() == [r[i] for r in rows]  # manifest order
    assert store.positions([5, 9, 2, 9]).tolist() == [2, 0, 1, 0]
    assert store.positions([]).tolist() == []
    for absent in ([9, 3], [2**64], [-(2**70)]):
        with pytest.raises(NotFound, match=str(absent[-1])):
            store.positions(absent)
    store.close()


def test_empty_store_has_empty_columns(tmp_path):
    make_store(tmp_path).close()
    store = MaskStore.open(tmp_path / "store")
    assert all(len(store.columns[c]) == 0 for c in COLUMNS)
    assert store.positions([]).tolist() == []
    with pytest.raises(NotFound):
        store.positions([1])
    store.close()


@given(
    width=st.integers(1, 12),
    height=st.integers(1, 12),
    seed=st.integers(0, 10_000),
)
def test_roundtrip_bytes_property(tmp_path_factory, width, height, seed):
    rng = np.random.default_rng(seed)
    pixels = rng.random((height, width), dtype=np.float32)
    d = tmp_path_factory.mktemp("rt")
    st_w = MaskStore.create(d)
    st_w.ingest_mask(MaskMeta(1, 1, 1, 1), width, height, pixels)
    st_w.close()
    store = MaskStore.open(d)
    assert store.get_mask(1).pixels.tobytes() == pixels.astype("<f4").tobytes()
    store.close()


# -- the exact counting function ----------------------------------------------


def test_count_toy_example_ratio():
    # A 2x3 box holding exactly two pixels at or above 0.85: count 2 of 6.
    px = np.array([[0.9, 0.2, 0.86], [0.3, 0.1, 0.5]], dtype=np.float32)
    rec = record(px)
    roi = Roi(0, 0, 3, 2)
    count = cp_exact(rec, roi, ValueRange(0.85, 1.0))
    assert count == 2
    assert roi.area == 6
    assert round(count / roi.area, 2) == 0.33


def test_full_domain_count_is_area():
    rng = np.random.default_rng(5)
    rec = record(rng.random((9, 13), dtype=np.float32))
    assert cp_exact(rec, Roi(0, 0, 13, 9), ValueRange(0.0, 1.0)) == 13 * 9


def test_count_matches_pixel_loop():
    rng = np.random.default_rng(17)
    rec = record(rng.random((16, 16), dtype=np.float32))
    for _ in range(50):
        roi = random_roi_in(rng, 16, 16)
        vr = random_range(rng)
        assert cp_exact(rec, roi, vr) == count_pixels_loop(rec.pixels, roi, vr.lo, vr.hi)


def test_count_decides_range_ends_exactly():
    # The float32 nearest 5/6 lies just below it. Compared with each end's
    # nearest float32, that pixel would count as at or above 5/6.
    below = np.float32(5 / 6)
    assert float(below) < 5 / 6
    rec = record(np.array([[below, np.nextafter(below, np.float32(1))]], dtype=np.float32))
    roi = Roi(0, 0, 2, 1)
    for vr, want in ((ValueRange(5 / 6, 1.0), 1), (ValueRange(0.5, 5 / 6), 1),
                     (ValueRange(float(below), 5 / 6), 1)):
        assert cp_exact(rec, roi, vr) == count_pixels_loop(rec.pixels, roi, vr.lo, vr.hi) == want


def _adversarial_pixels():
    """Every k/16 edge with its float32 neighbours, 0.0, -0.0, subnormals
    and MAX_PIXEL, each at least once, shuffled into an 8x16 mask."""
    f32 = np.float32
    edges = [f32(k / 16) for k in range(17)]
    values = [v for e in edges for v in (np.nextafter(e, f32(0)), e, np.nextafter(e, f32(1)))]
    tiny = np.nextafter(f32(0), f32(1))
    values += [f32(0.0), f32(-0.0), tiny, tiny * f32(2), np.nextafter(np.finfo(f32).tiny, f32(0))]
    values = np.array([v for v in values if 0.0 <= v <= MAX_PIXEL], dtype=f32)  # -0.0 kept
    rng = np.random.default_rng(5)
    cells = np.concatenate([values, rng.choice(values, 128 - len(values))])
    return rng.permutation(cells).reshape(8, 16), values


def test_count_is_exact_on_every_adversarial_value_and_range_end():
    """cp_exact against the per-pixel loop: pixels on and beside every
    k/16 edge, zeros of both signs, subnormals and MAX_PIXEL; range ends
    on those values and between float32 neighbours, with lo == 0, hi == 1,
    both and neither; whole, strided and one-column windows, and windows of
    row-span records."""
    pixels, values = _adversarial_pixels()
    ends = sorted({0.0, 1.0} | {float(v) for v in values if float(v) > 0.0}
                  | {float(v) + 2.0**-40 for v in values if 0.0 < float(v) < 0.99})
    inner = [e for e in ends if 0.0 < e < 1.0]
    rng = np.random.default_rng(6)
    ranges = [ValueRange(0.0, 1.0)]
    ranges += [ValueRange(0.0, e) for e in inner] + [ValueRange(e, 1.0) for e in inner]
    ranges += [ValueRange(a, b) for a, b in zip(inner, inner[1:])]
    ranges += [ValueRange(a, b) for a, b in zip(inner, inner[3:])]
    for _ in range(150):
        a, b = sorted(rng.choice(len(inner), 2, replace=False))
        ranges.append(ValueRange(inner[a], inner[b]))
    meta = MaskMeta(1, 1, 1, 1)
    whole = MaskRecord(meta, 16, 8, pixels)
    cases = [(whole, Roi(0, 0, 16, 8)), (whole, Roi(3, 1, 13, 7)), (whole, Roi(5, 0, 6, 8))]
    cases += [(MaskRecord(meta, 16, 8, pixels[y1:y2], y1), Roi(1, y1, 15, y2))
              for y1, y2 in ((2, 7), (0, 1), (7, 8))]
    zeros = {str(v) for v in values if v == 0.0}
    assert zeros == {"0.0", "-0.0"}
    for vr in ranges:
        for rec, roi in cases:
            want = count_pixels_loop(pixels, roi, vr.lo, vr.hi)
            assert cp_exact(rec, roi, vr) == want, (vr, roi, rec.rows)


def test_count_rejects_out_of_bounds_roi():
    rec = record(np.zeros((4, 4), dtype=np.float32))
    with pytest.raises(RoiOutOfBounds):
        cp_exact(rec, Roi(0, 0, 5, 4), ValueRange(0.0, 1.0))


@given(seed=st.integers(0, 10_000), splits=st.integers(1, 4))
def test_count_additive_over_partitions(seed, splits):
    # Recursive guillotine cuts of a rectangle: the parts sum to the whole.
    rng = np.random.default_rng(seed)
    rec = record(rng.random((20, 20), dtype=np.float32))
    vr = random_range(rng)

    def partition(roi: Roi, depth: int) -> list[Roi]:
        if depth == 0:
            return [roi]
        if rng.integers(2) == 0 and roi.width > 1:
            cut = int(rng.integers(roi.x1 + 1, roi.x2))
            a, b = Roi(roi.x1, roi.y1, cut, roi.y2), Roi(cut, roi.y1, roi.x2, roi.y2)
        elif roi.height > 1:
            cut = int(rng.integers(roi.y1 + 1, roi.y2))
            a, b = Roi(roi.x1, roi.y1, roi.x2, cut), Roi(roi.x1, cut, roi.x2, roi.y2)
        else:
            return [roi]
        return partition(a, depth - 1) + partition(b, depth - 1)

    whole = random_roi_in(rng, 20, 20)
    parts = partition(whole, splits)
    assert sum(cp_exact(rec, p, vr) for p in parts) == cp_exact(rec, whole, vr)


@given(seed=st.integers(0, 10_000))
def test_count_monotone_in_range_widening(seed):
    rng = np.random.default_rng(seed)
    rec = record(rng.random((12, 12), dtype=np.float32))
    roi = random_roi_in(rng, 12, 12)
    vr = random_range(rng)
    wider = ValueRange(max(0.0, vr.lo - 0.05), min(1.0, vr.hi + 0.05))
    assert cp_exact(rec, roi, vr) <= cp_exact(rec, roi, wider)


# -- concurrency and counters ---------------------------------------------------


def test_parallel_get_mask_counts_every_call(tmp_path):
    rng = np.random.default_rng(2)
    st_w = make_store(tmp_path)
    for i in range(8):
        st_w.ingest_mask(MaskMeta(i, 1, 1, 1), 10, 10, rng.random((10, 10), dtype=np.float32))
    st_w.close()
    store = MaskStore.open(tmp_path / "store")
    results = {}

    def worker(mid):
        results[mid] = store.get_mask(mid).pixels.sum()

    threads = [threading.Thread(target=worker, args=(i % 8,)) for i in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert store.load_calls == 16
    for i in range(8):
        assert results[i] == store.get_mask(i).pixels.sum()
    store.close()


# -- reads into caller buffers ----------------------------------------------------


def _one_mask_store(tmp_path, width=5, height=3):
    pixels = np.random.default_rng(4).random((height, width), dtype=np.float32)
    st_w = make_store(tmp_path)
    st_w.ingest_mask(MaskMeta(1, 1, 1, 1), width, height, pixels)
    st_w.close()
    return MaskStore.open(tmp_path / "store"), pixels


def test_get_mask_into_out_rejects_bad_buffers(tmp_path):
    store, _ = _one_mask_store(tmp_path)
    read_only = np.zeros((3, 5), PIXEL_DTYPE)
    read_only.flags.writeable = False
    bad = [
        np.zeros((5, 3), PIXEL_DTYPE),  # transposed shape
        np.zeros(15, PIXEL_DTYPE),  # flat
        np.zeros((3, 5), np.float64),
        np.zeros((3, 5), ">f4"),
        np.zeros((3, 5), PIXEL_DTYPE, order="F"),
        np.zeros((3, 10), PIXEL_DTYPE)[:, ::2],  # strided view
        read_only,
        bytearray(60),
    ]
    for out in bad:
        with pytest.raises(ValueError):
            store.get_mask(1, out=out)
    assert store.load_calls == 0  # a rejected buffer is not a load
    store.close()


def test_get_mask_into_out_fills_it_and_returns_read_only_pixels(tmp_path):
    store, pixels = _one_mask_store(tmp_path)
    out = np.full((3, 5), 7.0, PIXEL_DTYPE)
    rec = store.get_mask(1, out=out)
    assert out.tobytes() == pixels.tobytes()
    assert np.shares_memory(rec.pixels, out)
    assert (rec.width, rec.height, rec.mask_id) == (5, 3, 1)
    with pytest.raises(ValueError):
        rec.pixels[0, 0] = 0.5
    fresh = store.get_mask(1)
    assert not fresh.pixels.flags.writeable
    assert fresh.pixels.tobytes() == pixels.tobytes()
    assert store.load_calls == 2
    store.close()


# -- row spans -----------------------------------------------------------------


def _tall_mask_store(tmp_path):
    """One 7x13 mask: 13 rows is no multiple of a 4-row index cell."""
    pixels = np.random.default_rng(8).random((13, 7), dtype=np.float32)
    return build_store(tmp_path / "tall", [record(pixels)]), pixels


@pytest.mark.parametrize(
    "rows",
    [(0, 1), (12, 13), (6, 7), (0, 13), (8, 13), (3, 9)],
    ids=["first-row", "last-row", "one-row", "full-height", "partial-last-cell", "middle"],
)
def test_row_span_read_equals_full_read_on_covered_rows(tmp_path, rows):
    store, pixels = _tall_mask_store(tmp_path)
    y1, y2 = rows
    whole = store.get_mask(1)
    out = np.full((13, 7), 7.0, PIXEL_DTYPE)
    for rec in (store.get_mask(1, rows=rows), store.get_mask(1, out=out, rows=rows)):
        assert rec.rows == rows
        assert (rec.width, rec.height, rec.mask_id) == (7, 13, 1)
        assert rec.pixels.tobytes() == whole.pixels[y1:y2].tobytes() == pixels[y1:y2].tobytes()
        assert not rec.pixels.flags.writeable
        roi, vr = Roi(1, y1, 6, y2), ValueRange(0.2, 0.7)
        assert cp_exact(rec, roi, vr) == cp_exact(whole, roi, vr)
        assert cp_exact(rec, roi, vr) == count_pixels_loop(pixels, roi, vr.lo, vr.hi)
    assert np.shares_memory(rec.pixels, out[y1:y2])
    assert (out[:y1] == 7.0).all() and (out[y2:] == 7.0).all()  # only the span is written
    assert store.load_calls == 3
    store.close()


def test_cp_exact_refuses_a_roi_outside_the_rows_read(tmp_path):
    store, _ = _tall_mask_store(tmp_path)
    rec = store.get_mask(1, rows=(4, 9))
    vr = ValueRange(0.0, 1.0)
    assert cp_exact(rec, Roi(0, 4, 7, 9), vr) == 35
    for roi in (Roi(0, 3, 7, 9), Roi(0, 4, 7, 10), Roi(0, 0, 7, 2), Roi(0, 10, 7, 13)):
        with pytest.raises(StoreError, match="outside rows 4..9"):
            cp_exact(rec, roi, vr)
    with pytest.raises(RoiOutOfBounds):
        cp_exact(rec, Roi(0, 4, 7, 14), vr)  # past the mask still says so
    store.close()


def test_bad_row_span_raises_before_the_load_counts(tmp_path):
    store, _ = _tall_mask_store(tmp_path)
    out = np.empty((13, 7), PIXEL_DTYPE)
    for rows in [(-1, 3), (3, 3), (5, 2), (0, 14), (13, 14), (0,), (0, 1, 2)]:
        for kwargs in ({}, {"out": out}):
            with pytest.raises(ValueError):
                store.get_mask(1, rows=rows, **kwargs)
    with pytest.raises(TypeError):
        store.get_mask(1, rows=(0.5, 3))
    assert store.load_calls == 0
    store.close()


def test_index_build_refuses_a_partial_record(tmp_path):
    store, _ = _tall_mask_store(tmp_path)
    with pytest.raises(ChiError, match="rows"):
        build_chi(store.get_mask(1, rows=(0, 12)), ChiConfig(4, 4, 2))
    assert build_chi(store.get_mask(1, rows=(0, 13)), ChiConfig(4, 4, 2)).height == 13
    store.close()


def test_get_mask_short_read_raises_store_error(tmp_path):
    store, _ = _one_mask_store(tmp_path)
    data = tmp_path / "store" / DATA_NAME
    os.truncate(data, data.stat().st_size - 4)  # lose the last pixel
    with pytest.raises(StoreError, match="short read"):
        store.get_mask(1, out=np.empty((3, 5), PIXEL_DTYPE))
    with pytest.raises(StoreError, match="short read"):
        store.get_mask(1)
    store.close()


# -- roi bindings and side tables -----------------------------------------------


def test_roi_binding_forms():
    c = RoiBinding.constant(Roi(1, 1, 3, 3))
    assert c.resolve(5, 10, 10) == Roi(1, 1, 3, 3)
    f = RoiBinding.full()
    assert f.resolve(5, 10, 6) == Roi(0, 0, 10, 6)
    p = RoiBinding.per_mask({5: Roi(0, 0, 2, 2)})
    assert p.resolve(5, 10, 10) == Roi(0, 0, 2, 2)
    with pytest.raises(MissingRoiBinding):
        p.resolve(6, 10, 10)


def test_roi_table_roundtrip(tmp_path):
    table = {1: Roi(0, 0, 4, 4), 9: Roi(2, 3, 7, 8)}
    path = tmp_path / "rois.tsv"
    write_roi_table(path, table)
    assert load_roi_table(path) == table


def test_roi_table_is_an_immutable_mapping_keyed_by_content(tmp_path):
    table = {9: Roi(2, 3, 7, 8), 1: Roi(0, 0, 4, 4)}
    rt = RoiTable(table)
    assert rt == table and table == rt and rt != {1: Roi(0, 0, 4, 4)}
    assert list(rt) == [1, 9] and len(rt) == 2 and dict(rt) == table
    assert rt[9] == Roi(2, 3, 7, 8) and rt.get(4) is None
    assert 1 in rt and 4 not in rt and "x" not in rt and 2**64 not in rt
    same = RoiTable(dict(table))
    assert same == rt and hash(same) == hash(rt)
    assert RoiTable({1: Roi(0, 0, 4, 5), 9: Roi(2, 3, 7, 8)}) != rt
    assert rt.rois_of([9, 1]).tolist() == [[2, 3, 7, 8], [0, 0, 4, 4]]
    with pytest.raises(MissingRoiBinding, match="mask 5"):
        rt.rois_of([1, 5, 6])
    got = rt.rois_of([1])
    got[0, 0] = 3  # a copy: the table keeps its roi
    assert rt[1] == Roi(0, 0, 4, 4)
    with pytest.raises((AttributeError, TypeError)):
        rt[3] = Roi(0, 0, 1, 1)
    assert RoiTable() == {} and RoiTable().rois_of([]).shape == (0, 4)
    # The loaded table is a RoiTable; a listed-twice id keeps its last roi.
    path = tmp_path / "rois.tsv"
    path.write_text("1\t0\t0\t4\t4\n9\t0\t0\t1\t1\n9\t2\t3\t7\t8\n")
    loaded = load_roi_table(path)
    assert isinstance(loaded, RoiTable) and loaded == rt
    path.write_text("1\t0\t0\t4\t4\n18446744073709551616\t0\t0\t1\t1\n")
    with pytest.raises(StoreError, match="line 2: mask_id 18446744073709551616"):
        load_roi_table(path)


def test_per_mask_binding_keeps_a_roi_table_and_copies_a_dict():
    rt = RoiTable({5: Roi(0, 0, 2, 2)})
    assert RoiBinding.per_mask(rt).table is rt
    d = {5: Roi(0, 0, 2, 2)}
    bound = RoiBinding.per_mask(d)
    assert isinstance(bound.table, RoiTable) and bound.table == rt
    d[6] = Roi(0, 0, 1, 1)  # later edits of the dict do not reach the binding
    assert 6 not in bound.table
    assert bound == RoiBinding.per_mask(rt) and hash(bound) == hash(RoiBinding.per_mask(rt))


def test_resolve_many_matches_resolve_and_checks_edges():
    ids = [1, 2, 3]
    widths, heights = np.array([8, 6, 8]), np.array([5, 5, 9])
    rt = RoiTable({1: Roi(0, 0, 8, 5), 2: Roi(1, 1, 6, 5), 3: Roi(2, 2, 8, 9)})
    for binding in (RoiBinding.full(), RoiBinding.constant(Roi(1, 0, 6, 5)), RoiBinding.per_mask(rt)):
        got = binding.resolve_many(ids, widths, heights)
        assert got.dtype == np.int64
        want = [binding.resolve(m, int(w), int(h)) for m, w, h in zip(ids, widths, heights)]
        assert got.tolist() == [[r.x1, r.y1, r.x2, r.y2] for r in want]
    with pytest.raises(RoiOutOfBounds, match="exceeds mask 6x5"):
        RoiBinding.constant(Roi(0, 0, 7, 5)).resolve_many(ids, widths, heights)
    with pytest.raises(RoiOutOfBounds, match="exceeds mask 8x5"):
        RoiBinding.per_mask(rt).resolve_many([3, 1], np.array([8, 8]), np.array([5, 5]))
    with pytest.raises(MissingRoiBinding, match="mask 4"):
        RoiBinding.per_mask(rt).resolve_many([1, 4], widths[:2], heights[:2])


def test_f32_reader(tmp_path):
    arr = np.arange(6, dtype="<f4") / 10.0
    path = tmp_path / "raw.f32"
    path.write_bytes(arr.tobytes())
    out = read_f32_file(path, 3, 2)
    assert out.shape == (2, 3)
    assert np.array_equal(out.ravel(), arr)
    with pytest.raises(DimensionMismatch):
        read_f32_file(path, 4, 2)
