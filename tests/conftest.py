"""Shared fixtures: brute-force oracles, the worked grid example, corpora."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from chisearch.bounds import cp_bounds, snap_rois
from chisearch.chi import ChiBlock, ChiConfig, IndexStore, build_chi, grid_boundaries
from chisearch.store import MaskMeta, MaskRecord, MaskStore, Roi, ValueRange

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


# -- independent oracles ------------------------------------------------------


def count_pixels_loop(pixels: np.ndarray, roi: Roi, lo: float, hi: float) -> int:
    """Plain per-pixel loop; the independent reference for every count."""
    n = 0
    for y in range(roi.y1, roi.y2):
        for x in range(roi.x1, roi.x2):
            if lo <= pixels[y, x] < hi:
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


def bounds_of(index, roi: Roi, vr: ValueRange) -> tuple[int, int]:
    """(lower, upper) for one mask's count: a one-row kernel call. ``index``
    is a ChiIndex or a ChiBlock whose only row is that mask."""
    block = index if isinstance(index, ChiBlock) else ChiBlock.of(index)
    lo, hi = cp_bounds(block, np.zeros(1, dtype=np.intp), roi_array(roi), vr)
    return int(lo[0]), int(hi[0])


def snapped(roi: Roi, width: int, height: int, config: ChiConfig):
    """The kernel's outer and inner rectangles for ``roi``, as coordinate
    lists x1, y1, x2, y2 read off the grid's boundary list."""
    g = grid_boundaries(width, height, config)
    xs, ys = (0,) + g.xs, (0,) + g.ys
    outer, inner = snap_rois(roi_array(roi), width, height, config)
    return [[xs[r[0]], ys[r[1]], xs[r[2]], ys[r[3]]] for r in (outer[:, 0], inner[:, 0])]


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


# -- the worked 8x8 example ---------------------------------------------------
#
# Low value 0.1 everywhere, 0.9 at nine chosen pixels. With 2x2 cells and
# two value bins this reproduces every number in the worked index example:
# corner counts [4, 0] and [16, 3], region counts 2 and 8, and the upper
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
