"""Cumulative histogram index over mask grids.

Each mask gets a dense array ``counts[cx, cy, bin]`` holding, for every
grid-cell corner and value-bin threshold, the number of pixels in the
prefix rectangle from the origin to that corner whose value is at or above
the bin's lower edge. Counts are cumulative along both spatial axes and
reverse-cumulative along the bin axis, so the histogram of any rectangle
whose corners sit on grid boundaries falls out of four lookups.

Grid boundaries always include the mask's right/bottom edge, so masks whose
dimensions are not multiples of the cell size simply get narrower edge
cells; every formula below holds unchanged on the extended boundary set.

An ``IndexStore`` keeps, per mask size, one zero-padded block holding every
such mask's counts as one row; bounds are computed from the blocks.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .store import PIXEL_DTYPE, PIXEL_MAX, PIXEL_MIN, MaskRecord, ValueRange, f32_at_or_above

CHI_MAGIC = b"MCHI1\n"
CHI_VERSION = 1

_HEADER = struct.Struct("<IIIIffQ")  # version, bins, cell_w, cell_h, domain lo, hi, count
_RECORD = struct.Struct("<QIIII")  # mask_id, width, height, n_cx, n_cy


class ChiError(Exception):
    pass


class CorruptIndex(ChiError):
    pass


class ConfigMismatch(ChiError):
    pass


class OverflowDetected(ChiError):
    pass


# Most value bins an index may have. ``build_chi`` bins by a float32
# product, which needs every bin index exact in float32 (below 2**24) and
# the float32 edges distinct; 2**22 keeps a wide margin.
MAX_BINS = 2**22


@dataclass(frozen=True)
class ChiConfig:
    """Index granularity: spatial cell size and number of equi-width value
    bins over the pixel domain [0, 1)."""

    cell_width: int
    cell_height: int
    bins: int

    def __post_init__(self):
        if self.cell_width < 1 or self.cell_height < 1 or not 1 <= self.bins <= MAX_BINS:
            raise ValueError(f"invalid index config {self!r}")

    @cached_property
    def bin_edges(self) -> np.ndarray:
        """The bins+1 value thresholds; binning and bound lookups must share these."""
        edges = (PIXEL_MAX / self.bins) * np.arange(self.bins + 1, dtype=np.float64)
        edges[-1] = PIXEL_MAX
        return edges

    @cached_property
    def bin_edges_f32(self) -> np.ndarray:
        """``bin_edges``, each rounded up to the nearest float32.

        A float32 value is at or above a float64 edge exactly when it is at
        or above that edge rounded up, so float32 pixels binned against
        these land in the same bins as against ``bin_edges``.
        """
        return f32_at_or_above(self.bin_edges)

    def outer_bin_span(self, rng: ValueRange) -> tuple[int, int]:
        """Bin indices (lo, hi) whose edges bracket [rng.lo, rng.hi) from outside."""
        edges = self.bin_edges
        lo = int(np.searchsorted(edges, rng.lo, side="right")) - 1
        hi = int(np.searchsorted(edges, rng.hi, side="left"))
        return lo, hi

    def inner_bin_span(self, rng: ValueRange) -> tuple[int, int]:
        """Bin indices (a, z) whose edges are bracketed by [rng.lo, rng.hi)."""
        edges = self.bin_edges
        a = int(np.searchsorted(edges, rng.lo, side="left"))
        z = int(np.searchsorted(edges, rng.hi, side="right")) - 1
        return a, z


def _boundaries(extent: int, cell: int) -> tuple[int, ...]:
    xs = list(range(cell, extent + 1, cell))
    if not xs or xs[-1] != extent:
        xs.append(extent)
    return tuple(xs)


@dataclass(frozen=True)
class GridBoundaries:
    """Sorted cell-corner coordinates along each axis, ending at the mask edge."""

    xs: tuple[int, ...]
    ys: tuple[int, ...]


@lru_cache(maxsize=4096)
def grid_boundaries(width: int, height: int, config: ChiConfig) -> GridBoundaries:
    return GridBoundaries(
        _boundaries(width, config.cell_width), _boundaries(height, config.cell_height)
    )


@dataclass
class ChiIndex:
    """One mask's corner-count array plus the grid it was built on."""

    mask_id: int
    width: int
    height: int
    config: ChiConfig
    counts: np.ndarray  # uint32, shape (n_cx, n_cy, bins), bin innermost

    @property
    def n_cx(self) -> int:
        return self.counts.shape[0]

    @property
    def n_cy(self) -> int:
        return self.counts.shape[1]

    @property
    def payload_bytes(self) -> int:
        return self.counts.nbytes


@lru_cache(maxsize=16)
def _cell_base(width: int, height: int, config: ChiConfig) -> np.ndarray:
    """Per pixel, row-major, the flat offset of its cell's bin 0.

    Adding a pixel's bin gives the flat ``(cx, cy, bin)`` slot that
    ``build_chi`` counts.
    """
    grid = grid_boundaries(width, height, config)
    cx = np.minimum(np.arange(width) // config.cell_width, len(grid.xs) - 1)
    cy = np.minimum(np.arange(height) // config.cell_height, len(grid.ys) - 1)
    base = (cx[None, :] * len(grid.ys) + cy[:, None]) * config.bins
    base = base.astype(np.intp).ravel()
    base.flags.writeable = False
    return base


def build_chi(mask: MaskRecord, config: ChiConfig) -> ChiIndex:
    """Build the corner-count array for one mask. Runs in O(width * height)."""
    if mask.width * mask.height >= 2**32:
        raise OverflowDetected("mask pixel count exceeds 32-bit counters")
    if mask.rows != (0, mask.height):
        raise ChiError(f"mask {mask.mask_id} holds rows {mask.rows}, not all {mask.height}")
    grid = grid_boundaries(mask.width, mask.height, config)
    n_cx, n_cy, b = len(grid.xs), len(grid.ys), config.bins

    # Bin of each pixel: the largest edge at or below its value, against
    # the float32 image of the shared edges (see ``bin_edges_f32``), so the
    # pixels are compared as they are, with no float64 copy. The floor of
    # the float32 product v * bins is the value's bin or one above it: an
    # edge sits within 2**-52 of i / bins, and the product rounds to the
    # nearest float32, which holds every integer up to MAX_BINS. So it can
    # only overshoot, at a value just below an edge (at most to ``bins``,
    # whose edge 1.0 is above every pixel), and one step down settles it.
    pixels = np.asarray(mask.pixels, dtype=PIXEL_DTYPE).ravel()
    flat = (pixels * np.float32(b)).astype(np.intp)
    flat -= pixels < config.bin_edges_f32.take(flat)
    flat += _cell_base(mask.width, mask.height, config)
    per_cell = np.bincount(flat, minlength=n_cx * n_cy * b).reshape(n_cx, n_cy, b)

    rev = np.cumsum(per_cell[:, :, ::-1], axis=2)[:, :, ::-1]
    prefix = np.cumsum(np.cumsum(rev, axis=0), axis=1)
    return ChiIndex(mask.mask_id, mask.width, mask.height, config, prefix.astype(np.uint32))


class ChiBlock:
    """Corner counts of every indexed mask of one size, one row per mask.

    The layout is bin-major: ``counts[row, bin, i, j]`` is the mask's
    ``ChiIndex.counts[i - 1, j - 1, bin]``, so boundary rank 0 (the mask
    origin) and bin ``bins`` (above every value) stay zero, and the corner
    counts of one bin edge are one contiguous plane. Any aligned
    rectangle's or cell's histogram is then four lookups with no special
    case. The dtype is uint16 for masks of fewer than 2**16 pixels and
    uint32 otherwise. Rows are appended and capacity doubles when full, so
    rows only move when the block grows.
    """

    def __init__(self, width: int, height: int, config: ChiConfig):
        grid = grid_boundaries(width, height, config)
        self.width, self.height, self.config = width, height, config
        # No count exceeds width * height, so smaller masks fit in 16 bits,
        # which halves what the bound kernel reads.
        dtype = np.uint16 if width * height < 2**16 else np.uint32
        self.counts = np.zeros((1, config.bins + 1, len(grid.xs) + 1, len(grid.ys) + 1), dtype)
        # The bound kernel's geometry, one slot per boundary rank: slot i
        # spans grid column i, [slot_x0[i], slot_x1[i]), and the last slot is
        # empty; likewise along y. slot_area holds each cell's real area (edge
        # cells are narrower), and the dtype's maximum in the empty slots.
        xs, ys = np.array((0,) + grid.xs), np.array((0,) + grid.ys)
        self.slot_x0, self.slot_x1 = xs, np.append(xs[1:], width)
        self.slot_y0, self.slot_y1 = ys, np.append(ys[1:], height)
        area = np.outer(self.slot_x1 - xs, self.slot_y1 - ys)
        area[-1, :] = area[:, -1] = np.iinfo(dtype).max
        self.slot_area = area.astype(dtype)
        self.row_of: dict[int, int] = {}

    @classmethod
    def of(cls, index: ChiIndex) -> "ChiBlock":
        """A one-row block holding ``index`` alone."""
        block = cls(index.width, index.height, index.config)
        block.put(index)
        return block

    def put(self, index: ChiIndex) -> None:
        """Write ``index`` into its mask's row, appending a row for a new id.

        Callers serialize puts. Readers need no lock: a row is written, and
        a grown array swapped in, before the row is published in ``row_of``.
        """
        row = self.row_of.get(index.mask_id, len(self.row_of))
        counts = self.counts
        if row == len(counts):
            counts = np.zeros((2 * row,) + counts.shape[1:], counts.dtype)
            counts[:row] = self.counts
        counts[row, :-1, 1:, 1:] = index.counts.transpose(2, 0, 1)
        self.counts = counts
        self.row_of[index.mask_id] = row


class IndexStore:
    """In-memory collection of per-mask indexes sharing one config.

    Each inserted index also lands in the ``ChiBlock`` of its mask size,
    which is what bounds read. Reads are lock-free; insertion takes a lock
    so parallel workers indexing distinct masks stay linearizable.
    Re-inserting the same mask id is harmless (both builds are identical,
    and the id keeps its row), last write wins.
    """

    def __init__(self, config: ChiConfig):
        self.config = config
        self._entries: dict[int, ChiIndex] = {}
        self._blocks: dict[tuple[int, int], ChiBlock] = {}
        self._lock = threading.Lock()

    def get_or_absent(self, mask_id: int) -> ChiIndex | None:
        """The mask's index, or None when it has not been built yet."""
        return self._entries.get(mask_id)

    def absent(self, mask_ids: Sequence[int]) -> list[int]:
        """Those of ``mask_ids`` with no index yet, in their order."""
        entries = self._entries
        return [m for m in mask_ids if m not in entries]

    def block(self, width: int, height: int) -> ChiBlock:
        """The block of every indexed width x height mask."""
        return self._blocks[(width, height)]

    def insert(self, index: ChiIndex) -> None:
        if index.config != self.config:
            raise ConfigMismatch("index built with a different config")
        dims = (index.width, index.height)
        with self._lock:
            block = self._blocks.get(dims)
            if block is None:
                block = self._blocks[dims] = ChiBlock(index.width, index.height, self.config)
            block.put(index)
            self._entries[index.mask_id] = index

    def mask_ids(self) -> list[int]:
        return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, mask_id: int) -> bool:
        return mask_id in self._entries

    def payload_bytes(self) -> int:
        return sum(e.payload_bytes for e in self._entries.values())


def persist_index(store: IndexStore, path: str | Path) -> None:
    """Write the store to one file; see load_index for the inverse.

    The bytes go to a fresh file beside ``path``, which is flushed, fsynced
    and then renamed over ``path``, and the directory is fsynced after the
    rename: a crash mid-write leaves the old file whole and, at worst, a
    stray temp file behind.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    cfg = store.config
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(CHI_MAGIC)
            fh.write(
                _HEADER.pack(
                    CHI_VERSION,
                    cfg.bins,
                    cfg.cell_width,
                    cfg.cell_height,
                    PIXEL_MIN,
                    PIXEL_MAX,
                    len(store),
                )
            )
            for mask_id in store.mask_ids():
                idx = store.get_or_absent(mask_id)
                fh.write(_RECORD.pack(mask_id, idx.width, idx.height, idx.n_cx, idx.n_cy))
                fh.write(np.ascontiguousarray(idx.counts, dtype="<u4").tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    # The rename lives in the directory; sync it too, so it survives a crash.
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def load_index(path: str | Path) -> IndexStore:
    raw = Path(path).read_bytes()
    if raw[: len(CHI_MAGIC)] != CHI_MAGIC:
        raise CorruptIndex(f"{path}: bad magic")
    off = len(CHI_MAGIC)
    try:
        version, bins, cw, ch, lo, hi, count = _HEADER.unpack_from(raw, off)
    except struct.error as e:
        raise CorruptIndex(f"{path}: truncated header") from e
    if version != CHI_VERSION:
        raise CorruptIndex(f"{path}: unsupported version {version}")
    if (lo, hi) != (PIXEL_MIN, PIXEL_MAX):
        raise CorruptIndex(f"{path}: value domain [{lo}, {hi}) is not [0, 1)")
    off += _HEADER.size
    try:
        config = ChiConfig(cw, ch, bins)
    except ValueError as e:
        raise CorruptIndex(f"{path}: {e}") from e
    store = IndexStore(config)
    for _ in range(count):
        try:
            mask_id, width, height, n_cx, n_cy = _RECORD.unpack_from(raw, off)
        except struct.error as e:
            raise CorruptIndex(f"{path}: truncated record table") from e
        off += _RECORD.size
        nbytes = n_cx * n_cy * bins * 4
        if off + nbytes > len(raw):
            raise CorruptIndex(f"{path}: truncated counts for mask {mask_id}")
        grid = grid_boundaries(width, height, config)
        if (len(grid.xs), len(grid.ys)) != (n_cx, n_cy):
            raise CorruptIndex(f"{path}: grid shape mismatch for mask {mask_id}")
        counts = (
            np.frombuffer(raw, dtype="<u4", count=n_cx * n_cy * bins, offset=off)
            .reshape(n_cx, n_cy, bins)
            .copy()
        )
        off += nbytes
        store.insert(ChiIndex(mask_id, width, height, config, counts))
    if off != len(raw):
        raise CorruptIndex(f"{path}: {len(raw) - off} trailing bytes")
    return store


def merge_index(dst: IndexStore, src: IndexStore) -> IndexStore:
    """Fold ``src`` into ``dst``; refuses stores built with different configs."""
    if dst.config != src.config:
        raise ConfigMismatch(
            f"cannot merge {src.config} into store with {dst.config}"
        )
    for mask_id in src.mask_ids():
        dst.insert(src.get_or_absent(mask_id))
    return dst
