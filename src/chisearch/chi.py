"""Per-cell cumulative histogram index over mask grids.

Each mask gets a dense array ``counts[bin, cx, cy]``: for every grid cell
and value-bin threshold, the number of the cell's pixels whose value is at
or above the bin's lower edge. Counts are reverse-cumulative along the bin
axis, so a cell's count over any run of whole bins is one difference, and
no count exceeds its cell's area. Every count of a config therefore fits
one dtype, ``ChiConfig.count_dtype``: uint16 when a cell has fewer than
2**16 pixels, uint32 otherwise, whatever the mask size.

Grid boundaries always include the mask's right/bottom edge, so masks whose
dimensions are not multiples of the cell size simply get narrower edge
cells.

An ``IndexStore`` keeps, per mask size, one block holding every such mask's
counts as one row, beside an int64 column of their mask ids; the blocks are
the only copy of the index, and bounds are computed from them. The index
file holds the same rows.
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

from .store import (
    INT64_MAX,
    PIXEL_DTYPE,
    PIXEL_MAX,
    PIXEL_MIN,
    MaskRecord,
    ValueRange,
    find_sorted,
)

CHI_MAGIC = b"MCHI1\n"
CHI_VERSION = 3

_HEADER = struct.Struct("<IIIIffQ")  # version, bins, cell_w, cell_h, domain lo, hi, count
_SECTION = struct.Struct("<IIQ")  # width, height, n: one section per mask size

# Most bytes of rows that ``load_index`` checks at a time (one row, where a
# row is larger). The checks' temporaries stay under glibc's default mmap
# threshold (128 KiB), so they come from the heap, not from fresh pages.
_CHECK_BYTES = 1 << 15


class ChiError(Exception):
    pass


class CorruptIndex(ChiError):
    pass


class ConfigMismatch(ChiError):
    pass


class OverflowDetected(ChiError):
    pass


# Most value bins an index may have. ``build_chi`` bins a float32 pixel v
# as floor(v * bins) in float64, which is exactly the bin ``bin_edges``
# gives: the product is exact (24 + 22 significant bits fit float64's 53),
# and no float32 lies between an edge k / bins and its float64 rounding (a
# dyadic edge is exact; any other is at least 2**-46 of its size from every
# float32, and rounding moves it at most 2**-53 of it). 2**22 leaves a wide
# margin on both conditions.
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
        """The bins+1 value thresholds; binning and bound lookups must share these.

        Edge k is k / bins correctly rounded, so a range end typed as k / bins
        (0.3 at 10 bins) sits on its edge, and configs whose bin counts
        divide one another share their common edges exactly.
        """
        return np.arange(self.bins + 1) / self.bins

    @cached_property
    def count_dtype(self) -> np.dtype:
        """The dtype of every count: little-endian, as in the index file, and
        16 bits wide where every cell has fewer than 2**16 pixels."""
        return np.dtype("<u2" if self.cell_width * self.cell_height < 2**16 else "<u4")

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
    """One mask's per-cell counts plus the grid they were built on."""

    mask_id: int
    width: int
    height: int
    config: ChiConfig
    counts: np.ndarray  # config.count_dtype, shape (bins, n_cx, n_cy)

    @property
    def payload_bytes(self) -> int:
        return self.counts.nbytes


# Scratch buffers larger than this are not kept between calls.
_SCRATCH_MAX_BYTES = 1 << 23

# Each thread's scratch buffers by name; see ``scratch``.
_scratch = threading.local()


def scratch(name: str, count: int, *dtypes) -> list[np.ndarray]:
    """One array of ``count`` items per dtype of ``dtypes``, side by side in
    the calling thread's scratch buffer ``name``, valid until the thread's
    next request for that name.

    Each buffer grows to the largest request and is kept, so a kernel called
    again and again on same-size inputs takes no fresh pages; a request over
    ``_SCRATCH_MAX_BYTES`` gets a fresh buffer that is not kept.
    """
    # Each array starts on a 16-byte boundary, so every dtype is aligned.
    sizes = [-(-count * np.dtype(d).itemsize // 16) * 16 for d in dtypes]
    buf = getattr(_scratch, name, None)
    if buf is None or buf.nbytes < sum(sizes):
        buf = np.empty(sum(sizes), dtype=np.uint8)
        if buf.nbytes <= _SCRATCH_MAX_BYTES:
            setattr(_scratch, name, buf)
    arrays, start = [], 0
    for d, size in zip(dtypes, sizes):
        arrays.append(buf[start : start + size].view(d)[:count])
        start += size
    return arrays


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
    """Build the per-cell counts of one mask. Runs in O(width * height),
    with its per-pixel arrays in the calling thread's scratch."""
    if mask.width * mask.height >= 2**32:
        raise OverflowDetected("mask pixel count exceeds 32-bit counters")
    if mask.rows != (0, mask.height):
        raise ChiError(f"mask {mask.mask_id} holds rows {mask.rows}, not all {mask.height}")
    grid = grid_boundaries(mask.width, mask.height, config)
    n_cx, n_cy, b = len(grid.xs), len(grid.ys), config.bins

    # Bin of each pixel: floor(v * bins) in float64, exactly the bin that
    # ``bin_edges`` gives (see MAX_BINS). The cast truncates, which is the
    # floor, as no pixel is below 0 (a -0.0 pixel gives bin 0), and every
    # bin is below ``bins``, as every pixel is below 1. Widening into
    # scratch first keeps numpy from casting through buffers of its own, and
    # keeps the loop in float64 on numpy 1.x, where a float64 scalar against
    # a float32 array computes in float32.
    pixels = np.asarray(mask.pixels, dtype=PIXEL_DTYPE).ravel()
    product, flat = scratch("build", len(pixels), np.float64, np.intp)
    product[:] = pixels
    np.multiply(product, np.float64(b), out=product)
    flat[:] = product
    np.add(flat, _cell_base(mask.width, mask.height, config), out=flat)
    per_cell = np.bincount(flat, minlength=n_cx * n_cy * b).reshape(n_cx, n_cy, b)
    rev = np.cumsum(per_cell[:, :, ::-1], axis=2)[:, :, ::-1]
    counts = rev.transpose(2, 0, 1).astype(config.count_dtype, order="C")
    return ChiIndex(mask.mask_id, mask.width, mask.height, config, counts)


# Rows a block appends before it sorts its ids again; ``ChiBlock.find``
# scans them one by one.
_UNSORTED_MAX = 256

# Least size of a grown block's counts. ``np.zeros`` maps pages this large
# untouched, so rows take memory only once written, and a block that stays
# within it is never copied again.
_GROWN_BYTES = 1 << 22


class ChiBlock:
    """Per-cell counts of every indexed mask of one size, one row per mask.

    ``counts[row, bin, cx, cy]`` is the mask's ``ChiIndex.counts[bin, cx,
    cy]`` for bins below ``bins``, and plane ``bins`` (above every value)
    stays zero, so a cell's count over bins [b, e) is plane b minus plane e
    for any e up to ``bins``. Rows are appended and capacity doubles when
    full (see ``_GROWN_BYTES``), so rows only move when the block grows.

    ``ids[row]`` is the mask id of each of the first ``n`` rows. Lookups
    binary-search a sorted copy of that column, made again once enough rows
    have been appended since (``rows_of`` re-sorts on any appended row).
    """

    def __init__(self, width: int, height: int, config: ChiConfig):
        grid = grid_boundaries(width, height, config)
        self.width, self.height, self.config = width, height, config
        self.n_cx, self.n_cy = len(grid.xs), len(grid.ys)
        dtype = config.count_dtype
        self.counts = np.zeros((1, config.bins + 1, self.n_cx, self.n_cy), dtype)
        self.ids = np.zeros(1, dtype=np.int64)
        self.n = 0
        # Rows [0, m) ordered by id: (m, their ids ascending, their rows).
        self._sorted = (0, self.ids[:0], np.zeros(0, dtype=np.intp))
        # The bound kernel's geometry: cell_lo[i] and cell_hi[i] end grid
        # column i along x, then cell_lo[n_cx + j] and cell_hi[n_cx + j] end
        # grid row j along y; cell_area holds each cell's area (edge cells
        # are narrower), which fits the count dtype.
        xs, ys = (0,) + grid.xs, (0,) + grid.ys
        self.cell_lo = np.array(xs[:-1] + ys[:-1], dtype=np.int64)
        self.cell_hi = np.array(xs[1:] + ys[1:], dtype=np.int64)
        self.cell_area = np.outer(np.diff(xs), np.diff(ys)).astype(dtype)

    @classmethod
    def of(cls, index: ChiIndex) -> "ChiBlock":
        """A one-row block holding ``index`` alone."""
        block = cls(index.width, index.height, index.config)
        block.put(index.mask_id, index.counts)
        return block

    def mask_ids(self) -> np.ndarray:
        """The mask id of each row in use, in row order."""
        n = self.n
        return self.ids[:n]

    def _sort(self, n: int) -> tuple:
        rows = np.argsort(self.ids[:n], kind="stable")
        self._sorted = entry = (n, self.ids[rows], rows)
        return entry

    def sorted_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids, rows) of every row in use, ordered by id."""
        n, (m, keys, rows) = self.n, self._sorted
        if m < n:
            _, keys, rows = self._sort(n)
        return keys, rows

    def rows_of(self, mask_ids: np.ndarray) -> np.ndarray:
        """The row of each of ``mask_ids`` (int64), -1 where the block has none."""
        keys, rows = self.sorted_rows()
        if len(keys) == 0:
            return np.full(len(mask_ids), -1, dtype=np.intp)
        at, found = find_sorted(keys, mask_ids)
        return np.where(found, rows[at], -1)

    def find(self, mask_id: int) -> int:
        """The row of one mask id, or -1 where the block has none."""
        if not 0 <= mask_id <= INT64_MAX:
            return -1
        n, (m, keys, rows) = self.n, self._sorted
        if n - m > _UNSORTED_MAX:
            m, keys, rows = self._sort(n)
        i = keys.searchsorted(mask_id)
        if i < m and keys[i] == mask_id:
            return int(rows[i])
        if m < n:  # a short list scans faster than one numpy call
            appended = self.ids[m:n].tolist()
            if mask_id in appended:
                return m + appended.index(mask_id)
        return -1

    def put(self, mask_id: int, counts: np.ndarray) -> None:
        """Write one mask's counts, laid out as ``ChiIndex.counts``, into its
        row, appending a row for a new id.

        Callers serialize puts. Readers need no lock: a row and its id are
        written, and grown arrays swapped in, before ``n`` takes the row in.
        """
        row = self.find(mask_id)
        if row < 0:
            row = self.n
        if row == len(self.ids):
            self.reserve(max(2 * row, _GROWN_BYTES // self.counts[0].nbytes))
        self.counts[row, :-1] = counts
        self.ids[row] = mask_id
        self.n = max(self.n, row + 1)

    def reserve(self, capacity: int) -> None:
        """Make room for ``capacity`` rows; the rows in use move along."""
        n = self.n
        if capacity <= len(self.ids):
            return
        grown = np.zeros((capacity,) + self.counts.shape[1:], self.counts.dtype)
        grown[:n] = self.counts[:n]
        ids = np.zeros(capacity, dtype=np.int64)
        ids[:n] = self.ids[:n]
        self.counts, self.ids = grown, ids


class IndexStore:
    """In-memory collection of per-mask indexes sharing one config.

    The indexes live only as rows of one ``ChiBlock`` per mask size, which
    is what bounds read. Reads are lock-free; insertion takes a lock so
    parallel workers indexing distinct masks stay linearizable.
    Re-inserting the same mask id is harmless (both builds are identical,
    and the id keeps its row), last write wins.
    """

    def __init__(self, config: ChiConfig):
        self.config = config
        self._blocks: dict[tuple[int, int], ChiBlock] = {}
        self._lock = threading.Lock()

    def blocks(self) -> list[ChiBlock]:
        """Every block, one per indexed mask size."""
        return list(self._blocks.values())

    def has(self, mask_ids: Sequence[int]) -> np.ndarray:
        """Boolean array: which of ``mask_ids`` have an index."""
        ids = np.asarray(mask_ids, dtype=np.int64)
        out = np.zeros(len(ids), dtype=bool)
        for block in self.blocks():
            out |= block.rows_of(ids) >= 0
        return out

    def block(self, width: int, height: int) -> ChiBlock:
        """The block of every indexed width x height mask."""
        return self._blocks[(width, height)]

    def _others(self, width: int, height: int) -> list[ChiBlock]:
        """Every block of a size other than width x height."""
        return [b for size, b in self._blocks.items() if size != (width, height)]

    def insert(self, index: ChiIndex) -> None:
        if index.config != self.config:
            raise ConfigMismatch("index built with a different config")
        mask_id, size = index.mask_id, (index.width, index.height)
        if not 0 <= mask_id <= INT64_MAX:
            raise ChiError(f"mask_id {mask_id} outside [0, 2**63)")
        with self._lock:
            for other in self._others(*size):
                if other.find(mask_id) >= 0:
                    raise _indexed_elsewhere(mask_id, other, size)
            block = self._blocks.get(size) or ChiBlock(*size, self.config)
            block.put(mask_id, index.counts)
            # A new block is published with its first row in place.
            self._blocks[size] = block

    def mask_ids(self) -> list[int]:
        ids = [block.mask_ids() for block in self.blocks()]
        return np.sort(np.concatenate(ids)).tolist() if ids else []

    def __len__(self) -> int:
        return sum(block.n for block in self.blocks())

    def __contains__(self, mask_id: int) -> bool:
        for block in self.blocks():
            if block.find(mask_id) >= 0:
                return True
        return False

    def payload_bytes(self) -> int:
        """Bytes of every index's counts, as ``persist_index`` writes them."""
        return sum(b.n * b.counts[0, :-1].nbytes for b in self.blocks())


def _indexed_elsewhere(mask_id: int, other: ChiBlock, size: tuple[int, int]) -> ChiError:
    return ChiError(f"mask {mask_id} is indexed as {other.width}x{other.height},"
                    f" not {size[0]}x{size[1]}")


def persist_index(store: IndexStore, path: str | Path) -> None:
    """Write the store to one file; see load_index for the inverse.

    After the header come the blocks, one section per mask size in
    ascending (width, height): the section header, the block's mask ids
    ascending as ``<u8``, then each id's row ``counts[row, :bins]`` in the
    config's little-endian count dtype, the block row without its zero
    plane. The bytes go to a fresh file beside ``path``, which is flushed,
    fsynced and then renamed over ``path``, and the directory is fsynced
    after the rename: a crash mid-write leaves the old file whole and, at
    worst, a stray temp file behind.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    cfg = store.config
    blocks = sorted(store.blocks(), key=lambda b: (b.width, b.height))
    order = [block.sorted_rows() for block in blocks]
    header = (CHI_VERSION, cfg.bins, cfg.cell_width, cfg.cell_height, PIXEL_MIN, PIXEL_MAX)
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(CHI_MAGIC + _HEADER.pack(*header, sum(len(ids) for ids, _ in order)))
            for block, (ids, rows) in zip(blocks, order):
                fh.write(_SECTION.pack(block.width, block.height, len(ids)))
                fh.write(ids.astype("<u8"))
                for row in rows.tolist():  # each a contiguous slice, in id order
                    fh.write(block.counts[row, :-1])
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


def _read(fh, size: int, where) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise CorruptIndex(f"{where}: truncated")
    return data


def load_index(path: str | Path) -> IndexStore:
    """Read a file ``persist_index`` wrote into a new store: one block per
    section, its id column set once and its rows read in place. Each size
    and count is checked before it is used, so a file that does not hold
    what its headers say raises ``CorruptIndex``."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(CHI_MAGIC)) != CHI_MAGIC:
            raise CorruptIndex(f"{path}: bad magic")
        version, bins, cw, ch, lo, hi, count = _HEADER.unpack(_read(fh, _HEADER.size, path))
        if version != CHI_VERSION:
            raise CorruptIndex(f"{path}: index format version {version}, not {CHI_VERSION};"
                               " rebuild the index with `chisearch index`")
        if (lo, hi) != (PIXEL_MIN, PIXEL_MAX):
            raise CorruptIndex(f"{path}: value domain [{lo}, {hi}) is not [0, 1)")
        try:
            config = ChiConfig(cw, ch, bins)
        except ValueError as e:
            raise CorruptIndex(f"{path}: {e}") from e
        store = IndexStore(config)
        seen, last = 0, (0, 0)
        while seen < count:
            width, height, n = _SECTION.unpack(_read(fh, _SECTION.size, path))
            where = f"{path}: section {width}x{height}"
            # Checked before any grid or block is made for this size.
            if not 1 <= width * height < 2**32:
                raise CorruptIndex(f"{where}: mask size outside [1, 2**32) pixels")
            if (width, height) <= last:
                raise CorruptIndex(f"{where}: sections not in ascending size")
            if not 1 <= n <= count - seen:
                raise CorruptIndex(f"{where}: {n} masks, {count - seen} left of {count}")
            row_bytes = config.count_dtype.itemsize * bins * -(-width // cw) * -(-height // ch)
            if n * (8 + row_bytes) > size - fh.tell():
                raise CorruptIndex(f"{where}: {n} masks past the end of the file")
            ids = np.frombuffer(_read(fh, 8 * n, where), dtype="<u8")
            if ids.max() > INT64_MAX or (ids[1:] <= ids[:-1]).any():
                raise CorruptIndex(f"{where}: mask ids not ascending or outside [0, 2**63)")
            if store.has(ids).any():
                raise CorruptIndex(f"{where}: a mask id also in an earlier section")
            block = ChiBlock(width, height, config)
            block.reserve(n)
            for row in block.counts[:n, :-1]:
                if fh.readinto(row) != row.nbytes:
                    raise CorruptIndex(f"{where}: truncated")
            # A bracket stays within [0, cell area] only if no count exceeds
            # its cell's area and no bin's counts exceed the bin's below: an
            # unsigned difference of the planes would wrap.
            step = max(1, _CHECK_BYTES // block.counts[0].nbytes)
            for a in range(0, n, step):
                part = block.counts[a : a + step]
                if (part[:, 0] > block.cell_area).any():
                    raise CorruptIndex(f"{where}: a count above its cell's area")
                if (part[:, 1:] > part[:, :-1]).any():
                    raise CorruptIndex(f"{where}: a bin's count above the bin's below")
            block.ids[:n], block.n = ids, n
            store._blocks[width, height] = block
            seen, last = seen + n, (width, height)
        if fh.tell() != size:
            raise CorruptIndex(f"{path}: {size - fh.tell()} trailing bytes")
    return store


def merge_index(dst: IndexStore, src: IndexStore) -> IndexStore:
    """Fold ``src`` into ``dst`` block by block, last write wins; refuses
    stores built with different configs, and ids indexed at another size."""
    if dst.config != src.config:
        raise ConfigMismatch(
            f"cannot merge {src.config} into store with {dst.config}"
        )
    with dst._lock:
        for block in src.blocks():  # every id is checked before any row is written
            size, ids = (block.width, block.height), block.mask_ids()
            for other in dst._others(*size):
                clash = other.rows_of(ids) >= 0
                if clash.any():
                    raise _indexed_elsewhere(int(ids[clash][0]), other, size)
        for block in src.blocks():
            size, (ids, rows) = (block.width, block.height), block.sorted_rows()
            target = dst._blocks.get(size) or ChiBlock(*size, dst.config)
            at = target.rows_of(ids)
            new = at < 0
            n, added = target.n, int(new.sum())
            target.reserve(n + added)
            at[new] = np.arange(n, n + added)
            # Rows and ids are in place before ``n`` takes them in, as in ``put``.
            for t, r in zip(at.tolist(), rows.tolist()):
                target.counts[t] = block.counts[r]
            target.ids[at] = ids
            target.n = n + added
            dst._blocks[size] = target
    return dst
