"""Mask storage: ingestion, retrieval, and exact pixel counting.

A mask store is a directory holding two files:

* ``manifest.tsv`` -- one record per line: mask_id, image_id, model_id,
  mask_type, width, height, byte_offset (tab-separated decimal).
* ``masks.bin`` -- magic bytes ``MSDB1\\n`` followed by the pixel payloads
  of all masks, concatenated in manifest order. Each payload is the mask's
  pixels as little-endian 32-bit IEEE-754 floats, row-major.

Pixel values live in the half-open domain [0, 1). Every count the rest of
the engine computes is ultimately defined against :func:`cp_exact` here.
"""

from __future__ import annotations

import operator
import os
import threading
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

PIXEL_MIN = 0.0
PIXEL_MAX = 1.0
STORE_MAGIC = b"MSDB1\n"
MANIFEST_NAME = "manifest.tsv"
DATA_NAME = "masks.bin"

# Largest float32 strictly below 1.0; the top of the representable domain.
MAX_PIXEL = float(np.nextafter(np.float32(1.0), np.float32(0.0)))

PIXEL_DTYPE = np.dtype("<f4")


class StoreError(Exception):
    """Base class for mask-store failures."""


class DimensionMismatch(StoreError):
    pass


class ValueOutOfRange(StoreError):
    def __init__(self, index: int, value: float):
        super().__init__(f"pixel {index} has value {value!r}, outside [0, 1)")
        self.index = index
        self.value = value


class DuplicateMaskId(StoreError):
    pass


class NotFound(StoreError):
    pass


class RoiOutOfBounds(StoreError):
    pass


class MissingRoiBinding(StoreError):
    pass


@dataclass(frozen=True)
class Roi:
    """Axis-aligned rectangle [x1, x2) x [y1, y2), 0-based, half-open."""

    x1: int
    y1: int
    x2: int
    y2: int

    def __post_init__(self):
        if not (0 <= self.x1 < self.x2 and 0 <= self.y1 < self.y2):
            raise ValueError(f"degenerate roi {self!r}")

    @property
    def width(self) -> int:
        return self.x2 - self.x1

    @property
    def height(self) -> int:
        return self.y2 - self.y1

    @property
    def area(self) -> int:
        return self.width * self.height

    def check_within(self, width: int, height: int) -> None:
        if self.x2 > width or self.y2 > height:
            raise RoiOutOfBounds(f"{self!r} exceeds mask {width}x{height}")


def f32_at_or_above(values) -> np.ndarray:
    """Each value rounded up to the nearest float32.

    A float32 pixel is at or above a float64 value exactly when it is at or
    above that value rounded up, so float32 comparisons against these
    decide membership in a float64 range exactly. Rounding to the nearest
    float32 instead, as a float32 array compared with a Python float does,
    would put a pixel just below an end on the wrong side of it.
    """
    values = np.asarray(values, dtype=np.float64)
    out = values.astype(np.float32)
    low = out < values
    out[low] = np.nextafter(out[low], np.float32(np.inf))
    return out


@dataclass(frozen=True)
class ValueRange:
    """Half-open pixel value interval [lo, hi)."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (PIXEL_MIN <= self.lo < self.hi <= PIXEL_MAX):
            raise ValueError(f"invalid value range [{self.lo}, {self.hi})")

    @cached_property
    def f32_ends(self) -> np.ndarray:
        """``lo`` and ``hi`` rounded up to float32 (see ``f32_at_or_above``)."""
        return f32_at_or_above([self.lo, self.hi])


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def find_sorted(sorted_ids: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each of ``ids`` sits in ``sorted_ids``, and whether it is there."""
    at = np.minimum(np.searchsorted(sorted_ids, ids), max(len(sorted_ids) - 1, 0))
    found = sorted_ids[at] == ids if len(sorted_ids) else np.zeros(len(ids), bool)
    return at, found


class RoiTable(Mapping[int, Roi]):
    """Immutable per-mask roi table: sorted mask ids beside an (n, 4) int64
    array of x1, y1, x2, y2, for looking up many masks at once, and the Roi
    objects by id, for one. Equal to any mapping with the same items;
    hashed by content."""

    __slots__ = ("_by_id", "_ids", "_rois")

    def __init__(self, table: Mapping[int, Roi] | None = None):
        self._by_id = dict(sorted((table or {}).items()))
        self._ids = np.array(list(self._by_id), dtype=np.int64)
        rois = [(r.x1, r.y1, r.x2, r.y2) for r in self._by_id.values()]
        self._rois = np.array(rois, dtype=np.int64).reshape(len(self._ids), 4)
        self._ids.flags.writeable = False
        self._rois.flags.writeable = False

    def rois_of(self, mask_ids: Sequence[int]) -> np.ndarray:
        """(n, 4) rois of ``mask_ids``; MissingRoiBinding names the first absent id."""
        ids = np.asarray(mask_ids, dtype=np.int64)
        at, found = find_sorted(self._ids, ids)
        if not found.all():
            raise MissingRoiBinding(f"no roi bound for mask {int(ids[np.argmin(found)])}")
        return self._rois[at]

    def __getitem__(self, mask_id: int) -> Roi:
        return self._by_id[mask_id]

    def __iter__(self) -> Iterator[int]:
        return iter(self._by_id)

    def __len__(self) -> int:
        return len(self._by_id)

    def __eq__(self, other):
        if isinstance(other, RoiTable):
            return np.array_equal(self._ids, other._ids) and np.array_equal(self._rois, other._rois)
        return super().__eq__(other)

    def __hash__(self):
        return hash((self._ids.tobytes(), self._rois.tobytes()))

    def __repr__(self):
        return f"RoiTable(<{len(self)} rois>)"


class RoiBinding:
    """How a query's region argument resolves to a concrete Roi per mask.

    Three kinds: a constant rectangle shared by all masks, a per-mask table
    (the ``object`` form, supplied externally), or the whole mask (``full``).
    """

    _CONSTANT = "constant"
    _PER_MASK = "per_mask"
    _FULL = "full"

    def __init__(self, kind: str, roi: Roi | None = None, table: RoiTable | None = None):
        self.kind = kind
        self._roi = roi
        self.table = table

    @classmethod
    def constant(cls, roi: Roi) -> "RoiBinding":
        return cls(cls._CONSTANT, roi=roi)

    @classmethod
    def per_mask(cls, table: Mapping[int, Roi]) -> "RoiBinding":
        """Bind ``table``, kept as it is when it is already a RoiTable."""
        return cls(cls._PER_MASK, table=table if isinstance(table, RoiTable) else RoiTable(table))

    @classmethod
    def full(cls) -> "RoiBinding":
        return cls(cls._FULL)

    def resolve(self, mask_id: int, width: int, height: int) -> Roi:
        if self.kind == self._CONSTANT:
            return self._roi
        if self.kind == self._FULL:
            return Roi(0, 0, width, height)
        roi = self.table.get(mask_id)
        if roi is None:
            raise MissingRoiBinding(f"no roi bound for mask {mask_id}")
        return roi

    def resolve_many(
        self, mask_ids: Sequence[int], widths: np.ndarray, heights: np.ndarray
    ) -> np.ndarray:
        """(n, 4) int64 rois x1, y1, x2, y2 of many masks, checked against
        their sizes: ``resolve`` and ``Roi.check_within`` as one array op."""
        n = len(mask_ids)
        if self.kind == self._CONSTANT:
            r = self._roi
            rois = np.tile(np.array([r.x1, r.y1, r.x2, r.y2], dtype=np.int64), (n, 1))
        elif self.kind == self._FULL:
            zeros = np.zeros(n, dtype=np.int64)
            rois = np.stack([zeros, zeros, widths, heights], axis=1)
        else:
            rois = self.table.rois_of(mask_ids)
        out = (rois[:, 2] > widths) | (rois[:, 3] > heights)
        if out.any():
            i = int(np.argmax(out))
            roi = Roi(*(int(v) for v in rois[i]))
            raise RoiOutOfBounds(f"{roi!r} exceeds mask {widths[i]}x{heights[i]}")
        return rois

    def __eq__(self, other):
        return (
            isinstance(other, RoiBinding)
            and self.kind == other.kind
            and self._roi == other._roi
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.kind, self._roi, self.table))

    def __repr__(self):
        if self.kind == self._CONSTANT:
            return f"RoiBinding.constant({self._roi})"
        if self.kind == self._FULL:
            return "RoiBinding.full()"
        return f"RoiBinding.per_mask(<{len(self.table)} rois>)"


@dataclass(frozen=True)
class MaskMeta:
    mask_id: int
    image_id: int
    model_id: int
    mask_type: int


@dataclass(frozen=True)
class ManifestEntry:
    meta: MaskMeta
    width: int
    height: int
    byte_offset: int

    @property
    def mask_id(self) -> int:
        return self.meta.mask_id

    @property
    def nbytes(self) -> int:
        return self.width * self.height * 4


@dataclass
class MaskRecord:
    """Rows ``y1 .. y1 + len(pixels)`` of a mask: all of it unless it was
    read with a row span (see ``MaskStore.get_mask``)."""

    meta: MaskMeta
    width: int
    height: int
    pixels: np.ndarray  # float32, shape (rows held, width); pixel (x, y) = pixels[y - y1, x]
    y1: int = 0  # the first row held

    @property
    def mask_id(self) -> int:
        return self.meta.mask_id

    @property
    def rows(self) -> tuple[int, int]:
        """The half-open span of rows whose pixels this record holds."""
        return self.y1, self.y1 + self.pixels.shape[0]


def cp_exact(mask: MaskRecord, roi: Roi, rng: ValueRange) -> int:
    """Count pixels of ``mask`` inside ``roi`` with values in [rng.lo, rng.hi).

    This is the ground truth the index only ever brackets. A roi reaching
    outside the rows the record holds raises StoreError: a partial read
    never counts as if it were whole.
    """
    roi.check_within(mask.width, mask.height)
    y1, y2 = mask.rows
    if roi.y1 < y1 or roi.y2 > y2:
        raise StoreError(f"{roi!r} reaches outside rows {y1}..{y2} read of mask {mask.mask_id}")
    window = mask.pixels[roi.y1 - y1 : roi.y2 - y1, roi.x1 : roi.x2]
    lo, hi = rng.f32_ends
    # Every stored pixel is in [0, 1), -0.0 included, so an end at 0 or 1
    # needs no comparison.
    if hi == 1.0:
        return roi.area if lo == 0.0 else int(np.count_nonzero(window >= lo))
    if lo == 0.0:
        return int(np.count_nonzero(window < hi))
    # Non-negative float32s order as their bits do, and -0.0 has bits
    # 0x80000000, above every end: lo <= p < hi is one unsigned comparison.
    lo_bits, hi_bits = rng.f32_ends.view(np.uint32)
    return int(np.count_nonzero(window.view(np.uint32) - lo_bits < hi_bits - lo_bits))


def validate_pixels(pixels: np.ndarray, *, clamp: bool = False) -> np.ndarray:
    """Return a float32 copy of ``pixels``, enforcing the [0, 1) domain.

    With ``clamp`` set, finite values >= 1.0 are lowered to the largest
    float32 below 1.0 (for lossy upstream sources); everything else out of
    domain is still rejected.
    """
    arr = np.asarray(pixels, dtype=PIXEL_DTYPE)
    flat = arr.ravel()
    bad = ~np.isfinite(flat)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueOutOfRange(i, float(flat[i]))
    if clamp:
        arr = np.minimum(arr, np.float32(MAX_PIXEL))
        flat = arr.ravel()
    out = (flat < PIXEL_MIN) | (flat >= PIXEL_MAX)
    if out.any():
        i = int(np.argmax(out))
        raise ValueOutOfRange(i, float(flat[i]))
    return arr


# Manifest columns, in the order of a manifest line's first six fields.
COLUMNS = ("mask_id", "image_id", "model_id", "mask_type", "width", "height")


def _row_problem(mask_id, image_id, model_id, mask_type, width, height) -> str | None:
    """Why a manifest row cannot describe a mask, or None when it can.

    Every field must fit an int64 column; the mask id must also fit the
    unsigned 64-bit id of an index file, and the sizes, positive, its
    unsigned 32-bit width and height.
    """
    if not (0 < width < 2**32 and 0 < height < 2**32):
        return f"bad dimensions {width}x{height}"
    if not 0 <= mask_id <= INT64_MAX:
        return f"mask_id {mask_id} outside [0, 2**63)"
    for name, v in (("image_id", image_id), ("model_id", model_id), ("mask_type", mask_type)):
        if not INT64_MIN <= v <= INT64_MAX:
            return f"{name} {v} does not fit a signed 64-bit integer"
    return None


class MaskStore:
    """Directory-backed mask database.

    Single writer during ingestion; safe for concurrent readers afterwards.
    Reads use ``os.preadv`` so worker threads never share seek state. Every
    ``get_mask`` call bumps an atomic load counter: that counter is the raw
    material for the fraction-of-masks-loaded statistic.
    """

    def __init__(self, directory: Path, *, writable: bool):
        self.directory = Path(directory)
        self._writable = writable
        self._entries: dict[int, ManifestEntry] = {}
        self._order: list[int] = []
        self._columns: dict[str, np.ndarray] | None = None
        self._sorted_ids = self._id_order = None
        self._load_calls = 0
        self._counter_lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._manifest_fh = None
        self._data_fh = None
        self._data_fd = None

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def create(cls, directory: str | Path) -> "MaskStore":
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        store = cls(directory, writable=True)
        store._manifest_fh = open(directory / MANIFEST_NAME, "w", encoding="ascii")
        store._data_fh = open(directory / DATA_NAME, "wb")
        store._data_fh.write(STORE_MAGIC)
        return store

    @classmethod
    def open(cls, directory: str | Path) -> "MaskStore":
        directory = Path(directory)
        store = cls(directory, writable=False)
        data_path = directory / DATA_NAME
        store._data_fd = os.open(data_path, os.O_RDONLY)
        if os.pread(store._data_fd, len(STORE_MAGIC), 0) != STORE_MAGIC:
            os.close(store._data_fd)
            raise StoreError(f"{data_path} does not start with {STORE_MAGIC!r}")
        size = data_path.stat().st_size
        rows: list[tuple[int, ...]] = []
        with open(directory / MANIFEST_NAME, encoding="ascii") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 7:
                    raise StoreError(f"manifest line {lineno}: expected 7 fields")
                *row, off = (int(p) for p in parts)
                mid, img, mdl, mtype, w, h = row
                problem = _row_problem(*row)
                if problem is not None:
                    raise StoreError(f"manifest line {lineno}: {problem}")
                if mid in store._entries:
                    raise StoreError(f"manifest line {lineno}: duplicate mask_id {mid}")
                entry = ManifestEntry(MaskMeta(mid, img, mdl, mtype), w, h, off)
                if off < len(STORE_MAGIC) or off + entry.nbytes > size:
                    raise StoreError(f"manifest line {lineno}: offset outside data file")
                store._entries[mid] = entry
                store._order.append(mid)
                rows.append(tuple(row))
        table = np.array(rows, dtype=np.int64).reshape(len(rows), len(COLUMNS)).T.copy()
        table.flags.writeable = False
        store._columns = dict(zip(COLUMNS, table))
        store._id_order = np.argsort(store._columns["mask_id"], kind="stable")
        store._sorted_ids = store._columns["mask_id"][store._id_order]
        spans = sorted((e.byte_offset, e.byte_offset + e.nbytes) for e in store._entries.values())
        for (a0, a1), (b0, _) in zip(spans, spans[1:]):
            if a1 > b0:
                raise StoreError("manifest offsets overlap")
        return store

    def close(self) -> None:
        if self._manifest_fh is not None:
            self._manifest_fh.close()
            self._manifest_fh = None
        if self._data_fh is not None:
            self._data_fh.close()
            self._data_fh = None
        if self._data_fd is not None:
            os.close(self._data_fd)
            self._data_fd = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- ingestion -----------------------------------------------------

    def ingest_mask(
        self,
        meta: MaskMeta,
        width: int,
        height: int,
        pixels,
        *,
        clamp: bool = False,
    ) -> int:
        if not self._writable:
            raise StoreError("store is open read-only")
        if width < 1 or height < 1:
            raise DimensionMismatch(f"bad dimensions {width}x{height}")
        problem = _row_problem(
            meta.mask_id, meta.image_id, meta.model_id, meta.mask_type, width, height
        )
        if problem is not None:
            raise StoreError(problem)
        arr = np.asarray(pixels)
        if arr.size != width * height:
            raise DimensionMismatch(
                f"got {arr.size} pixels for a {width}x{height} mask"
            )
        arr = validate_pixels(arr.reshape(height, width), clamp=clamp)
        with self._write_lock:
            if meta.mask_id in self._entries:
                raise DuplicateMaskId(f"mask_id {meta.mask_id} already ingested")
            offset = self._data_fh.tell()
            self._data_fh.write(np.ascontiguousarray(arr, dtype=PIXEL_DTYPE).tobytes())
            entry = ManifestEntry(meta, width, height, offset)
            self._entries[meta.mask_id] = entry
            self._order.append(meta.mask_id)
            self._manifest_fh.write(
                f"{meta.mask_id}\t{meta.image_id}\t{meta.model_id}\t{meta.mask_type}"
                f"\t{width}\t{height}\t{offset}\n"
            )
        return meta.mask_id

    # -- retrieval -----------------------------------------------------

    def get_meta(self, mask_id: int) -> ManifestEntry:
        entry = self._entries.get(mask_id)
        if entry is None:
            raise NotFound(f"mask_id {mask_id} not in manifest")
        return entry

    @property
    def columns(self) -> dict[str, np.ndarray]:
        """The manifest as read-only int64 arrays in manifest order, one per
        name in ``COLUMNS``; row i of every array is the same mask."""
        if self._columns is None:
            raise StoreError("store not open for reading (create() stores must be reopened)")
        return self._columns

    def positions(self, mask_ids: Sequence[int]) -> np.ndarray:
        """Rows of ``columns`` holding ``mask_ids``, in their order; NotFound
        names the first absent id."""
        self.columns  # raises on a store not open for reading
        try:
            ids = np.asarray(mask_ids, dtype=np.int64)
        except OverflowError:
            bad = next(m for m in mask_ids if not INT64_MIN <= m <= INT64_MAX)
            raise NotFound(f"mask_id {bad} not in manifest") from None
        at, found = find_sorted(self._sorted_ids, ids)
        if not found.all():
            raise NotFound(f"mask_id {int(ids[np.argmin(found)])} not in manifest")
        return self._id_order[at]

    def get_mask(
        self,
        mask_id: int,
        out: np.ndarray | None = None,
        rows: tuple[int, int] | None = None,
    ) -> MaskRecord:
        """Load one mask's pixels from disk. Counted: this call defines FML.

        ``rows`` is a half-open span (y1, y2) with 0 <= y1 < y2 <= height;
        only those rows are read, and the record holds only them (see
        ``MaskRecord.rows``). None reads the whole mask.

        Without ``out`` the rows land in a fresh buffer. With it, they are
        read into ``out[y1:y2]``, where ``out`` must be a writable,
        C-contiguous ``<f4`` array of shape (height, width), and the
        record's pixels are a read-only view of it: valid until the caller
        reuses ``out``. A bad ``out`` or ``rows`` raises ValueError before
        the load is counted.
        """
        entry = self.get_meta(mask_id)
        if self._data_fd is None:
            raise StoreError("store not open for reading (create() stores must be reopened)")
        shape = (entry.height, entry.width)
        y1, y2 = (0, entry.height) if rows is None else map(operator.index, rows)
        if not 0 <= y1 < y2 <= entry.height:
            raise ValueError(f"row span {rows!r} is not within 0..{entry.height}")
        if out is not None and not (
            isinstance(out, np.ndarray)
            and out.dtype == PIXEL_DTYPE
            and out.shape == shape
            and out.flags.c_contiguous
            and out.flags.writeable
        ):
            raise ValueError(
                f"out must be a writable C-contiguous {PIXEL_DTYPE.str} array of shape {shape}"
            )
        with self._counter_lock:
            self._load_calls += 1
        if out is None:
            pixels = np.empty((y2 - y1, entry.width), PIXEL_DTYPE)
        else:
            pixels = out[y1:y2]
        start = entry.byte_offset + y1 * entry.width * PIXEL_DTYPE.itemsize
        if os.preadv(self._data_fd, [pixels], start) != pixels.nbytes:
            raise StoreError(f"short read for mask {mask_id}")
        pixels.flags.writeable = False
        return MaskRecord(entry.meta, entry.width, entry.height, pixels, y1)

    @property
    def load_calls(self) -> int:
        with self._counter_lock:
            return self._load_calls

    def mask_ids(self) -> list[int]:
        return list(self._order)

    def entries(self) -> Iterable[ManifestEntry]:
        return (self._entries[i] for i in self._order)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, mask_id: int) -> bool:
        return mask_id in self._entries


def read_f32_file(path: str | Path, width: int, height: int) -> np.ndarray:
    """Read a headerless little-endian float32 raster of the given shape."""
    raw = Path(path).read_bytes()
    expected = width * height * 4
    if len(raw) != expected:
        raise DimensionMismatch(
            f"{path}: {len(raw)} bytes, expected {expected} for {width}x{height}"
        )
    return np.frombuffer(raw, dtype=PIXEL_DTYPE).reshape(height, width)


def load_roi_table(path: str | Path) -> RoiTable:
    """Parse a per-mask roi table: mask_id, x1, y1, x2, y2 (0-based half-open).
    A mask id listed twice keeps its last roi."""
    table: dict[int, Roi] = {}
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise StoreError(f"{path} line {lineno}: expected 5 fields")
            mid, x1, y1, x2, y2 = (int(p) for p in parts)
            if not 0 <= mid <= INT64_MAX:
                raise StoreError(f"{path} line {lineno}: mask_id {mid} outside [0, 2**63)")
            table[mid] = Roi(x1, y1, x2, y2)
    return RoiTable(table)


def write_roi_table(path: str | Path, table: Mapping[int, Roi]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for mid in sorted(table):
            r = table[mid]
            fh.write(f"{mid}\t{r.x1}\t{r.y1}\t{r.x2}\t{r.y2}\n")
