"""Seeded corpora and SQL query lists for the four benchmark workloads.

Everything here is a pure function of the seed and the scale, so the same
seed gives byte-identical corpora and identical SQL text.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from chisearch import corpus, store
from chisearch.chi import ChiConfig

SHAPES = ("filter", "topk", "agg")
WORKLOADS = ("indexed_mix", "incremental_sweep", "mixed_dims", "point_lookup")
MODELS_PER_IMAGE = 2
TOPK_LIMIT = 25
# Query parameters come from fixed menus, cycled through every stratum, so
# each run holds the same mix of costs; the seed moves only image windows,
# rectangles by a few pixels, and the corpus itself.
# (lo, hi, ratio): CP(mask, object, (lo, hi)) / area(object) > ratio
FILTER_MENU = (
    (0.5, 1.0, 0.3),
    (0.6, 1.0, 0.1),
    (0.3, 0.8, 0.4),
    (0.7, 1.0, 0.05),
    (0.4, 0.9, 0.2),
    (0.2, 0.6, 0.5),
)
# (width, height, centre x, centre y, lo, hi, descending) of the constant
# rectangle ranked by top-k and aggregation queries. Sizes and centres are
# shares of the smallest mask; the seed moves the centre by a few pixels.
RANK_MENU = (
    (0.4, 0.4, 0.5, 0.5, 0.5, 1.0, True),
    (0.3, 0.6, 0.35, 0.45, 0.6, 1.0, False),
    (0.6, 0.3, 0.55, 0.6, 0.3, 0.7, True),
    (0.2, 0.2, 0.3, 0.7, 0.7, 1.0, True),
    (0.5, 0.5, 0.6, 0.4, 0.4, 0.9, False),
    (0.7, 0.7, 0.5, 0.5, 0.2, 0.5, True),
)
JITTER = 0.05  # of the smallest mask's side


@dataclass(frozen=True)
class Scale:
    """Corpus and query-list sizes. ``FULL`` is the benchmark; tests use ``TINY``."""

    images: int
    uniform_dims: tuple  # ((width, height),)
    mixed_dims: tuple  # mask sizes cycled per image in ``mixed_dims``
    cell: int
    bins: int
    window_images: tuple  # image_id window sizes of the indexed workloads
    per_stratum: int  # queries per (shape, window size), cycling the menus
    point_per_shape: int
    sweep_images: tuple  # window sizes of ``incremental_sweep``, in images

    @property
    def config(self) -> ChiConfig:
        return ChiConfig(self.cell, self.cell, self.bins)


# At FULL size every workload has at least 100 distinct queries, so that
# p90 has ten queries above it.
FULL = Scale(
    images=500,
    uniform_dims=((224, 224),),
    mixed_dims=((224, 224), (160, 224), (224, 112), (128, 128)),
    cell=28,
    bins=16,
    window_images=(50, 150, 500),
    per_stratum=12,
    point_per_shape=50,
    sweep_images=(4, 8, 12),
)

TINY = Scale(
    images=12,
    uniform_dims=((32, 32),),
    mixed_dims=((32, 32), (24, 32), (32, 16), (16, 16)),
    cell=8,
    bins=8,
    window_images=(2, 4, 12),
    per_stratum=1,
    point_per_shape=2,
    sweep_images=(2, 4),
)


@dataclass(frozen=True)
class Query:
    shape: str
    sql: str


@dataclass(frozen=True)
class Workload:
    """The query list that one pass of the timed loop runs, in order.

    ``indexed`` passes share the prebuilt index. ``incremental`` passes each
    start from an empty index and persist it at the end.
    """

    name: str
    mode: str  # 'indexed' | 'incremental'
    dims: tuple
    queries: tuple  # of Query


def make_corpus(out_dir: Path, dims: tuple, images: int, seed: int) -> None:
    """Blob masks, two models per image, image ``i`` sized ``dims[i % len(dims)]``.

    ``corpus.generate_corpus`` fixes one mask size per corpus, so this loop
    mirrors it with a per-image size.
    """
    rng = np.random.default_rng(seed)
    rois = {}
    with store.MaskStore.create(out_dir) as st:
        mask_id = 1
        for image_id in range(1, images + 1):
            width, height = dims[(image_id - 1) % len(dims)]
            centers, sigma, box = corpus.blob_geometry(rng, width, height)
            for model in range(1, MODELS_PER_IMAGE + 1):
                pixels = corpus.blob_mask(rng, width, height, centers, sigma)
                meta = store.MaskMeta(mask_id, image_id, model, 1)
                st.ingest_mask(meta, width, height, pixels)
                rois[mask_id] = box
                mask_id += 1
    store.write_roi_table(out_dir / "rois.tsv", rois)
    # Flush now, so that write-back of the fresh corpus does not run during
    # set-up or the timed window.
    for name in (store.DATA_NAME, store.MANIFEST_NAME, "rois.tsv"):
        fd = os.open(out_dir / name, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _sql(shape: str, where: str, variant: int, rng: np.random.Generator, dims: tuple) -> str:
    view = "FROM MasksDatabaseView"
    if shape == "filter":
        lo, hi, ratio = FILTER_MENU[variant % len(FILTER_MENU)]
        cp = f"CP(mask, object, ({lo}, {hi}))"
        return f"SELECT mask_id {view} WHERE {cp} / area(object) > {ratio} AND {where}"
    w_share, h_share, cx, cy, lo, hi, descending = RANK_MENU[variant % len(RANK_MENU)]
    # A constant rectangle must fit the smallest mask of the corpus.
    width = min(w for w, _ in dims)
    height = min(h for _, h in dims)
    w, h = max(2, round(w_share * width)), max(2, round(h_share * height))
    jx, jy = rng.uniform(-JITTER, JITTER, size=2)
    x1 = int(np.clip(round((cx + jx) * width - w / 2), 0, width - w))
    y1 = int(np.clip(round((cy + jy) * height - h / 2), 0, height - h))
    # The dialect writes 1-based inclusive corners.
    cp = f"CP(mask, (({x1 + 1}, {y1 + 1}), ({x1 + w}, {y1 + h})), ({lo}, {hi}))"
    order = "DESC" if descending else "ASC"
    if shape == "topk":
        return (
            f"SELECT mask_id, {cp} AS v {view} WHERE {where} "
            f"ORDER BY v {order} LIMIT {TOPK_LIMIT}"
        )
    return (
        f"SELECT image_id, AVG({cp}) AS v {view} WHERE {where} "
        f"GROUP BY image_id ORDER BY v {order} LIMIT {TOPK_LIMIT}"
    )


def _window(lo: int, hi: int) -> str:
    return f"image_id > {lo - 1} AND image_id < {hi + 1}"


def _stratified(rng, scale: Scale, dims: tuple) -> tuple:
    """Each shape on each window size with each menu entry, in seeded order.

    A stratum's windows start at evenly spaced images, from a seeded offset.
    """
    queries = []
    for shape in SHAPES:
        for size in scale.window_images:
            starts = scale.images - size + 1
            offset = rng.random()
            for variant in range(scale.per_stratum):
                lo = 1 + int((offset + variant / scale.per_stratum) * starts) % starts
                where = _window(lo, lo + size - 1)
                queries.append(Query(shape, _sql(shape, where, variant, rng, dims)))
    order = rng.permutation(len(queries))
    return tuple(queries[i] for i in order)


def _point(rng, scale: Scale, dims: tuple) -> tuple:
    queries = []
    for shape in SHAPES:
        for variant in range(scale.point_per_shape):
            image_id = int(rng.integers(1, scale.images + 1))
            where = f"image_id = {image_id}"
            queries.append(Query(shape, _sql(shape, where, variant, rng, dims)))
    order = rng.permutation(len(queries))
    return tuple(queries[i] for i in order)


def _sweep(rng, scale: Scale, dims: tuple) -> tuple:
    """Windows that each overlap the covered prefix by half, until all is covered.

    Every block of queries holds each (shape, window size) pair once, in
    seeded order, so loads per query and each shape's mix of sizes are the
    same for every seed.
    """
    pairs = [(shape, size) for shape in SHAPES for size in scale.sweep_images]
    queries = []
    variants = dict.fromkeys(SHAPES, 0)
    covered = 0
    while covered < scale.images:
        for k in rng.permutation(len(pairs)):
            if covered >= scale.images:
                break
            shape, size = pairs[k]
            lo = max(1, covered - size // 2 + 1)
            hi = min(scale.images, lo + size - 1)
            sql_text = _sql(shape, _window(lo, hi), variants[shape], rng, dims)
            queries.append(Query(shape, sql_text))
            variants[shape] += 1
            covered = hi
    return tuple(queries)


def build(name: str, seed: int, scale: Scale) -> Workload:
    """The workload's query list for ``seed``; independent of the corpus bytes."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "indexed_mix":
        dims = scale.uniform_dims
        return Workload(name, "indexed", dims, _stratified(rng, scale, dims))
    if name == "mixed_dims":
        dims = scale.mixed_dims
        return Workload(name, "indexed", dims, _stratified(rng, scale, dims))
    if name == "point_lookup":
        dims = scale.uniform_dims
        return Workload(name, "indexed", dims, _point(rng, scale, dims))
    if name == "incremental_sweep":
        dims = scale.uniform_dims
        return Workload(name, "incremental", dims, _sweep(rng, scale, dims))
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
