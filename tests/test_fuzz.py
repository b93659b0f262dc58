"""Differential fuzzing: the indexed and incremental engines against the oracle.

Each example builds a small store with masks of mixed sizes in one target
set, on a grid whose cells do not divide every mask, with pixels drawn
partly from the bin edges, zero and ``MAX_PIXEL`` and partly at random, and
some masks duplicated so ranked queries tie. A run of random plans (filters
with AND/OR trees, top-k with k past the target count, scalar and mask
aggregates with HAVING, empty target sets) must give the oracle's rows.
Metadata comparisons (=, IN, <, > against numbers, some fractional, or
against other manifest columns) sit inside the AND/OR trees.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chisearch.bounds import AreaTerm, BinOp, Const, CpTerm
from chisearch.chi import ChiConfig, IndexStore
from chisearch.executor import (
    AggSpec,
    BoolOp,
    CpComparison,
    Engine,
    FilterSpec,
    HavingBool,
    HavingCmp,
    MaskAggregate,
    MaskAggSpec,
    MetaComparison,
    Predicate,
    QueryPlan,
    ScalarAggSpec,
    TopKSpec,
)
from chisearch.store import COLUMNS, MAX_PIXEL, RoiBinding, ValueRange

from conftest import build_index, build_store, random_roi_in, record

SIZES = ((8, 8), (11, 7), (6, 13), (8, 7))  # the last shares a width and a height
PLANS_PER_EXAMPLE = 8


def _pixels(rng, cfg: ChiConfig, w: int, h: int) -> np.ndarray:
    edges = cfg.bin_edges[:-1].astype(np.float32)
    palette = np.concatenate([edges, np.nextafter(edges[1:], np.float32(0)), [MAX_PIXEL]])
    px = rng.random((h, w), dtype=np.float32)
    pick = rng.random((h, w)) < 0.6
    px[pick] = rng.choice(palette, size=int(pick.sum())).astype(np.float32)
    return px


def _corpus(rng, cfg: ChiConfig):
    sizes = SIZES[: int(rng.integers(1, len(SIZES) + 1))]
    records = []
    for i in range(int(rng.integers(1, 11))):
        s = int(rng.integers(len(sizes)))
        w, h = sizes[s]
        dup = [r for r in records if (r.width, r.height) == (w, h)]
        px = dup[-1].pixels.copy() if dup and rng.random() < 0.3 else _pixels(rng, cfg, w, h)
        # Masks of one size share image ids, so MASK_AGG groups never mix sizes.
        meta = dict(image_id=100 * s + i // 2, model_id=int(rng.integers(1, 3)))
        records.append(record(px, mask_id=i + 1, **meta))
    return records


def _range(rng, cfg: ChiConfig) -> ValueRange:
    points = sorted({float(e) for e in cfg.bin_edges} | {float(rng.random()), MAX_PIXEL})
    lo, hi = sorted(rng.choice(len(points), size=2, replace=False))
    return ValueRange(points[lo], points[hi])


def _binding(rng, records) -> RoiBinding:
    kind = rng.integers(3)
    if kind == 0:
        return RoiBinding.full()
    if kind == 1:
        w = min(r.width for r in records)
        h = min(r.height for r in records)
        return RoiBinding.constant(random_roi_in(rng, w, h))
    return RoiBinding.per_mask({r.mask_id: random_roi_in(rng, r.width, r.height) for r in records})


def _expr(rng, cfg, records):
    term = CpTerm(_binding(rng, records), _range(rng, cfg))
    shape = rng.integers(4)
    if shape == 0:
        return term
    if shape == 1:
        return BinOp("-", term, CpTerm(_binding(rng, records), _range(rng, cfg)))
    if shape == 2:
        return BinOp("/", term, AreaTerm(term.roi))
    return BinOp("*", term, Const(0.5))


def _threshold(rng) -> float:
    return float(rng.integers(-1, 60)) + (0.5 if rng.random() < 0.2 else 0.0)


def _column_value(record, column: str) -> int:
    return getattr(record, column) if column in ("width", "height") else getattr(record.meta, column)


def _meta_comparison(rng, records) -> MetaComparison:
    def operand():
        if rng.random() < 0.2:
            return str(rng.choice(COLUMNS))
        r = records[int(rng.integers(len(records)))]
        v = _column_value(r, str(rng.choice(COLUMNS)))
        return v + float(rng.choice([-1, -0.5, 0, 0, 0.5, 1]))

    op = str(rng.choice(["=", "in", "<", ">"]))
    right = tuple(operand() for _ in range(int(rng.integers(1, 4)) if op == "in" else 1))
    left = str(rng.choice(COLUMNS)) if rng.random() < 0.9 else operand()
    return MetaComparison(left, op, right)


def _pred(rng, cfg, records, depth=0):
    kind = rng.integers(4 if depth < 2 else 2)
    if kind == 0:
        return _meta_comparison(rng, records)
    if kind == 1:
        cmp = ">" if rng.random() < 0.5 else "<"
        return CpComparison(Predicate(_expr(rng, cfg, records), cmp, _threshold(rng)))
    op = "and" if kind == 2 else "or"
    children = tuple(_pred(rng, cfg, records, depth + 1) for _ in range(int(rng.integers(2, 4))))
    return BoolOp(op, children)


def _having(rng):
    def cmp():
        return HavingCmp(">" if rng.random() < 0.5 else "<", _threshold(rng))

    kind = rng.integers(3)
    if kind == 0:
        return None
    if kind == 1:
        return cmp()
    return HavingBool("and" if rng.random() < 0.5 else "or", (cmp(), cmp()))


def _plan(rng, cfg, records) -> QueryPlan:
    ids = [r.mask_id for r in records]
    if rng.random() < 0.15:
        targets = []
    else:
        targets = sorted(rng.choice(ids, size=int(rng.integers(1, len(ids) + 1)), replace=False))
        targets = [int(t) for t in targets]
    chosen = [r for r in records if r.mask_id in targets] or records
    kind = rng.integers(4)
    if kind == 0:
        limit = int(rng.integers(1, 5)) if rng.random() < 0.2 else None
        return QueryPlan(targets, FilterSpec(_pred(rng, cfg, chosen), limit))
    if kind == 1:
        k = int(rng.integers(0, len(ids) + 4))
        pred = _pred(rng, cfg, chosen) if rng.random() < 0.3 else None
        spec = TopKSpec(_expr(rng, cfg, chosen), k, bool(rng.random() < 0.5), pred)
        return QueryPlan(targets, spec)
    descending = [None, True, False][int(rng.integers(3))]
    limit = int(rng.integers(1, 6)) if rng.random() < 0.5 else None
    if kind == 2:
        fn = str(rng.choice(["SUM", "AVG", "MIN", "MAX"]))
        key = "image_id" if rng.random() < 0.7 else "model_id"
        value = ScalarAggSpec(fn, _expr(rng, cfg, chosen))
    else:
        agg = [MaskAggregate("intersect", float(rng.random())), MaskAggregate("min"),
               MaskAggregate("max")][int(rng.integers(3))]
        key = "image_id"
        value = MaskAggSpec(agg, CpTerm(_binding(rng, chosen), _range(rng, cfg)))
    return QueryPlan(targets, AggSpec(key, value, _having(rng), descending, limit))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    cell_width=st.integers(2, 9),
    cell_height=st.integers(2, 9),
    bins=st.sampled_from([1, 2, 3, 4, 8]),
)
def test_engines_match_oracle_row_for_row(seed, cell_width, cell_height, bins):
    rng = np.random.default_rng(seed)
    cfg = ChiConfig(cell_width, cell_height, bins)
    records = _corpus(rng, cfg)
    with tempfile.TemporaryDirectory() as tmp:
        store = build_store(Path(tmp) / "store", records)
        try:
            oracle = Engine(store, mode="oracle")
            indexed = Engine(store, build_index(store, cfg), mode="indexed")
            incremental = Engine(store, IndexStore(cfg), mode="incremental")
            for n in range(PLANS_PER_EXAMPLE):
                plan = _plan(rng, cfg, records)
                want = oracle.execute(plan).rows
                assert indexed.execute(plan).rows == want, (n, plan)
                assert incremental.execute(plan).rows == want, (n, plan)
        finally:
            store.close()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_every_mode_reads_at_most_the_targeted_masks(seed):
    """Each engine reads a mask where one of its counts is first needed, and
    never reads a mask none of whose counts is needed. Every mode gives the
    oracle's rows and reads no more pixel bytes than the whole masks the
    query targets."""
    rng = np.random.default_rng(seed)
    cfg = ChiConfig(int(rng.integers(2, 10)), int(rng.integers(2, 10)), 4)
    records = _corpus(rng, cfg)
    whole = {r.mask_id: r.width * r.height * 4 for r in records}
    with tempfile.TemporaryDirectory() as tmp:
        store = build_store(Path(tmp) / "store", records)
        try:
            engines = [
                Engine(store, mode="oracle"),
                Engine(store, build_index(store, cfg), mode="indexed"),
                Engine(store, IndexStore(cfg), mode="incremental"),
            ]
            for n in range(PLANS_PER_EXAMPLE):
                plan = _plan(rng, cfg, records)
                targeted = sum(whole[m] for m in plan.target_ids)
                results = [eng.execute(plan) for eng in engines]
                for eng, r in zip(engines, results):
                    assert r.rows == results[0].rows, (n, eng.mode, plan)
                    assert r.stats.bytes_read <= targeted, (n, eng.mode, plan)
        finally:
            store.close()
