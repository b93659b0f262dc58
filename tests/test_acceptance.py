"""Acceptance criteria, one test per criterion.

Each test prints a ``[criterion N] PASS`` line (visible with ``pytest -s``)
after asserting the criterion at its stated tolerance. The heavyweight
corpus (2,000 blob masks of 224x224, indexed at 16 bins over 28x28 cells)
is built once per session.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from chisearch.bench import WorkloadSpec, generate_workload, run_workload
from chisearch.chi import ChiBlock, ChiConfig, IndexStore, build_chi, grid_boundaries, persist_index
from chisearch.corpus import blob_mask, edge_mask, generate_corpus, uniform_mask
from chisearch.executor import Engine
from chisearch.planner import plan
from chisearch.sql import parse
from chisearch.store import MaskStore, Roi, ValueRange, cp_exact, load_roi_table

from conftest import bounds_of, build_index, index_of, random_range, random_roi_in, record

BIG_CONFIG = ChiConfig(28, 28, 16)
SWEEP_CONFIGS = tuple(
    ChiConfig(cell, cell, bins) for bins in (4, 16) for cell in (8, 16)
)
DISTS = ("uniform", "blob", "edge")


def synth(dist: str, rng: np.random.Generator, width=64, height=64) -> np.ndarray:
    if dist == "uniform":
        return uniform_mask(rng, width, height)
    if dist == "blob":
        return blob_mask(rng, width, height)
    return edge_mask(rng, width, height)


@pytest.fixture(scope="session")
def corpus224(tmp_path_factory):
    d = tmp_path_factory.mktemp("acceptance") / "corpus224"
    generate_corpus(d, 2000, 224, 224, "blob", seed=42)
    store = MaskStore.open(d)
    index = build_index(store, BIG_CONFIG)
    rois = load_roi_table(d / "rois.tsv")
    yield d, store, index, rois
    store.close()


def _suite(store, rois, qtype: str, n: int, seed: int):
    spec = WorkloadSpec(
        n_queries=n, p_seen=1.0, seed=seed, types=(qtype,), target_fractions=(1.0,)
    )
    return generate_workload(spec, store, rois)


class _CachingStore:
    """Store wrapper that caches pixel payloads across queries.

    Only for correctness-only comparisons: re-reading identical bytes per
    query adds nothing to a result-equality check, and records are
    immutable so sharing is safe. Per-query load accounting lives in the
    engine, not here, and is unaffected.
    """

    def __init__(self, store: MaskStore):
        self._store = store
        self._cache: dict[int, object] = {}

    def get_mask(self, mask_id: int, out=None, rows=None):
        # ``out`` and ``rows`` are ignored: the engine reuses ``out`` after
        # the query, so a cached record must own its pixels, and it holds
        # every row, so it serves any row span. It is always read whole.
        rec = self._cache.get(mask_id)
        if rec is None:
            rec = self._store.get_mask(mask_id)
            self._cache[mask_id] = rec
        return rec

    def __getattr__(self, name):
        return getattr(self._store, name)


def test_criterion_1_bound_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    per_combo = 840  # 840 x 3 distributions x 4 configs > 10,000 triples
    checked = 0
    for dist in DISTS:
        masks = [record(synth(dist, rng), mask_id=i) for i in range(6)]
        for config in SWEEP_CONFIGS:
            blocks = [ChiBlock.of(build_chi(m, config)) for m in masks]
            for _ in range(per_combo):
                i = int(rng.integers(len(masks)))
                roi = random_roi_in(rng, 64, 64)
                vr = random_range(rng)
                exact = cp_exact(masks[i], roi, vr)
                lower, upper = bounds_of(blocks[i], roi, vr)
                assert lower <= exact <= upper, (dist, config, roi, vr, exact, lower, upper)
                checked += 1
    elapsed = time.perf_counter() - t0
    assert checked >= 10_000
    assert elapsed < 60.0
    print(f"\n[criterion 1] PASS bound soundness: {checked} triples, "
          f"0 violations, {elapsed:.1f}s")


def test_criterion_2_aligned_exactness():
    rng = np.random.default_rng(1002)
    checked = 0
    while checked < 1000:
        dist = DISTS[int(rng.integers(3))]
        config = SWEEP_CONFIGS[int(rng.integers(len(SWEEP_CONFIGS)))]
        mask = record(synth(dist, rng))
        block = ChiBlock.of(build_chi(mask, config))
        grid = grid_boundaries(64, 64, config)
        xs, ys = (0,) + grid.xs, (0,) + grid.ys
        for _ in range(25):
            i1 = int(rng.integers(0, len(xs) - 1)); i2 = int(rng.integers(i1 + 1, len(xs)))
            j1 = int(rng.integers(0, len(ys) - 1)); j2 = int(rng.integers(j1 + 1, len(ys)))
            roi = Roi(xs[i1], ys[j1], xs[i2], ys[j2])
            a = int(rng.integers(0, config.bins)); z = int(rng.integers(a + 1, config.bins + 1))
            vr = ValueRange(float(config.bin_edges[a]), float(config.bin_edges[z]))
            exact = cp_exact(mask, roi, vr)
            lower, upper = bounds_of(block, roi, vr)
            assert lower == upper == exact
            checked += 1
    print(f"\n[criterion 2] PASS aligned exactness: {checked} queries, all exact")


@pytest.mark.slow
def test_criterion_3_oracle_equivalence(corpus224):
    _, store, index, rois = corpus224
    t0 = time.perf_counter()
    cached = _CachingStore(store)
    eng = Engine(cached, index, mode="indexed")
    oracle = Engine(cached, mode="oracle")
    totals = {}
    for qtype, seed in (("filter", 31), ("topk", 32), ("aggregation", 33)):
        queries = _suite(store, rois, qtype, 500, seed)
        for q in queries:
            r1 = eng.execute(q.plan)
            r2 = oracle.execute(q.plan)
            assert r1.rows == r2.rows, (qtype, q.qid, q.digest)
            assert r1.columns == r2.columns
        totals[qtype] = len(queries)
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    print(f"\n[criterion 3] PASS oracle equivalence: {totals} queries identical, "
          f"{elapsed / 60:.1f} min")


TABLE2_QUERIES = {
    # Thresholds scaled once to this corpus (paper-scale values select on
    # datasets two orders of magnitude larger); rois and ranges as published.
    "Q1": "SELECT mask_id FROM MasksDatabaseView "
          "WHERE CP(mask, ((50,50),(200,200)), (0.6,1.0)) > 3000 AND model_id = 1",
    "Q2": "SELECT mask_id FROM MasksDatabaseView "
          "WHERE CP(mask, object, (0.8,1.0)) > 900 AND model_id = 1",
    "Q3": "SELECT mask_id, CP(mask, ((50,50),(200,200)), (0.8,1.0)) AS v "
          "FROM MasksDatabaseView WHERE model_id = 1 ORDER BY v DESC LIMIT 25",
    "Q4": "SELECT image_id, AVG(CP(mask, object, (0.8,1.0))) AS v "
          "FROM MasksDatabaseView GROUP BY image_id ORDER BY v DESC LIMIT 25",
    "Q5": "SELECT image_id, CP(INTERSECT(mask > 0.8), object, (0.8,1.0)) AS v "
          "FROM MasksDatabaseView GROUP BY image_id ORDER BY v DESC LIMIT 25",
}


def test_criterion_4_regression_suite(corpus224):
    _, store, index, rois = corpus224
    eng = Engine(store, index, mode="indexed")
    oracle = Engine(store, mode="oracle")
    fractions = {}
    for name, text in TABLE2_QUERIES.items():
        p = plan(parse(text), store, rois)
        if name == "Q5":
            # A first run builds the aggregated-mask indexes, as per-mask
            # indexes are built ahead of the measured run.
            eng.execute(p)
        r1 = eng.execute(p)
        r2 = oracle.execute(plan(parse(text), store, rois))
        assert r1.rows == r2.rows, name
        assert r1.rows, f"{name} returned nothing; thresholds miscalibrated"
        frac = r1.stats.masks_loaded / r1.stats.masks_targeted
        fractions[name] = round(frac, 4)
        assert frac < 0.20, (name, frac)
    print(f"\n[criterion 4] PASS regression suite identical across modes; "
          f"loaded fractions {fractions}")


def test_criterion_5_index_sizing(corpus224, tmp_path):
    store_dir, store, index, _ = corpus224
    assert (store_dir / "masks.bin").stat().st_size == 6 + 2000 * 224 * 224 * 4
    for mid in (1, 500, 2000):
        assert index_of(index, mid).payload_bytes == 2 * 16 * 8 * 8 == 2048
    single = IndexStore(BIG_CONFIG)
    single.insert(index_of(index, 1))
    path = tmp_path / "one.chi"
    persist_index(single, path)
    header, section, per_mask_id = 6 + 32, 16, 8
    assert path.stat().st_size - header - section - per_mask_id == 2048
    print("\n[criterion 5] PASS index sizing: 2048 payload bytes per mask "
          "(16 bins, 28x28 cells, 224x224 masks)")


@pytest.mark.slow
def test_criterion_6_speedup_and_fml_correlation(corpus224):
    store_dir, store, _, rois = corpus224
    queries = _suite(store, rois, "filter", 500, seed=61)
    report = run_workload(store_dir, queries, ("indexed", "oracle"), config=BIG_CONFIG)
    rows = {"indexed": [], "oracle": []}
    for row in report.rows:
        if row.qid >= 0:
            rows[row.mode].append(row)
    med_indexed = float(np.median([r.wall_s for r in rows["indexed"]]))
    med_oracle = float(np.median([r.wall_s for r in rows["oracle"]]))
    speedup = med_oracle / med_indexed
    assert speedup >= 5.0, f"median speedup {speedup:.2f}x"
    loads = [r.masks_loaded for r in rows["indexed"]]
    walls = [r.wall_s for r in rows["indexed"]]
    rho = float(scipy_stats.spearmanr(loads, walls).statistic)
    assert rho >= 0.8, f"rank correlation {rho:.3f}"
    print(f"\n[criterion 6] PASS speedup {speedup:.1f}x at the median "
          f"(indexed {med_indexed * 1e3:.1f}ms vs oracle {med_oracle * 1e3:.1f}ms); "
          f"loads/time rank correlation {rho:.3f}")


@pytest.fixture(scope="session")
def workload_corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("workloads") / "corpus"
    generate_corpus(d, 600, 128, 128, "blob", seed=77)
    store = MaskStore.open(d)
    rois = load_roi_table(d / "rois.tsv")
    yield d, store, rois
    store.close()


def test_criterion_7_incremental_indexing(workload_corpus):
    d, store, rois = workload_corpus
    config = ChiConfig(16, 16, 16)

    # Re-exploration workload: only the first target set is ever touched,
    # so the up-front build of every mask is never amortized and the
    # cumulative-time ratio settles below 1.
    spec = WorkloadSpec(n_queries=200, p_seen=1.0, seed=71)
    queries = generate_workload(spec, store, rois)
    report = run_workload(d, queries, ("indexed", "incremental"), config=config)
    ratios = report.summary["cumulative_ratio_incremental_vs_indexed"]
    tail = ratios[-50:]
    assert max(tail) < 1.0, f"ratio reached {max(tail):.3f}"
    assert max(tail) - min(tail) < 0.15, "tail still drifting"

    # Exploration workload: every mask is eventually seen; afterwards any
    # repeated query loads exactly what the prebuilt-index engine loads.
    spec = WorkloadSpec(n_queries=200, p_seen=0.2, seed=72)
    queries = generate_workload(spec, store, rois)
    session = IndexStore(config)
    inc = Engine(store, session, mode="incremental")
    for q in queries:
        inc.execute(q.plan)
    assert len(session) == len(store)
    prebuilt = build_index(store, config)
    indexed = Engine(store, prebuilt, mode="indexed")
    for q in queries:
        warm = inc.execute(q.plan)
        fresh = indexed.execute(q.plan)
        assert warm.stats.masks_loaded == fresh.stats.masks_loaded, q.qid
        assert warm.rows == fresh.rows
    print(f"\n[criterion 7] PASS incremental indexing: ratio plateau at "
          f"{ratios[-1]:.3f} (< 1), repeat-query load counts match exactly")


def test_criterion_8_refinement(tmp_path):
    rng = np.random.default_rng(1008)
    coarse = ChiConfig(16, 16, 4)
    fine = ChiConfig(8, 8, 8)  # halved cells, doubled bins: boundaries divide
    checked = 0
    while checked < 1000:
        dist = DISTS[int(rng.integers(3))]
        mask = record(synth(dist, rng))
        block_c = ChiBlock.of(build_chi(mask, coarse))
        block_f = ChiBlock.of(build_chi(mask, fine))
        for _ in range(50):
            roi = random_roi_in(rng, 64, 64)
            vr = random_range(rng)
            lower_c, upper_c = bounds_of(block_c, roi, vr)
            lower_f, upper_f = bounds_of(block_f, roi, vr)
            assert upper_f <= upper_c, (roi, vr)
            assert lower_f >= lower_c, (roi, vr)
            checked += 1
    print(f"\n[criterion 8] PASS refinement: {checked} triples, finer config "
          f"never looser")
