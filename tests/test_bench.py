import gc
import json

import numpy as np
import pytest
from scipy import stats as scipy_stats

from chisearch.bench import (
    BenchRow,
    WorkloadSpec,
    generate_workload,
    run_workload,
)
from chisearch.chi import ChiConfig
from chisearch.corpus import generate_corpus
from chisearch.store import MaskStore, load_roi_table


@pytest.fixture(scope="module")
def bench_corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("bench") / "corpus"
    generate_corpus(d, 60, 32, 32, "blob", seed=21)
    store = MaskStore.open(d)
    roi_table = load_roi_table(d / "rois.tsv")
    yield d, store, roi_table
    store.close()


CFG = ChiConfig(8, 8, 8)


def test_workload_generation_is_reproducible(bench_corpus):
    _, store, roi_table = bench_corpus
    spec = WorkloadSpec(n_queries=25, p_seen=0.5, seed=9, types=("filter", "topk", "aggregation"))
    a = generate_workload(spec, store, roi_table)
    b = generate_workload(spec, store, roi_table)
    assert [q.digest for q in a] == [q.digest for q in b]
    assert [q.plan.target_ids for q in a] == [q.plan.target_ids for q in b]
    assert [q.qtype for q in a] == [q.qtype for q in b]


def test_workload_target_fractions(bench_corpus):
    _, store, roi_table = bench_corpus
    spec = WorkloadSpec(n_queries=40, p_seen=0.5, seed=2)
    queries = generate_workload(spec, store, roi_table)
    sizes = {len(q.plan.target_ids) for q in queries}
    assert sizes <= {6, 12, 18}  # 10/20/30% of 60


def test_workload_p_seen_one_targets_only_first_set(bench_corpus):
    _, store, roi_table = bench_corpus
    spec = WorkloadSpec(n_queries=30, p_seen=1.0, seed=4)
    queries = generate_workload(spec, store, roi_table)
    first = set(queries[0].plan.target_ids)
    union = set()
    for q in queries:
        union |= set(q.plan.target_ids)
    assert union == first  # nothing beyond the first query's masks is ever touched


def test_workload_low_p_seen_exhausts_unseen(bench_corpus):
    _, store, roi_table = bench_corpus
    spec = WorkloadSpec(n_queries=60, p_seen=0.2, seed=4)
    queries = generate_workload(spec, store, roi_table)
    union = set()
    for q in queries:
        union |= set(q.plan.target_ids)
    assert union == set(store.mask_ids())  # exploration sees the whole corpus


def test_run_workload_leaves_the_heap_unfrozen(bench_corpus):
    d, store, roi_table = bench_corpus
    queries = generate_workload(WorkloadSpec(n_queries=3, seed=7), store, roi_table)
    run_workload(d, queries, ("incremental", "oracle"), config=CFG)
    assert gc.get_freeze_count() == 0
    with pytest.raises(ValueError, match="needs an index config"):
        run_workload(d, queries, ("indexed",))
    assert gc.get_freeze_count() == 0


def test_run_workload_modes_agree_and_account(bench_corpus, tmp_path):
    d, store, roi_table = bench_corpus
    spec = WorkloadSpec(n_queries=12, p_seen=0.5, seed=7, types=("filter", "topk", "aggregation"))
    queries = generate_workload(spec, store, roi_table)
    report = run_workload(d, queries, ("indexed", "incremental", "oracle"), config=CFG)
    by_mode = {}
    for row in report.rows:
        if row.qid >= 0:
            by_mode.setdefault(row.mode, []).append(row)
    for mode, rows in by_mode.items():
        assert len(rows) == 12
        for row in rows:
            assert (
                row.masks_pruned + row.masks_accepted_directly + row.masks_loaded
                == row.masks_targeted
            )
            assert 0.0 <= row.fml <= 1.0
    # Same query, same digests across modes; loads never exceed the oracle's.
    for i in range(12):
        assert by_mode["indexed"][i].digest == by_mode["oracle"][i].digest
        assert by_mode["indexed"][i].masks_loaded <= by_mode["oracle"][i].masks_loaded

    out_tsv = tmp_path / "bench.tsv"
    report.write_tsv(out_tsv)
    lines = out_tsv.read_text().splitlines()
    assert lines[0].startswith("#")  # the page-cache caveat header
    assert lines[1].split("\t") == list(BenchRow.FIELDS)
    out_json = tmp_path / "summary.json"
    report.write_json(out_json)
    summary = json.loads(out_json.read_text())
    assert set(summary["modes"]) == {"indexed", "incremental", "oracle"}
    assert len(summary["cumulative_ratio_incremental_vs_indexed"]) == 12


def test_oracle_cumulative_time_grows_linearly(bench_corpus):
    d, store, roi_table = bench_corpus
    spec = WorkloadSpec(n_queries=40, p_seen=0.5, seed=13)
    queries = generate_workload(spec, store, roi_table)
    report = run_workload(d, queries, ("oracle",), config=None)
    cumulative = report.summary["modes"]["oracle"]["cumulative_s"]
    xs = np.arange(1, len(cumulative) + 1)
    fit = scipy_stats.linregress(xs, cumulative)
    assert fit.rvalue**2 >= 0.95


def test_exploration_ratio_peaks_then_declines(tmp_path):
    # Heavy exploration indexes the whole corpus early: the cumulative-time
    # ratio climbs while first-touch loads dominate, tops out once every
    # mask is indexed, and declines as both engines settle into the same
    # per-query cost.
    d = tmp_path / "corpus"
    generate_corpus(d, 400, 128, 128, "blob", seed=31)
    store = MaskStore.open(d)
    roi_table = load_roi_table(d / "rois.tsv")
    spec = WorkloadSpec(n_queries=150, p_seen=0.2, seed=1)
    queries = generate_workload(spec, store, roi_table)
    store.close()
    report = run_workload(d, queries, ("indexed", "incremental"),
                          config=ChiConfig(16, 16, 16))
    ratios = report.summary["cumulative_ratio_incremental_vs_indexed"]
    peak_at = int(np.argmax(ratios))
    assert peak_at < len(ratios) // 2
    assert ratios[-1] < max(ratios)


def test_incremental_total_stays_below_indexed_for_reexploration(bench_corpus):
    # With p_seen = 1.0 only the first target set is ever indexed, while the
    # up-front build pays for every mask; the cumulative ratio ends below 1.
    d, store, roi_table = bench_corpus
    spec = WorkloadSpec(n_queries=40, p_seen=1.0, seed=17)
    queries = generate_workload(spec, store, roi_table)
    report = run_workload(d, queries, ("indexed", "incremental"), config=CFG)
    ratios = report.summary["cumulative_ratio_incremental_vs_indexed"]
    assert ratios[-1] < 1.0
    rank = report.summary["modes"]["indexed"].get("loads_time_rank_correlation")
    if rank is not None:
        assert -1.0 <= rank <= 1.0
