import threading

import numpy as np
import pytest

from chisearch.bounds import AreaTerm, BinOp, CpTerm
from chisearch.chi import ChiConfig, IndexStore
from chisearch.executor import (
    AggSpec,
    BoolOp,
    Column,
    CpComparison,
    Engine,
    ExprItem,
    FilterSpec,
    MaskAggSpec,
    MaskAggregate,
    MetaComparison,
    MissingIndex,
    Predicate,
    QueryPlan,
    ScalarAggSpec,
    TopKSpec,
    _QueryCtx,
)
from chisearch import planner, sql
from chisearch.planner import PlanError
from chisearch.corpus import generate_corpus
from chisearch.store import (
    MAX_PIXEL,
    MaskStore,
    MissingRoiBinding,
    Roi,
    RoiBinding,
    RoiOutOfBounds,
    RoiTable,
    ValueRange,
    load_roi_table,
    write_roi_table,
)

from conftest import (
    bounds_of,
    build_index,
    build_store,
    count_pixels_loop,
    index_of,
    random_range,
    random_roi_in,
    record,
    roi_array,
    stacked_pseudo_mask,
    two_candidate_bounds,
)


ROI = Roi(5, 3, 20, 21)
VR = ValueRange(0.55, 0.95)


def term(roi=ROI, vr=VR):
    return CpTerm(RoiBinding.constant(roi), vr)


def filter_plan(ids, threshold, comparator=">", t=None):
    return QueryPlan(ids, FilterSpec(CpComparison(Predicate(t or term(), comparator, threshold))))


@pytest.fixture()
def engines(small_corpus):
    store, index = small_corpus
    return store, Engine(store, index, mode="indexed"), Engine(store, mode="oracle")


def test_filter_matches_oracle(engines):
    store, eng, oracle = engines
    ids = store.mask_ids()
    for t in (50, 100, 130, 160, 200):
        p = filter_plan(ids, t)
        r1, r2 = eng.execute(p), oracle.execute(p)
        assert r1.rows == r2.rows
        assert r1.columns == ["mask_id"]


def test_filter_less_than_matches_oracle(engines):
    store, eng, oracle = engines
    ids = store.mask_ids()
    p = filter_plan(ids, 130, comparator="<")
    assert eng.execute(p).rows == oracle.execute(p).rows


def test_threshold_at_area_prunes_everything(engines):
    store, eng, _ = engines
    r = eng.execute(filter_plan(store.mask_ids(), ROI.area))
    assert r.rows == []
    assert r.stats.masks_loaded == 0
    assert r.stats.masks_pruned == r.stats.masks_targeted


def test_negative_threshold_accepts_everything_without_loads(engines):
    store, eng, _ = engines
    r = eng.execute(filter_plan(store.mask_ids(), -1))
    assert [row[0] for row in r.rows] == store.mask_ids()
    assert r.stats.masks_loaded == 0
    assert r.stats.masks_accepted_directly == r.stats.masks_targeted


def test_accounting_identity_and_fml(engines):
    store, eng, _ = engines
    for t in (60, 110, 140, 170):
        s = eng.execute(filter_plan(store.mask_ids(), t)).stats
        assert s.masks_pruned + s.masks_accepted_directly + s.masks_loaded == s.masks_targeted
        assert 0.0 <= s.fml <= 1.0


def test_load_count_equals_candidate_set(engines):
    store, eng, _ = engines
    before = store.load_calls
    r = eng.execute(filter_plan(store.mask_ids(), 130))
    candidates = r.stats.masks_loaded
    assert store.load_calls - before == candidates


def test_per_cell_bound_decides_a_filter_the_reference_would_load(tmp_path):
    # High values fill only the top-left 4x4 cell. The roi [1, 7) x [0, 4)
    # holds 12 of them and covers no whole cell: per cell the bracket is
    # [12, 12], while the two-candidate reference gives [8, 16] and would
    # have to load the mask to decide "> 11".
    px = np.full((8, 8), 0.1, dtype=np.float32)
    px[:4, :4] = 0.9
    store = build_store(tmp_path, [record(px)])
    index = build_index(store, ChiConfig(4, 4, 2))
    roi, vr = Roi(1, 0, 7, 4), ValueRange(0.5, 1.0)
    block, rows = index.block(8, 8), np.zeros(1, dtype=np.intp)
    ref_lower, ref_upper = two_candidate_bounds(block, rows, roi_array(roi), vr)
    assert ref_lower[0] <= 11 < ref_upper[0]
    p = filter_plan([1], 11, t=term(roi, vr))
    r = Engine(store, index, mode="indexed").execute(p)
    assert r.stats.masks_loaded == 0 and r.stats.masks_accepted_directly == 1
    assert r.rows == Engine(store, mode="oracle").execute(p).rows == [(1,)]
    store.close()


def test_indexed_matches_oracle_on_a_pixel_just_below_a_range_end(tmp_path):
    # Every pixel is the float32 just below the bin edge 5/6 of a 6-bin
    # index: in bin 4, and outside [5/6, 1.0), which the index prunes.
    store = build_store(tmp_path, [record(np.full((4, 4), 5 / 6, dtype=np.float32))])
    index = build_index(store, ChiConfig(2, 2, 6))
    for vr, rows in ((ValueRange(5 / 6, 1.0), []), (ValueRange(0.5, 5 / 6), [(1,)])):
        p = filter_plan([1], 0, t=term(Roi(0, 0, 4, 4), vr))
        assert Engine(store, index, mode="indexed").execute(p).rows == rows
        assert Engine(store, mode="oracle").execute(p).rows == rows
    store.close()


def test_indexed_matches_oracle_on_negative_zero_pixels(tmp_path):
    # The store keeps -0.0 as written; the index bins it with 0.0, and
    # every count range from 0 includes it.
    rng = np.random.default_rng(61)
    records = []
    for i in range(12):
        px = rng.random((16, 16), dtype=np.float32)
        px[rng.random((16, 16)) < 0.3] = -0.0
        records.append(record(px, mask_id=i + 1, image_id=1 + i // 3))
    store = build_store(tmp_path, records)
    assert np.signbit(store.get_mask(1).pixels).any()
    index = build_index(store, ChiConfig(4, 4, 4))
    ids = store.mask_ids()
    plans = []
    for vr in (ValueRange(0.0, 0.25), ValueRange(0.0, 0.6), ValueRange(0.0, 1.0)):
        t = term(Roi(1, 2, 15, 13), vr)
        plans += [filter_plan(ids, x, t=t) for x in (30, 60, 90)]
        plans += [QueryPlan(ids, TopKSpec(t, 4, d)) for d in (True, False)]
    for p in plans:
        expected = Engine(store, mode="oracle").execute(p).rows
        assert Engine(store, index, mode="indexed").execute(p).rows == expected
        cold = Engine(store, IndexStore(index.config), mode="incremental")
        assert cold.execute(p).rows == expected
    store.close()


def test_missing_index_raises(small_corpus):
    store, index = small_corpus
    partial = IndexStore(index.config)
    for mid in store.mask_ids()[:10]:
        partial.insert(index_of(index, mid))
    eng = Engine(store, partial, mode="indexed")
    with pytest.raises(MissingIndex):
        eng.execute(filter_plan(store.mask_ids(), 130))


def test_engine_takes_one_thread_only(engines):
    """Every read happens on the calling thread: ``threads=1`` is accepted
    and any other count is refused."""
    store, eng, oracle = engines
    plan = filter_plan(store.mask_ids(), 130)
    one = Engine(store, eng.index_store, mode="indexed", threads=1)
    assert one.execute(plan).rows == oracle.execute(plan).rows
    for threads in (0, 2, -2):
        with pytest.raises(ValueError, match="threads"):
            Engine(store, eng.index_store, mode="indexed", threads=threads)


def test_select_values_force_loads_lazily(engines):
    store, eng, _ = engines
    ids = store.mask_ids()
    plain = QueryPlan(ids, FilterSpec(CpComparison(Predicate(term(), ">", -1))))
    with_value = QueryPlan(
        ids,
        FilterSpec(CpComparison(Predicate(term(), ">", -1))),
        select=(Column("mask_id"), ExprItem("val", term())),
    )
    r_plain = eng.execute(plain)
    assert r_plain.stats.masks_loaded == 0
    r_val = eng.execute(with_value)
    assert r_val.stats.masks_loaded == len(ids)  # values demanded output loads
    s = r_val.stats
    assert s.masks_pruned + s.masks_accepted_directly + s.masks_loaded == s.masks_targeted


def test_verify_all_flag_warns_and_matches(engines):
    store, eng, oracle = engines
    ids = store.mask_ids()
    p = QueryPlan(ids, FilterSpec(CpComparison(Predicate(term(), ">", 130))), verify_all=True)
    r = eng.execute(p)
    assert r.stats.masks_loaded == len(ids)
    assert r.stats.warnings
    assert r.rows == oracle.execute(filter_plan(ids, 130)).rows


def _record_loads(store, monkeypatch) -> list:
    """The id of every mask read from ``store`` from now on, in order."""
    loaded = []
    get_mask = store.get_mask

    def recording(m, out=None, rows=None):
        loaded.append(m)
        return get_mask(m, out=out, rows=rows)

    monkeypatch.setattr(store, "get_mask", recording)
    return loaded


def test_boolean_and_metadata_dispatch(engines, monkeypatch):
    """A count OR a metadata comparison, in either child order, gives the
    full scan's rows in every mode, and reads exactly the masks whose count
    the CP leaf evaluates: those neither their bracket (indexed mode) nor,
    before it, the metadata leaf decides. Answers never read count as
    accepted directly."""
    store, eng, oracle = engines
    ids = store.mask_ids()
    cp = CpComparison(Predicate(term(), ">", 150))
    meta = MetaComparison("model_id", "=", (2,))
    model2 = {m for m in ids if store.get_meta(m).meta.model_id == 2}
    counts = {m: count_pixels_loop(store.get_mask(m).pixels, ROI, VR.lo, VR.hi) for m in ids}
    want = [(m,) for m in ids if m in model2 or counts[m] > 150]
    undecided = set()
    for m in ids:
        lo, hi = bounds_of(index_of(eng.index_store, m), ROI, VR)
        if lo <= 150 < hi:
            undecided.add(m)
    loaded = _record_loads(store, monkeypatch)
    for children in ((cp, meta), (meta, cp)):
        plan = QueryPlan(ids, FilterSpec(BoolOp("or", children)))
        cold = IndexStore(eng.index_store.config)
        for e in (eng, oracle, Engine(store, cold, mode="incremental")):
            loaded.clear()
            r = e.execute(plan)
            assert r.rows == want, (e.mode, children)
            if e.mode == "indexed":
                counted = undecided - model2
            else:
                counted = set(ids) - model2 if children[0] is meta else set(ids)
            s = r.stats
            assert sorted(loaded) == sorted(counted) and s.masks_loaded == len(counted), (
                e.mode, children)
            assert s.masks_accepted_directly == len({m for (m,) in want} - counted)
            assert s.masks_pruned + s.masks_accepted_directly + s.masks_loaded == len(ids)
            if e.mode == "incremental":
                assert cold.mask_ids() == sorted(loaded)


# -- top-k -----------------------------------------------------------------------


def test_topk_matches_oracle_both_directions(engines):
    store, eng, oracle = engines
    ids = store.mask_ids()
    for desc in (True, False):
        p = QueryPlan(ids, TopKSpec(term(), 7, desc))
        r1, r2 = eng.execute(p), oracle.execute(p)
        assert r1.rows == r2.rows
        assert r1.stats.masks_loaded <= r2.stats.masks_loaded


def test_topk_all_masks_full_order(engines):
    store, eng, oracle = engines
    ids = store.mask_ids()
    p = QueryPlan(ids, TopKSpec(term(), len(ids), True))
    r1, r2 = eng.execute(p), oracle.execute(p)
    assert r1.rows == r2.rows
    assert len(r1.rows) == len(ids)
    p_over = QueryPlan(ids, TopKSpec(term(), len(ids) + 50, True))
    assert eng.execute(p_over).rows == r1.rows


def test_topk_tie_breaking_prefers_lower_ids(tmp_path):
    # Three identical masks: the boundary tie keeps the lower ids.
    px = np.full((8, 8), 0.7, dtype=np.float32)
    records = [record(px, mask_id=i, image_id=i, model_id=1) for i in (11, 12, 13)]
    store = build_store(tmp_path / "s", records)
    index = build_index(store, ChiConfig(4, 4, 4))
    eng = Engine(store, index, mode="indexed")
    t = CpTerm(RoiBinding.full(), ValueRange(0.5, 1.0))
    r = eng.execute(QueryPlan([11, 12, 13], TopKSpec(t, 2, True)))
    assert [row[0] for row in r.rows] == [11, 12]
    r_asc = eng.execute(QueryPlan([11, 12, 13], TopKSpec(t, 2, False)))
    assert [row[0] for row in r_asc.rows] == [11, 12]
    store.close()


def test_topk_with_exact_filter(engines):
    store, eng, oracle = engines
    ids = store.mask_ids()
    pred = CpComparison(Predicate(CpTerm(RoiBinding.full(), ValueRange(0.0, 0.3)), ">", 160))
    p = QueryPlan(ids, TopKSpec(term(), 5, True, pred))
    assert eng.execute(p).rows == oracle.execute(p).rows


def test_topk_stale_threshold_only_costs_loads(engines):
    store, eng, oracle = engines
    ids = store.mask_ids()

    class Stale(Engine):
        """Reads the selection boundary with a lag, as a racy reader would."""

        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            self._history = []

        def _topk_threshold(self, heap, k):
            self._history.append(super()._topk_threshold(heap, k))
            # A stale boundary key is always at most the current one.
            return self._history[max(0, len(self._history) - 4)]

        def execute(self, plan):
            self._history = []
            return super().execute(plan)

    stale = Stale(store, eng.index_store, mode="indexed")
    for desc in (True, False):
        p = QueryPlan(ids, TopKSpec(term(), 7, desc))
        fresh = eng.execute(p)
        lagged = stale.execute(p)
        assert lagged.rows == fresh.rows == oracle.execute(p).rows
        assert lagged.stats.masks_loaded >= fresh.stats.masks_loaded


def test_ranked_visit_order_matches_the_bound_key(engines):
    """Candidates are visited in descending ``(±edge, -id)``, edge-less ids
    first, on ties, infinities and missing edges alike."""
    _, eng, _ = engines
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(1, 50))
        ids = rng.choice(10**6, size=n, replace=False).tolist()
        values = [-np.inf, np.inf, 0.0, -0.0, 1.5, -2.0] + rng.normal(size=3).tolist()
        edges = rng.choice(values, size=n)
        edges[rng.random(n) < 0.25] = np.nan  # no bracket
        edge_of = {i: e for i, e in zip(ids, edges.tolist()) if e == e}
        for descending in (True, False):
            sign = 1.0 if descending else -1.0

            def bound_key(i):
                edge = edge_of.get(i)
                return (np.inf if edge is None else sign * edge, -i)

            visited = []
            # Rejecting every id keeps the heap empty, so every id is visited.
            eng._select_ranked(ids, n, descending, edges, lambda i: visited.append(i))
            assert visited == sorted(ids, key=bound_key, reverse=True)


def test_topk_bound_order_matches_oracle_rows(engines):
    store, eng, oracle = engines
    ids = store.mask_ids()
    coarse = term(Roi(0, 0, 3, 4), ValueRange(0.5, 1.0))  # 12 pixels: many tied counts
    tied_at_boundary = 0
    for t in (term(), coarse):
        for desc in (True, False):
            for k in (1, 3, 7, 12):
                p = QueryPlan(ids, TopKSpec(t, k, desc))
                expected = oracle.execute(p).rows
                assert eng.execute(p).rows == expected, (t, desc, k)
                full = [v for _, v in oracle.execute(QueryPlan(ids, TopKSpec(t, None, desc))).rows]
                tied_at_boundary += full[k - 1] == full[k]
    assert tied_at_boundary  # some case must cut through a run of equal values


def _looser_bound_pair(tmp_path, image_ids=(1, 1)):
    """Masks 1 and 2 with 4 pixels each at 0.7 in TIE_TERM's roi, the top
    half of one 4x4 cell. Mask 2 has 4 more below the roi in that cell, so
    its upper bound is 8 where mask 1's is a tight 4."""
    one = np.full((8, 8), 0.1, dtype=np.float32)
    one[:2, :2] = 0.7
    two = one.copy()
    two[2:4, :2] = 0.7
    records = [
        record(px, mask_id=i, image_id=g) for i, g, px in zip((1, 2), image_ids, (one, two))
    ]
    store = build_store(tmp_path / "s", records)
    return store, build_index(store, ChiConfig(4, 4, 2))


TIE_TERM = CpTerm(RoiBinding.constant(Roi(0, 0, 4, 2)), ValueRange(0.5, 1.0))


def test_topk_tie_with_looser_bound_on_higher_id(tmp_path):
    store, index = _looser_bound_pair(tmp_path)
    eng = Engine(store, index, mode="indexed")
    p = QueryPlan([1, 2], TopKSpec(TIE_TERM, 1, True))
    assert eng.execute(p).rows == Engine(store, mode="oracle").execute(p).rows == [(1, 4.0)]
    store.close()


def test_ranked_aggregation_tie_with_looser_bound_on_higher_key(tmp_path):
    store, index = _looser_bound_pair(tmp_path, image_ids=(1, 2))
    eng = Engine(store, index, mode="indexed")
    p = QueryPlan([1, 2], AggSpec("image_id", ScalarAggSpec("AVG", TIE_TERM), None, True, 1))
    assert eng.execute(p).rows == Engine(store, mode="oracle").execute(p).rows == [(1, 4.0)]
    store.close()


def test_topk_early_stop_loads_shortest_bound_prefix(engines, monkeypatch):
    store, eng, _ = engines
    ids = store.mask_ids()
    # A bin-aligned range and a roi one pixel past a cell edge: brackets
    # tight enough to stop early, loose enough to need a real prefix.
    roi, vr, k = Roi(0, 0, 13, 24), ValueRange(0.25, 0.75), 5
    exact = {m: count_pixels_loop(store.get_mask(m).pixels, roi, vr.lo, vr.hi) for m in ids}
    loaded: list[int] = []
    get_mask = store.get_mask
    monkeypatch.setattr(store, "get_mask", lambda m, **kw: loaded.append(m) or get_mask(m, **kw))
    for desc in (True, False):
        sign = 1 if desc else -1
        bound_key = {}
        for m in ids:
            lo, hi = bounds_of(index_of(eng.index_store, m), roi, vr)
            bound_key[m] = (sign * (hi if desc else lo), -m)
        prefix: list[int] = []
        for m in sorted(ids, key=bound_key.get, reverse=True):
            kept = sorted(((sign * exact[p], -p) for p in prefix), reverse=True)
            if len(kept) >= k and kept[k - 1] > bound_key[m]:
                break
            prefix.append(m)
        assert k < len(prefix) < len(ids)
        loaded.clear()
        eng.execute(QueryPlan(ids, TopKSpec(term(roi, vr), k, desc)))
        assert loaded == prefix


def test_limit_zero_returns_no_rows_without_loads(engines):
    store, eng, oracle = engines
    ids = store.mask_ids()
    for desc in (True, False):
        for shape in (
            AggSpec("image_id", ScalarAggSpec("AVG", term()), None, desc, 0),
            TopKSpec(term(), 0, desc),
            FilterSpec(CpComparison(Predicate(term(), ">", 100)), 0),
        ):
            plan = QueryPlan(ids, shape)
            r = oracle.execute(plan)
            assert r.rows == [], shape
            assert r.stats.masks_loaded == 0
            r = eng.execute(plan)
            assert r.rows == [], shape
            assert r.stats.masks_loaded == 0


def test_negative_caps_are_refused():
    with pytest.raises(ValueError, match="limit must not be negative"):
        FilterSpec(None, -2)
    with pytest.raises(ValueError, match="k must not be negative"):
        TopKSpec(term(), -1)
    with pytest.raises(ValueError, match="limit must not be negative"):
        AggSpec("image_id", ScalarAggSpec("AVG", term()), None, True, -1)


# -- aggregation --------------------------------------------------------------------


def test_scalar_aggregation_matches_oracle(engines):
    store, eng, oracle = engines
    ids = store.mask_ids()
    for fn in ("AVG", "SUM", "MIN", "MAX"):
        for desc in (True, False):
            p = QueryPlan(ids, AggSpec("image_id", ScalarAggSpec(fn, term()), None, desc, 5))
            r1, r2 = eng.execute(p), oracle.execute(p)
            assert r1.rows == r2.rows, (fn, desc)


def test_having_filter_on_groups(engines):
    store, eng, oracle = engines
    from chisearch.executor import HavingCmp

    ids = store.mask_ids()
    p = QueryPlan(
        ids, AggSpec("image_id", ScalarAggSpec("SUM", term()), HavingCmp(">", 260), None, None)
    )
    r1, r2 = eng.execute(p), oracle.execute(p)
    assert r1.rows == r2.rows
    s = r1.stats
    assert s.masks_pruned + s.masks_accepted_directly + s.masks_loaded == s.masks_targeted


def test_single_mask_groups_degenerate_to_topk(engines):
    store, eng, _ = engines
    ids = store.mask_ids()
    by_mask = QueryPlan(ids, TopKSpec(term(), 6, True))
    # model_id groups contain one mask each when targets hold a single model.
    model1 = [m for m in ids if store.get_meta(m).meta.model_id == 1]
    agg = QueryPlan(model1, AggSpec("image_id", ScalarAggSpec("SUM", term()), None, True, 6))
    topk = QueryPlan(model1, TopKSpec(term(), 6, True))
    r_agg, r_topk = eng.execute(agg), eng.execute(topk)
    assert [v for _, v in r_agg.rows] == [float(v) for _, v in r_topk.rows]


def test_mask_aggregation_matches_oracle_and_caches(engines):
    store, eng, oracle = engines
    ids = store.mask_ids()
    spec = MaskAggSpec(
        MaskAggregate("intersect", 0.5), CpTerm(RoiBinding.full(), ValueRange(0.5, 1.0))
    )
    p = QueryPlan(ids, AggSpec("image_id", spec, None, True, 5))
    r1 = eng.execute(p)
    assert r1.rows == oracle.execute(p).rows
    r2 = eng.execute(p)
    assert r2.rows == r1.rows
    assert r2.stats.masks_loaded < r1.stats.masks_loaded  # cached pseudo-mask indexes


def test_mask_aggregation_min_max(engines):
    store, eng, oracle = engines
    ids = store.mask_ids()
    for kind in ("min", "max"):
        spec = MaskAggSpec(
            MaskAggregate(kind), CpTerm(RoiBinding.full(), ValueRange(0.4, 1.0))
        )
        p = QueryPlan(ids, AggSpec("image_id", spec, None, True, 4))
        assert eng.execute(p).rows == oracle.execute(p).rows


@pytest.mark.parametrize("t", [0.5, 0.3])  # representable in float32, and not
def test_intersect_threshold_compares_pixels_exactly(tmp_path, t):
    at = np.float32(t)
    row = [np.nextafter(at, np.float32(0)), at, np.nextafter(at, np.float32(1))]
    above = [float(p) > t for p in row]  # float32(0.3) lies above 0.3; float32(0.5) does not
    assert above == [False, t == 0.3, True]
    hit = stacked_pseudo_mask(MaskAggregate("intersect", t), np.array([row, row], np.float32))
    assert (hit > 0).tolist() == above
    pixels = np.array([row * 2] * 2, np.float32)  # a 6x2 mask, each row twice over
    store = build_store(tmp_path / "s", [record(pixels, mask_id=m, model_id=m) for m in (1, 2)])
    spec = MaskAggSpec(MaskAggregate("intersect", t), CpTerm(RoiBinding.full(), ValueRange(0.5, 1.0)))
    plan = QueryPlan([1, 2], AggSpec("image_id", spec))
    rows = [(1, 4.0 * sum(above))]
    assert Engine(store, build_index(store, ChiConfig(2, 2, 4))).execute(plan).rows == rows
    assert Engine(store, mode="oracle").execute(plan).rows == rows
    store.close()


def test_group_dimension_mismatch(tmp_path):
    from chisearch.store import DimensionMismatch

    records = [
        record(np.zeros((4, 4), np.float32), mask_id=1, image_id=1),
        record(np.zeros((6, 6), np.float32), mask_id=2, image_id=1, model_id=2),
    ]
    store = build_store(tmp_path / "s", records)
    eng = Engine(store, mode="oracle")
    spec = MaskAggSpec(MaskAggregate("min"), CpTerm(RoiBinding.full(), ValueRange(0.0, 1.0)))
    with pytest.raises(DimensionMismatch):
        eng.execute(QueryPlan([1, 2], AggSpec("image_id", spec, None, True, 1)))
    store.close()


def test_mask_aggregate_fold_is_bit_identical_to_stacking(engines):
    store, eng, oracle = engines
    members = store.mask_ids()[:7]
    stack = np.stack([store.get_mask(m).pixels for m in members])
    above = stack >= np.nextafter(np.float32(0.5), np.float32(1))  # pixel > 0.5
    want = {
        "intersect": np.where(above.all(axis=0), np.float32(MAX_PIXEL), np.float32(0)),
        "min": np.min(stack, axis=0),
        "max": np.max(stack, axis=0),
    }
    for kind, pixels in want.items():
        spec = MaskAggSpec(MaskAggregate(kind, 0.5), term())
        for e in (eng, oracle):
            got = e._materialize_group(_QueryCtx(e), spec, 1, members[::-1])
            assert got.pixels.dtype == np.float32 and got.mask_id == members[0]
            assert got.pixels.tobytes() == pixels.tobytes(), (kind, e.mode)
        assert stacked_pseudo_mask(MaskAggregate(kind, 0.5), stack).tobytes() == pixels.tobytes()


# -- incremental mode ------------------------------------------------------------------


def test_incremental_cold_session(small_corpus):
    store, prebuilt = small_corpus
    ids = store.mask_ids()[:20]
    cold = IndexStore(prebuilt.config)
    plan = filter_plan(ids, 130)
    result = Engine(store, cold, mode="incremental").execute(plan)
    assert result.stats.masks_loaded == len(ids)
    assert cold.mask_ids() == sorted(ids)  # exactly the targeted masks indexed


def test_incremental_second_run_matches_indexed_loads(small_corpus):
    store, prebuilt = small_corpus
    ids = store.mask_ids()
    cold = IndexStore(prebuilt.config)
    inc = Engine(store, cold, mode="incremental")
    # An aligned range keeps the count side of the bounds exact, so the
    # warm session really gets to prune.
    aligned = CpTerm(RoiBinding.constant(Roi(0, 0, 24, 24)), ValueRange(0.5, 1.0))
    plan = filter_plan(ids, 290, t=aligned)
    first = inc.execute(plan)
    second = inc.execute(plan)
    indexed = Engine(store, prebuilt, mode="indexed").execute(plan)
    assert first.rows == second.rows == indexed.rows
    assert first.stats.masks_loaded == len(ids)  # cold: everything loads once
    assert second.stats.masks_loaded == indexed.stats.masks_loaded
    assert second.stats.masks_loaded < first.stats.masks_loaded


def test_incremental_builds_only_unseen(small_corpus):
    store, prebuilt = small_corpus
    ids = store.mask_ids()
    half, mixed = ids[:20], ids[10:30]
    cold = IndexStore(prebuilt.config)
    inc = Engine(store, cold, mode="incremental")
    inc.execute(filter_plan(half, 130))
    # Index-less masks load (and index) unconditionally on first touch.
    assert set(cold.mask_ids()) == set(half)
    inc.execute(filter_plan(mixed, 130))
    assert set(cold.mask_ids()) == set(half) | set(mixed)  # only ten new builds


def test_incremental_aggregation_matches(small_corpus):
    """Grouped queries give the oracle's rows, cold and warm. An aggregate
    or a ranking of areas alone reads no mask in any mode, and the masks it
    answers with (the members of the answered groups) count as accepted."""
    store, prebuilt = small_corpus
    ids = store.mask_ids()
    cold = IndexStore(prebuilt.config)
    inc = Engine(store, cold, mode="incremental")
    p = QueryPlan(ids, AggSpec("image_id", ScalarAggSpec("AVG", term()), None, True, 5))
    oracle = Engine(store, mode="oracle")
    assert inc.execute(p).rows == oracle.execute(p).rows
    assert inc.execute(p).rows == oracle.execute(p).rows  # warm pass too
    rng = np.random.default_rng(7)
    area = AreaTerm(RoiBinding.per_mask({m: random_roi_in(rng, 24, 24) for m in ids}))
    image_of = {m: store.get_meta(m).meta.image_id for m in ids}
    engines = (
        oracle,
        Engine(store, prebuilt, mode="indexed"),
        inc,
        Engine(store, IndexStore(prebuilt.config), mode="incremental"),
    )
    for shape, n_rows in (
        (AggSpec("image_id", ScalarAggSpec("AVG", area)), 20),
        (AggSpec("image_id", ScalarAggSpec("SUM", area), None, True, 3), 3),
        (TopKSpec(area, 3, True), 3),
    ):
        plan = QueryPlan(ids, shape)
        want = oracle.execute(plan).rows
        assert len(want) == n_rows
        keys = {key for key, _ in want}
        answered = [m for m in ids if (m if isinstance(shape, TopKSpec) else image_of[m]) in keys]
        for eng in engines:
            r = eng.execute(plan)
            assert r.rows == want, (eng.mode, shape)
            assert r.stats.masks_loaded == 0, (eng.mode, shape)
            assert r.stats.masks_accepted_directly == len(answered), (eng.mode, shape)
            assert r.stats.masks_pruned == len(ids) - len(answered)
    assert cold.mask_ids() == ids
    assert engines[3].index_store.mask_ids() == []


# -- reused pixel buffers ---------------------------------------------------------------


def _watch_buffers(monkeypatch) -> list:
    """Every buffer an engine reads into, as (engine, reading thread, buffer).
    The list holds all three, so no id is reused while it lives."""
    seen = []
    hot_buffer = Engine._hot_buffer

    def watched(self, height, width):
        buf = hot_buffer(self, height, width)
        seen.append((self, threading.current_thread(), buf))
        return buf

    monkeypatch.setattr(Engine, "_hot_buffer", watched)
    return seen


def _buffers_held(seen) -> dict:
    """(engine, thread, shape) -> how many distinct buffers it read into."""
    held = {}
    for engine, thread, buf in seen:
        held.setdefault((engine, thread, buf.shape), set()).add(id(buf))
    return {key: len(ids) for key, ids in held.items()}


def _mixed_size_corpus(tmp_path):
    """Masks of three sizes; both masks of an image share a size."""
    rng = np.random.default_rng(99)
    sizes = [(24, 24), (17, 13), (30, 20)]
    records = []
    for i in range(36):
        w, h = sizes[(i // 2) % 3]
        records.append(record(rng.random((h, w), dtype=np.float32), mask_id=i + 1,
                              image_id=1 + i // 2, model_id=1 + i % 2))
    store = build_store(tmp_path / "mixed", records)
    return store, build_index(store, ChiConfig(5, 4, 6))


def _mixed_plans(rng, ids):
    plans = []
    for trial in range(30):
        roi = random_roi_in(rng, 17, 13)  # inside the smallest mask size
        t = CpTerm(RoiBinding.constant(roi), random_range(rng))
        kind = trial % 5
        if kind == 0:
            threshold = int(rng.integers(0, roi.area + 1))
            shape = FilterSpec(CpComparison(Predicate(t, ">" if trial % 2 else "<", threshold)))
        elif kind == 1:
            shape = TopKSpec(t, int(rng.integers(1, 12)), bool(trial % 2))
        elif kind == 2:
            fn = ("SUM", "AVG", "MIN", "MAX")[trial % 4]
            shape = AggSpec("image_id", ScalarAggSpec(fn, t), None, bool(trial % 2), 6)
        elif kind == 3:
            agg = MaskAggregate(("intersect", "min", "max")[trial % 3], 0.5)
            full = CpTerm(RoiBinding.full(), ValueRange(0.4, 1.0))
            shape = AggSpec("image_id", MaskAggSpec(agg, full), None, bool(trial % 2), 4)
        else:
            shape = FilterSpec(None)
        n = len(ids) if trial == 0 else int(rng.integers(1, len(ids) + 1))
        targets = sorted(int(m) for m in rng.choice(ids, size=n, replace=False))
        plans.append(QueryPlan(targets, shape,
                               select=(Column("mask_id"), ExprItem("v", t))
                               if kind in (0, 4) else None))
    return plans


def test_warm_engine_reusing_buffers_matches_oracle(tmp_path, monkeypatch):
    store, index = _mixed_size_corpus(tmp_path)
    ids = store.mask_ids()
    eng = Engine(store, index, mode="indexed")
    inc = Engine(store, IndexStore(index.config), mode="incremental")
    oracle = Engine(store, mode="oracle")
    plans = _mixed_plans(np.random.default_rng(5), ids)
    seen = _watch_buffers(monkeypatch)
    rounds = []
    for rnd in range(2):
        for i, plan in enumerate(plans):
            expected = oracle.execute(plan)
            for e in (eng, inc):
                got = e.execute(plan)
                assert got.rows == expected.rows, (rnd, i, e.mode)
                assert got.columns == expected.columns
        rounds.append(len(seen))
    # Each engine reads every mask of a size, in one thread, into one buffer,
    # whatever its queries load: the oracle holds one per size, no more.
    assert set(_buffers_held(seen).values()) == {1}
    sizes = {(store.get_meta(m).height, store.get_meta(m).width) for m in ids}
    assert {shape for e, _, shape in _buffers_held(seen) if e is oracle} == sizes
    # Warm, the calling thread allocates no new buffer.
    main = threading.current_thread()
    first = {id(b) for _, t, b in seen[: rounds[0]] if t is main}
    assert {id(b) for _, t, b in seen[rounds[0]:] if t is main} <= first
    store.close()


def test_repeated_queries_read_into_the_same_buffers(engines, monkeypatch):
    store, eng, _ = engines
    ids = store.mask_ids()
    plans = [filter_plan(ids, t) for t in (100, 130, 160)]
    plans += [QueryPlan(ids, TopKSpec(term(), 7, True))]
    outs = []
    get_mask = store.get_mask
    monkeypatch.setattr(
        store,
        "get_mask",
        lambda m, out=None, rows=None: outs.append(out) or get_mask(m, out=out, rows=rows),
    )
    loaded = [eng.execute(p).stats.masks_loaded for p in plans]
    assert all(o is not None for o in outs) and max(loaded) > 1
    first = {id(o) for o in outs}
    assert len(first) == 1  # one buffer for every load of the 24x24 masks
    outs.clear()
    for p in plans:
        eng.execute(p)
    assert {id(o) for o in outs} == first  # no new buffer once warm


def test_query_raising_mid_verify_gives_buffers_back(engines, monkeypatch):
    """A query that raises leaves its engine as it found it: still one
    buffer per mask size, and the next queries right."""
    store, eng, oracle = engines
    eng = Engine(store, eng.index_store, mode="indexed")
    ids = store.mask_ids()
    table = {m: Roi(2, 2, 20, 20) for m in ids if m != 25}
    bad = CpTerm(RoiBinding.per_mask(table), VR)
    plan = QueryPlan(ids, FilterSpec(CpComparison(Predicate(bad, ">", 100))), verify_all=True)
    seen = _watch_buffers(monkeypatch)
    loads = store.load_calls
    with pytest.raises(MissingRoiBinding):
        eng.execute(plan)
    loaded = store.load_calls - loads
    # Each mask is read where it is counted, so the query stops at mask 25,
    # whose count raises.
    assert loaded == 25
    raised = len(seen)
    for p in (filter_plan(ids, 130), QueryPlan(ids, TopKSpec(term(), 5, False))):
        assert eng.execute(p).rows == oracle.execute(p).rows
    assert set(_buffers_held(seen).values()) == {1}
    assert {id(b) for e, _, b in seen[raised:] if e is eng} == {id(seen[0][2])}


# -- per-mask roi tables ---------------------------------------------------------------


def _roi_engines(store, index):
    """An indexed engine and an incremental one whose session already holds
    every index, so both bracket through the vectorised roi lookup."""
    warm = IndexStore(index.config)
    for m in index.mask_ids():
        warm.insert(index_of(index, m))
    return Engine(store, index, mode="indexed"), Engine(store, warm, mode="incremental")


def test_plans_over_one_loaded_table_share_it(small_corpus, tmp_path):
    store, _ = small_corpus
    path = tmp_path / "rois.tsv"
    write_roi_table(path, {m: Roi(2, 2, 20, 20) for m in store.mask_ids()})
    table = load_roi_table(path)
    q = "SELECT mask_id FROM MasksDatabaseView WHERE CP(mask, object, (0.5, 1.0)) > 100"
    first, second = (planner.plan(sql.parse(q), store, table) for _ in range(2))
    assert first.shape.pred.pred.expr.roi.table is table
    assert second.shape.pred.pred.expr.roi.table is table


@pytest.mark.parametrize("shape", ["filter", "topk", "agg"])
def test_target_missing_from_roi_table_raises_in_vectorised_path(small_corpus, shape):
    store, index = small_corpus
    ids = store.mask_ids()
    table = RoiTable({m: Roi(2, 2, 20, 20) for m in ids if m not in (17, 30)})
    t = CpTerm(RoiBinding.per_mask(table), VR)
    plan = {
        "filter": QueryPlan(ids, FilterSpec(CpComparison(Predicate(t, ">", 100)))),
        "topk": QueryPlan(ids, TopKSpec(t, 3, True)),
        "agg": QueryPlan(ids, AggSpec("image_id", ScalarAggSpec("AVG", t), None, True, 3)),
    }[shape]
    loads = store.load_calls
    for eng in _roi_engines(store, index):
        with pytest.raises(MissingRoiBinding, match="mask 17"):
            eng.execute(plan)
    assert store.load_calls == loads  # raised while bracketing, before any load


@pytest.mark.parametrize("binding", ["per_mask", "constant"])
def test_roi_past_the_mask_edge_raises_in_vectorised_path(small_corpus, binding):
    store, index = small_corpus
    ids = store.mask_ids()
    if binding == "per_mask":
        rois = {m: Roi(2, 2, 20, 20) for m in ids}
        rois[12] = Roi(3, 3, 25, 10)  # masks are 24x24
        b = RoiBinding.per_mask(rois)
    else:
        b = RoiBinding.constant(Roi(0, 20, 10, 25))
    plan = QueryPlan(ids, FilterSpec(CpComparison(Predicate(CpTerm(b, VR), ">", 100))))
    loads = store.load_calls
    for eng in _roi_engines(store, index):
        with pytest.raises(RoiOutOfBounds, match="exceeds mask 24x24"):
            eng.execute(plan)
    assert store.load_calls == loads


@pytest.mark.parametrize("mode", ["oracle", "indexed", "incremental"])
def test_count_errors_raise_only_where_the_count_is_used(engines, monkeypatch, mode):
    """Every term is counted at read, but a term that cannot be counted on a
    mask raises only where a query uses that count, as a full scan would.
    The indexed and incremental engines get verify-all plans, so that they
    decide every mask on the batched verify path.

    Each load reads the union of the rows of the rois that resolve on the
    mask, each clipped to the mask's height: rows 3..21 for ``everywhere``,
    2..20 for ``missing`` (except on mask 7, which it binds no roi) and
    20..24 for ``outside``, whose roi reaches a row past the mask."""
    store, indexed, _ = engines
    index = {"oracle": None, "indexed": indexed.index_store,
             "incremental": IndexStore(indexed.index_store.config)}[mode]
    eng = Engine(store, index, mode=mode)
    verify_all = mode != "oracle"
    ids = store.mask_ids()
    everywhere = CpComparison(Predicate(term(), ">", -1))
    missing = CpTerm(RoiBinding.per_mask({m: Roi(2, 2, 20, 20) for m in ids if m != 7}), VR)
    outside = CpTerm(RoiBinding.constant(Roi(0, 20, 10, 25)), VR)  # masks are 24x24
    spans = _record_spans(store, monkeypatch)

    def bytes_of(read):
        return sum((24 if s is None else s[1] - s[0]) * 24 * 4 for s in read)

    for bad, error, read, raised_at in (
        (missing, MissingRoiBinding, [(3, 21) if m == 7 else (2, 21) for m in ids], 7),
        (outside, RoiOutOfBounds, [(3, 24)] * len(ids), 1),
    ):
        unused = CpComparison(Predicate(bad, ">", 100))
        lazy = QueryPlan(ids, FilterSpec(BoolOp("or", (everywhere, unused))), verify_all=verify_all)
        spans.clear()
        r = eng.execute(lazy)
        assert r.rows == [(m,) for m in ids]
        # A cold session's first query reads each mask whole, to index it.
        want = [None] * len(ids) if mode == "incremental" and bad is missing else read
        assert spans == want and r.stats.bytes_read == bytes_of(want)
        used = QueryPlan(ids, FilterSpec(BoolOp("or", (unused, everywhere))), verify_all=verify_all)
        spans.clear()
        with pytest.raises(error):
            eng.execute(used)
        assert spans == read[:raised_at]  # masks 1.. up to the first that raises
        first_only = QueryPlan(ids, FilterSpec(BoolOp("and", (
            CpComparison(Predicate(term(), "<", -1)), unused))), verify_all=verify_all)
        spans.clear()
        r = eng.execute(first_only)
        assert r.rows == []
        assert spans == read and r.stats.bytes_read == bytes_of(read)


@pytest.fixture()
def blob_engines(tmp_path):
    """A 20-mask 24x24 blob corpus with its roi table, and an oracle, an
    indexed and an incremental engine over it."""
    d = generate_corpus(tmp_path / "blob", 20, 24, 24, "blob", seed=5)
    store = MaskStore.open(d)
    index = build_index(store, ChiConfig(6, 6, 4))
    engines = (Engine(store, mode="oracle"), Engine(store, index, mode="indexed"),
               Engine(store, IndexStore(index.config), mode="incremental"))
    yield store, load_roi_table(d / "rois.tsv"), engines
    store.close()


def test_division_by_a_count_raises_on_zero_in_every_mode(blob_engines):
    """A count may divide once it is exact; a count of 0 raises, as the
    exact arithmetic would, rather than giving inf and a wrong row."""
    store, rois, engines = blob_engines
    view = "SELECT mask_id FROM MasksDatabaseView WHERE CP(mask, full, (0.0, 1.0)) / "
    zero = planner.plan(sql.parse(view + "CP(mask, full, (0.999, 1.0)) > 1"), store, rois)
    nonzero = planner.plan(sql.parse(view + "CP(mask, full, (0.0, 0.5)) > 1.1"), store, rois)
    assert zero.verify_all and nonzero.verify_all
    rows = []
    for eng in engines:
        with pytest.raises(ZeroDivisionError):
            eng.execute(zero)
        rows.append(eng.execute(nonzero).rows)
    assert rows[0] and rows[1] == rows[0] and rows[2] == rows[0]


def test_row_values_are_python_numbers_in_every_mode(blob_engines):
    """A count selected by a filter comes out as int; a ratio, a ranked
    value and a group value as float. No numpy scalar reaches the rows."""
    store, rois, engines = blob_engines
    view = "FROM MasksDatabaseView"
    cp = "CP(mask, object, (0.5, 1.0))"
    group = "GROUP BY image_id"
    queries = {  # each query's value columns, after its mask id or group key
        f"SELECT mask_id, {cp} AS c {view} WHERE {cp} > 3": (int,),
        f"SELECT mask_id, {cp} AS c, {cp} / area(object) AS r {view} WHERE {cp} > 3": (int, float),
        f"SELECT mask_id, {cp} AS v {view} WHERE {cp} > 3 ORDER BY v DESC LIMIT 5": (float,),
        f"SELECT image_id, AVG({cp}) AS v {view} {group}": (float,),
        f"SELECT image_id, AVG({cp}) AS v {view} {group} ORDER BY v ASC LIMIT 3": (float,),
        f"SELECT image_id, CP(INTERSECT(mask > 0.5), full, (0.5, 1.0)) AS s {view} {group}": (float,),
    }
    for q, kinds in queries.items():
        p = planner.plan(sql.parse(q), store, rois)
        results = [eng.execute(p).rows for eng in engines]
        assert results[0] and results[1] == results[0] and results[2] == results[0], q
        for rows in results:
            assert {tuple(type(v) for v in row[1:]) for row in rows} == {kinds}, q


def test_result_columns_are_the_select_list_in_order(blob_engines):
    """Every shape's columns are its SELECT list, in order: a column is a
    metadata column (in a grouped query the group key) and takes no alias,
    and a top-k or grouped select may list the ranked or aggregated
    expression, under any number of names, and nothing else. Each query
    gives the oracle's rows in every mode."""
    store, rois, engines = blob_engines
    view = "FROM MasksDatabaseView"
    x = "CP(mask, object, (0.5, 1.0))"
    group = "GROUP BY image_id"
    expected = {
        f"SELECT {x} AS v, mask_id {view} ORDER BY v LIMIT 3": ["v", "mask_id"],
        f"SELECT mask_id {view} ORDER BY {x} LIMIT 3": ["mask_id"],
        f"SELECT mask_id, {x} AS v, {x} AS w {view} ORDER BY v LIMIT 3": ["mask_id", "v", "w"],
        f"SELECT mask_id, {x} {view} ORDER BY {x} DESC LIMIT 3": ["mask_id", "value"],
        f"SELECT AVG({x}) AS v {view} {group}": ["v"],
        f"SELECT image_id, AVG({x}) AS v {view} {group}": ["image_id", "v"],
        f"SELECT AVG({x}) AS v, image_id {view} {group} ORDER BY v DESC LIMIT 3": ["v", "image_id"],
        f"SELECT image_id, AVG({x}) AS v, AVG({x}) AS w {view} {group} HAVING w > 3": [
            "image_id", "v", "w"],
        f"SELECT *, {x} {view} WHERE {x} > 3": [
            "mask_id", "image_id", "model_id", "mask_type", "expr4"],
    }
    results = {}
    for text, columns in expected.items():
        p = planner.plan(sql.parse(text), store, rois)
        want = engines[0].execute(p)
        assert want.columns == columns and want.rows, text
        for eng in engines[1:]:
            got = eng.execute(p)
            assert (got.columns, got.rows) == (want.columns, want.rows), (text, eng.mode)
        results[text] = want.rows
    topk = [(m, v) for v, m in results[f"SELECT {x} AS v, mask_id {view} ORDER BY v LIMIT 3"]]
    assert [(m,) for m, _ in topk] == results[f"SELECT mask_id {view} ORDER BY {x} LIMIT 3"]
    assert results[f"SELECT mask_id, {x} AS v, {x} AS w {view} ORDER BY v LIMIT 3"] == [
        (m, v, v) for m, v in topk]
    groups = results[f"SELECT image_id, AVG({x}) AS v {view} {group}"]
    assert results[f"SELECT AVG({x}) AS v {view} {group}"] == [(v,) for _, v in groups]
    assert results[f"SELECT image_id, AVG({x}) AS v, AVG({x}) AS w {view} {group} HAVING w > 3"] == [
        (k, v, v) for k, v in groups if v > 3]
    best = sorted(groups, key=lambda g: (-g[1], g[0]))[:3]
    assert results[f"SELECT AVG({x}) AS v, image_id {view} {group} ORDER BY v DESC LIMIT 3"] == [
        (v, k) for k, v in best]
    # A plain grouped plan that selects no value (the API allows it) computes
    # exact group values only where its HAVING needs them.
    having = planner.plan(sql.parse(f"SELECT image_id, AVG({x}) AS v {view} {group} HAVING v > 3"),
                          store, rois)
    keys_only = QueryPlan(having.target_ids, having.shape, select=(Column("image_id"),))
    for eng in engines:
        with_value, got = eng.execute(having), eng.execute(keys_only)
        assert with_value.rows == [(k, v) for k, v in groups if v > 3]
        assert got.columns == ["image_id"] and got.rows == [(k,) for k, _ in with_value.rows]
    indexed = engines[1]
    assert indexed.execute(keys_only).stats.masks_loaded < indexed.execute(having).stats.masks_loaded

    for text in (
        f"SELECT mask_id AS m, {x} AS v {view} ORDER BY v LIMIT 3",  # an aliased column
        f"SELECT mask_id AS m {view} WHERE {x} > 3",
        f"SELECT image_id AS i, AVG({x}) AS v {view} {group}",
        f"SELECT mask_id, {x} / area(object) AS v {view} ORDER BY {x} LIMIT 3",  # not the ranked one
        f"SELECT image_id, AVG({x}) AS v, CP(mask, full, (0.5, 1.0)) AS w {view} {group}",
        f"SELECT image_id, AVG({x}) AS v, SUM({x}) AS w {view} {group}",
        f"SELECT mask_id, image_id, AVG({x}) AS v {view} {group}",  # not the group key
        f"SELECT *, AVG({x}) AS v {view} {group}",
        f"SELECT mask_id, {x}, {x} {view} ORDER BY {x} LIMIT 3",  # two columns named value
        f"SELECT mask_id, {x} AS mask_id {view} ORDER BY mask_id LIMIT 3",
        f"SELECT mask_id, mask_id {view}",
    ):
        with pytest.raises(PlanError):
            planner.plan(sql.parse(text), store, rois)


def test_every_verify_all_plan_warns(blob_engines):
    """A plan the index cannot bracket verifies every mask and says so, in
    every shape: a top-k plan used to carry no warning."""
    store, rois, engines = blob_engines
    view = "FROM MasksDatabaseView"
    ratio = "CP(mask, object, (0.5, 1.0)) / CP(mask, full, (0.0, 1.0))"
    for text in (
        f"SELECT mask_id {view} WHERE {ratio} > 0.1",
        f"SELECT mask_id, {ratio} AS v {view} ORDER BY v DESC LIMIT 3",
        f"SELECT image_id, AVG({ratio}) AS v {view} GROUP BY image_id ORDER BY v DESC LIMIT 3",
    ):
        p = planner.plan(sql.parse(text), store, rois)
        assert p.verify_all, text
        rows = engines[0].execute(p).rows
        for eng in engines:
            r = eng.execute(p)
            assert r.rows == rows and r.stats.warnings, (text, eng.mode)
    p = planner.plan(sql.parse(f"SELECT mask_id, {ratio} AS v {view} ORDER BY v LIMIT 0"),
                     store, rois)
    r = engines[1].execute(p)
    assert r.rows == [] and r.stats.warnings and r.stats.masks_loaded == 0


def test_grouped_aggregates_that_divide_by_a_count_verify_every_member(tmp_path):
    """An aggregate that divides by a count cannot be bracketed from the
    index: the plan verifies every member, and no cached pseudo-mask index
    brackets it either. Indexed and incremental engines, each run twice so
    that the session indexes and the pseudo-mask cache are warm the second
    time, answer as the oracle does."""
    d = generate_corpus(tmp_path / "blob", 24, 32, 32, "blob", seed=3)
    store = MaskStore.open(d)
    index = build_index(store, ChiConfig(8, 8, 8))
    oracle = Engine(store, mode="oracle")
    engines = (Engine(store, index, mode="indexed"),
               Engine(store, IndexStore(index.config), mode="incremental"))
    view = "FROM MasksDatabaseView GROUP BY image_id"
    over = "CP({m}, ((3,3),(30,29)), (0.05, 1.0))"
    ratio = f"CP(mask, full, (0.5, 1.0)) / {over.format(m='mask')}"
    for text in (
        f"SELECT image_id, AVG({ratio}) AS v {view}",
        f"SELECT image_id, AVG({ratio}) AS v {view} ORDER BY v DESC LIMIT 3",
        f"SELECT image_id, SUM({ratio}) AS v {view} HAVING v > 0.3",
        f"SELECT image_id, CP(MASK_MAX(mask), full, (0.5, 1.0)) / {over.format(m='MASK_MAX(mask)')}"
        f" AS v {view} ORDER BY v DESC LIMIT 3",
    ):
        p = planner.plan(sql.parse(text), store)
        want = oracle.execute(p).rows
        assert want, text
        for rnd in range(2):
            for eng in engines:
                assert eng.execute(p).rows == want, (text, eng.mode, rnd)
        assert p.verify_all, text
    store.close()


def test_grouped_query_may_filter_or_rank_by_an_aggregate_it_does_not_select(blob_engines):
    """Without an aggregate in SELECT, a grouped query takes it from HAVING
    or ORDER BY, and gives the group keys of the query that selects it."""
    store, rois, engines = blob_engines
    group = "FROM MasksDatabaseView GROUP BY image_id"
    avg = "AVG(CP(mask, object, (0.5, 1.0)))"
    pairs = (  # (keys only, the same query selecting the aggregate as v)
        (f"SELECT image_id {group} HAVING {avg} > 40",
         f"SELECT image_id, {avg} AS v {group} HAVING v > 40"),
        (f"SELECT image_id {group} HAVING {avg} > 20 AND 60 > {avg}",
         f"SELECT image_id, {avg} AS v {group} HAVING v > 20 AND 60 > v"),
        (f"SELECT image_id {group} ORDER BY {avg} DESC LIMIT 3",
         f"SELECT image_id, {avg} AS v {group} ORDER BY v DESC LIMIT 3"),
        (f"SELECT image_id {group} HAVING {avg} > 20 ORDER BY {avg} ASC LIMIT 4",
         f"SELECT image_id, {avg} AS v {group} HAVING v > 20 ORDER BY v ASC LIMIT 4"),
    )
    oracle = engines[0]
    for keys_only, selected in pairs:
        p = planner.plan(sql.parse(keys_only), store, rois)
        want = [(k,) for k, _ in oracle.execute(planner.plan(sql.parse(selected), store, rois)).rows]
        assert want and 0 < len(want) < 10, keys_only
        for eng in engines:
            r = eng.execute(p)
            assert r.columns == ["image_id"] and r.rows == want, (keys_only, eng.mode)
    other = "SUM(CP(mask, object, (0.5, 1.0)))"
    for text in (f"SELECT image_id {group}",
                 f"SELECT image_id {group} HAVING {avg} > 3 ORDER BY {other} DESC LIMIT 3",
                 f"SELECT image_id {group} HAVING {avg} > 3 AND {other} > 3"):
        with pytest.raises(PlanError, match="exactly one aggregate"):
            planner.plan(sql.parse(text), store, rois)


# -- counts that the index decides -------------------------------------------------------

CLOSED_ROI = "((5,5),(12,12))"  # Roi(4, 4, 12, 12): whole 4x4 cells
CLOSED_CP = f"CP(mask, {CLOSED_ROI}, (0.5, 1.0))"  # both ends on bin edges


@pytest.fixture()
def closed_engines(tmp_path):
    """24 16x16 masks, two per image, of four pixel values, indexed at 4x4
    cells and 4 bins, so that a count over whole cells and a range on bin
    edges has a bracket of width 0 on every mask; many counts tie. An
    oracle, an indexed and an incremental engine over it."""
    rng = np.random.default_rng(17)
    values = np.array([0.1, 0.3, 0.6, 0.9], dtype=np.float32)
    records = [
        record(rng.choice(values, size=(16, 16)), mask_id=i + 1, image_id=1 + i // 2,
               model_id=1 + i % 2)
        for i in range(24)
    ]
    store = build_store(tmp_path, records)
    index = build_index(store, ChiConfig(4, 4, 4))
    yield store, (Engine(store, mode="oracle"), Engine(store, index, mode="indexed"),
                  Engine(store, IndexStore(index.config), mode="incremental"))
    store.close()


def test_closed_brackets_answer_every_shape_without_loads(closed_engines):
    """Where every bracket has width 0, a top-k, a grouped query and a
    filter that selects a count load no mask, on a prebuilt index and in
    an incremental session once it indexed every mask, and give the
    oracle's rows, ties and AVG values included."""
    store, (oracle, indexed, incremental) = closed_engines
    view, cp = "FROM MasksDatabaseView", CLOSED_CP
    group = f"{view} GROUP BY image_id"
    queries = (
        f"SELECT mask_id, {cp} AS v {view} ORDER BY v DESC",
        f"SELECT mask_id, {cp} AS v {view} ORDER BY v DESC LIMIT 5",
        f"SELECT mask_id, {cp} AS v {view} ORDER BY v ASC LIMIT 7",
        f"SELECT mask_id, {cp} / area({CLOSED_ROI}) AS v {view} ORDER BY v DESC LIMIT 5",
        f"SELECT mask_id, {cp} AS v {view} WHERE {cp} > 30 ORDER BY v ASC LIMIT 5",
        f"SELECT image_id, AVG({cp}) AS v {group} ORDER BY v DESC LIMIT 4",
        f"SELECT image_id, AVG({cp}) AS v {group} ORDER BY v ASC",
        f"SELECT image_id, AVG({cp}) AS v {group} HAVING v > 30",
        f"SELECT mask_id, {cp} AS c {view} WHERE {cp} > 30",
        f"SELECT mask_id, {cp} AS c, {cp} / area({CLOSED_ROI}) AS r {view} WHERE {cp} > 30",
    )
    ties = 0
    for q in queries:
        p = planner.plan(sql.parse(q), store)
        want = oracle.execute(p)
        assert want.rows and want.stats.counts_from_index == 0, q
        incremental.execute(p)  # indexes every mask it reads
        for eng in (indexed, incremental):
            r = eng.execute(p)
            assert r.rows == want.rows, (q, eng.mode)
            assert r.stats.masks_loaded == 0 and r.stats.counts_from_index > 0, (q, eng.mode)
        values = [row[1] for row in want.rows]
        ties += len(values) - len(set(values))
    assert ties > 0


def test_a_pseudo_mask_bracket_is_not_kept_for_its_lowest_member(closed_engines):
    """A cached MASK_AGG pseudo-mask index brackets its group through the
    lowest member's roi, with width 0 here. That count is the pseudo-mask's:
    a later scalar aggregate or top-k on the same term, in the same engine,
    still counts each member's own pixels."""
    store, (oracle, indexed, incremental) = closed_engines
    group = "FROM MasksDatabaseView GROUP BY image_id"
    mask_max = planner.plan(sql.parse(
        f"SELECT image_id, CP(MASK_MAX(mask), {CLOSED_ROI}, (0.5, 1.0)) AS v {group} "
        "ORDER BY v DESC LIMIT 3"), store)
    pseudo = dict(oracle.execute(mask_max).rows)
    later = [planner.plan(sql.parse(q), store) for q in (
        f"SELECT image_id, AVG({CLOSED_CP}) AS v {group} ORDER BY v DESC LIMIT 3",
        f"SELECT image_id, MIN({CLOSED_CP}) AS v {group} ORDER BY v DESC LIMIT 3",
        f"SELECT image_id, AVG({CLOSED_CP}) AS v {group}",
        f"SELECT mask_id, {CLOSED_CP} AS v FROM MasksDatabaseView ORDER BY v DESC LIMIT 3",
    )]
    avg = dict(oracle.execute(later[2]).rows)
    assert any(pseudo[k] != avg[k] for k in pseudo)  # the trap can bite
    for eng in (indexed, incremental):
        for _ in range(2):  # the second run brackets from the cached pseudo-mask indexes
            assert eng.execute(mask_max).rows == oracle.execute(mask_max).rows
        assert eng._agg_chi_cache
        for p in later:
            assert eng.execute(p).rows == oracle.execute(p).rows, eng.mode


# -- determinism -----------------------------------------------------------------------


def test_differential_fuzz_all_shapes(tmp_path):
    rng = np.random.default_rng(71)
    records = [
        record(
            rng.random((20, 20), dtype=np.float32),
            mask_id=i + 1,
            image_id=1 + i // 2,
            model_id=1 + i % 2,
        )
        for i in range(30)
    ]
    store = build_store(tmp_path / "fuzz", records)
    index = build_index(store, ChiConfig(5, 5, 4))
    eng = Engine(store, index, mode="indexed")
    oracle = Engine(store, mode="oracle")
    ids = store.mask_ids()
    for trial in range(60):
        roi = random_roi_in(rng, 20, 20)
        vr = random_range(rng)
        t = CpTerm(RoiBinding.constant(roi), vr)
        kind = trial % 3
        if kind == 0:
            threshold = int(rng.integers(0, roi.area + 1))
            comparator = ">" if rng.integers(2) else "<"
            plan = QueryPlan(ids, FilterSpec(CpComparison(Predicate(t, comparator, threshold))))
        elif kind == 1:
            plan = QueryPlan(ids, TopKSpec(t, int(rng.integers(1, 10)), bool(rng.integers(2))))
        else:
            fn = str(rng.choice(["SUM", "AVG", "MIN", "MAX"]))
            plan = QueryPlan(
                ids, AggSpec("image_id", ScalarAggSpec(fn, t), None, bool(rng.integers(2)), 5)
            )
        r1, r2 = eng.execute(plan), oracle.execute(plan)
        assert r1.rows == r2.rows, f"trial {trial}"
    store.close()


def test_expression_predicate_with_difference(engines):
    store, eng, oracle = engines
    ids = store.mask_ids()
    diff = BinOp("-", term(), CpTerm(RoiBinding.constant(Roi(0, 0, 12, 12)), ValueRange(0.2, 0.6)))
    p = QueryPlan(ids, FilterSpec(CpComparison(Predicate(diff, ">", 10))))
    assert eng.execute(p).rows == oracle.execute(p).rows


# -- row spans -------------------------------------------------------------------------


def _record_spans(store, monkeypatch) -> list:
    spans = []
    get_mask = store.get_mask

    def recording(m, out=None, rows=None):
        spans.append(rows)
        return get_mask(m, out=out, rows=rows)

    monkeypatch.setattr(store, "get_mask", recording)
    return spans


TOP = term(Roi(2, 1, 20, 5))
BOTTOM = term(Roi(4, 17, 22, 23), ValueRange(0.2, 0.6))


@pytest.mark.parametrize("shape", ["or", "and", "difference", "select", "topk"])
def test_count_terms_on_disjoint_row_bands_read_their_union(engines, monkeypatch, shape):
    store, eng, oracle = engines
    ids = store.mask_ids()
    top, bottom = CpComparison(Predicate(TOP, ">", 28)), CpComparison(Predicate(BOTTOM, "<", 40))
    plan = {
        "or": QueryPlan(ids, FilterSpec(BoolOp("or", (top, bottom)))),
        "and": QueryPlan(ids, FilterSpec(BoolOp("and", (top, bottom)))),
        "difference": QueryPlan(ids, FilterSpec(
            CpComparison(Predicate(BinOp("-", TOP, BOTTOM), ">", -10)))),
        "select": QueryPlan(ids, FilterSpec(top), select=(Column("mask_id"), ExprItem("v", BOTTOM))),
        "topk": QueryPlan(ids, TopKSpec(BinOp("+", TOP, BOTTOM), 5, True)),
    }[shape]
    spans = _record_spans(store, monkeypatch)
    got, want = eng.execute(plan), oracle.execute(plan)
    assert got.rows == want.rows
    assert got.stats.masks_loaded > 0
    assert set(spans) == {(1, 23)}  # one read per mask, rows 1..23 of 24
    for stats in (got.stats, want.stats):
        assert stats.bytes_read == stats.masks_loaded * 22 * 24 * 4


def test_mask_aggregates_and_masks_indexed_on_the_spot_read_whole(engines, monkeypatch):
    store, eng, oracle = engines
    ids = store.mask_ids()
    spans = _record_spans(store, monkeypatch)
    agg = QueryPlan(ids, AggSpec("image_id", MaskAggSpec(MaskAggregate("min"), TOP), None, True, 3))
    assert eng.execute(agg).rows == oracle.execute(agg).rows
    assert set(spans) == {None}
    spans.clear()
    inc = Engine(store, IndexStore(eng.index_store.config), mode="incremental")
    cold = inc.execute(filter_plan(ids, 130, t=TOP))  # no index yet: every mask loads whole
    assert spans == [None] * len(ids) and cold.stats.bytes_read == len(ids) * 24 * 24 * 4
    spans.clear()
    warm = inc.execute(filter_plan(ids, 130, t=TOP))
    assert warm.rows == cold.rows and set(spans) <= {(1, 5)}
    assert warm.stats.bytes_read == warm.stats.masks_loaded * 4 * 24 * 4
