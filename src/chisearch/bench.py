"""Multi-query workload generation and the benchmark driver.

Workloads model a user exploring a corpus: each query targets a random
subset of masks, and a ``p_seen`` knob controls how much of each target
set re-visits masks touched by earlier queries. Target sampling follows
the seen/unseen pool scheme: draw the unseen share from the unseen pool
until it runs dry, then fall back to seen-only sampling.

The driver runs a workload under one or more engine modes, each query in
every mode in turn, and measures wall time and load counts per query.
True cold-cache timing is not portably scriptable, so the store is
reopened for every query as an approximation; absolute times are
therefore indicative, while load counts are exact. Reports carry this
caveat in their header.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import stats as scipy_stats

from .chi import ChiConfig, IndexStore, build_chi, persist_index
from .executor import (
    AggSpec,
    CpComparison,
    Engine,
    FilterSpec,
    Predicate,
    QueryPlan,
    ScalarAggSpec,
    TopKSpec,
)
from .bounds import CpTerm
from .store import MaskStore, Roi, RoiBinding, ValueRange
from .corpus import random_roi

MODES = ("indexed", "incremental", "oracle")

PAGE_CACHE_NOTE = (
    "store reopened per query; OS page cache not cleared, times are indicative"
)


@dataclass(frozen=True)
class WorkloadSpec:
    n_queries: int = 200
    p_seen: float = 0.5
    seed: int = 0
    types: tuple = ("filter",)  # drawn uniformly per query
    target_fractions: tuple = (0.1, 0.2, 0.3)
    k: int = 25

    def __post_init__(self):
        if not 0.0 <= self.p_seen <= 1.0:
            raise ValueError("p_seen must be in [0, 1]")
        for t in self.types:
            if t not in ("filter", "topk", "aggregation"):
                raise ValueError(f"unknown query type {t!r}")


@dataclass
class WorkloadQuery:
    qid: int
    qtype: str
    plan: QueryPlan
    digest: str


_LEVELS = [round(0.1 * i, 1) for i in range(1, 10)]  # 0.1 .. 0.9


def _value_range(rng: np.random.Generator) -> ValueRange:
    lo, hi = sorted(rng.choice(len(_LEVELS), size=2, replace=False))
    return ValueRange(_LEVELS[lo], _LEVELS[hi])


def _digest(*parts) -> str:
    text = "|".join(str(p) for p in parts)
    return hashlib.sha1(text.encode()).hexdigest()[:12]


def generate_workload(
    spec: WorkloadSpec,
    store: MaskStore,
    roi_table: dict[int, Roi],
) -> list[WorkloadQuery]:
    """Deterministic query list for one corpus; identical for identical inputs."""
    rng = np.random.default_rng(spec.seed)
    all_ids = np.array(sorted(store.mask_ids()))
    n_total = len(all_ids)
    entry = store.get_meta(int(all_ids[0]))
    width, height = entry.width, entry.height

    seen: set[int] = set()
    queries: list[WorkloadQuery] = []
    for qid in range(spec.n_queries):
        frac = float(rng.choice(spec.target_fractions))
        n = max(1, round(frac * n_total))
        targets = _sample_targets(rng, all_ids, seen, n, spec.p_seen)
        seen.update(targets)

        qtype = str(rng.choice(spec.types))
        if qtype == "filter":
            vr = _value_range(rng)
            t = int(rng.integers(0, width * height + 1))
            term = CpTerm(RoiBinding.per_mask(roi_table), vr)
            plan = QueryPlan(targets, FilterSpec(CpComparison(Predicate(term, ">", t))))
            digest = _digest("filter", vr.lo, vr.hi, t, len(targets), qid)
        elif qtype == "topk":
            vr = _value_range(rng)
            roi = random_roi(rng, width, height)
            descending = bool(rng.integers(0, 2))
            term = CpTerm(RoiBinding.constant(roi), vr)
            plan = QueryPlan(targets, TopKSpec(term, spec.k, descending))
            digest = _digest("topk", roi, vr.lo, vr.hi, descending, len(targets), qid)
        else:
            vr = _value_range(rng)
            roi = random_roi(rng, width, height)
            descending = bool(rng.integers(0, 2))
            term = CpTerm(RoiBinding.constant(roi), vr)
            plan = QueryPlan(
                targets,
                AggSpec("image_id", ScalarAggSpec("AVG", term), None, descending, spec.k),
            )
            digest = _digest("agg", roi, vr.lo, vr.hi, descending, len(targets), qid)
        queries.append(WorkloadQuery(qid, qtype, plan, digest))
    return queries


def _sample_targets(
    rng: np.random.Generator,
    all_ids: np.ndarray,
    seen: set[int],
    n: int,
    p_seen: float,
) -> list[int]:
    seen_pool = np.array(sorted(seen), dtype=all_ids.dtype)
    unseen_pool = np.setdiff1d(all_ids, seen_pool)
    n = min(n, len(all_ids))
    want_seen = round(n * p_seen)
    want_unseen = n - want_seen
    # Pool exhaustion: spill the shortfall onto the other pool.
    if want_unseen > len(unseen_pool):
        want_seen += want_unseen - len(unseen_pool)
        want_unseen = len(unseen_pool)
    if want_seen > len(seen_pool):
        want_unseen = min(len(unseen_pool), want_unseen + want_seen - len(seen_pool))
        want_seen = len(seen_pool)
    picks = []
    if want_seen:
        picks.append(rng.choice(seen_pool, size=want_seen, replace=False))
    if want_unseen:
        picks.append(rng.choice(unseen_pool, size=want_unseen, replace=False))
    return sorted(int(i) for i in np.concatenate(picks))


@dataclass
class BenchRow:
    qid: int
    qtype: str
    digest: str
    mode: str
    masks_targeted: int
    masks_pruned: int
    masks_accepted_directly: int
    masks_loaded: int
    fml: float
    wall_s: float
    cumulative_s: float

    FIELDS = (
        "qid", "qtype", "digest", "mode", "masks_targeted", "masks_pruned",
        "masks_accepted_directly", "masks_loaded", "fml", "wall_s", "cumulative_s",
    )

    def tsv(self) -> str:
        return "\t".join(str(getattr(self, f)) for f in self.FIELDS)


@dataclass
class BenchReport:
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def write_tsv(self, path: str | Path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"# {PAGE_CACHE_NOTE}\n")
            fh.write("\t".join(BenchRow.FIELDS) + "\n")
            for row in self.rows:
                fh.write(row.tsv() + "\n")

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.summary, indent=2, sort_keys=True))


def run_workload(
    store_dir: str | Path,
    queries: list[WorkloadQuery],
    modes: tuple = ("indexed", "oracle"),
    *,
    config: ChiConfig | None = None,
    session_index_path: str | Path | None = None,
) -> BenchReport:
    """Run one workload under each mode; every query reopens the store.

    Each mode keeps its own engine, index store and running total, and the
    modes take each query in turn, so a slow stretch of the host lands on
    every mode alike rather than on one mode's total."""
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
    store_dir = Path(store_dir)
    report = BenchReport()
    report.summary["note"] = PAGE_CACHE_NOTE
    report.summary["modes"] = {}
    # Collect now and freeze what survives, so the timed loop's collections
    # scan only its own objects: a full collection of the caller's heap
    # costs tens of ms, and where one lands would decide a mode's total.
    gc.collect()
    gc.freeze()
    try:
        runs = [_ModeRun(store_dir, mode, config) for mode in modes]
        for q in queries:
            for run in runs:
                run.query(q)
        for run in runs:
            if run.mode == "incremental" and session_index_path is not None:
                persist_index(run.index_store, session_index_path)
    finally:
        gc.unfreeze()
    for run in runs:
        rows = run.rows
        report.rows.extend(rows)
        walls = [r.wall_s for r in rows if r.qid >= 0]
        loads = [r.masks_loaded for r in rows if r.qid >= 0]
        mode_summary = {
            "total_s": rows[-1].cumulative_s if rows else 0.0,
            "median_query_s": float(np.median(walls)) if walls else 0.0,
            "total_loads": int(np.sum(loads)) if loads else 0,
            # Cumulative total time after each query; any up-front index
            # build is folded into every entry, mirroring a 0-th query.
            "cumulative_s": [r.cumulative_s for r in rows if r.qid >= 0],
        }
        if len(set(loads)) > 1 and len(set(walls)) > 1:
            rho = scipy_stats.spearmanr(loads, walls).statistic
            mode_summary["loads_time_rank_correlation"] = float(rho)
        report.summary["modes"][run.mode] = mode_summary
    pair = ("incremental", "indexed")
    if all(m in report.summary["modes"] for m in pair):
        inc = report.summary["modes"]["incremental"]["cumulative_s"]
        idx = report.summary["modes"]["indexed"]["cumulative_s"]
        n = min(len(inc), len(idx))
        report.summary["cumulative_ratio_incremental_vs_indexed"] = [
            inc[i] / idx[i] if idx[i] > 0 else 0.0 for i in range(n)
        ]
    return report


class _ModeRun:
    """One mode's engine, index store, rows and running total. Indexed mode
    builds every mask's index up front, reported as a pseudo-row with qid -1."""

    def __init__(self, store_dir: Path, mode: str, config: ChiConfig | None):
        self.store_dir, self.mode = store_dir, mode
        self.rows: list[BenchRow] = []
        self.cumulative = 0.0
        self.index_store = self.engine = None
        if mode == "oracle":
            return
        if config is None:
            raise ValueError(f"mode {mode!r} needs an index config")
        self.index_store = IndexStore(config)
        if mode == "indexed":
            t0 = time.perf_counter()
            with MaskStore.open(store_dir) as store:
                for mid in store.mask_ids():
                    self.index_store.insert(build_chi(store.get_mask(mid), config))
            build_s = time.perf_counter() - t0
            self.cumulative += build_s
            self.rows.append(
                BenchRow(-1, "index-build", "-", mode, 0, 0, 0, 0, 0.0, build_s, self.cumulative)
            )

    def query(self, q: WorkloadQuery) -> None:
        store = MaskStore.open(self.store_dir)
        try:
            if self.engine is None:
                self.engine = Engine(store, self.index_store, mode=self.mode)
            else:
                self.engine.store = store
            t0 = time.perf_counter()
            result = self.engine.execute(q.plan)
            wall = time.perf_counter() - t0
        finally:
            store.close()
        self.cumulative += wall
        s = result.stats
        self.rows.append(
            BenchRow(
                q.qid, q.qtype, q.digest, self.mode,
                s.masks_targeted, s.masks_pruned, s.masks_accepted_directly,
                s.masks_loaded, round(s.fml, 6), wall, self.cumulative,
            )
        )
