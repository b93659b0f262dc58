"""Run one workload: generate, set up, measure a closed loop, check, report.

One client in one process sends the next query only when the previous one
has returned (``threads=1``). Every query goes through the public API as
SQL text: ``sql.parse`` -> ``planner.plan`` -> ``executor.Engine.execute``.
Every answer is compared row for row with ``Engine(mode="oracle")``, whose
answers are computed once per distinct query after the timed windows, so
that neither its time nor its memory shows in the figures.
"""

from __future__ import annotations

import ctypes
import gc
import os
import resource
import shutil
import statistics
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from chisearch import chi, executor, planner, sql, store

import tracer as tr
import workloads

WORK = Path(__file__).resolve().parent / ".work"
SETUP_REPS = 3  # setup_s is their median
SETTLE_EVERY_S = 0.2  # how often the loop re-chooses its CPU

# Declared in BENCHMARK.json, so in the JSON result line.
END_TO_END = {
    "query_ms_p50": "ms",
    "queries_per_s": "1/s",
    "filter_ms_mean": "ms",
    "topk_ms_mean": "ms",
    "agg_ms_mean": "ms",
    "masks_loaded_per_query": "count",
    "setup_s": "s",
    "index_bytes_per_mask_byte": "ratio",
    "peak_rss_mb": "MB",
}

# Printed with the end-to-end metrics but not declared: each is decided by a
# few queries whose cost moves with the seed (see README, "Noise").
END_TO_END_PRINTED = {
    "query_ms_p90": "ms",
    "filter_ms_p50": "ms",
    "topk_ms_p50": "ms",
    "agg_ms_p50": "ms",
}

PER_LAYER = {
    "sql.parse_ms": "ms",
    "planner.plan_ms": "ms",
    "planner.targets_per_query": "count",
    "planner.verify_all_plans": "count",
    "executor.execute_ms": "ms",
    "executor.filter_ms": "ms",
    "executor.verify_ms": "ms",
    "executor.self_ms": "ms",
    "executor.fml": "ratio",
    "executor.masks_pruned_per_query": "count",
    "executor.masks_accepted_per_query": "count",
    "executor.load_yield": "ratio",
    "store.open_ms": "ms",
    "store.get_mask_calls": "count",
    "store.get_mask_us": "us",
    "store.bytes_read_per_query": "bytes",
    "store.cp_exact_calls": "count",
    "store.cp_exact_us": "us",
    "chi.build_calls": "count",
    "chi.build_us": "us",
    "chi.insert_calls": "count",
    "chi.persist_ms": "ms",
    "chi.load_ms": "ms",
    "chi.index_bytes": "bytes",
    "bounds.cp_bounds_calls": "count",
    "bounds.cp_bounds_us": "us",
    "bounds.expr_bounds_calls": "count",
    "bounds.expr_bounds_us": "us",
    "bounds.bound_scalar_agg_us": "us",
    "trace.overhead_frac": "ratio",
}


def pin_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at its documented starting value, 128 KiB.

    Each ``get_mask`` returns a fresh buffer of about 200 KB. By default
    glibc moves its mmap and trim thresholds as blocks are freed, so whether
    those buffers are mapped, kept on the heap or trimmed and faulted in
    again depends on incidental heap layout. The tracer's span list alone
    switches the regime, and with it the cost per query. Setting the
    threshold turns the adjustment off: every such buffer is mapped and
    unmapped, as in a fresh process, on every run alike.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc: nothing to pin
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_mmap_threshold = -3
    mallopt(m_mmap_threshold, 128 * 1024)


class CpuPicker:
    """Keeps the process on whichever allowed CPU runs a fixed loop fastest.

    On a shared 2-vCPU VM, each vCPU slows by up to 50% while a neighbour
    loads its physical core, for stretches of a second to a minute, and the
    vCPUs do so independently: most of the time one runs at full speed. Every
    ``settle`` pins the process to the CPU on which a short pure-Python probe
    ran fastest just now. The probe and the move happen between queries,
    outside every timed interval; a query's time is still all its own.
    """

    def __init__(self):
        try:
            self.cpus = sorted(os.sched_getaffinity(0))
        except AttributeError:  # no CPU affinity on this platform
            self.cpus = []
        self.last = -SETTLE_EVERY_S

    def settle(self, force: bool = False) -> None:
        now = time.perf_counter()
        if len(self.cpus) < 2 or (not force and now - self.last < SETTLE_EVERY_S):
            return
        timings = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            timings.append((min(_probe(), _probe()), cpu))
        os.sched_setaffinity(0, {min(timings)[1]})
        self.last = time.perf_counter()

    def release(self) -> None:
        if len(self.cpus) >= 2:
            os.sched_setaffinity(0, self.cpus)


def _probe() -> float:
    """Seconds a fixed pure-Python loop of about a millisecond takes here."""
    t0 = time.perf_counter()
    total = 0
    for i in range(15_000):
        total += i * i
    return time.perf_counter() - t0


@dataclass
class Sample:
    index: int  # position in Workload.queries
    shape: str
    seconds: float
    targets: int = 0
    verify_all: bool = False
    stats: executor.ExecStats | None = None
    result_ids: frozenset | None = None  # kept in traced windows only


@dataclass
class Window:
    samples: list
    seconds: float

    def best(self) -> dict[int, float]:
        """Each distinct query's fastest execution in the window, in seconds.

        Other tenants of a shared host slow a VM by up to 60% for stretches
        of seconds to minutes. Each query runs once per pass, and the passes
        are spread over the window, so its fastest execution is the one least
        disturbed.
        """
        best: dict[int, float] = {}
        for s in self.samples:
            best[s.index] = min(s.seconds, best.get(s.index, s.seconds))
        return best

    @property
    def qps(self) -> float:
        """One client's closed-loop rate at each query's best time."""
        best = self.best()
        return len(best) / sum(best.values())


class Answers:
    """Distinct answers seen per query, with how often each was returned."""

    def __init__(self):
        self.seen: dict[int, list] = defaultdict(list)  # index -> [[rows, count]]
        self.errors: list[tuple[int, str]] = []
        self.attempted = 0

    def record(self, index: int, rows) -> None:
        self.attempted += 1
        for entry in self.seen[index]:
            if entry[0] == rows:
                entry[1] += 1
                return
        self.seen[index].append([rows, 1])

    def fail(self, index: int, exc: Exception) -> None:
        self.attempted += 1
        self.errors.append((index, traceback.format_exception_only(exc)[-1].strip()))

    def check(self, env: "Env", queries: list) -> int:
        """Executions that raised or disagreed with the oracle."""
        oracle = executor.Engine(env.store, None, mode="oracle", threads=1)
        failed = len(self.errors)
        for index, answers in sorted(self.seen.items()):
            q = queries[index]
            expected = oracle.execute(planner.plan(sql.parse(q.sql), env.store, env.rois)).rows
            failed += sum(n for rows, n in answers if rows != expected)
        return failed


@dataclass
class Env:
    store: store.MaskStore
    rois: dict
    index: chi.IndexStore
    config: chi.ChiConfig
    setup_s: float
    index_bytes: bytes
    session_path: Path
    cpu: CpuPicker
    index_mismatches: int = 0


def set_up(
    corpus_dir: Path, run_dir: Path, config: chi.ChiConfig, reps: int, cpu: CpuPicker
) -> Env:
    """Open the store, build the full index, persist and reload it; ``reps`` times."""
    index_path = run_dir / "full.chi"
    times = []
    st = None
    for _ in range(reps):
        if st is not None:
            st.close()
        cpu.settle(force=True)
        t0 = time.perf_counter()
        st = store.MaskStore.open(corpus_dir)
        rois = store.load_roi_table(corpus_dir / "rois.tsv")
        built = chi.IndexStore(config)
        for mask_id in st.mask_ids():
            built.insert(chi.build_chi(st.get_mask(mask_id), config))
        chi.persist_index(built, index_path)
        index = chi.load_index(index_path)
        times.append(time.perf_counter() - t0)
    return Env(
        st, rois, index, config, statistics.median(times),
        index_path.read_bytes(), run_dir / "session.chi", cpu,
    )


def measure(
    env: Env,
    wl: workloads.Workload,
    seconds: float,
    answers: Answers,
    tracer: tr.Tracer | None = None,
) -> Window:
    """Closed loop of whole passes over the query list until ``seconds`` have passed.

    Every query so runs equally often. An indexed pass reuses one engine on
    the prebuilt index; an incremental pass starts from an empty index and
    persists it at the end, where it must equal the prebuilt index file.
    """
    samples: list[Sample] = []
    engine = None
    gc.collect()
    t_start = time.perf_counter()
    while not samples or time.perf_counter() - t_start < seconds:
        if wl.mode == "incremental":
            session = chi.IndexStore(env.config)
            engine = executor.Engine(env.store, session, mode="incremental", threads=1)
        elif engine is None:
            engine = executor.Engine(env.store, env.index, mode="indexed", threads=1)
        for i, q in enumerate(wl.queries):
            samples.append(_run_query(env, engine, i, q, answers, tracer, len(samples)))
        if wl.mode == "incremental":
            chi.persist_index(session, env.session_path)
            if env.session_path.read_bytes() != env.index_bytes:
                env.index_mismatches += 1
    return Window(samples, time.perf_counter() - t_start)


def _run_query(env, engine, index, q, answers, tracer, qid) -> Sample:
    env.cpu.settle()
    if tracer is not None:
        tracer.qid = qid
    t0 = time.perf_counter()
    try:
        query_plan = planner.plan(sql.parse(q.sql), env.store, env.rois)
        result = engine.execute(query_plan)
    except Exception as exc:  # a failed query is counted, and the loop goes on
        result = exc
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.qid = None
    if isinstance(result, Exception):
        answers.fail(index, result)
        return Sample(index, q.shape, seconds)
    answers.record(index, result.rows)
    ids = None
    if tracer is not None and q.shape != "agg":
        ids = frozenset(row[0] for row in result.rows)
    return Sample(
        index, q.shape, seconds, len(query_plan.target_ids), query_plan.verify_all,
        result.stats, ids,
    )


@dataclass
class Report:
    workload: str
    correct: bool
    attempted: int
    failed: int
    checked: int  # distinct queries whose answers were compared with the oracle
    metrics: dict  # name -> (value, unit)
    printed: dict  # name -> (value, unit): shown, not in the JSON result
    errors: list  # (query index, message) of the queries that raised

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: workloads.Scale = workloads.FULL,
) -> Report:
    wl = workloads.build(name, seed, scale)
    run_dir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = None
    cpu = CpuPicker()
    try:
        corpus_dir = run_dir / "corpus"
        workloads.make_corpus(corpus_dir, wl.dims, scale.images, seed)
        answers = Answers()
        tracer = tr.Tracer() if trace else None
        with tr.installed(tracer) if trace else nullcontext():
            env = set_up(corpus_dir, run_dir, scale.config, SETUP_REPS, cpu)
        if trace:
            plain = measure(env, wl, seconds / 2, answers)
            with tr.installed(tracer):
                traced = measure(env, wl, seconds / 2, answers, tracer)
            metrics, printed = layer_metrics(env, wl, tracer, plain, traced), {}
            tracer.write_tsv(WORK / f"trace-{name}.tsv")
        else:
            window = measure(env, wl, seconds, answers)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics, printed = end_to_end_metrics(env, wl, window, peak_rss_mb)
        failed = answers.check(env, wl.queries)
        return Report(
            name,
            failed == 0 and env.index_mismatches == 0,
            answers.attempted,
            failed,
            len(answers.seen),
            metrics,
            printed,
            answers.errors,
        )
    finally:
        cpu.release()
        if env is not None:
            env.store.close()
        shutil.rmtree(run_dir, ignore_errors=True)


def end_to_end_metrics(
    env: Env, wl: workloads.Workload, window: Window, peak_rss_mb: float
) -> tuple[dict, dict]:
    """Latencies over the distinct queries' best times; counts over one pass.

    Returns the declared metrics and the printed-only ones.
    """
    best = window.best()
    ms = [best[i] * 1e3 for i in range(len(wl.queries))]
    by_shape = defaultdict(list)
    for q, t in zip(wl.queries, ms):
        by_shape[q.shape].append(t)
    first_pass = window.samples[: len(wl.queries)]
    payload = sum(e.nbytes for e in env.store.entries())
    values = {
        "query_ms_p50": quantile(ms, 0.5),
        "query_ms_p90": quantile(ms, 0.9),
        "queries_per_s": window.qps,
        **{f"{shape}_ms_mean": statistics.mean(t) for shape, t in by_shape.items()},
        **{f"{shape}_ms_p50": quantile(t, 0.5) for shape, t in by_shape.items()},
        "masks_loaded_per_query": _mean(s.stats.masks_loaded for s in first_pass if s.stats),
        "setup_s": env.setup_s,
        "index_bytes_per_mask_byte": len(env.index_bytes) / payload,
        "peak_rss_mb": peak_rss_mb,
    }
    return (
        {k: (values[k], unit) for k, unit in END_TO_END.items()},
        {k: (values[k], unit) for k, unit in END_TO_END_PRINTED.items()},
    )


def quantile(values, p: float) -> float:
    """The Harrell-Davis estimate of the ``p`` quantile.

    It weighs the sorted values by how much of a Beta(p(n+1), (1-p)(n+1))
    density falls on each 1/n of [0, 1], so the estimate rests on the queries
    around the quantile rather than on the one or two next to it. Over 108
    queries its median moved about half as much from seed to seed as the
    sample median did. The density is summed on a fine grid here rather than
    taken from scipy, whose import would add 25-70 MB to ``peak_rss_mb``.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n, steps = len(x), 64
    a, b = p * (n + 1), (1 - p) * (n + 1)
    u = (np.arange(n * steps) + 0.5) / (n * steps)
    log_pdf = (a - 1) * np.log(u) + (b - 1) * np.log1p(-u)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, steps).sum(axis=1)
    return float(weights @ x / weights.sum())


def layer_metrics(
    env: Env, wl: workloads.Workload, tracer: tr.Tracer, plain: Window, traced: Window
) -> dict:
    """Per-layer figures from the traced window's spans.

    Counts are per query over the first pass of the query list, so they
    repeat exactly for a seed. Times are means per call (``_us``) or per
    query (``_ms``) over the whole traced window; set-up spans count for the
    layers that only work during set-up (open, build, persist, load).
    """
    spans = tracer.spans
    n_pass = len(wl.queries)
    by_name = defaultdict(list)
    child_ns = defaultdict(int)
    for sid, sp in enumerate(spans):
        by_name[sp[tr.NAME]].append((sid, sp))
        if sp[tr.PARENT] >= 0:
            child_ns[sp[tr.PARENT]] += sp[tr.END] - sp[tr.START]

    def in_pass(sp) -> bool:
        return sp[tr.QID] is not None and sp[tr.QID] < n_pass

    def per_query(name: str) -> float:
        return sum(1 for _, sp in by_name[name] if in_pass(sp)) / n_pass

    def mean_ns(name: str, queries_only: bool = False) -> float:
        durs = [
            sp[tr.END] - sp[tr.START]
            for _, sp in by_name[name]
            if not queries_only or sp[tr.QID] is not None
        ]
        return _mean(durs)

    executes = [(sid, sp) for sid, sp in by_name["executor.execute"] if sp[tr.QID] is not None]
    self_ns = [sp[tr.END] - sp[tr.START] - child_ns[sid] for sid, sp in executes]

    loaded = defaultdict(set)  # qid -> mask ids read in the first pass
    for _, sp in by_name["store.get_mask"]:
        if in_pass(sp):
            loaded[sp[tr.QID]].add(sp[tr.ARG])
    bytes_read = sum(
        env.store.get_meta(mid).nbytes for mids in loaded.values() for mid in mids
    )
    first_pass = traced.samples[:n_pass]
    useful = total = 0
    for qid, s in enumerate(first_pass):
        if s.result_ids is not None:
            useful += len(loaded[qid] & s.result_ids)
            total += len(loaded[qid])
    stats = [s.stats for s in traced.samples if s.stats is not None]
    pass_stats = [s.stats for s in first_pass if s.stats is not None]

    values = {
        "sql.parse_ms": mean_ns("sql.parse", True) / 1e6,
        "planner.plan_ms": mean_ns("planner.plan", True) / 1e6,
        "planner.targets_per_query": _mean(s.targets for s in first_pass),
        "planner.verify_all_plans": sum(1 for s in first_pass if s.verify_all),
        "executor.execute_ms": mean_ns("executor.execute", True) / 1e6,
        "executor.filter_ms": _mean(st.phases["filter"] for st in stats) * 1e3,
        "executor.verify_ms": _mean(st.phases["verify"] for st in stats) * 1e3,
        "executor.self_ms": _mean(self_ns) / 1e6,
        "executor.fml": _mean(st.fml for st in pass_stats),
        "executor.masks_pruned_per_query": _mean(st.masks_pruned for st in pass_stats),
        "executor.masks_accepted_per_query": _mean(
            st.masks_accepted_directly for st in pass_stats
        ),
        "executor.load_yield": useful / total if total else 0.0,
        "store.open_ms": mean_ns("store.open") / 1e6,
        "store.get_mask_calls": per_query("store.get_mask"),
        "store.get_mask_us": mean_ns("store.get_mask", True) / 1e3,
        "store.bytes_read_per_query": bytes_read / n_pass,
        "store.cp_exact_calls": per_query("store.cp_exact"),
        "store.cp_exact_us": mean_ns("store.cp_exact") / 1e3,
        "chi.build_calls": per_query("chi.build_chi"),
        "chi.build_us": mean_ns("chi.build_chi") / 1e3,
        "chi.insert_calls": per_query("chi.insert"),
        "chi.persist_ms": mean_ns("chi.persist_index") / 1e6,
        "chi.load_ms": mean_ns("chi.load_index") / 1e6,
        "chi.index_bytes": len(env.index_bytes),
        "bounds.cp_bounds_calls": per_query("bounds.cp_bounds"),
        "bounds.cp_bounds_us": mean_ns("bounds.cp_bounds") / 1e3,
        "bounds.expr_bounds_calls": per_query("bounds.expr_bounds"),
        "bounds.expr_bounds_us": mean_ns("bounds.expr_bounds") / 1e3,
        "bounds.bound_scalar_agg_us": mean_ns("bounds.bound_scalar_agg") / 1e3,
        "trace.overhead_frac": 1.0 - traced.qps / plain.qps,
    }
    return {k: (values[k], unit) for k, unit in PER_LAYER.items()}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
