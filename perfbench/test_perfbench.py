"""The benchmark's own tests, on a tiny corpus.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chisearch import executor

import harness
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def run_tiny(capsys, *args):
    assert run.main([*args, "--seconds", "0.2"], scale=workloads.TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [line.split("\t") for line in lines[:-1]]
    return rows, json.loads(lines[-1])


def printed(rows) -> dict:
    return {(r[0], r[1]): (float(r[2]), r[3]) for r in rows}


def test_benchmark_json_lists_runnable_workloads():
    assert NAMES and set(NAMES) <= set(workloads.WORKLOADS)


def test_full_size_workloads_have_a_hundred_queries():
    # p90 over the queries' best times needs ten queries above it.
    for name in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            assert len(workloads.build(name, seed, workloads.FULL).queries) >= 100


@pytest.mark.parametrize("n", [36, 108, 125])
@pytest.mark.parametrize("p", [0.5, 0.9])
def test_quantile_is_the_harrell_davis_estimate(n, p):
    hdquantiles = pytest.importorskip("scipy.stats.mstats").hdquantiles
    values = np.random.default_rng(n).lognormal(3.0, 1.0, n)
    expected = float(hdquantiles(values, prob=[p])[0])
    assert harness.quantile(values, p) == pytest.approx(expected, rel=1e-6)
    assert harness.quantile([7.0], p) == 7.0


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit_for_every_workload(capsys, trace, key):
    rows, result = run_tiny(capsys, "--workload", "all", "--trace", str(trace))
    out = printed(rows)
    for name in workloads.WORKLOADS:
        for metric in BENCH[key]:
            assert out[(name, metric["name"])][1] == metric["unit"]
        if key == "end_to_end":
            for metric in ("query_ms_p90", "filter_ms_p50", "topk_ms_p50", "agg_ms_p50"):
                assert out[(name, metric)][1] == "ms"
        assert out[(name, "query_error_rate")][0] == 0.0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_single_workload_json_holds_exactly_the_declared_metrics(capsys, trace, key):
    _, result = run_tiny(capsys, "--workload", "mixed_dims", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in BENCH[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_injected_wrong_answer_raises_query_error_rate(capsys, monkeypatch):
    real = executor.Engine.execute

    def drop_last_row(self, plan):
        result = real(self, plan)
        if self.mode != "oracle" and result.rows:
            result.rows = result.rows[:-1]
        return result

    monkeypatch.setattr(executor.Engine, "execute", drop_last_row)
    rows, result = run_tiny(capsys, "--workload", "indexed_mix")
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    rate = printed(rows)[("indexed_mix", "query_error_rate")][0]
    assert rate == result["failed"] / result["attempted"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_fixes_the_queries(name):
    a = [q.sql for q in workloads.build(name, 5, workloads.TINY).queries]
    b = [q.sql for q in workloads.build(name, 5, workloads.TINY).queries]
    c = [q.sql for q in workloads.build(name, 6, workloads.TINY).queries]
    assert a == b
    assert a != c


def test_same_seed_repeats_the_exact_counts(capsys):
    exact = ("masks_loaded_per_query", "index_bytes_per_mask_byte")
    layer_exact = ("store.get_mask_calls", "chi.build_calls", "chi.insert_calls")
    first = [printed(run_tiny(capsys, "--seed", "3", "--trace", str(t))[0]) for t in (0, 1)]
    again = [printed(run_tiny(capsys, "--seed", "3", "--trace", str(t))[0]) for t in (0, 1)]
    for name in workloads.WORKLOADS:
        for metric in exact:
            assert first[0][(name, metric)] == again[0][(name, metric)]
        for metric in layer_exact:
            assert first[1][(name, metric)] == again[1][(name, metric)]
    # Incremental sessions build every mask they load; indexed ones build none.
    assert first[1][("incremental_sweep", "chi.build_calls")][0] > 0
    assert first[1][("indexed_mix", "chi.build_calls")][0] == 0


def test_untraced_run_installs_no_wrapper(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a wrapper was installed in an untraced run")

    monkeypatch.setattr(tracer.Tracer, "wrap", refuse)
    _, result = run_tiny(capsys, "--workload", "incremental_sweep", "--trace", "0")
    assert result["correct"]


def test_run_gives_back_every_cpu(capsys):
    before = os.sched_getaffinity(0)
    run_tiny(capsys, "--workload", "indexed_mix")
    assert os.sched_getaffinity(0) == before


def test_traced_run_restores_every_patched_name(capsys):
    before = [vars(owner)[attr] for owner, attr, _, _ in tracer.TARGETS]
    run_tiny(capsys, "--workload", "mixed_dims", "--trace", "1")
    assert [vars(owner)[attr] for owner, attr, _, _ in tracer.TARGETS] == before


def test_scalar_bound_path_is_traced_only_on_mixed_dims(capsys):
    out = printed(run_tiny(capsys, "--trace", "1")[0])
    assert out[("mixed_dims", "bounds.cp_bounds_calls")][0] > 0
    for name in ("indexed_mix", "incremental_sweep", "point_lookup"):
        assert out[(name, "bounds.cp_bounds_calls")][0] == 0


def test_refuses_to_run_without_engine_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns(".work", "__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=skip)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "indexed_mix", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
