import csv
import json
from pathlib import Path

from conftest import load_repo_module


def test_bound_tightness_brackets_every_exact_count(tmp_path, capsys):
    script = load_repo_module("scripts/bound_tightness.py")
    out = tmp_path / "bounds.tsv"
    script.main(["--corpus", str(tmp_path / "corpus"), "--out", str(out),
                 "--configs", "4:8", "--gen-count", "6", "--sample", "4"])
    with open(out) as fh:
        rows = list(csv.DictReader(fh, delimiter="\t"))
    assert len(rows) == 4
    assert {r["config"] for r in rows} == {"b4c8"}
    for r in rows:
        assert int(r["lower"]) <= int(r["exact"]) <= int(r["upper"])
    assert "b4c8: mean bracket width" in capsys.readouterr().out


def test_tracer_targets_resolve():
    """perfbench's tracer patches each target by name (``vars(owner)[attr]``),
    so a name that is gone breaks every traced run with a KeyError."""
    tracer = load_repo_module("perfbench/tracer.py")
    missing = [(owner.__name__, attr) for owner, attr, _, _ in tracer.TARGETS
               if attr not in vars(owner)]
    assert missing == []


def test_perfbench_gated_workloads_run_tiny(monkeypatch, capsys):
    """The benchmark builds its engines through the public API; a signature
    it relies on that goes away breaks every run. Its gated workloads run
    here on the tiny corpus, checked against the oracle."""
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import harness
    import run
    import workloads

    # The benchmark pins glibc's mmap threshold for its own process; keep
    # this test process's allocator as the other tests find it.
    monkeypatch.setattr(harness, "pin_malloc_thresholds", lambda: None)
    for name in ("indexed_mix", "incremental_sweep"):
        assert run.main(["--workload", name, "--seconds", "0.2"], scale=workloads.TINY) == 0
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert last["correct"] is True and last["failed"] == 0, (name, last)
