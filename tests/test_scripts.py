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


def test_bench_record_wraps_each_run_last_line(tmp_path, monkeypatch, capsys):
    script = load_repo_module("scripts/bench_record.py")
    last = '{"correct": true, "attempted": 7, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}'
    calls = []

    def perfbench(args):
        calls.append(args)
        return f"indexed_mix\tsetup_s\t0.25\ts\n{last}\n"

    monkeypatch.setattr(script, "ROOT", tmp_path)
    monkeypatch.setattr(script, "perfbench", perfbench)
    monkeypatch.setattr(script, "git", lambda *a: {"rev-parse": "abc123", "status": " M x"}[a[0]])
    argv = ["7", "--workload", "indexed_mix", "--workload", "incremental_sweep",
            "--seed", "4", "--seconds", "3"]
    assert script.main(argv) == 0
    assert calls == [["--workload", w, "--seed", "4", "--seconds", "3"]
                     for w in ("indexed_mix", "incremental_sweep")]
    record = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert record["commit"] == "abc123" and record["dirty"] is True
    assert [r["args"] for r in record["runs"]] == calls
    assert all(r["result"] == json.loads(last) for r in record["runs"])


def test_bench_record_refuses_a_last_line_that_is_not_json(tmp_path, monkeypatch, capsys):
    script = load_repo_module("scripts/bench_record.py")
    monkeypatch.setattr(script, "ROOT", tmp_path)
    monkeypatch.setattr(script, "git", lambda *a: "")
    for out in ("indexed_mix\tsetup_s\t0.25\ts\n", "", '[1, 2]\n'):
        monkeypatch.setattr(script, "perfbench", lambda args: out)
        assert script.main(["3"]) == 1
        assert "not a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_3.json").exists()
