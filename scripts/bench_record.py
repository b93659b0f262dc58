#!/usr/bin/env python3
"""Record benchmark runs for the trajectory, as BENCH_<n>.json at the repo root.

    python3 scripts/bench_record.py 16 --workload indexed_mix \\
        --workload incremental_sweep --seed 4 --seconds 45

Runs ``python3 perfbench/run.py --workload W <other args>`` in a subprocess
from the repo root, once per ``--workload`` (one run of ``all`` without
one), and writes ``BENCH_<n>.json``: the commit (``git rev-parse HEAD``),
whether the work tree held uncommitted changes, the host's CPU count and
Python version, and per run the arguments passed and the JSON object of
its last output line, as printed. A run that exits non-zero, or whose last
line is not a JSON object, writes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class RecordError(Exception):
    pass


def perfbench(args: list[str]) -> str:
    """Run the benchmark with ``args``; its stdout."""
    proc = subprocess.run(
        ["python3", "perfbench/run.py", *args], cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    if proc.returncode != 0:
        raise RecordError(f"perfbench/run.py {' '.join(args)} exited {proc.returncode}")
    return proc.stdout


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True
    ).stdout.strip()


def last_json(stdout: str) -> dict:
    """The JSON object on the last line of ``stdout``."""
    lines = stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        raise RecordError(f"last line is not a JSON object: {last!r}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("n", type=int, help="the number in BENCH_<n>.json")
    ap.add_argument("--workload", action="append", help="one run per workload named")
    args, rest = ap.parse_known_args(argv)
    record = {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain")),
        "host": {"cpus": os.cpu_count(), "python": platform.python_version()},
        "runs": [],
    }
    try:
        for workload in args.workload or ["all"]:
            run_args = ["--workload", workload, *rest]
            record["runs"].append({"args": run_args, "result": last_json(perfbench(run_args))})
    except RecordError as e:
        print(f"bench_record: {e}", file=sys.stderr)
        return 1
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
