#!/usr/bin/env python3
"""chisearch benchmark: seeded SQL workloads, checked against the oracle engine.

    python3 perfbench/run.py --workload indexed_mix --seed 1 --seconds 45 --trace 0

``--workload all`` (the default) runs every workload in turn. Each metric
is printed on its own line as ``workload<TAB>name<TAB>value<TAB>unit``; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics declared in ``BENCHMARK.json`` with
``--trace 0`` and the per-layer metrics with ``--trace 1``. The end-to-end
figures that are printed but not declared (``query_ms_p90`` and the
per-shape medians) appear only on their own lines. Run it from the root of
a source checkout; the engine is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None, scale=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "chisearch" / "__init__.py").is_file():
        print(f"perfbench: no engine source at {SRC / 'chisearch'}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS + ("all",):
        ap.error(f"--workload must be one of {workloads.WORKLOADS} or 'all'")
    scale = scale or workloads.FULL
    harness.pin_malloc_thresholds()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = [harness.run(n, args.seed, args.seconds, bool(args.trace), scale) for n in names]
    for r in reports:
        for metric, (value, unit) in {**r.metrics, **r.printed}.items():
            print(f"{r.workload}\t{metric}\t{value!r}\t{unit}")
        print(
            f"{r.workload}\tquery_error_rate\t{r.error_rate!r}\tfrac"
            f"\t# {r.failed} of {r.attempted} queries failed;"
            f" {r.checked} distinct queries checked against the oracle"
        )
        for index, message in r.errors[:3]:
            print(f"{r.workload}: query {index} raised {message}", file=sys.stderr)
    if len(reports) == 1:
        metrics = {m: {"value": v, "unit": u} for m, (v, u) in reports[0].metrics.items()}
    else:
        metrics = {
            f"{r.workload}.{m}": {"value": v, "unit": u}
            for r in reports
            for m, (v, u) in r.metrics.items()
        }
    print(
        json.dumps(
            {
                "correct": all(r.correct for r in reports),
                "attempted": sum(r.attempted for r in reports),
                "failed": sum(r.failed for r in reports),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
