#!/usr/bin/env python3
"""Bound-distribution experiment.

For each index granularity, computes the (lower, upper) bracket of the
pixel count inside each mask's object box for a fixed value range, and
writes one row per mask sorted by lower bound. Each row is a vertical
segment in a bounds plot; the fraction of segments straddling a count
threshold T is exactly the fraction of masks a filter query with that T
would have to load.

Usage:
    python scripts/bound_tightness.py --corpus DIR --out bounds.tsv
        [--lv 0.6 --uv 1.0 --configs 16:28,16:14,8:28]
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from chisearch.bounds import cp_bounds
from chisearch.chi import ChiConfig, IndexStore, build_chi
from chisearch.corpus import generate_corpus
from chisearch.store import MaskStore, ValueRange, cp_exact, load_roi_table


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--corpus", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--lv", type=float, default=0.6)
    ap.add_argument("--uv", type=float, default=1.0)
    ap.add_argument("--configs", default="16:28,16:14,8:28",
                    help="comma list of bins:cell entries")
    ap.add_argument("--sample", type=int, default=1000)
    ap.add_argument("--gen-count", type=int, default=500,
                    help="corpus size if --corpus does not exist yet")
    args = ap.parse_args(argv)

    corpus = Path(args.corpus)
    if not (corpus / "manifest.tsv").exists():
        generate_corpus(corpus, args.gen_count, 224, 224, "blob", seed=13)
    store = MaskStore.open(corpus)
    rois = load_roi_table(corpus / "rois.tsv")
    vr = ValueRange(args.lv, args.uv)
    rng = np.random.default_rng(0)
    ids = store.mask_ids()
    if len(ids) > args.sample:
        ids = sorted(rng.choice(ids, size=args.sample, replace=False).tolist())

    configs = []
    for part in args.configs.split(","):
        bins, cell = (int(x) for x in part.split(":"))
        configs.append(ChiConfig(cell, cell, bins))

    exact = {mid: cp_exact(store.get_mask(mid), rois[mid], vr) for mid in ids}
    with open(args.out, "w") as fh:
        fh.write("config\trank\tmask_id\tlower\tupper\texact\n")
        for config in configs:
            tag = f"b{config.bins}c{config.cell_width}"
            index = IndexStore(config)
            for mid in ids:
                index.insert(build_chi(store.get_mask(mid), config))
            rows = []
            for block in index.blocks():  # one kernel call per mask size
                mids = block.mask_ids().tolist()
                boxes = np.array([[rois[m].x1, rois[m].y1, rois[m].x2, rois[m].y2] for m in mids])
                lo, hi = cp_bounds(block, block.rows_of(np.array(mids)), boxes, vr)
                rows += [(l, h, exact[m], m) for l, h, m in zip(lo.tolist(), hi.tolist(), mids)]
            rows.sort(key=lambda r: (r[0], r[3]))
            for rank, (lo, hi, exact, mid) in enumerate(rows):
                fh.write(f"{tag}\t{rank}\t{mid}\t{lo}\t{hi}\t{exact}\n")
            widths = [hi - lo for lo, hi, _, _ in rows]
            print(f"{tag}: mean bracket width {np.mean(widths):.1f}, "
                  f"median {np.median(widths):.1f}")
    store.close()
    print(f"segments -> {args.out}")


if __name__ == "__main__":
    main()
