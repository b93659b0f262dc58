"""Command-line front end: gen | index | query | repl | bench.

Exit codes: 0 success, 2 parse/plan error, 3 I/O error, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .chi import ChiConfig, ChiError, IndexStore, build_chi, load_index, persist_index
from .corpus import DISTRIBUTIONS, generate_corpus, ingest_f32_files
from .executor import Engine, ExecError, QueryResult
from .planner import PlanError, plan
from .sql import ParseError, parse
from .store import PIXEL_DTYPE, MaskStore, StoreError, load_roi_table

EXIT_QUERY_ERROR = 2
EXIT_IO_ERROR = 3
EXIT_INTERNAL = 4

DEFAULT_CONFIG = ChiConfig(28, 28, 16)  # a session index's config when nothing sets one


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="chisearch", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic corpus (or ingest .f32 files)")
    g.add_argument("out_dir")
    g.add_argument("--count", type=int, default=100)
    g.add_argument("--width", type=int, default=64)
    g.add_argument("--height", type=int, default=64)
    g.add_argument("--distribution", choices=DISTRIBUTIONS, default="blob")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--models", type=int, default=2, help="masks per image")
    g.add_argument("--f32", nargs="*", default=None, metavar="FILE",
                   help="ingest these raw float32 rasters instead of synthesizing")
    g.add_argument("--clamp", action="store_true",
                   help="clamp ingested values >= 1.0 down into the domain")

    b = sub.add_parser("index", help="build the index file for a store")
    b.add_argument("store_dir")
    b.add_argument("--out", required=True)
    _add_config_flags(b, warm_start=False)

    q = sub.add_parser("query", help="run one query")
    q.add_argument("store_dir")
    q.add_argument("--index", help="index file (indexed mode); with --incremental, "
                   "the warm-start file the session is persisted back to")
    q.add_argument("--incremental", action="store_true",
                   help="build indexes as the query runs (cold start allowed)")
    q.add_argument("--oracle", action="store_true", help="full scan, no index")
    q.add_argument("-q", "--query", help="query text")
    q.add_argument("--query-file", help="read the query from a file")
    q.add_argument("--rois", help="per-mask roi table for 'object' (default: store's rois.tsv)")
    q.add_argument("--stats-json", help="write ExecStats JSON here instead of stderr")
    _add_config_flags(q, warm_start=True)

    r = sub.add_parser("repl", help="interactive query loop with incremental indexing")
    r.add_argument("store_dir")
    r.add_argument("--index", help="warm-start index file; also the :persist default")
    r.add_argument("--rois")
    _add_config_flags(r, warm_start=True)

    w = sub.add_parser("bench", help="run a generated multi-query workload")
    w.add_argument("store_dir")
    w.add_argument("--modes", default="indexed,oracle",
                   help="comma list of indexed,incremental,oracle")
    w.add_argument("--queries", type=int, default=200)
    w.add_argument("--p-seen", type=float, default=0.5)
    w.add_argument("--types", default="filter", help="comma list of filter,topk,aggregation")
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--k", type=int, default=25)
    _add_config_flags(w, warm_start=False)
    w.add_argument("--out-dir", required=True, help="report TSV + JSON go here")
    w.add_argument("--session-index", help="persist the incremental session index here")
    return p


def _add_config_flags(p: argparse.ArgumentParser, *, warm_start: bool) -> None:
    """--bins, --cell-width and --cell-height, defaulting to DEFAULT_CONFIG's.
    In a session that may warm-start from an --index file they stay None
    unless given, so that the file's config stands."""
    for name in ("bins", "cell_width", "cell_height"):
        default, flag = getattr(DEFAULT_CONFIG, name), "--" + name.replace("_", "-")
        if warm_start:
            p.add_argument(flag, type=int, help=f"default {default}, or the --index file's")
        else:
            p.add_argument(flag, type=int, default=default, help=f"default {default}")


def _cmd_gen(args) -> int:
    if args.f32:
        ingest_f32_files(args.out_dir, args.f32, args.width, args.height,
                         models=args.models, clamp=args.clamp)
    else:
        generate_corpus(args.out_dir, args.count, args.width, args.height,
                        args.distribution, args.seed, models=args.models)
    store = MaskStore.open(args.out_dir)
    total = sum(e.nbytes for e in store.entries())
    print(f"wrote {len(store)} masks, {total} payload bytes, to {args.out_dir}")
    store.close()
    return 0


def _cmd_index(args) -> int:
    config = ChiConfig(args.cell_width, args.cell_height, args.bins)
    index_store = IndexStore(config)
    with MaskStore.open(args.store_dir) as store:
        raw_bytes = sum(e.nbytes for e in store.entries())
        buffers: dict[tuple[int, int], np.ndarray] = {}  # one per mask size
        for entry in store.entries():
            shape = (entry.height, entry.width)
            if shape not in buffers:
                buffers[shape] = np.empty(shape, dtype=PIXEL_DTYPE)
            rec = store.get_mask(entry.mask_id, out=buffers[shape])
            index_store.insert(build_chi(rec, config))
    persist_index(index_store, args.out)
    payload = index_store.payload_bytes()
    ratio = payload / raw_bytes if raw_bytes else 0.0
    print(f"indexed {len(index_store)} masks: {payload} index bytes, "
          f"{ratio:.1%} of {raw_bytes} mask bytes -> {args.out}")
    return 0


def _read_query_text(args) -> str:
    if args.query and args.query_file:
        raise PlanError("give either --query or --query-file, not both")
    if args.query:
        return args.query
    if args.query_file:
        return Path(args.query_file).read_text()
    raise PlanError("no query given (use -q or --query-file)")


def _roi_table_for(args, store_dir: str):
    path = args.rois if args.rois else Path(store_dir) / "rois.tsv"
    if Path(path).exists():
        return load_roi_table(path)
    return None


def _print_result(result: QueryResult, stats_json: str | None) -> None:
    print("\t".join(result.columns))
    for row in result.rows:
        print("\t".join(str(v) for v in row))
    payload = json.dumps(result.stats.to_json(), indent=2, sort_keys=True)
    if stats_json:
        Path(stats_json).write_text(payload)
    else:
        print(payload, file=sys.stderr)


def _flag_config(args, base: ChiConfig) -> ChiConfig:
    """``base`` with whichever of --cell-width, --cell-height, --bins were given."""
    given = {k: getattr(args, k) for k in ("cell_width", "cell_height", "bins")}
    return replace(base, **{k: v for k, v in given.items() if v is not None})


def _check_flags(args, index_store: IndexStore) -> None:
    """Refuse index flags that disagree with the index the session uses."""
    wanted = _flag_config(args, index_store.config)
    if wanted != index_store.config:
        raise PlanError(f"the flags ask for {wanted}, but {args.index} was built "
                        f"with {index_store.config}")


def _session_index(args) -> IndexStore:
    """An incremental session's index: warm from --index if that file exists
    (refusing flags that disagree with it), else empty, configured by the flags."""
    if args.index and Path(args.index).exists():
        index_store = load_index(args.index)
        _check_flags(args, index_store)
        return index_store
    return IndexStore(_flag_config(args, DEFAULT_CONFIG))


def _cmd_query(args) -> int:
    if args.oracle == bool(args.index or args.incremental):
        raise PlanError("choose one of --index, --incremental (optionally with --index) "
                        "or --oracle")
    text = _read_query_text(args)
    with MaskStore.open(args.store_dir) as store:
        roi_table = _roi_table_for(args, args.store_dir)
        ast = parse(text)
        query_plan = plan(ast, store, roi_table)
        if args.oracle:
            if any(getattr(args, k) is not None for k in ("bins", "cell_width", "cell_height")):
                raise PlanError("--oracle uses no index; drop --bins, --cell-width, --cell-height")
            engine = Engine(store, mode="oracle")
        elif args.incremental:
            index_store = _session_index(args)
            engine = Engine(store, index_store, mode="incremental")
        else:
            index_store = load_index(args.index)
            _check_flags(args, index_store)
            engine = Engine(store, index_store, mode="indexed")
        result = engine.execute(query_plan)
    if args.incremental and args.index:
        persist_index(index_store, args.index)
    _print_result(result, args.stats_json)
    return 0


def _cmd_repl(args) -> int:
    with MaskStore.open(args.store_dir) as store:
        roi_table = _roi_table_for(args, args.store_dir)
        try:
            index_store = _session_index(args)
        except PlanError as e:
            print(f"config error: {e}", file=sys.stderr)
            return EXIT_QUERY_ERROR
        engine = Engine(store, index_store, mode="incremental")
        last_stats = None
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            if line in (":quit", ":q"):
                break
            if line == ":stats":
                if last_stats is not None:
                    print(json.dumps(last_stats.to_json(), indent=2, sort_keys=True))
                else:
                    print("no query has run yet")
                continue
            if line.startswith(":persist"):
                parts = line.split(None, 1)
                target = parts[1] if len(parts) > 1 else args.index
                if not target:
                    print("usage: :persist PATH (no --index default given)")
                    continue
                persist_index(index_store, target)
                print(f"persisted {len(index_store)} mask indexes to {target}")
                continue
            try:
                result = engine.execute(plan(parse(line), store, roi_table))
            except (ParseError, PlanError, ExecError, StoreError, ChiError) as e:
                print(f"error: {e}", file=sys.stderr)
                continue
            print("\t".join(result.columns))
            for row in result.rows:
                print("\t".join(str(v) for v in row))
            last_stats = result.stats
            print(f"-- loaded {result.stats.masks_loaded}/{result.stats.masks_targeted} "
                  f"masks (fml {result.stats.fml:.3f})", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    types = tuple(t.strip() for t in args.types.split(",") if t.strip())
    spec = bench_mod.WorkloadSpec(
        n_queries=args.queries, p_seen=args.p_seen, seed=args.seed,
        types=types, k=args.k,
    )
    with MaskStore.open(args.store_dir) as store:
        roi_table = load_roi_table(Path(args.store_dir) / "rois.tsv")
        queries = bench_mod.generate_workload(spec, store, roi_table)
    config = ChiConfig(args.cell_width, args.cell_height, args.bins)
    report = bench_mod.run_workload(
        args.store_dir, queries, modes, config=config,
        session_index_path=args.session_index,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report.write_tsv(out / "bench.tsv")
    report.write_json(out / "summary.json")
    for mode, s in report.summary["modes"].items():
        print(f"{mode}: total {s['total_s']:.3f}s, median query "
              f"{s['median_query_s'] * 1000:.1f}ms, {s['total_loads']} loads")
    print(f"report written to {out}/bench.tsv and {out}/summary.json")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "index": _cmd_index,
    "query": _cmd_query,
    "repl": _cmd_repl,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, PlanError) as e:
        print(f"query error: {e}", file=sys.stderr)
        return EXIT_QUERY_ERROR
    except (OSError, StoreError, ChiError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO_ERROR
    except Exception as e:  # invariant violations and everything unexpected
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
