import io
import json
import struct

import numpy as np
import pytest

from chisearch.cli import DEFAULT_CONFIG, EXIT_IO_ERROR, _build_parser, main
from chisearch.chi import CHI_MAGIC, ChiConfig, load_index, persist_index
from chisearch.corpus import generate_corpus
from chisearch.executor import Engine
from chisearch.store import MaskStore, Roi, ValueRange, cp_exact, load_roi_table

from conftest import build_index, build_store, index_file_bytes, index_of, record

GEN = ["--count", "24", "--width", "32", "--height", "32", "--seed", "11"]
IDX = ["--bins", "8", "--cell-width", "8", "--cell-height", "8"]
Q_FILTER = (
    "SELECT mask_id FROM MasksDatabaseView "
    "WHERE CP(mask, ((5,5),(28,28)), (0.5,1.0)) > 250 AND model_id = 1"
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def corpus(tmp_path, capsys):
    d = tmp_path / "corpus"
    code, _, _ = run(capsys, "gen", str(d), *GEN, "--distribution", "blob")
    assert code == 0
    idx = tmp_path / "corpus.chi"
    code, out, _ = run(capsys, "index", str(d), "--out", str(idx), *IDX)
    assert code == 0
    return d, idx


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "gen", str(a), *GEN)[0] == 0
    assert run(capsys, "gen", str(b), *GEN)[0] == 0
    for name in ("manifest.tsv", "masks.bin", "rois.tsv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_gen_store_size_arithmetic(tmp_path, capsys):
    d = tmp_path / "sized"
    assert run(capsys, "gen", str(d), "--count", "10", "--width", "20",
               "--height", "12", "--seed", "1")[0] == 0
    assert (d / "masks.bin").stat().st_size == 6 + 10 * 20 * 12 * 4


def test_blob_corpus_concentrates_mass_centrally(tmp_path):
    d = tmp_path / "blob"
    generate_corpus(d, 30, 48, 48, "blob", seed=3)
    store = MaskStore.open(d)
    center = Roi(12, 12, 36, 36)
    border = Roi(0, 0, 48, 12)
    vr = ValueRange(0.6, 1.0)
    c_mean = np.mean([cp_exact(store.get_mask(m), center, vr) for m in store.mask_ids()])
    b_mean = np.mean([cp_exact(store.get_mask(m), border, vr) for m in store.mask_ids()])
    assert c_mean > b_mean
    store.close()


def test_edge_corpus_concentrates_mass_at_borders(tmp_path):
    d = tmp_path / "edge"
    generate_corpus(d, 20, 48, 48, "edge", seed=3)
    store = MaskStore.open(d)
    center = Roi(12, 12, 36, 36)
    border = Roi(0, 0, 48, 12)
    vr = ValueRange(0.6, 1.0)
    c_mean = np.mean([cp_exact(store.get_mask(m), center, vr) for m in store.mask_ids()])
    b_mean = np.mean([cp_exact(store.get_mask(m), border, vr) for m in store.mask_ids()])
    assert b_mean > c_mean
    store.close()


def test_index_flag_defaults_are_the_default_config(capsys):
    """`index` and `bench` default to DEFAULT_CONFIG; `query` and `repl`
    leave the flags unset, so a warm-start file's config stands, and name
    DEFAULT_CONFIG's values in their help."""
    parser = _build_parser()
    for argv in (["index", "s", "--out", "o"], ["bench", "s", "--out-dir", "o"]):
        args = parser.parse_args(argv)
        assert ChiConfig(args.cell_width, args.cell_height, args.bins) == DEFAULT_CONFIG
    for argv in (["query", "s"], ["repl", "s"]):
        args = parser.parse_args(argv)
        assert (args.bins, args.cell_width, args.cell_height) == (None, None, None)
    for command in ("index", "query", "repl", "bench"):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for name in ("bins", "cell_width", "cell_height"):
            flag = f"--{name.replace('_', '-')} {name.upper()}"
            assert f"{flag} default {getattr(DEFAULT_CONFIG, name)}" in text, (command, flag)


def test_index_command_reports_ratio_and_sizes(corpus, capsys, tmp_path):
    d, idx = corpus
    store = load_index(idx)
    # 32x32 masks with 8x8 cells and 8 bins: 2*8*4*4 bytes per mask.
    for mid in store.mask_ids():
        assert index_of(store, mid).payload_bytes == 2 * 8 * 4 * 4


def test_index_command_reads_into_one_buffer_per_mask_size(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(6)
    records = [
        record(rng.random(shape, dtype=np.float32), mask_id=i + 1, image_id=i + 1)
        for i, shape in enumerate([(9, 7), (12, 12), (9, 7), (12, 12), (5, 11), (9, 7)])
    ]
    store = build_store(tmp_path / "mixed", records)
    config = ChiConfig(4, 3, 5)
    expected = tmp_path / "expected.chi"
    persist_index(build_index(store, config), expected)
    store.close()

    outs = []
    get_mask = MaskStore.get_mask
    monkeypatch.setattr(
        MaskStore, "get_mask",
        lambda self, m, out=None: outs.append(out) or get_mask(self, m, out=out),
    )
    idx = tmp_path / "cli.chi"
    assert run(capsys, "index", str(tmp_path / "mixed"), "--out", str(idx), "--bins", "5",
               "--cell-width", "4", "--cell-height", "3")[0] == 0
    assert len(outs) == len(records)
    assert len({id(o) for o in outs}) == 3  # one buffer per mask size
    assert idx.read_bytes() == expected.read_bytes()


def test_single_bin_index_still_sound(tmp_path, capsys):
    d = tmp_path / "c1"
    assert run(capsys, "gen", str(d), *GEN, "--distribution", "uniform")[0] == 0
    idx = tmp_path / "b1.chi"
    assert run(capsys, "index", str(d), "--out", str(idx), "--bins", "1",
               "--cell-width", "8", "--cell-height", "8")[0] == 0
    code, out_idx, _ = run(capsys, "query", str(d), "--index", str(idx), "-q", Q_FILTER)
    assert code == 0
    code, out_oracle, _ = run(capsys, "query", str(d), "--oracle", "-q", Q_FILTER)
    assert code == 0
    assert out_idx == out_oracle


def test_query_indexed_equals_oracle_tsv(corpus, capsys):
    d, idx = corpus
    code, out_idx, _ = run(capsys, "query", str(d), "--index", str(idx), "-q", Q_FILTER)
    assert code == 0
    code, out_oracle, _ = run(capsys, "query", str(d), "--oracle", "-q", Q_FILTER)
    assert code == 0
    assert out_idx == out_oracle
    assert out_idx.splitlines()[0] == "mask_id"


def test_query_stats_json_accounting(corpus, capsys, tmp_path):
    d, idx = corpus
    stats_path = tmp_path / "stats.json"
    code, _, _ = run(capsys, "query", str(d), "--index", str(idx), "-q", Q_FILTER,
                     "--stats-json", str(stats_path))
    assert code == 0
    s = json.loads(stats_path.read_text())
    assert 0.0 <= s["fml"] <= 1.0
    assert s["masks_pruned"] + s["masks_accepted_directly"] + s["masks_loaded"] == s["masks_targeted"]


def test_query_stats_count_the_bytes_its_row_spans_read(corpus, capsys, tmp_path):
    d, idx = corpus
    q = "SELECT mask_id FROM MasksDatabaseView WHERE CP(mask, object, (0.5,1.0)) > 60"
    boxes = load_roi_table(d / "rois.tsv")
    assert all(r.height < 32 for r in boxes.values())
    for mode in (["--index", str(idx)], ["--oracle"]):
        stats_path = tmp_path / "stats.json"
        code, _, _ = run(capsys, "query", str(d), *mode, "-q", q, "--stats-json", str(stats_path))
        assert code == 0
        s = json.loads(stats_path.read_text())
        assert s["masks_loaded"] > 0
        assert 0 < s["bytes_read"] < s["masks_loaded"] * 32 * 32 * 4


def test_query_stats_count_the_counts_the_index_answered(corpus, capsys, tmp_path):
    """A top-k over whole 8x8 cells and a range on bin edges: every bracket
    has width 0, so the index answers each count and no mask is read."""
    d, idx = corpus
    q = ("SELECT mask_id, CP(mask, ((9,9),(24,24)), (0.5,1.0)) AS v "
         "FROM MasksDatabaseView ORDER BY v DESC LIMIT 5")
    stats_path, outs = tmp_path / "stats.json", []
    for mode, loaded, answered in ((["--index", str(idx)], 0, 5), (["--oracle"], 24, 0)):
        code, out, _ = run(capsys, "query", str(d), *mode, "-q", q, "--stats-json", str(stats_path))
        assert code == 0
        s = json.loads(stats_path.read_text())
        assert (s["masks_loaded"], s["counts_from_index"]) == (loaded, answered), mode
        outs.append(out)
    assert outs[0] == outs[1]


def test_query_refuses_index_flags_that_conflict_with_its_index(corpus, capsys, tmp_path):
    d, idx = corpus  # built with 8x8 cells and 8 bins
    session = tmp_path / "session.chi"
    session.write_bytes(idx.read_bytes())
    for mode in (["--index", str(idx)], ["--incremental", "--index", str(session)]):
        for flags in (["--bins", "4"], ["--cell-width", "16", "--cell-height", "8"]):
            code, _, err = run(capsys, "query", str(d), *mode, *flags, "-q", Q_FILTER)
            assert code == 2
            assert "ChiConfig(cell_width=8, cell_height=8, bins=8)" in err
    assert session.read_bytes() == idx.read_bytes()  # a refused session is not persisted
    code, _, err = run(capsys, "query", str(d), "--oracle", "--bins", "8", "-q", Q_FILTER)
    assert code == 2 and "--oracle" in err


def test_query_index_flags_that_agree_or_are_absent_keep_the_index_config(
    corpus, capsys, tmp_path
):
    d, idx = corpus
    want = run(capsys, "query", str(d), "--oracle", "-q", Q_FILTER)[1]
    for flags in (IDX, ["--bins", "8"], []):
        assert run(capsys, "query", str(d), "--index", str(idx), *flags, "-q", Q_FILTER)[1] == want
        session = tmp_path / f"session-{len(flags)}.chi"
        session.write_bytes(idx.read_bytes())
        code, out, _ = run(capsys, "query", str(d), "--incremental", "--index", str(session),
                           *flags, "-q", Q_FILTER)
        assert code == 0 and out == want
        assert load_index(session).config == ChiConfig(8, 8, 8)
    # A cold session takes its config from the flags, and the default for the rest.
    for flags, config in ((["--bins", "4", "--cell-width", "16"], ChiConfig(16, 28, 4)),
                          ([], ChiConfig(28, 28, 16))):
        cold = tmp_path / f"cold-{len(flags)}.chi"
        code, out, _ = run(capsys, "query", str(d), "--incremental", "--index", str(cold),
                           *flags, "-q", Q_FILTER)
        assert code == 0 and out == want
        assert load_index(cold).config == config


def test_query_incremental_warm_starts_from_index(corpus, capsys, tmp_path):
    d, _ = corpus
    session = tmp_path / "session.chi"
    q = ("SELECT mask_id FROM MasksDatabaseView "
         "WHERE CP(mask, ((1,1),(32,32)), (0.5,1.0)) > 500")
    loads, outs = [], []
    for _ in range(2):
        stats_path = tmp_path / "stats.json"
        code, out, _ = run(capsys, "query", str(d), "--incremental", "--index", str(session),
                           "-q", q, "--stats-json", str(stats_path))
        assert code == 0
        assert session.exists()  # the session is persisted back
        loads.append(json.loads(stats_path.read_text())["masks_loaded"])
        outs.append(out)
    assert loads[0] == 24  # no file yet: a cold session loads every targeted mask
    assert loads[1] < loads[0]
    assert outs[0] == outs[1] == run(capsys, "query", str(d), "--oracle", "-q", q)[1]
    assert load_index(session).mask_ids() == list(range(1, 25))
    assert run(capsys, "query", str(d), "--oracle", "--index", str(session), "-q", q)[0] == 2


def test_query_metadata_only_loads_nothing(corpus, capsys, tmp_path):
    d, idx = corpus
    stats_path = tmp_path / "stats.json"
    code, out, _ = run(capsys, "query", str(d), "--index", str(idx),
                       "-q", "SELECT mask_id FROM MasksDatabaseView WHERE model_id = 2",
                       "--stats-json", str(stats_path))
    assert code == 0
    assert json.loads(stats_path.read_text())["masks_loaded"] == 0
    assert len(out.splitlines()) == 1 + 12


def test_parse_error_exit_code(corpus, capsys):
    d, idx = corpus
    code, _, err = run(capsys, "query", str(d), "--index", str(idx), "-q", "SELECT FROM x")
    assert code == 2
    assert "query error" in err


def test_negative_limit_exit_code(corpus, capsys):
    d, idx = corpus
    code, out, err = run(capsys, "query", str(d), "--index", str(idx),
                         "-q", "SELECT mask_id FROM MasksDatabaseView LIMIT -1")
    assert code == 2 and out == ""
    assert "LIMIT must not be negative" in err


def test_limit_zero_query_exits_0_with_header_only(corpus, capsys, tmp_path):
    d, idx = corpus
    stats_path = tmp_path / "stats.json"
    for q in (
        "SELECT mask_id, CP(mask, full, (0.5, 1.0)) AS v FROM MasksDatabaseView "
        "ORDER BY v DESC LIMIT 0",
        "SELECT image_id, AVG(CP(mask, full, (0.5, 1.0))) AS v FROM MasksDatabaseView "
        "GROUP BY image_id ORDER BY v DESC LIMIT 0",
    ):
        for mode in (["--index", str(idx)], ["--oracle"]):
            code, out, _ = run(capsys, "query", str(d), *mode, "-q", q,
                               "--stats-json", str(stats_path))
            assert code == 0, (q, mode)
            assert len(out.splitlines()) == 1, (q, mode)
            assert json.loads(stats_path.read_text())["masks_loaded"] == 0


def test_missing_store_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "query", str(tmp_path / "nope"), "--oracle", "-q", Q_FILTER)
    assert code == 3


def test_bad_index_file_exit_code(corpus, tmp_path, capsys):
    d, idx = corpus
    bad = tmp_path / "bad.chi"
    bad.write_bytes(b"garbage")
    code, _, err = run(capsys, "query", str(d), "--index", str(bad), "-q", Q_FILTER)
    assert code == 3
    zero_bins = bytearray(idx.read_bytes())
    struct.pack_into("<I", zero_bins, len(CHI_MAGIC) + 4, 0)  # bins, after the version
    bad.write_bytes(bytes(zero_bins))
    code, _, err = run(capsys, "query", str(d), "--index", str(bad), "-q", Q_FILTER)
    assert code == 3, err


def test_query_refuses_a_v1_index_and_leaves_it_as_it_was(corpus, capsys, tmp_path):
    d, idx = corpus
    index = load_index(idx)
    v1 = tmp_path / "v1.chi"
    builds = [index_of(index, m) for m in index.mask_ids()]
    v1.write_bytes(index_file_bytes(index.config, builds, version=1))
    before = v1.read_bytes()
    for flags in (["--index", str(v1)], ["--incremental", "--index", str(v1)]):
        code, _, err = run(capsys, "query", str(d), *flags, "-q", Q_FILTER)
        assert code == EXIT_IO_ERROR and "rebuild" in err, (flags, err)
        assert v1.read_bytes() == before


def test_query_file_and_rois_flags(corpus, capsys, tmp_path):
    d, idx = corpus
    qf = tmp_path / "q.sql"
    qf.write_text("SELECT mask_id FROM MasksDatabaseView WHERE CP(mask, object, (0.5,1.0)) > 40")
    code, out1, _ = run(capsys, "query", str(d), "--index", str(idx), "--query-file", str(qf))
    assert code == 0
    code, out2, _ = run(capsys, "query", str(d), "--index", str(idx), "--query-file", str(qf),
                        "--rois", str(d / "rois.tsv"))
    assert code == 0
    assert out1 == out2


def test_f32_ingestion(tmp_path, capsys):
    rng = np.random.default_rng(8)
    files = []
    for i in range(3):
        arr = rng.random((6, 5)).astype("<f4") * np.float32(0.99)
        p = tmp_path / f"m{i}.f32"
        p.write_bytes(arr.tobytes())
        files.append(str(p))
    d = tmp_path / "ingested"
    code, out, _ = run(capsys, "gen", str(d), "--width", "5", "--height", "6", "--f32", *files)
    assert code == 0
    store = MaskStore.open(d)
    assert len(store) == 3
    assert store.get_mask(1).pixels.shape == (6, 5)
    store.close()


# -- repl ---------------------------------------------------------------------------


def repl(monkeypatch, capsys, lines, *argv):
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code = main(["repl", *argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_repl_incremental_session_prunes_second_run(corpus, monkeypatch, capsys):
    d, _ = corpus
    q = ("SELECT mask_id FROM MasksDatabaseView "
         "WHERE CP(mask, ((1,1),(32,32)), (0.5,1.0)) > 500")
    code, out, err = repl(
        monkeypatch, capsys, [q, "", q, ":quit"], str(d), *IDX
    )
    assert code == 0
    loads = [int(line.split()[2].split("/")[0]) for line in err.splitlines()
             if line.startswith("-- loaded")]
    assert len(loads) == 2
    assert loads[0] == 24  # cold session loads every targeted mask
    assert loads[1] < loads[0]  # warm session prunes


def test_repl_persist_then_warm_restart(corpus, monkeypatch, capsys, tmp_path):
    d, _ = corpus
    warm_path = tmp_path / "session.chi"
    q = ("SELECT mask_id FROM MasksDatabaseView "
         "WHERE CP(mask, ((1,1),(32,32)), (0.5,1.0)) > 500")
    code, _, _ = repl(monkeypatch, capsys, [q, f":persist {warm_path}", ":quit"], str(d), *IDX)
    assert code == 0
    assert warm_path.exists()

    code, _, err = repl(monkeypatch, capsys, [q, ":quit"], str(d), "--index", str(warm_path), *IDX)
    assert code == 0
    warm_loads = [int(line.split()[2].split("/")[0]) for line in err.splitlines()
                  if line.startswith("-- loaded")][0]

    # Matches the plain indexed engine's loads for the same query.
    from chisearch.planner import plan
    from chisearch.sql import parse

    store = MaskStore.open(d)
    engine = Engine(store, load_index(warm_path), mode="indexed")
    expected = engine.execute(plan(parse(q), store, load_roi_table(d / "rois.tsv"))).stats.masks_loaded
    store.close()
    assert warm_loads == expected


def test_repl_bad_query_does_not_end_session(corpus, monkeypatch, capsys):
    d, _ = corpus
    code, out, err = repl(
        monkeypatch, capsys,
        ["not a query", "SELECT mask_id FROM MasksDatabaseView WHERE model_id = 1", ":quit"],
        str(d), *IDX,
    )
    assert code == 0
    assert "error:" in err
    assert "mask_id" in out


def test_repl_stats_command(corpus, monkeypatch, capsys):
    d, _ = corpus
    code, out, _ = repl(
        monkeypatch, capsys,
        [":stats", "SELECT mask_id FROM MasksDatabaseView WHERE model_id = 1", ":stats", ":quit"],
        str(d), *IDX,
    )
    assert code == 0
    assert "no query has run yet" in out
    assert '"masks_targeted": 12' in out
    assert '"bytes_read": 0' in out  # a metadata filter reads no pixels
    assert '"counts_from_index": 0' in out


def test_repl_rejects_flags_that_conflict_with_warm_index(corpus, monkeypatch, capsys):
    d, idx = corpus  # built with 8x8 cells and 8 bins
    before = idx.read_bytes()
    code, out, err = repl(
        monkeypatch, capsys, [":persist", ":quit"], str(d), "--index", str(idx),
        "--bins", "4", "--cell-width", "16", "--cell-height", "16",
    )
    assert code == 2
    assert "ChiConfig(cell_width=16, cell_height=16, bins=4)" in err
    assert "ChiConfig(cell_width=8, cell_height=8, bins=8)" in err
    assert "persisted" not in out
    assert idx.read_bytes() == before
    code, _, err = repl(monkeypatch, capsys, [":quit"], str(d), "--index", str(idx), "--bins", "16")
    assert code == 2 and "bins=16" in err and "bins=8" in err


def test_repl_flags_that_agree_or_are_absent_keep_the_index_config(
    corpus, monkeypatch, capsys, tmp_path
):
    d, idx = corpus
    q = "SELECT mask_id FROM MasksDatabaseView WHERE CP(mask, full, (0.5,1.0)) > 500"
    for flags in (IDX, ["--bins", "8"], []):
        out_path = tmp_path / f"session-{len(flags)}.chi"
        code, out, _ = repl(monkeypatch, capsys, [q, f":persist {out_path}", ":quit"],
                            str(d), "--index", str(idx), *flags)
        assert code == 0 and "persisted" in out
        assert load_index(out_path).config == ChiConfig(8, 8, 8)
    # With no index file to warm from, absent flags fall back to the default.
    fresh = tmp_path / "fresh.chi"
    code, _, _ = repl(monkeypatch, capsys, [q, ":persist", ":quit"], str(d), "--index", str(fresh),
                      "--bins", "4")
    assert code == 0
    assert load_index(fresh).config == ChiConfig(28, 28, 4)
