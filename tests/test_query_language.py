import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chisearch import sql
from chisearch.bounds import BinOp, CpTerm
from chisearch.executor import (
    AggSpec,
    CpComparison,
    Engine,
    FilterSpec,
    MaskAggSpec,
    ScalarAggSpec,
    TopKSpec,
)
from chisearch.planner import MissingRoiTable, PlanError, UnknownColumn, plan
from chisearch.sql import ParseError, Token, parse, pretty, tokenize
from chisearch.store import Roi, ValueRange

from conftest import load_repo_module

from conftest import build_index, build_store, record
from chisearch.chi import ChiConfig, IndexStore


EXAMPLE_RATIO_QUERY = """
SELECT image_id, CP(mask, object, (0.85, 1.0)) / area(object) AS r
FROM MasksDatabaseView
ORDER BY r ASC LIMIT 25;
"""

EXAMPLE_INTERSECT_QUERY = """
SELECT image_id, CP(INTERSECT(mask > 0.7), full, (0.7, 1.0)) AS s
FROM MasksDatabaseView WHERE mask_type IN (1, 2)
GROUP BY image_id
ORDER BY s DESC LIMIT 10;
"""


def test_parse_ratio_query_shape():
    ast = parse(EXAMPLE_RATIO_QUERY)
    assert ast.limit == 25
    assert ast.order == sql.OrderBy("r", descending=False)
    item = ast.select[1]
    assert item.alias == "r"
    assert isinstance(item.expr, sql.Arith) and item.expr.op == "/"
    assert isinstance(item.expr.left, sql.CpCall)
    assert item.expr.left.lo == 0.85 and item.expr.left.hi == 1.0
    assert isinstance(item.expr.right, sql.AreaCall)


def test_parse_intersect_query_shape():
    ast = parse(EXAMPLE_INTERSECT_QUERY)
    assert ast.group_by == "image_id"
    assert ast.where == sql.InList("mask_type", (1.0, 2.0))
    assert ast.order == sql.OrderBy("s", descending=True)
    assert ast.limit == 10
    call = ast.select[1].expr
    assert call.source == sql.MaskAggCall("INTERSECT", 0.7)


def test_empty_select_list_fails_at_from():
    with pytest.raises(ParseError) as e:
        parse("SELECT FROM MasksDatabaseView")
    assert e.value.line == 1 and e.value.col == 8


@pytest.mark.parametrize(
    "text,line,col",
    [
        ("SELECT mask_id FROM", 1, 20),  # missing view name
        ("SELECT mask_id\nFROM MasksDatabaseView WHERE", 2, 29),
        ("SELECT mask_id FROM v WHERE CP(mask, full (0.1,0.2)) > 5", 1, 43),
        ("SELECT mask_id FROM v LIMIT x", 1, 29),
        ("SELECT mask_id FROM v LIMIT -2", 1, 29),
        ("SELECT mask_id FROM v extra", 1, 23),
    ],
)
def test_parse_error_positions(text, line, col):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.line, e.value.col) == (line, col)


# -- the tokenizer against the per-character loop it replaced --------------------


def _loop_tokenize(text: str) -> list[Token]:
    """The tokenizer as a plain loop over characters; the reference."""
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "-" and text[i : i + 2] == "--":  # line comment
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            tokens.append(Token("number", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c in "(),*+-/><=;":
            tokens.append(Token("sym", c, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


def _tokens_or_error(tokenizer, text):
    try:
        return tokenizer(text)
    except ParseError as e:
        return ("error", str(e), e.line, e.col)


LEXER_CASES = [
    "SELECT FROM MasksDatabaseView",
    "SELECT mask_id FROM",
    "SELECT mask_id\nFROM MasksDatabaseView WHERE",
    "SELECT mask_id FROM v WHERE CP(mask, full (0.1,0.2)) > 5",
    "SELECT mask_id FROM v LIMIT x",
    "SELECT mask_id FROM v extra",
    "SELECT mask_id -- the ids\r\n\tFROM v -- trailing comment, no newline",
    "SELECT $ FROM v",
    "SELECT a\n  @b",
    "x = 1.5.5 + .5 - 2. * 3..4 / _a1 -- -",
    "WHERE a\u00a0=\x0b1\x1c AND é_1 = 2 AND b = ½",
    "SELECT ١٢ FROM v",
    ". 1",
    "",
    "--",
    "a - -b --c\n-",
]


def test_tokenizer_matches_the_per_character_loop():
    workloads = load_repo_module("perfbench/workloads.py")
    texts = [
        q.sql
        for seed in (1, 2, 3)
        for name in workloads.WORKLOADS
        for q in workloads.build(name, seed, workloads.FULL).queries
    ]
    assert len(texts) > 1000
    texts += [EXAMPLE_INTERSECT_QUERY] + LEXER_CASES
    for text in texts:
        assert _tokens_or_error(tokenize, text) == _tokens_or_error(_loop_tokenize, text), text


@given(st.text(alphabet="SELCTabc_019.-() ,*+/<>=;\n\t\r\x0b$½é١", max_size=40))
def test_tokenizer_matches_the_loop_on_random_text(text):
    assert _tokens_or_error(tokenize, text) == _tokens_or_error(_loop_tokenize, text)


def test_non_decimal_digit_is_an_unexpected_character():
    # The one departure from the loop, which took "²" into a number that
    # float() then rejected.
    assert _loop_tokenize("1²")[0] == Token("number", "1²", 1, 1)
    with pytest.raises(ParseError) as e:
        tokenize("1²")
    assert (e.value.line, e.value.col) == (1, 2) and "'²'" in str(e.value)


def test_keywords_case_insensitive():
    a = parse("select mask_id from MasksDatabaseView where model_id = 1 order by CP(mask, full, (0.5,1.0)) desc limit 3")
    b = parse("SELECT mask_id FROM MasksDatabaseView WHERE model_id = 1 ORDER BY CP(mask, full, (0.5,1.0)) DESC LIMIT 3")
    assert a == b


def test_comments_and_whitespace():
    ast = parse(
        """
        SELECT mask_id          -- the ids
        FROM MasksDatabaseView  -- the view
        WHERE model_id = 1
        """
    )
    assert ast.where == sql.Compare(sql.ColumnRef("model_id"), "=", sql.NumberLit(1.0))


# -- printer round-trips -----------------------------------------------------------


ROI_LITERALS = st.tuples(
    st.integers(1, 50), st.integers(1, 50), st.integers(51, 100), st.integers(51, 100)
)


@st.composite
def roi_specs(draw):
    kind = draw(st.sampled_from(["lit", "full", "object"]))
    if kind == "lit":
        x1, y1, x2, y2 = draw(ROI_LITERALS)
        return sql.RoiLiteral(x1, y1, x2, y2)
    return sql.RoiKeyword(kind)


@st.composite
def cp_calls(draw):
    lo = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.6, 0.85]))
    hi = draw(st.sampled_from([0.9, 0.95, 1.0]))
    source = draw(
        st.sampled_from(
            [sql.MaskRef(), sql.MaskAggCall("INTERSECT", 0.7), sql.MaskAggCall("MASK_MIN", None)]
        )
    )
    return sql.CpCall(source, draw(roi_specs()), lo, hi)


@st.composite
def value_exprs(draw, depth=2):
    if depth == 0:
        return draw(st.one_of(cp_calls(), st.builds(sql.NumberLit, st.sampled_from([1.0, 2.5, 7.0]))))
    kind = draw(st.sampled_from(["leaf", "arith", "area"]))
    if kind == "leaf":
        return draw(cp_calls())
    if kind == "area":
        return sql.AreaCall(draw(roi_specs()))
    op = draw(st.sampled_from(["+", "-", "*", "/"]))
    return sql.Arith(op, draw(value_exprs(depth=depth - 1)), draw(value_exprs(depth=depth - 1)))


@st.composite
def conditions(draw, depth=1):
    if depth == 0 or draw(st.booleans()):
        which = draw(st.sampled_from(["cp", "meta", "in"]))
        if which == "cp":
            return sql.Compare(draw(cp_calls()), draw(st.sampled_from([">", "<"])),
                               sql.NumberLit(draw(st.sampled_from([0.0, 5.0, 100.0]))))
        if which == "meta":
            return sql.Compare(sql.ColumnRef("model_id"), "=", sql.NumberLit(1.0))
        return sql.InList("mask_type", (1.0, 2.0))
    op = draw(st.sampled_from(["and", "or"]))
    items = draw(st.lists(conditions(depth=depth - 1), min_size=2, max_size=3))
    return sql.BoolExpr(op, tuple(items))


@st.composite
def query_asts(draw):
    shape = draw(st.sampled_from(["filter", "topk", "agg"]))
    where = draw(st.one_of(st.none(), conditions()))
    if shape == "filter":
        select = (sql.SelectExpr(sql.ColumnRef("mask_id"), None),)
        return sql.QueryAst(select, "MasksDatabaseView", where, None, None, None, None)
    if shape == "topk":
        expr = draw(value_exprs())
        select = (
            sql.SelectExpr(sql.ColumnRef("mask_id"), None),
            sql.SelectExpr(expr, "v"),
        )
        order = sql.OrderBy("v", draw(st.booleans()))
        return sql.QueryAst(select, "MasksDatabaseView", where, None, None, order, 25)
    agg = sql.ScalarAggCall("AVG", draw(cp_calls()))
    select = (
        sql.SelectExpr(sql.ColumnRef("image_id"), None),
        sql.SelectExpr(agg, "v"),
    )
    having = draw(st.one_of(st.none(), st.just(
        sql.Compare(sql.ColumnRef("v"), ">", sql.NumberLit(10.0))
    )))
    order = sql.OrderBy("v", draw(st.booleans()))
    return sql.QueryAst(select, "MasksDatabaseView", where, "image_id", having, order, 10)


@given(query_asts())
def test_pretty_print_roundtrip(ast):
    assert parse(pretty(ast)) == ast


def test_pretty_parenthesizes_nested_arithmetic():
    text = "SELECT CP(mask, full, (0.5, 1.0)) - (CP(mask, full, (0.0, 0.5)) - 3) AS v FROM MasksDatabaseView ORDER BY v DESC LIMIT 1"
    ast = parse(text)
    assert parse(pretty(ast)) == ast


# -- planning ---------------------------------------------------------------------


@pytest.fixture()
def planned_corpus(tmp_path):
    rng = np.random.default_rng(5)
    records = [
        record(
            rng.random((16, 16), dtype=np.float32),
            mask_id=i + 1,
            image_id=1 + i // 2,
            model_id=1 + i % 2,
        )
        for i in range(20)
    ]
    store = build_store(tmp_path / "s", records)
    index = build_index(store, ChiConfig(4, 4, 4))
    roi_table = {m: Roi(2, 2, 14, 14) for m in store.mask_ids()}
    yield store, index, roi_table
    store.close()


def test_plan_metadata_prefilter_and_roi_binding(planned_corpus):
    store, _, roi_table = planned_corpus
    ast = parse(
        "SELECT mask_id FROM MasksDatabaseView "
        "WHERE CP(mask, object, (0.8, 1.0)) > 15000 AND model_id = 1"
    )
    p = plan(ast, store, roi_table)
    metas = [store.get_meta(m).meta.model_id for m in p.target_ids]
    assert set(metas) == {1}
    leaf = p.shape.pred.pred
    assert leaf.comparator == ">" and leaf.threshold == 15000
    assert leaf.expr.roi.kind == "per_mask"


def test_plan_pure_metadata_scan_loads_nothing(planned_corpus):
    store, index, roi_table = planned_corpus
    ast = parse("SELECT mask_id FROM MasksDatabaseView WHERE model_id = 1")
    p = plan(ast, store, roi_table)
    assert isinstance(p.shape, FilterSpec) and p.shape.pred is None
    r = Engine(store, index, mode="indexed").execute(p)
    assert r.stats.masks_loaded == 0
    assert len(r.rows) == 10


def test_plan_difference_predicate_shape(planned_corpus):
    store, _, roi_table = planned_corpus
    ast = parse(
        "SELECT mask_id FROM MasksDatabaseView WHERE "
        "CP(mask, ((1,1),(8,8)), (0.5,1.0)) - CP(mask, ((9,9),(16,16)), (0.5,1.0)) > 3"
    )
    p = plan(ast, store, roi_table)
    pred = p.shape.pred.pred
    assert isinstance(pred.expr, BinOp) and pred.expr.op == "-"
    assert isinstance(pred.expr.left, CpTerm) and isinstance(pred.expr.right, CpTerm)
    assert pred.threshold == 3.0
    # 1-based inclusive corners become 0-based half-open internally.
    assert pred.expr.left.roi.resolve(1, 16, 16) == Roi(0, 0, 8, 8)
    assert pred.expr.right.roi.resolve(1, 16, 16) == Roi(8, 8, 16, 16)


def test_plan_flipped_comparison(planned_corpus):
    store, _, roi_table = planned_corpus
    ast = parse("SELECT mask_id FROM MasksDatabaseView WHERE 10 > CP(mask, full, (0.5,1.0))")
    p = plan(ast, store, roi_table)
    pred = p.shape.pred.pred
    assert pred.comparator == "<" and pred.threshold == 10.0


def test_plan_shapes_for_each_query_kind(planned_corpus):
    store, _, roi_table = planned_corpus
    topk = plan(
        parse("SELECT mask_id, CP(mask, full, (0.5,1.0)) AS v FROM MasksDatabaseView "
              "ORDER BY v DESC LIMIT 4"),
        store, roi_table,
    )
    assert isinstance(topk.shape, TopKSpec) and topk.shape.k == 4 and topk.shape.descending
    agg = plan(
        parse("SELECT image_id, SUM(CP(mask, full, (0.5,1.0))) AS s FROM MasksDatabaseView "
              "GROUP BY image_id HAVING s > 100"),
        store, roi_table,
    )
    assert isinstance(agg.shape, AggSpec)
    assert isinstance(agg.shape.value, ScalarAggSpec) and agg.shape.value.fn == "SUM"
    assert agg.shape.having is not None
    magg = plan(
        parse("SELECT image_id, CP(MASK_MIN(mask), full, (0.5,1.0)) AS v "
              "FROM MasksDatabaseView GROUP BY image_id ORDER BY v DESC LIMIT 2"),
        store, roi_table,
    )
    assert isinstance(magg.shape.value, MaskAggSpec)
    assert magg.shape.value.agg.kind == "min"


def test_planned_equals_handbuilt_execution(planned_corpus):
    store, index, roi_table = planned_corpus
    from chisearch.executor import Predicate, QueryPlan
    from chisearch.store import RoiBinding

    ast = parse(
        "SELECT mask_id FROM MasksDatabaseView WHERE CP(mask, ((1,1),(8,8)), (0.5,1.0)) > 20"
    )
    planned = plan(ast, store, roi_table)
    hand = QueryPlan(
        store.mask_ids(),
        FilterSpec(
            CpComparison(
                Predicate(CpTerm(RoiBinding.constant(Roi(0, 0, 8, 8)), ValueRange(0.5, 1.0)), ">", 20)
            )
        ),
    )
    eng = Engine(store, index, mode="indexed")
    assert eng.execute(planned).rows == eng.execute(hand).rows


def test_plan_errors(planned_corpus):
    store, _, roi_table = planned_corpus
    with pytest.raises(UnknownColumn):
        plan(parse("SELECT nope FROM MasksDatabaseView"), store, roi_table)
    with pytest.raises(MissingRoiTable):
        plan(parse("SELECT mask_id FROM MasksDatabaseView WHERE CP(mask, object, (0.5,1.0)) > 1"),
             store, None)
    with pytest.raises(PlanError):
        plan(parse("SELECT mask_id FROM OtherView"), store, roi_table)
    with pytest.raises(PlanError):  # = on a count expression is out of dialect
        plan(parse("SELECT mask_id FROM MasksDatabaseView WHERE CP(mask, full, (0.5,1.0)) = 3"),
             store, roi_table)
    with pytest.raises(PlanError):  # value range checked at plan time
        plan(parse("SELECT mask_id FROM MasksDatabaseView WHERE CP(mask, full, (0.9,0.2)) > 1"),
             store, roi_table)
    with pytest.raises(PlanError):  # aggregates need GROUP BY
        plan(parse("SELECT SUM(CP(mask, full, (0.5,1.0))) AS s FROM MasksDatabaseView"),
             store, roi_table)
    with pytest.raises(PlanError):  # unknown mask aggregate
        plan(parse("SELECT image_id, CP(BOGUS(mask), full, (0.5,1.0)) AS v "
                   "FROM MasksDatabaseView GROUP BY image_id ORDER BY v DESC LIMIT 1"),
             store, roi_table)


def test_filter_limit_zero_returns_no_rows(planned_corpus):
    store, index, roi_table = planned_corpus
    view = "SELECT mask_id FROM MasksDatabaseView"
    for text in (f"{view} LIMIT 0", f"{view} WHERE CP(mask, full, (0.5, 1.0)) > 10 LIMIT 0"):
        p = plan(parse(text), store, roi_table)
        assert p.shape.limit == 0
        for eng in (Engine(store, index, mode="indexed"), Engine(store, mode="oracle")):
            assert eng.execute(p).rows == [], (text, eng.mode)


def test_limit_zero_gives_no_rows_and_no_loads_in_every_shape(planned_corpus):
    store, index, roi_table = planned_corpus
    view = "FROM MasksDatabaseView"
    for text in (
        f"SELECT mask_id {view} WHERE CP(mask, full, (0.5, 1.0)) > 10 LIMIT 0",
        f"SELECT mask_id, CP(mask, full, (0.5, 1.0)) AS v {view} ORDER BY v DESC LIMIT 0",
        f"SELECT mask_id, CP(mask, object, (0.5, 1.0)) AS v {view} "
        "WHERE CP(mask, full, (0.2, 1.0)) > 10 ORDER BY v ASC LIMIT 0",
        f"SELECT image_id, AVG(CP(mask, object, (0.5, 1.0))) AS v {view} "
        "GROUP BY image_id ORDER BY v DESC LIMIT 0",
        f"SELECT image_id, CP(INTERSECT(mask > 0.3), full, (0.5, 1.0)) AS v {view} "
        "GROUP BY image_id ORDER BY v ASC LIMIT 0",
    ):
        p = plan(parse(text), store, roi_table)
        one = plan(parse(text.replace("LIMIT 0", "LIMIT 1")), store, roi_table)
        for eng in (
            Engine(store, index, mode="indexed"),
            Engine(store, IndexStore(index.config), mode="incremental"),
            Engine(store, mode="oracle"),
        ):
            r = eng.execute(p)
            assert r.rows == [] and r.stats.masks_loaded == 0, (text, eng.mode)
            assert r.columns == eng.execute(one).columns, (text, eng.mode)


def test_unboundable_division_falls_back_to_verify_all(planned_corpus):
    store, index, roi_table = planned_corpus
    ast = parse(
        "SELECT mask_id FROM MasksDatabaseView WHERE "
        "CP(mask, full, (0.5,1.0)) / CP(mask, full, (0.0,0.5)) > 1"
    )
    p = plan(ast, store, roi_table)
    assert p.verify_all
    eng = Engine(store, index, mode="indexed")
    oracle = Engine(store, mode="oracle")
    r = eng.execute(p)
    assert r.stats.warnings
    assert r.rows == oracle.execute(p).rows


def test_example_queries_plan_and_run(planned_corpus):
    store, index, roi_table = planned_corpus
    eng = Engine(store, index, mode="indexed")
    oracle = Engine(store, mode="oracle")
    for text in (EXAMPLE_RATIO_QUERY, EXAMPLE_INTERSECT_QUERY):
        p = plan(parse(text), store, roi_table)
        assert eng.execute(p).rows == oracle.execute(p).rows


# -- the metadata evaluator against the per-entry reference -------------------------


def _reference_holds(cond, meta) -> bool:
    """The per-entry evaluator the planner ran before the manifest became
    columns: Python comparisons on one manifest entry at a time."""
    if isinstance(cond, sql.BoolExpr):
        results = (_reference_holds(c, meta) for c in cond.items)
        return all(results) if cond.op == "and" else any(results)
    if isinstance(cond, sql.InList):
        return getattr(meta, cond.column) in cond.values
    left, right = (_reference_value(n, meta) for n in (cond.left, cond.right))
    if cond.op == "=":
        return left == right
    return left > right if cond.op == ">" else left < right


def _reference_value(node, meta):
    if isinstance(node, sql.ColumnRef):
        return getattr(meta, node.name)
    if isinstance(node, sql.Arith):
        a, b = _reference_value(node.left, meta), _reference_value(node.right, meta)
        return a + b if node.op == "+" else a - b if node.op == "-" else a * b
    return node.value


INF = "1" + "0" * 400  # parses to float inf; INF - INF is NaN
BIG = (2**53 - 1, 2**53, 2**53 + 1, 2**63 - 2, 2**63 - 1)
# Manifest rows (mask_id, image_id, model_id, mask_type): small values, and
# values beside 2**53 (where float64 stops holding every integer) and 2**63.
EXTREME_ROWS = [
    (1, 3, 2, 3),
    (2, -1, 3, 2),
    (3, 2, -1, 1),
    (4, 2**53, 2**53 + 1, -(2**63)),
    (2**53 - 1, 2**53 + 1, 2**53 - 1, 2**63 - 1),
    (2**53, 2**63 - 1, -(2**63), 3),
    (2**53 + 1, -(2**63), 2**63 - 2, 2**53),
    (2**63 - 2, 2**63 - 2, 3, -1),
    (2**63 - 1, 3, 2**63 - 1, 2**53 + 1),
]
CONSTANTS = ("2.5", "3.0", "3", "-1", "0", "-1.5") + tuple(
    str(v) for b in BIG for v in (b, -b)
) + ("9223372036854775808", "-9223372036854775809", "9007199254740993.0", "1" + "0" * 40)
META = ("mask_id", "image_id", "model_id", "mask_type")


@pytest.fixture()
def extreme_store(tmp_path):
    # Manifest order differs from id order, so rows and ids cannot be confused.
    order = (4, 0, 8, 2, 6, 1, 7, 3, 5)
    records = [
        record(np.full((2, 2), 0.5, np.float32), mask_id=m, image_id=i, model_id=d, mask_type=t)
        for m, i, d, t in (EXTREME_ROWS[k] for k in order)
    ]
    store = build_store(tmp_path / "x", records)
    yield store
    store.close()


def _random_meta_condition(rng, depth=0) -> str:
    kind = int(rng.integers(5 if depth < 2 else 3))
    col = str(rng.choice(META))
    const = str(rng.choice(CONSTANTS))
    if kind == 0:
        op = str(rng.choice(["=", "<", ">"]))
        side = rng.random()
        if side < 0.4:
            return f"{col} {op} {const}"
        if side < 0.8:
            return f"{const} {op} {col}"
        if side < 0.95:
            return f"{col} {op} {rng.choice(META)}"
        return f"{const} {op} {rng.choice(CONSTANTS)}"
    if kind == 1:
        values = ", ".join(rng.choice(CONSTANTS, size=int(rng.integers(1, 4))))
        return f"{col} IN ({values})"
    if kind == 2:
        return f"{col} {rng.choice(['<', '>'])} {const}"
    op = " AND " if kind == 3 else " OR "
    items = [_random_meta_condition(rng, depth + 1) for _ in range(int(rng.integers(2, 4)))]
    return "(" + op.join(items) + ")"


def test_metadata_filter_matches_per_entry_reference(extreme_store):
    store = extreme_store
    entries = [e.meta for e in store.entries()]
    queries = []
    for col in META:
        for const in CONSTANTS:
            for op in ("=", "<", ">"):
                queries += [f"{col} {op} {const}", f"{const} {op} {col}"]
            queries.append(f"{col} IN ({const}, 3, -1)")
        for other in META:
            queries += [f"{col} {op} {other}" for op in ("=", "<", ">")]
    queries += ["3 > 2.5", "2.5 = 2.5", "-1 > 3", "(image_id = 3 OR 1 = 2) AND model_id < 3"]
    for op in ("=", "<", ">"):  # infinite and NaN constants, from arithmetic
        queries += [f"image_id {op} {INF}", f"model_id {op} 0 - {INF}",
                    f"mask_type {op} {INF} - {INF}", f"{INF} - {INF} {op} 1",
                    f"mask_id {op} 2 * 3.5 - 1"]
    rng = np.random.default_rng(2024)
    queries += [_random_meta_condition(rng) for _ in range(400)]
    for where in queries:
        ast = parse(f"SELECT mask_id FROM MasksDatabaseView WHERE {where}")
        want = [m.mask_id for m in entries if _reference_holds(ast.where, m)]
        got = plan(ast, store).target_ids
        assert got == want, where
        assert all(type(m) is int for m in got)


def test_metadata_under_or_matches_reference_in_every_engine(extreme_store):
    """Metadata nested beside a count goes through the executor's
    MetaComparison branch: per target batch and per verified mask."""
    store = extreme_store
    index = build_index(store, ChiConfig(1, 1, 2))
    engines = [
        Engine(store, index, mode="indexed"),
        Engine(store, IndexStore(ChiConfig(1, 1, 2)), mode="incremental"),
    ]
    oracle = Engine(store, mode="oracle")
    entries = [e.meta for e in store.entries()]
    rng = np.random.default_rng(7)
    for _ in range(80):
        meta = _random_meta_condition(rng)
        cp = "CP(mask, full, (0.4, 0.6)) > 3" if rng.random() < 0.5 else "CP(mask, full, (0.0, 0.4)) > 0"
        # A top-level metadata conjunct, half the time, leaves a subset of targets.
        prefix = _random_meta_condition(rng) if rng.random() < 0.5 else "1 = 1"
        ast = parse(f"SELECT mask_id FROM MasksDatabaseView WHERE {prefix} AND ({meta} OR {cp})")
        p = plan(ast, store)
        cp_true = cp.endswith("> 3")  # every pixel is 0.5: four in (0.4, 0.6), none below 0.4
        where = ast.where.items
        want = sorted(
            (m.mask_id,) for m in entries
            if all(_reference_holds(c, m) for c in where[:-1])
            and (cp_true or _reference_holds(where[-1].items[0], m))
        )
        assert oracle.execute(p).rows == want, meta
        for eng in engines:
            assert eng.execute(p).rows == want, (eng.mode, meta)


def test_unknown_column_raises_even_on_an_empty_store(tmp_path, extreme_store):
    empty = build_store(tmp_path / "empty", [])
    for store in (empty, extreme_store):
        for where in ("nope = 1", "3 < nope", "nope IN (1, 2)", "image_id = 1 OR width > 2",
                      "CP(mask, full, (0.5, 1.0)) > 1 OR nope < 2"):
            with pytest.raises(UnknownColumn):
                plan(parse(f"SELECT mask_id FROM MasksDatabaseView WHERE {where}"), store)
    assert plan(parse("SELECT mask_id FROM MasksDatabaseView WHERE image_id > 1"), empty).target_ids == []
    empty.close()


def test_order_comparison_on_metadata_under_or_plans_and_matches_oracle(planned_corpus):
    store, index, roi_table = planned_corpus
    ast = parse(
        "SELECT mask_id FROM MasksDatabaseView "
        "WHERE image_id > 3 OR CP(mask, object, (0.5, 1.0)) > 75"
    )
    p = plan(ast, store, roi_table)
    assert not p.verify_all and len(p.target_ids) == 20
    oracle = Engine(store, mode="oracle").execute(p).rows
    assert any(store.get_meta(m).meta.image_id <= 3 for (m,) in oracle)  # the count side decides some
    assert any(store.get_meta(m).meta.image_id <= 3 and (m,) not in oracle for m in p.target_ids)
    for eng in (
        Engine(store, index, mode="indexed"),
        Engine(store, IndexStore(ChiConfig(4, 4, 4)), mode="incremental"),
    ):
        assert eng.execute(p).rows == oracle
