"""The query dialect: a small SELECT language over one fixed view.

Grammar sketch (keywords case-insensitive)::

    SELECT item, ...            item: * | expr [AS alias]
    FROM MasksDatabaseView
    [WHERE bool]                bool: comparisons over count exprs and
                                metadata columns, AND/OR, parentheses,
                                col IN (n, ...)
    [GROUP BY image_id|model_id]
    [HAVING bool over the aggregate]
    [ORDER BY ref [ASC|DESC]]   ref: a select alias or an expression
    [LIMIT k]

Count expressions are built from ``CP(source, roi, (lv, uv))``,
``area(roi)``, numeric literals and + - * /. A source is ``mask`` or a
mask-aggregate call such as ``INTERSECT(mask > 0.7)``. A roi is ``full``,
``object`` (bound per mask from an external table), or a corner-pair
literal ``((x1, y1), (x2, y2))`` written 1-based inclusive, matching how
published mask queries write rectangles; the planner converts to the
engine's 0-based half-open form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Union

KEYWORDS = {
    "select", "from", "where", "group", "by", "having", "order", "limit",
    "asc", "desc", "and", "or", "in", "as", "cp", "area", "mask", "full",
    "object", "sum", "avg", "min", "max",
}

class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected: str | None = None):
        detail = f" (expected {expected})" if expected else ""
        super().__init__(f"line {line}, column {col}: {message}{detail}")
        self.line = line
        self.col = col
        self.expected = expected


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class NumberLit:
    value: float


@dataclass(frozen=True)
class ColumnRef:
    name: str


@dataclass(frozen=True)
class RoiLiteral:
    """Corner pair as written in the query: 1-based, inclusive."""

    x1: int
    y1: int
    x2: int
    y2: int


@dataclass(frozen=True)
class RoiKeyword:
    kind: str  # 'full' | 'object'


RoiSpec = Union[RoiLiteral, RoiKeyword]


@dataclass(frozen=True)
class MaskRef:
    pass


@dataclass(frozen=True)
class MaskAggCall:
    name: str  # e.g. 'INTERSECT', 'MASK_MIN'
    threshold: float | None  # for the 'mask > t' argument form


@dataclass(frozen=True)
class CpCall:
    source: Union[MaskRef, MaskAggCall]
    roi: RoiSpec
    lo: float
    hi: float


@dataclass(frozen=True)
class AreaCall:
    roi: RoiSpec


@dataclass(frozen=True)
class ScalarAggCall:
    fn: str  # SUM | AVG | MIN | MAX
    arg: "AstExpr"


@dataclass(frozen=True)
class Arith:
    op: str  # + - * /
    left: "AstExpr"
    right: "AstExpr"


AstExpr = Union[NumberLit, ColumnRef, CpCall, AreaCall, ScalarAggCall, Arith]


@dataclass(frozen=True)
class Compare:
    left: AstExpr
    op: str  # > < =
    right: AstExpr


@dataclass(frozen=True)
class InList:
    column: str
    values: tuple


@dataclass(frozen=True)
class BoolExpr:
    op: str  # 'and' | 'or'
    items: tuple


Condition = Union[Compare, InList, BoolExpr]


@dataclass(frozen=True)
class SelectStar:
    pass


@dataclass(frozen=True)
class SelectExpr:
    expr: AstExpr
    alias: str | None


SelectItem = Union[SelectStar, SelectExpr]


@dataclass(frozen=True)
class OrderBy:
    ref: Union[str, AstExpr]  # alias name or inline expression
    descending: bool


@dataclass(frozen=True)
class QueryAst:
    select: tuple
    from_name: str
    where: Condition | None
    group_by: str | None
    having: Condition | None
    order: OrderBy | None
    limit: int | None


# -- lexer --------------------------------------------------------------------


class Token(NamedTuple):
    kind: str  # 'ident' | 'number' | 'sym' | 'eof'
    text: str
    line: int
    col: int


_SYMBOLS = "(),*+-/><=;"


# After any spaces, one alternative per token kind, tried in order; every
# character but trailing spaces matches one. ``\s``, ``\d`` and ``\w`` are
# str.isspace, str.isdecimal and str.isalnum-or-underscore, so a digit that
# is not decimal, such as "²", is an unexpected character. An identifier
# starts with a letter or an underscore, which ``tokenize`` checks, since
# ``[^\W\d]`` also admits numeric characters such as "½". A comment runs
# to the end of its line.
_TOKEN_RE = re.compile(
    r"[^\S\n]*(?:(?P<newline>\n)|(?P<comment>--[^\n]*)"
    r"|(?P<number>\d+\.?\d*|\.\d+)|(?P<ident>[^\W\d]\w*)"
    rf"|(?P<sym>[{re.escape(_SYMBOLS)}])|(?P<other>\S))"
)


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, ending with an 'eof' token. Columns count
    characters from 1; the end of input sits where a final comment starts."""
    tokens: list[Token] = []
    line, line_start, comment_at = 1, 0, None
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        start = m.start(kind)
        if kind == "newline":
            line, line_start, comment_at = line + 1, start + 1, None
        elif kind == "comment":
            comment_at = start
        else:
            word, col = m.group(kind), start - line_start + 1
            if kind == "other" or (kind == "ident" and not (word[0].isalpha() or word[0] == "_")):
                raise ParseError(f"unexpected character {word[0]!r}", line, col)
            tokens.append(Token(kind, word, line, col))
    end = len(text) if comment_at is None else comment_at
    tokens.append(Token("eof", "", line, end - line_start + 1))
    return tokens


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def _fail(self, expected: str):
        t = self.cur
        what = t.text or "end of input"
        raise ParseError(f"unexpected {what!r}", t.line, t.col, expected)

    def _is_kw(self, word: str) -> bool:
        t = self.cur
        return t.kind == "ident" and t.text.lower() == word

    def _eat_kw(self, word: str) -> Token:
        if not self._is_kw(word):
            self._fail(word.upper())
        t = self.cur
        self.pos += 1
        return t

    def _is_sym(self, s: str) -> bool:
        return self.cur.kind == "sym" and self.cur.text == s

    def _eat_sym(self, s: str) -> Token:
        if not self._is_sym(s):
            self._fail(repr(s))
        t = self.cur
        self.pos += 1
        return t

    def _eat_ident(self) -> Token:
        if self.cur.kind != "ident":
            self._fail("identifier")
        t = self.cur
        self.pos += 1
        return t

    def _eat_number(self) -> float:
        neg = False
        if self._is_sym("-"):
            self.pos += 1
            neg = True
        if self.cur.kind != "number":
            self._fail("number")
        v = float(self.cur.text)
        self.pos += 1
        return -v if neg else v

    def _eat_int(self, what: str) -> int:
        v = self._eat_number()
        if v != int(v):
            t = self.tokens[self.pos - 1]
            raise ParseError(f"{what} must be an integer", t.line, t.col)
        return int(v)

    # -- toplevel --

    def parse_query(self) -> QueryAst:
        self._eat_kw("select")
        select = [self._select_item()]
        while self._is_sym(","):
            self.pos += 1
            select.append(self._select_item())
        self._eat_kw("from")
        from_name = self._eat_ident().text
        where = group_by = having = order = limit = None
        if self._is_kw("where"):
            self.pos += 1
            where = self._bool_expr()
        if self._is_kw("group"):
            self.pos += 1
            self._eat_kw("by")
            group_by = self._eat_ident().text.lower()
        if self._is_kw("having"):
            self.pos += 1
            having = self._bool_expr()
        if self._is_kw("order"):
            self.pos += 1
            self._eat_kw("by")
            order = self._order_by()
        if self._is_kw("limit"):
            self.pos += 1
            t = self.cur
            limit = self._eat_int("LIMIT")
            if limit < 0:
                raise ParseError("LIMIT must not be negative", t.line, t.col)
        if self._is_sym(";"):
            self.pos += 1
        if self.cur.kind != "eof":
            self._fail("end of query")
        return QueryAst(tuple(select), from_name, where, group_by, having, order, limit)

    def _select_item(self) -> SelectItem:
        if self._is_sym("*"):
            nxt = self.tokens[self.pos + 1]
            if nxt.kind == "sym" and nxt.text == "," or (
                nxt.kind == "ident" and nxt.text.lower() == "from"
            ):
                self.pos += 1
                return SelectStar()
        if self._is_kw("from"):
            self._fail("select expression")
        expr = self._expr()
        alias = None
        if self._is_kw("as"):
            self.pos += 1
            alias = self._eat_ident().text
        return SelectExpr(expr, alias)

    def _order_by(self) -> OrderBy:
        # A bare identifier is an alias reference; anything else is inline.
        if self.cur.kind == "ident" and self.cur.text.lower() not in (
            "cp", "area", "sum", "avg", "min", "max",
        ):
            ref: Union[str, AstExpr] = self._eat_ident().text
        else:
            ref = self._expr()
        descending = False
        if self._is_kw("desc"):
            self.pos += 1
            descending = True
        elif self._is_kw("asc"):
            self.pos += 1
        return OrderBy(ref, descending)

    # -- boolean conditions --

    def _bool_expr(self) -> Condition:
        items = [self._bool_term()]
        while self._is_kw("or"):
            self.pos += 1
            items.append(self._bool_term())
        return items[0] if len(items) == 1 else BoolExpr("or", tuple(items))

    def _bool_term(self) -> Condition:
        items = [self._bool_factor()]
        while self._is_kw("and"):
            self.pos += 1
            items.append(self._bool_factor())
        return items[0] if len(items) == 1 else BoolExpr("and", tuple(items))

    def _bool_factor(self) -> Condition:
        if self._is_sym("("):
            # Could be a parenthesized condition or an arithmetic group;
            # try the condition reading first and fall back.
            save = self.pos
            self.pos += 1
            try:
                inner = self._bool_expr()
                self._eat_sym(")")
                return inner
            except ParseError:
                self.pos = save
        return self._comparison()

    def _comparison(self) -> Condition:
        if self.cur.kind == "ident" and self.cur.text.lower() not in KEYWORDS:
            nxt = self.tokens[self.pos + 1]
            if nxt.kind == "ident" and nxt.text.lower() == "in":
                column = self._eat_ident().text.lower()
                self.pos += 1  # IN
                self._eat_sym("(")
                values = [self._eat_number()]
                while self._is_sym(","):
                    self.pos += 1
                    values.append(self._eat_number())
                self._eat_sym(")")
                return InList(column, tuple(values))
        left = self._expr()
        if self._is_sym(">") or self._is_sym("<") or self._is_sym("="):
            op = self.cur.text
            self.pos += 1
        else:
            self._fail("comparison operator")
        right = self._expr()
        return Compare(left, op, right)

    # -- arithmetic expressions --

    def _expr(self) -> AstExpr:
        left = self._term()
        while self._is_sym("+") or self._is_sym("-"):
            op = self.cur.text
            self.pos += 1
            left = Arith(op, left, self._term())
        return left

    def _term(self) -> AstExpr:
        left = self._factor()
        while self._is_sym("*") or self._is_sym("/"):
            op = self.cur.text
            self.pos += 1
            left = Arith(op, left, self._factor())
        return left

    def _factor(self) -> AstExpr:
        if self._is_sym("-") or self.cur.kind == "number":
            return NumberLit(self._eat_number())
        if self._is_sym("("):
            self.pos += 1
            inner = self._expr()
            self._eat_sym(")")
            return inner
        if self.cur.kind == "ident":
            word = self.cur.text.lower()
            if word == "cp":
                return self._cp_call()
            if word == "area":
                self.pos += 1
                self._eat_sym("(")
                roi = self._roi_spec()
                self._eat_sym(")")
                return AreaCall(roi)
            if word in ("sum", "avg", "min", "max"):
                fn = word.upper()
                self.pos += 1
                self._eat_sym("(")
                arg = self._expr()
                self._eat_sym(")")
                return ScalarAggCall(fn, arg)
            if word in KEYWORDS and word != "mask":
                self._fail("expression")
            return ColumnRef(self._eat_ident().text.lower())
        self._fail("expression")

    def _cp_call(self) -> CpCall:
        self._eat_kw("cp")
        self._eat_sym("(")
        source = self._mask_source()
        self._eat_sym(",")
        roi = self._roi_spec()
        self._eat_sym(",")
        self._eat_sym("(")
        lo = self._eat_number()
        self._eat_sym(",")
        hi = self._eat_number()
        self._eat_sym(")")
        self._eat_sym(")")
        return CpCall(source, roi, lo, hi)

    def _mask_source(self) -> Union[MaskRef, MaskAggCall]:
        if self._is_kw("mask"):
            self.pos += 1
            return MaskRef()
        if self.cur.kind == "ident":
            name = self._eat_ident().text.upper()
            self._eat_sym("(")
            self._eat_kw("mask")
            threshold = None
            if self._is_sym(">"):
                self.pos += 1
                threshold = self._eat_number()
            self._eat_sym(")")
            return MaskAggCall(name, threshold)
        self._fail("mask or mask-aggregate call")

    def _roi_spec(self) -> RoiSpec:
        if self._is_kw("full"):
            self.pos += 1
            return RoiKeyword("full")
        if self._is_kw("object"):
            self.pos += 1
            return RoiKeyword("object")
        self._eat_sym("(")
        self._eat_sym("(")
        x1 = self._eat_int("roi coordinate")
        self._eat_sym(",")
        y1 = self._eat_int("roi coordinate")
        self._eat_sym(")")
        self._eat_sym(",")
        self._eat_sym("(")
        x2 = self._eat_int("roi coordinate")
        self._eat_sym(",")
        y2 = self._eat_int("roi coordinate")
        self._eat_sym(")")
        self._eat_sym(")")
        return RoiLiteral(x1, y1, x2, y2)


def parse(text: str) -> QueryAst:
    """Parse one query; raises ParseError with an exact position on failure."""
    return _Parser(tokenize(text)).parse_query()


# -- pretty printer -----------------------------------------------------------


def _num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _print_roi(roi: RoiSpec) -> str:
    if isinstance(roi, RoiKeyword):
        return roi.kind
    return f"(({roi.x1}, {roi.y1}), ({roi.x2}, {roi.y2}))"


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _print_expr(e: AstExpr, parent_prec: int = 0) -> str:
    if isinstance(e, NumberLit):
        return _num(e.value)
    if isinstance(e, ColumnRef):
        return e.name
    if isinstance(e, CpCall):
        src = "mask"
        if isinstance(e.source, MaskAggCall):
            if e.source.threshold is not None:
                src = f"{e.source.name}(mask > {_num(e.source.threshold)})"
            else:
                src = f"{e.source.name}(mask)"
        return f"CP({src}, {_print_roi(e.roi)}, ({_num(e.lo)}, {_num(e.hi)}))"
    if isinstance(e, AreaCall):
        return f"area({_print_roi(e.roi)})"
    if isinstance(e, ScalarAggCall):
        return f"{e.fn}({_print_expr(e.arg)})"
    prec = _PRECEDENCE[e.op]
    # The parser is left-associative, so a right-nested operand of equal
    # precedence must keep its parentheses to reparse into the same shape.
    left = _print_expr(e.left, prec)
    right = _print_expr(e.right, prec + 1)
    s = f"{left} {e.op} {right}"
    return f"({s})" if prec < parent_prec else s


def _print_cond(c: Condition, parent: str | None = None) -> str:
    if isinstance(c, Compare):
        return f"{_print_expr(c.left)} {c.op} {_print_expr(c.right)}"
    if isinstance(c, InList):
        vals = ", ".join(_num(v) for v in c.values)
        return f"{c.column} IN ({vals})"
    joined = f" {c.op.upper()} ".join(_print_cond(i, c.op) for i in c.items)
    # Any nested group keeps its parentheses so reparsing preserves shape.
    if parent is not None:
        return f"({joined})"
    return joined


def pretty(ast: QueryAst) -> str:
    """Canonical text form; parse(pretty(ast)) reproduces the AST."""
    items = []
    for it in ast.select:
        if isinstance(it, SelectStar):
            items.append("*")
        elif it.alias:
            items.append(f"{_print_expr(it.expr)} AS {it.alias}")
        else:
            items.append(_print_expr(it.expr))
    parts = [f"SELECT {', '.join(items)}", f"FROM {ast.from_name}"]
    if ast.where is not None:
        parts.append(f"WHERE {_print_cond(ast.where)}")
    if ast.group_by:
        parts.append(f"GROUP BY {ast.group_by}")
    if ast.having is not None:
        parts.append(f"HAVING {_print_cond(ast.having)}")
    if ast.order is not None:
        ref = ast.order.ref if isinstance(ast.order.ref, str) else _print_expr(ast.order.ref)
        parts.append(f"ORDER BY {ref} {'DESC' if ast.order.descending else 'ASC'}")
    if ast.limit is not None:
        parts.append(f"LIMIT {ast.limit}")
    return "\n".join(parts) + ";"
