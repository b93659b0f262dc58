"""Embedded query engine over databases of dense float image masks.

Counts of pixels inside a rectangle and value range are the query
primitive; a per-mask cumulative histogram index brackets those counts so
filter, top-k, and aggregation queries can skip loading most masks.
"""

from .store import (
    MaskMeta,
    MaskRecord,
    MaskStore,
    Roi,
    RoiBinding,
    RoiTable,
    ValueRange,
    cp_exact,
)
from .chi import (
    ChiBlock,
    ChiConfig,
    ChiIndex,
    IndexStore,
    build_chi,
    grid_boundaries,
    load_index,
    merge_index,
    persist_index,
)
from .bounds import (
    AreaTerm,
    BinOp,
    Const,
    CpTerm,
    bound_scalar_agg,
    cp_bounds,
    expr_bounds,
)
from .executor import (
    AggSpec,
    BoolOp,
    CpComparison,
    Engine,
    ExecStats,
    FilterSpec,
    MaskAggSpec,
    MaskAggregate,
    MetaComparison,
    Predicate,
    QueryPlan,
    QueryResult,
    ScalarAggSpec,
    TopKSpec,
)
from .sql import ParseError, parse, pretty
from .planner import PlanError, plan
from .corpus import generate_corpus

__version__ = "0.1.0"

__all__ = [
    "AggSpec", "AreaTerm", "BinOp", "BoolOp", "ChiBlock", "ChiConfig",
    "ChiIndex", "Const", "CpComparison", "CpTerm", "Engine", "ExecStats",
    "FilterSpec", "IndexStore", "MaskAggSpec", "MaskAggregate", "MaskMeta",
    "MaskRecord", "MaskStore", "MetaComparison", "ParseError", "PlanError",
    "Predicate", "QueryPlan", "QueryResult", "Roi", "RoiBinding", "RoiTable",
    "ScalarAggSpec", "TopKSpec", "ValueRange", "bound_scalar_agg", "build_chi",
    "cp_bounds", "cp_exact", "expr_bounds", "generate_corpus",
    "grid_boundaries", "load_index", "merge_index", "parse", "persist_index", "plan",
    "pretty",
]
