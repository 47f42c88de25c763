"""Cost formulas in I/O-block units.

Sorting dominates: a full external sort of B blocks with M memory blocks
costs B * (2 * ceil(log_{M-1}(B/M)) + 1) I/Os plus a CPU term translated to
I/O units; a sort that can exploit a known key prefix sorts each prefix
segment independently and usually stays in memory.  Everything else (scans,
merge join, group-by) is deliberately simple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _doc
from . import catalog_stats as cs
from . import logical_expr as lx
from .errors import ConfigError
from .order_algebra import AttrSet, SortOrder, lcp

#: Costs are plain floats in I/O-block-equivalent units.
CostEstimate = float


@dataclass(frozen=True)
class CostParams:
    cfg: cs.BlockConfig = cs.BlockConfig()
    cpu_per_comparison_io_equiv: float = 1e-6
    mergejoin_per_tuple_io_equiv: float = 1e-7
    hashjoin_enabled: bool = False
    hash_per_block_io_equiv: float = 3.0

    def __post_init__(self) -> None:
        if not isinstance(self.cfg, cs.BlockConfig) or max(self.cfg.block_bytes, self.cfg.memory_blocks) > _doc.MAX_INT:
            raise ConfigError(f"cfg must be a BlockConfig of ints at most 2**53, got {self.cfg!r}")
        if type(self.hashjoin_enabled) is not bool:
            raise ConfigError(f"hashjoin_enabled must be a bool, got {self.hashjoin_enabled!r}")
        for name in ("cpu_per_comparison_io_equiv", "mergejoin_per_tuple_io_equiv", "hash_per_block_io_equiv"):
            value = getattr(self, name)
            # a bool is not an int here, and an int above 2**53 has no exact float
            if not (type(value) is int and value <= _doc.MAX_INT or type(value) is float and math.isfinite(value)):
                raise ConfigError(f"{name} must be a finite float or an int of at most 2**53, got {value!r}")
            if value < 0:
                raise ConfigError(f"{name} must be >= 0")


def params_to_dict(params: CostParams) -> dict:
    body = {"block_bytes": params.cfg.block_bytes, "memory_blocks": params.cfg.memory_blocks}
    body.update((key, value) for key, value in vars(params).items() if key != "cfg")
    return {"cost_params": body}


_PARAM_DEFAULTS = params_to_dict(CostParams())["cost_params"]


def load_params(source) -> CostParams:
    """Read cost parameters from a JSON document with a `cost_params` object;
    absent fields keep their `CostParams` defaults."""
    doc = _doc.fields(_doc.read_json(source, "params"), "params", {"cost_params"})
    body = {**_PARAM_DEFAULTS, **_doc.fields(doc.get("cost_params", {}), "cost_params", _PARAM_DEFAULTS.keys())}
    cfg = cs.BlockConfig(
        block_bytes=_doc.integer(body["block_bytes"], "cost_params.block_bytes"),
        memory_blocks=_doc.integer(body["memory_blocks"], "cost_params.memory_blocks", 2),
    )
    rates = {
        key: _doc.number(body[key], f"cost_params.{key}", 0.0)
        for key in ("cpu_per_comparison_io_equiv", "mergejoin_per_tuple_io_equiv", "hash_per_block_io_equiv")
    }
    enabled = _doc.boolean(body["hashjoin_enabled"], "cost_params.hashjoin_enabled")
    return CostParams(cfg=cfg, hashjoin_enabled=enabled, **rates)


def sort_cpu_cost(rows: float, key_len: int, params: CostParams) -> CostEstimate:
    """Comparison cost of sorting `rows` tuples on `key_len` attributes.

    Depends on the order only through its length, so any two orders over the
    same attribute set cost the same.
    """
    if rows <= 0:
        return 0.0
    return params.cpu_per_comparison_io_equiv * rows * math.log2(2.0 if 2.0 > rows else rows) * key_len


def full_sort_cost(rows: float, data_blocks: float, key_len: int, params: CostParams) -> CostEstimate:
    """Cost of sorting an unordered input of the given size.

    In-memory inputs cost CPU only; external inputs add the run-formation
    write, intermediate merge passes, and the final read.  The final merge
    streams to the consumer and is not written back.
    """
    m = params.cfg.memory_blocks
    cpu = sort_cpu_cost(rows, key_len, params)
    if data_blocks <= m:
        return cpu
    if m < 3:
        raise ConfigError("cost_params.memory_blocks: external sorting needs memory_blocks >= 3 (merge fan-in M-1)")
    passes = math.ceil(math.log(data_blocks / m, m - 1))
    return data_blocks * (2 * passes + 1) + cpu


def partial_sort_cost(
    rows: float,
    data_blocks: float,
    segments: float,
    key_len: int,
    params: CostParams,
) -> CostEstimate:
    """Cost of sorting when the input is grouped into `segments` runs that
    already agree on a key prefix: each segment is sorted independently on
    the remaining `key_len` attributes."""
    if rows <= 0 or key_len == 0:
        return 0.0
    if rows < segments:  # max(min(segments, rows), 1.0), without the calls
        segments = rows
    if 1.0 > segments:
        segments = 1.0
    return segments * full_sort_cost(rows / segments, data_blocks / segments, key_len, params)


def enforce_cost(
    e: lx.LogicalExpr,
    have: SortOrder,
    want: SortOrder,
    params: CostParams,
    catalog: cs.Catalog,
) -> CostEstimate:
    """Cost of producing order `want` on the result of e given that order
    `have` already holds: only the common prefix of the two orders helps."""
    known = lcp(want, have)
    data_blocks = cs.expr_blocks(e, catalog, params.cfg)
    return sort_cost(e, known.attr_set(), len(want) - len(known), params, catalog, data_blocks)


def sort_cost(
    e: lx.LogicalExpr, known: AttrSet, rest_len: int, params: CostParams, catalog: cs.Catalog, data_blocks: int
) -> CostEstimate:
    """Cost of sorting e's result, `data_blocks` blocks, on `rest_len` more
    attributes when it is grouped on the attributes `known` already, in one
    independent segment per distinct value of them.  The cost reads nothing
    else, so callers cache it by (e, known, rest_len)."""
    if not rest_len:
        return 0.0
    stats = cs.expr_stats(e, catalog)
    segments = cs.distinct_count(e, known, catalog, stats)
    return partial_sort_cost(stats.rows, data_blocks, segments, rest_len, params)


def merge_join_cost(left_rows: float, right_rows: float, params: CostParams) -> CostEstimate:
    """Merge cost proper; identical for every permutation of the join keys."""
    return params.mergejoin_per_tuple_io_equiv * (left_rows + right_rows)


def hash_join_cost(left_blocks: float, right_blocks: float, params: CostParams) -> CostEstimate:
    return params.hash_per_block_io_equiv * (left_blocks + right_blocks)


def hash_group_cost(input_blocks: float, params: CostParams) -> CostEstimate:
    return params.hash_per_block_io_equiv * input_blocks


def access_paths(
    e: lx.Scan, catalog: cs.Catalog, query_attrs, params: CostParams
) -> dict[tuple[str, SortOrder], CostEstimate]:
    """(kind, produced order) -> cost of e's access paths, those
    `cs.scan_paths` lists, in its order: one read per block of rows of the
    path's width, the table's data blocks or an index's entry blocks.  Of
    several indices with one key the table keeps the first cheapest, in that
    one's place, so ranking its entries first-of-equal picks the same path."""
    rel = catalog.relation(e.relation)
    table: dict[tuple[str, SortOrder], CostEstimate] = {}
    for kind, produced, width in cs.scan_paths(rel, query_attrs, catalog):
        cost = float(cs.blocks(rel.row_count, width, params.cfg))
        if cost < table.get((kind, produced), math.inf):
            table.pop((kind, produced), None)
            table[kind, produced] = cost
    return table
