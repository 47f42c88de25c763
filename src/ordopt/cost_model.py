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
from .errors import ConfigError, UnknownStatistic
from .order_algebra import SortOrder, lcp, subtract

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
        for name in ("cpu_per_comparison_io_equiv", "mergejoin_per_tuple_io_equiv", "hash_per_block_io_equiv"):
            if getattr(self, name) < 0:
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
    body = {**_PARAM_DEFAULTS, **_doc.fields(doc.get("cost_params", {}), "cost_params", _PARAM_DEFAULTS)}
    cfg = cs.BlockConfig(
        block_bytes=_doc.integer(body["block_bytes"], "cost_params.block_bytes"),
        memory_blocks=_doc.integer(body["memory_blocks"], "cost_params.memory_blocks"),
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
    return params.cpu_per_comparison_io_equiv * rows * math.log2(max(rows, 2.0)) * key_len


def full_sort_cost(rows: float, data_blocks: float, key_len: int, params: CostParams) -> CostEstimate:
    """Cost of sorting an unordered input of the given size.

    In-memory inputs cost CPU only; external inputs add the run-formation
    write, intermediate merge passes, and the final read.  The final merge
    streams to the consumer and is not written back.
    """
    m = params.cfg.memory_blocks
    if m < 2:
        raise ConfigError("memory_blocks must be >= 2")
    cpu = sort_cpu_cost(rows, key_len, params)
    if data_blocks <= m:
        return cpu
    if m < 3:
        raise ConfigError("external sorting needs memory_blocks >= 3 (merge fan-in M-1)")
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
    segments = max(min(segments, rows), 1.0)
    return segments * full_sort_cost(rows / segments, data_blocks / segments, key_len, params)


def enforce_cost(
    e: lx.LogicalExpr,
    have: SortOrder,
    want: SortOrder,
    params: CostParams,
    catalog: cs.Catalog,
) -> CostEstimate:
    """Cost of producing order `want` on the result of e given that order
    `have` already holds.

    Only the common prefix of the two orders helps; its distinct-value count
    gives the number of independent sort segments.
    """
    known = lcp(want, have)
    rest = subtract(want, known)
    if not rest:
        return 0.0
    stats = cs.expr_stats(e, catalog)
    data_blocks = cs.blocks(stats.rows, stats.width, params.cfg)
    segments = cs.distinct_count(e, known.attr_set(), catalog)
    return partial_sort_cost(stats.rows, data_blocks, segments, len(rest), params)


def merge_join_cost(left_rows: float, right_rows: float, params: CostParams) -> CostEstimate:
    """Merge cost proper; identical for every permutation of the join keys."""
    return params.mergejoin_per_tuple_io_equiv * (left_rows + right_rows)


def hash_join_cost(left_blocks: float, right_blocks: float, params: CostParams) -> CostEstimate:
    return params.hash_per_block_io_equiv * (left_blocks + right_blocks)


def hash_group_cost(input_blocks: float, params: CostParams) -> CostEstimate:
    return params.hash_per_block_io_equiv * input_blocks


def access_paths(e: lx.Scan, catalog: cs.Catalog, query_attrs, params: CostParams):
    """Physical access paths for a scan: (kind, produced order, cost, index).

    The heap scan delivers the clustering order at one read per data block; a
    covering secondary index delivers its key order at one read per entry
    block, with entry width derived from the indexed columns.
    """
    rel = catalog.relation(e.relation)
    paths = [
        (
            "table_scan",
            rel.clustering_order,
            float(cs.blocks(rel.row_count, rel.tuple_bytes, params.cfg)),
            None,
        )
    ]
    needed = frozenset(query_attrs) & rel.columns
    for idx in cs.covering_indices(rel, needed, catalog):
        entry_width = sum(rel.attr_width(a) for a in sorted(idx.all_attrs()))
        cost = float(cs.blocks(rel.row_count, entry_width, params.cfg))
        paths.append(("covering_index_scan", idx.key_order, cost, idx))
    return paths


def operator_cost(kind: str, params: CostParams, **stats) -> CostEstimate:
    """Per-operator cost by descriptor kind.

    Scans cost one read per block; merge join is per-tuple CPU; sort-based
    group-by consumes an already-sorted stream for free; hash operators are
    naive per-block constants.
    """
    if kind in ("table_scan", "covering_index_scan"):
        return float(stats["data_blocks"])
    if kind == "merge_join":
        return merge_join_cost(stats["left_rows"], stats["right_rows"], params)
    if kind == "hash_join":
        return hash_join_cost(stats["left_blocks"], stats["right_blocks"], params)
    if kind == "hash_group_by":
        return hash_group_cost(stats["input_blocks"], params)
    if kind in ("sort_group_by", "select", "project"):
        return 0.0
    raise UnknownStatistic(f"no cost rule for operator kind {kind!r}")
