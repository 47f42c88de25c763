"""Synthetic catalog: relations, indices, and the statistics the cost model
reads (row counts, block counts, distinct-value counts).

Cardinality derivation for expressions lives here too.  Multi-attribute
distinct counts assume attribute independence and are capped at the row
count; the join-result estimate is the usual System-R style formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import _doc
from . import logical_expr as lx
from .errors import ConfigError, TooLarge, UnknownAttribute, UnknownRelation
from .order_algebra import EMPTY, AttrSet, SortOrder


@dataclass(frozen=True)
class BlockConfig:
    block_bytes: int = 4096
    memory_blocks: int = 10000

    def __post_init__(self) -> None:
        if self.block_bytes < 1:
            raise ConfigError("block_bytes must be >= 1")
        if self.memory_blocks < 2:
            raise ConfigError("memory_blocks must be >= 2 (merge fan-in undefined below)")

    @property
    def memory_bytes(self) -> int:
        return self.block_bytes * self.memory_blocks


@dataclass(frozen=True)
class CatalogRelation:
    name: str
    row_count: int
    tuple_bytes: int
    columns: AttrSet
    clustering_order: SortOrder = EMPTY
    distincts: tuple[tuple[str, int], ...] = ()

    def attr_width(self) -> float:
        """Average per-column width, tuple_bytes spread over the columns."""
        return self.tuple_bytes / len(self.columns)


@dataclass(frozen=True)
class IndexDef:
    relation: str
    key_order: SortOrder
    included_columns: AttrSet
    kind: str  # "clustering" or "secondary"

    def all_attrs(self) -> AttrSet:
        return self.key_order.attr_set() | self.included_columns


@dataclass
class Catalog:
    relations: dict[str, CatalogRelation]
    indices: tuple[IndexDef, ...]
    _stats_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def has_relation(self, name: str) -> bool:
        return name in self.relations

    def relation(self, name: str) -> CatalogRelation:
        try:
            return self.relations[name]
        except KeyError:
            raise UnknownRelation(f"unknown relation {name!r}") from None

    def indices_for(self, name: str) -> tuple[IndexDef, ...]:
        return tuple(i for i in self.indices if i.relation == name)


def blocks(rows, tuple_bytes, cfg: BlockConfig) -> int:
    """Number of blocks occupied by `rows` tuples of the given width."""
    if rows <= 0:
        return 0
    size = rows * tuple_bytes / cfg.block_bytes
    if not math.isfinite(size):
        raise TooLarge(f"size estimate of {rows:g} rows of {tuple_bytes:g} bytes overflows")
    return math.ceil(size)


def covering_indices(rel: CatalogRelation, needed: AttrSet, catalog: Catalog) -> list[IndexDef]:
    """Secondary indices of rel whose key plus included columns cover `needed`."""
    out = []
    for idx in catalog.indices_for(rel.name):
        if idx.kind == "secondary" and needed <= idx.all_attrs():
            out.append(idx)
    return out


# --- catalog loading --------------------------------------------------------

_REL_FIELDS = {"name", "row_count", "tuple_bytes", "columns", "clustering_order", "distincts"}
_IDX_FIELDS = {"relation", "key_order", "included_columns", "kind"}


def load_catalog(source) -> Catalog:
    """Load and validate a catalog document (dict, JSON text, or bytes)."""
    doc = _doc.fields(_doc.read_json(source, "catalog"), "catalog", {"relations", "indices"})

    relations: dict[str, CatalogRelation] = {}
    for i, rdoc in enumerate(_doc.array(doc.get("relations", []), "relations")):
        path = f"relations[{i}]"
        _doc.fields(rdoc, path, _REL_FIELDS)
        name = _doc.name(rdoc.get("name"), path + ".name")
        if name in relations:
            raise _doc.fail(path, f"duplicate relation {name!r}")
        rows = _doc.integer(rdoc.get("row_count"), path + ".row_count")
        width = _doc.integer(rdoc.get("tuple_bytes"), path + ".tuple_bytes")
        columns = frozenset(_doc.attr_list(rdoc.get("columns", []), path + ".columns", nonempty=True))
        clustering = SortOrder(_doc.attr_list(rdoc.get("clustering_order", []), path + ".clustering_order"))
        if not clustering.attr_set() <= columns:
            raise _doc.fail(f"{path}.clustering_order", "attributes outside the relation's columns")
        distincts_doc = _doc.fields(rdoc.get("distincts", {}), f"{path}.distincts", columns)
        for attr, count in distincts_doc.items():
            _doc.integer(count, f"{path}.distincts.{attr}", 1, rows)
        distincts = tuple(sorted(distincts_doc.items()))
        relations[name] = CatalogRelation(name, rows, width, columns, clustering, distincts)

    indices = []
    for i, idoc in enumerate(_doc.array(doc.get("indices", []), "indices")):
        path = f"indices[{i}]"
        _doc.fields(idoc, path, _IDX_FIELDS)
        rel_name = _doc.name(idoc.get("relation"), path + ".relation")
        if rel_name not in relations:
            raise UnknownRelation(f"{path}: unknown relation {rel_name!r}")
        rel = relations[rel_name]
        key = SortOrder(_doc.attr_list(idoc.get("key_order", []), path + ".key_order", nonempty=True))
        included = frozenset(_doc.attr_list(idoc.get("included_columns", []), path + ".included_columns"))
        if not (key.attr_set() | included) <= rel.columns:
            raise _doc.fail(path, "index attributes outside the relation's columns")
        kind = idoc.get("kind", "secondary")
        if kind not in ("clustering", "secondary"):
            raise _doc.fail(f"{path}.kind", f"expected clustering|secondary, got {kind!r}")
        indices.append(IndexDef(rel_name, key, included, kind))

    return Catalog(relations, tuple(indices))


def catalog_to_dict(catalog: Catalog) -> dict:
    return {
        "relations": [
            {
                "name": r.name,
                "row_count": r.row_count,
                "tuple_bytes": r.tuple_bytes,
                "columns": sorted(r.columns),
                "clustering_order": list(r.clustering_order.attrs),
                "distincts": dict(r.distincts),
            }
            for r in sorted(catalog.relations.values(), key=lambda r: r.name)
        ],
        "indices": [
            {
                "relation": i.relation,
                "key_order": list(i.key_order.attrs),
                "included_columns": sorted(i.included_columns),
                "kind": i.kind,
            }
            for i in catalog.indices
        ],
    }


# --- derived expression statistics ------------------------------------------


@dataclass(frozen=True)
class ExprStats:
    """Estimated cardinality and per-attribute statistics of an expression."""

    rows: float
    width: float  # logical output tuple width in bytes
    distinct: tuple[tuple[str, float], ...]
    widths: tuple[tuple[str, float], ...]

    def distinct_map(self) -> dict[str, float]:
        return dict(self.distinct)


def expr_stats(e: lx.LogicalExpr, catalog: Catalog) -> ExprStats:
    """Derived statistics, memoized per expression value on the catalog."""
    cached = catalog._stats_cache.get(e)
    if cached is not None:
        return cached
    stats = _compute_stats(e, catalog)
    catalog._stats_cache[e] = stats
    return stats


def _compute_stats(e: lx.LogicalExpr, catalog: Catalog) -> ExprStats:
    if isinstance(e, lx.Scan):
        rel = catalog.relation(e.relation)
        w = rel.attr_width()
        counts = dict(rel.distincts)  # a column without a count has all values distinct
        distinct = tuple((a, float(min(counts.get(a, rel.row_count), rel.row_count))) for a in sorted(rel.columns))
        widths = tuple((a, w) for a in sorted(rel.columns))
        return ExprStats(float(rel.row_count), float(rel.tuple_bytes), distinct, widths)

    if isinstance(e, lx.Select):
        s = expr_stats(e.input, catalog)
        rows = s.rows * e.selectivity
        return ExprStats(rows, s.width, s.distinct, s.widths)

    if isinstance(e, lx.Project):
        s = expr_stats(e.input, catalog)
        widths = tuple((a, w) for a, w in s.widths if a in e.cols)
        distinct = tuple((a, d) for a, d in s.distinct if a in e.cols)
        width = sum(w for _, w in widths)
        return ExprStats(s.rows, width, distinct, widths)

    if isinstance(e, lx.Join):
        ls = expr_stats(e.left, catalog)
        rs = expr_stats(e.right, catalog)
        ld, rd = ls.distinct_map(), rs.distinct_map()
        if e.full_outer:
            rows = ls.rows + rs.rows
        else:
            denom = 1.0
            for a in e.join_attrs:
                denom *= max(min(ld[a], ls.rows), min(rd[a], rs.rows), 1.0)
            rows = max(ls.rows * rs.rows / denom, 1.0)
        widths = dict(rs.widths)
        widths.update(dict(ls.widths))  # shared attributes keep the left width
        distinct = dict(rd)
        distinct.update(ld)
        for a in e.join_attrs:
            distinct[a] = min(ld[a], rd[a])
        width = sum(widths.values())
        return ExprStats(
            rows,
            width,
            tuple(sorted(distinct.items())),
            tuple(sorted(widths.items())),
        )

    if isinstance(e, lx.GroupBy):
        s = expr_stats(e.input, catalog)
        rows = distinct_count(e.input, e.keys, catalog)
        widths = {a: w for a, w in s.widths if a in e.keys}
        widths[lx.AGG_ATTR] = float(e.agg_width_bytes)
        distinct = {a: min(d, rows) for a, d in s.distinct if a in e.keys}
        distinct[lx.AGG_ATTR] = rows
        return ExprStats(
            rows,
            sum(widths.values()),
            tuple(sorted(distinct.items())),
            tuple(sorted(widths.items())),
        )

    raise TypeError(f"not a logical expression: {e!r}")


def distinct_count(e: lx.LogicalExpr, s: AttrSet, catalog: Catalog) -> float:
    """Estimated number of distinct value combinations of s in the output of e.

    Independence across attributes, capped at the expression's row count;
    the empty set yields 1.
    """
    if not s:
        return 1.0
    stats = expr_stats(e, catalog)
    dmap = stats.distinct_map()
    missing = s - set(dmap)
    if missing:
        raise UnknownAttribute(f"attributes {sorted(missing)} not in schema of {e!r}")
    cap = max(stats.rows, 1.0)
    prod = 1.0
    for a in s:
        prod *= max(min(dmap[a], cap), 1.0)
        if prod >= cap:
            return cap
    return min(prod, cap)


def expr_blocks(e: lx.LogicalExpr, catalog: Catalog, cfg: BlockConfig) -> int:
    """B(e): estimated output size in blocks."""
    s = expr_stats(e, catalog)
    return blocks(s.rows, s.width, cfg)
