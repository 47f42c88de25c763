"""Synthetic catalog: relations, indices, and the statistics the cost model
reads (row counts, block counts, distinct-value counts).

Cardinality derivation for expressions lives here too, and with it the check
of each node against the catalog: an expression's schema is the keys of its
distinct counts, derived only for checked nodes.  Multi-attribute distinct
counts assume attribute independence and are capped at the row count; the
join-result estimate is the usual System-R style formula.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

from . import _doc
from . import logical_expr as lx
from .errors import ConfigError, TooLarge, UnknownAttribute, UnknownRelation
from .order_algebra import EMPTY, AttrSet, SortOrder, is_prefix


@dataclass(frozen=True)
class BlockConfig:
    block_bytes: int = 4096
    memory_blocks: int = 10000

    def __post_init__(self) -> None:
        for name in ("block_bytes", "memory_blocks"):
            value = getattr(self, name)
            if type(value) is not int:  # a bool is not an int here
                raise ConfigError(f"{name} must be an int, got {value!r}")
        if self.block_bytes < 1:
            raise ConfigError("block_bytes must be >= 1")
        if self.memory_blocks < 2:
            raise ConfigError("memory_blocks must be >= 2 (merge fan-in undefined below)")

    @property
    def memory_bytes(self) -> int:
        return self.block_bytes * self.memory_blocks


class CatalogRelation(NamedTuple):
    name: str
    row_count: int
    tuple_bytes: int
    columns: AttrSet
    clustering_order: SortOrder = EMPTY
    distincts: tuple[tuple[str, int], ...] = ()

    def attr_width(self) -> float:
        """Average per-column width, tuple_bytes spread over the columns."""
        return self.tuple_bytes / len(self.columns)


class IndexDef(NamedTuple):
    relation: str
    key_order: SortOrder
    included_columns: AttrSet
    kind: str  # "clustering" or "secondary"

    def all_attrs(self) -> AttrSet:
        return self.included_columns.union(self.key_order)


@dataclass
class Catalog:
    relations: dict[str, CatalogRelation]
    indices: tuple[IndexDef, ...]
    _stats_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def relation(self, name: str) -> CatalogRelation:
        try:
            return self.relations[name]
        except KeyError:
            raise UnknownRelation(f"unknown relation {name!r}") from None


def blocks(rows, tuple_bytes, cfg: BlockConfig) -> int:
    """Number of blocks occupied by `rows` tuples of the given width."""
    if rows <= 0:
        return 0
    size = rows * tuple_bytes / cfg.block_bytes
    if not math.isfinite(size):
        raise TooLarge(f"size estimate of {rows:g} rows of {tuple_bytes:g} bytes overflows")
    return math.ceil(size)


def scan_paths(rel: CatalogRelation, query_attrs: AttrSet, catalog: Catalog) -> list[tuple[str, SortOrder, float]]:
    """The access paths of a scan of rel, (kind, produced order, bytes per
    row): the table scan, then each secondary index of rel whose key and
    included columns cover the query's attributes of rel, at one column
    width per indexed column, summed (k * width can differ in the last bit)."""
    needed = rel.columns.intersection(query_attrs)
    width = rel.attr_width()
    paths = [("table_scan", rel.clustering_order, rel.tuple_bytes)]
    for idx in catalog.indices:
        if idx.relation == rel.name and idx.kind == "secondary":  # before all_attrs, which builds a set
            attrs = idx.all_attrs()
            if needed <= attrs:
                paths.append(("covering_index_scan", idx.key_order, sum([width] * len(attrs))))
    return paths


# --- catalog loading --------------------------------------------------------

#: Builds a NamedTuple of this module from the tuple of its fields, in C,
#: without the class's Python __new__.
_new = tuple.__new__
_NAME = operator.itemgetter(0)  # of a CatalogRelation

_REL_FIELDS = {"name", "row_count", "tuple_bytes", "columns", "clustering_order", "distincts"}
_IDX_FIELDS = {"relation", "key_order", "included_columns", "kind"}


def load_catalog(source) -> Catalog:
    """Load and validate a catalog document (dict, JSON text, or bytes)."""
    doc = _doc.fields(_doc.read_json(source, "catalog"), "catalog", {"relations", "indices"})

    relations: dict[str, CatalogRelation] = {}
    for i, rdoc in enumerate(_doc.array(doc.get("relations", []), "relations")):
        path = ("relations", i)
        _doc.fields(rdoc, path, _REL_FIELDS)
        name = _doc.name(rdoc.get("name"), (path, "name"))
        if name in relations:
            raise _doc.fail(path, f"duplicate relation {name!r}")
        rows = _doc.integer(rdoc.get("row_count"), (path, "row_count"))
        width = _doc.integer(rdoc.get("tuple_bytes"), (path, "tuple_bytes"))
        columns = frozenset(_doc.attr_list(rdoc.get("columns", []), (path, "columns"), nonempty=True))
        if lx.AGG_ATTR in columns:
            raise _doc.fail((path, "columns"), f"{lx.AGG_ATTR!r} is reserved for the aggregate of a group-by")
        clustering = _doc.attr_list(rdoc.get("clustering_order", []), (path, "clustering_order"))
        if not columns.issuperset(clustering):
            raise _doc.fail((path, "clustering_order"), "attributes outside the relation's columns")
        dpath = (path, "distincts")
        distincts_doc = _doc.fields(rdoc.get("distincts", {}), dpath, columns)
        for a, n in distincts_doc.items():
            _doc.integer(n, (dpath, a), 1, rows)
        distincts = tuple(sorted(distincts_doc.items()))
        relations[name] = _new(CatalogRelation, (name, rows, width, columns, clustering, distincts))

    indices = []
    for i, idoc in enumerate(_doc.array(doc.get("indices", []), "indices")):
        path = ("indices", i)
        _doc.fields(idoc, path, _IDX_FIELDS)
        rel_name = _doc.name(idoc.get("relation"), (path, "relation"))
        if rel_name not in relations:
            raise UnknownRelation(f"{_doc.spell(path)}: unknown relation {rel_name!r}")
        rel = relations[rel_name]
        key = _doc.attr_list(idoc.get("key_order", []), (path, "key_order"), nonempty=True)
        included = frozenset(_doc.attr_list(idoc.get("included_columns", []), (path, "included_columns")))
        if not included.union(key) <= rel.columns:
            raise _doc.fail(path, "index attributes outside the relation's columns")
        kind = idoc.get("kind", "secondary")
        if kind not in ("clustering", "secondary"):
            raise _doc.fail((path, "kind"), f"expected clustering|secondary, got {kind!r}")
        # a clustering index is the relation's own order: its scan is the table scan
        if kind == "clustering" and not is_prefix(key, rel.clustering_order):
            prefix_of = f"the clustering_order {list(rel.clustering_order)} of {rel_name!r}"
            raise _doc.fail((path, "key_order"), f"a clustering index's key must be a prefix of {prefix_of}")
        indices.append(_new(IndexDef, (rel_name, key, included, kind)))

    return Catalog(relations, tuple(indices))


def catalog_to_dict(catalog: Catalog) -> dict:
    # each entry unpacked in one step: Python 3.11 reads a NamedTuple's fields by name slowly
    return {
        "relations": [
            {
                "name": name,
                "row_count": rows,
                "tuple_bytes": width,
                "columns": sorted(columns),
                "clustering_order": list(clustering),
                "distincts": dict(distincts),
            }
            for name, rows, width, columns, clustering, distincts in sorted(catalog.relations.values(), key=_NAME)
        ],
        "indices": [
            {
                "relation": relation,
                "key_order": list(key),
                "included_columns": sorted(included),
                "kind": kind,
            }
            for relation, key, included, kind in catalog.indices
        ],
    }


# --- derived expression statistics ------------------------------------------


class ExprStats(NamedTuple):
    """Estimated cardinality and per-attribute statistics of an expression.
    The per-attribute dicts are in attribute name order and shared between
    expressions and callers: read them, never change them."""

    rows: float
    width: float  # logical output tuple width in bytes
    distinct: dict[str, float]
    widths: dict[str, float]


def expr_stats(e: lx.LogicalExpr, catalog: Catalog) -> ExprStats:
    """Derived statistics, memoized per expression on the catalog.  A miss
    takes each node of e's subtree not yet cached, inputs first, without
    recursion (`lx.postorder`), and checks it as its document would be checked
    (`lx.check_node`) before it derives its statistics: the cache holds only
    checked expressions, and a query's check is a lookup once it is there."""
    cache = catalog._stats_cache
    stats = cache.get(e)
    if stats is None:
        for node, path in lx.postorder(e, cache):
            lx.check_node(node, path, catalog)
            cache[node] = _compute_stats(node, catalog)
        stats = cache[e]
    return stats


def _compute_stats(e: lx.LogicalExpr, catalog: Catalog) -> ExprStats:
    # Every width is summed in one fixed order, which fixes its last bits:
    # a join's in its right input's name order, then the left-only
    # attributes in theirs; any other node's in name order.  `b if b < a
    # else a` is min(a, b) and `b if b > a else a` max(a, b), without the
    # cost of a call.
    kind = type(e)
    if kind is lx.Scan:
        rel = catalog.relation(e.relation)
        rows = rel.row_count
        cols = sorted(rel.columns)
        distinct = dict.fromkeys(cols, float(rows))  # a column without a count has all values distinct
        for a, count in rel.distincts:
            if count < rows:
                distinct[a] = float(count)
        return _new(ExprStats, (float(rows), float(rel.tuple_bytes), distinct, dict.fromkeys(cols, rel.attr_width())))

    if kind is lx.Select:
        s = expr_stats(e.input, catalog)
        return _new(ExprStats, (s.rows * e.selectivity, s.width, s.distinct, s.widths))

    if kind is lx.Project:
        s = expr_stats(e.input, catalog)
        cols = e.cols
        widths = {a: w for a, w in s.widths.items() if a in cols}
        distinct = {a: d for a, d in s.distinct.items() if a in cols}
        return _new(ExprStats, (s.rows, sum(widths.values()), distinct, widths))

    if kind is lx.Join:
        ls = expr_stats(e.left, catalog)
        rs = expr_stats(e.right, catalog)
        ld, rd = ls.distinct, rs.distinct
        lrows, rrows = ls.rows, rs.rows
        distinct = {**rd, **ld}
        denom = 1.0
        for a in e.join_attrs:
            left, right = ld[a], rd[a]
            distinct[a] = right if right < left else left
            # max(min(left, lrows), min(right, rrows), 1.0)
            if lrows < left:
                left = lrows
            if rrows < right:
                right = rrows
            if right > left:
                left = right
            denom *= 1.0 if 1.0 > left else left
        if e.full_outer:
            rows = lrows + rrows
        else:
            rows = lrows * rrows / denom
            if 1.0 > rows:
                rows = 1.0
        widths = {**rs.widths, **ls.widths}  # shared attributes keep the left width
        return _new(ExprStats, (rows, sum(widths.values()), *_by_name(distinct, widths)))

    # a group-by
    s = expr_stats(e.input, catalog)
    rows = distinct_count(e.input, e.keys, catalog, s)
    keys = e.keys
    widths = {a: w for a, w in s.widths.items() if a in keys}
    widths[lx.AGG_ATTR] = float(e.agg_width_bytes)
    distinct = {a: rows if rows < d else d for a, d in s.distinct.items() if a in keys}
    distinct[lx.AGG_ATTR] = rows
    return _new(ExprStats, (rows, sum(widths.values()), *_by_name(distinct, widths)))


def _by_name(distinct: dict, widths: dict) -> tuple[dict, dict]:
    """Both dicts, which have the same keys, rebuilt in name order."""
    names = sorted(distinct)
    return {a: distinct[a] for a in names}, {a: widths[a] for a in names}


def distinct_count(e: lx.LogicalExpr, s: AttrSet, catalog: Catalog, stats: ExprStats | None = None) -> float:
    """Estimated number of distinct value combinations of s in the output of e.

    Independence across attributes, capped at the expression's row count;
    the empty set yields 1.  `stats` are e's statistics, if the caller holds
    them already.
    """
    if not s:
        return 1.0
    if stats is None:
        stats = expr_stats(e, catalog)
    dmap = stats.distinct
    missing = s.difference(dmap)
    if missing:
        raise UnknownAttribute(f"attributes {sorted(missing)} not in schema {sorted(dmap)}")
    cap = stats.rows
    if 1.0 > cap:
        cap = 1.0
    prod = 1.0
    for a in s:
        d = dmap[a]  # max(min(d, cap), 1.0)
        if cap < d:
            d = cap
        prod *= 1.0 if 1.0 > d else d
        if prod >= cap:
            return cap
    return cap if cap < prod else prod


def expr_blocks(e: lx.LogicalExpr, catalog: Catalog, cfg: BlockConfig) -> int:
    """B(e): estimated output size in blocks."""
    s = expr_stats(e, catalog)
    return blocks(s.rows, s.width, cfg)
