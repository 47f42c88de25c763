import dataclasses
import math
import random
from dataclasses import dataclass

import pytest

import ordopt.logical_expr as lx
from ordopt import (
    BlockConfig,
    UnknownAttribute,
    UnknownRelation,
    ValidationError,
    blocks,
    distinct_count,
    expr_stats,
    load_catalog,
    order,
    parse_query,
    scan_paths,
)

from conftest import load_pair, perfbench_workloads, random_catalog_and_join, schema


def test_blocks_examples():
    cfg = BlockConfig(block_bytes=4096, memory_blocks=10000)
    assert blocks(2_000_000, 100, cfg) == 48829
    assert blocks(0, 100, cfg) == 0
    assert blocks(1, 1, cfg) == 1


def _one_relation_catalog():
    return load_catalog(
        {
            "relations": [
                {
                    "name": "r",
                    "row_count": 1000,
                    "tuple_bytes": 16,
                    "columns": ["a", "b"],
                    "clustering_order": [],
                    "distincts": {"a": 10, "b": 7},
                }
            ],
            "indices": [],
        }
    )


def test_distinct_count_matches_enumeration():
    # Generate a concrete table with independent periodic columns and count
    # its distinct pairs exactly; the estimate must match.
    rows = [(i % 10, i % 7) for i in range(1000)]
    exact = len(set(rows))
    catalog = _one_relation_catalog()
    scan = lx.Scan("r")
    assert distinct_count(scan, frozenset("ab"), catalog) == exact == 70
    assert distinct_count(scan, frozenset(), catalog) == 1
    assert distinct_count(scan, frozenset("a"), catalog) == 10
    # below one row (0.1 here) the count is still one
    assert distinct_count(lx.Select(scan, 0.0001, frozenset()), frozenset("a"), catalog) == 1.0


def test_distinct_count_unknown_attribute():
    # the message names the schema, not the expression, whose repr takes a frame per level
    catalog = _one_relation_catalog()
    deep = lx.Scan("r")
    for _ in range(5000):
        deep = lx.Select(deep, 0.5, frozenset())
    for e in (lx.Scan("r"), deep):
        with pytest.raises(UnknownAttribute, match=r"^attributes \['x'\] not in schema \['a', 'b'\]$"):
            distinct_count(e, frozenset("ax"), catalog)


def test_a_replaced_catalog_derives_its_own_statistics():
    # the statistics cache is not a constructor field, so a replaced catalog starts with an empty one
    catalog = _one_relation_catalog()
    scan = lx.Scan("r")
    assert expr_stats(scan, catalog).rows == 1000.0
    fewer = dataclasses.replace(catalog, relations={"r": catalog.relation("r")._replace(row_count=5)})
    assert expr_stats(scan, fewer).rows == 5.0
    with pytest.raises(UnknownRelation, match="'r'"):
        expr_stats(scan, dataclasses.replace(catalog, relations={}))
    assert expr_stats(scan, catalog).rows == 1000.0


def test_distinct_count_monotone_and_capped():
    rng = random.Random(5)
    for _ in range(50):
        catalog, query, _ = random_catalog_and_join(rng)
        e = query.root
        attrs = sorted(schema(e, catalog))
        s1 = frozenset(rng.sample(attrs, rng.randint(0, len(attrs))))
        s2 = s1 | frozenset(rng.sample(attrs, rng.randint(0, len(attrs))))
        d1 = distinct_count(e, s1, catalog)
        d2 = distinct_count(e, s2, catalog)
        assert d1 <= d2 + 1e-12
        rows = expr_stats(e, catalog).rows
        assert d2 <= max(rows, 1.0) + 1e-12


def test_scan_paths():
    catalog, query = load_pair("tpch_catalog.json", "q2_query.json")
    rel = catalog.relation("lineitem")
    table = ("table_scan", order("orderkey", "linenumber"), 112)
    # the index on (suppkey) includes linestatus, partkey and quantity: four
    # of lineitem's six columns, at 112 / 6 bytes each
    index = ("covering_index_scan", order("suppkey"), sum([112 / 6] * 4))
    assert scan_paths(rel, frozenset(["suppkey", "partkey"]), catalog) == [table, index]
    assert scan_paths(rel, frozenset(["suppkey", "orderkey"]), catalog) == [table]
    assert scan_paths(rel, frozenset(), catalog) == [table, index]


def test_catalog_validation_errors():
    base = {
        "relations": [
            {
                "name": "r",
                "row_count": 10,
                "tuple_bytes": 8,
                "columns": ["a"],
                "clustering_order": [],
                "distincts": {},
            }
        ],
        "indices": [],
    }
    with pytest.raises(ValidationError):
        load_catalog({**base, "surprise": 1})
    bad = {**base}
    bad["relations"] = [dict(base["relations"][0], distincts={"a": 11})]
    with pytest.raises(ValidationError):
        load_catalog(bad)
    bad["relations"] = [dict(base["relations"][0], clustering_order=["zz"])]
    with pytest.raises(ValidationError):
        load_catalog(bad)
    bad["relations"] = [dict(base["relations"][0], typo=1)]
    with pytest.raises(ValidationError):
        load_catalog(bad)


def test_a_clustering_index_on_a_prefix_of_the_clustering_order_loads():
    """The other keys are rejected (`tests/test_cli_inputs.py`)."""
    rel = {"name": "r", "row_count": 10, "tuple_bytes": 8, "columns": ["a", "b"], "clustering_order": ["a", "b"]}
    index = {"relation": "r", "key_order": ["a"], "kind": "clustering"}
    assert load_catalog({"relations": [rel], "indices": [index]}).indices[0].kind == "clustering"


def test_group_by_stats_include_aggregate_column():
    catalog, query = load_pair("tpch_catalog.json", "q3_query.json")
    stats = expr_stats(query.root, catalog)
    widths = dict(stats.widths)
    assert widths[lx.AGG_ATTR] == 8.0
    assert stats.rows <= expr_stats(query.root.input, catalog).rows


# --- derived statistics against a frozen reference --------------------------


@dataclass(frozen=True)
class _RefStats:
    rows: float
    width: float
    distinct: tuple[tuple[str, float], ...]
    widths: tuple[tuple[str, float], ...]

    def distinct_map(self) -> dict[str, float]:
        return dict(self.distinct)


class _ReferenceStats:
    """The statistics derivation as it stood before it was tuned for speed,
    kept verbatim apart from recursing through its own memo: every float it
    makes, and the order each sum is taken in, is the reference."""

    def __init__(self, catalog):
        self.catalog = catalog
        self.memo = {}

    def expr_stats(self, e):
        if e not in self.memo:
            self.memo[e] = self._compute_stats(e, self.catalog)
        return self.memo[e]

    def _compute_stats(self, e, catalog):
        if isinstance(e, lx.Scan):
            rel = catalog.relation(e.relation)
            w = rel.attr_width()
            counts = dict(rel.distincts)  # a column without a count has all values distinct
            distinct = tuple((a, float(min(counts.get(a, rel.row_count), rel.row_count))) for a in sorted(rel.columns))
            widths = tuple((a, w) for a in sorted(rel.columns))
            return _RefStats(float(rel.row_count), float(rel.tuple_bytes), distinct, widths)

        if isinstance(e, lx.Select):
            s = self.expr_stats(e.input)
            rows = s.rows * e.selectivity
            return _RefStats(rows, s.width, s.distinct, s.widths)

        if isinstance(e, lx.Project):
            s = self.expr_stats(e.input)
            widths = tuple((a, w) for a, w in s.widths if a in e.cols)
            distinct = tuple((a, d) for a, d in s.distinct if a in e.cols)
            width = sum(w for _, w in widths)
            return _RefStats(s.rows, width, distinct, widths)

        if isinstance(e, lx.Join):
            ls = self.expr_stats(e.left)
            rs = self.expr_stats(e.right)
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
            return _RefStats(
                rows,
                width,
                tuple(sorted(distinct.items())),
                tuple(sorted(widths.items())),
            )

        if isinstance(e, lx.GroupBy):
            s = self.expr_stats(e.input)
            rows = self.distinct_count(e.input, e.keys)
            widths = {a: w for a, w in s.widths if a in e.keys}
            widths[lx.AGG_ATTR] = float(e.agg_width_bytes)
            distinct = {a: min(d, rows) for a, d in s.distinct if a in e.keys}
            distinct[lx.AGG_ATTR] = rows
            return _RefStats(
                rows,
                sum(widths.values()),
                tuple(sorted(distinct.items())),
                tuple(sorted(widths.items())),
            )

        raise TypeError(f"not a logical expression: {e!r}")

    def distinct_count(self, e, s):
        if not s:
            return 1.0
        stats = self.expr_stats(e)
        dmap = stats.distinct_map()
        cap = max(stats.rows, 1.0)
        prod = 1.0
        for a in s:
            prod *= max(min(dmap[a], cap), 1.0)
            if prod >= cap:
                return cap
        return min(prod, cap)


def _assert_stats_match_reference(catalog, root):
    ref = _ReferenceStats(catalog)
    for e in lx.preorder(root):
        got, want = expr_stats(e, catalog), ref.expr_stats(e)
        assert (got.rows, got.width) == (want.rows, want.width), e
        assert list(dict(got.distinct).items()) == list(want.distinct), e
        assert list(dict(got.widths).items()) == list(want.widths), e
        assert all(map(math.isfinite, (got.rows, got.width)))
        for attrs in (frozenset(), schema(e, catalog), frozenset(sorted(schema(e, catalog))[:2])):
            assert distinct_count(e, attrs, catalog) == ref.distinct_count(e, attrs)


def test_stats_match_the_reference_on_every_fixture_subexpression():
    pairs = perfbench_workloads().FIXTURE_PAIRS
    assert len(pairs) == 6
    for cat, qry in pairs:
        catalog, query = load_pair(cat, qry)
        _assert_stats_match_reference(catalog, query.root)


def test_stats_match_the_reference_on_plan_chain_queries():
    """The first 200 seed-0 inputs of the benchmark's plan_chain workload:
    left-deep and bushy join trees of 8 to 64 joins, selects and group-bys."""
    for catalog_text, query_text, _ in perfbench_workloads().chain_inputs(0, 200):
        catalog = load_catalog(catalog_text)
        _assert_stats_match_reference(catalog, parse_query(query_text, catalog).root)
