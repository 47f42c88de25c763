import math
import random

import pytest

import ordopt.logical_expr as lx
from ordopt import (
    BlockConfig,
    ConfigError,
    CostParams,
    EMPTY,
    SortOrder,
    ValidationError,
    access_paths,
    enforce_cost,
    expr_blocks,
    expr_stats,
    full_sort_cost,
    load_catalog,
    load_params,
    order,
    partial_sort_cost,
    sort_cpu_cost,
)
from ordopt.cost_model import hash_join_cost, merge_join_cost

from conftest import load_pair, random_catalog_and_join, schema


def _params(mem=10000, cpu=1e-6):
    return CostParams(cfg=BlockConfig(4096, mem), cpu_per_comparison_io_equiv=cpu)


def test_cpu_sort_cost_examples():
    p = _params()
    assert sort_cpu_cost(0, 3, p) == 0.0
    assert sort_cpu_cost(2, 1, CostParams(cpu_per_comparison_io_equiv=1.0)) == 2.0
    assert sort_cpu_cost(10**6, 2, p) == pytest.approx(39.86313713864835)


def test_full_sort_cost_cases():
    # in-memory: CPU only
    p = _params(mem=1000)
    assert full_sort_cost(10, 100, 2, p) == sort_cpu_cost(10, 2, p)
    # external: the printed I/O formula; log_99(100) is just over 1, so two passes
    p0 = _params(mem=100, cpu=0.0)
    assert full_sort_cost(10, 10000, 1, p0) == 50000.0
    assert full_sort_cost(0, 0, 1, p0) == 0.0
    # the CPU term rides on top of the external case
    p1 = _params(mem=100)
    assert full_sort_cost(10, 10000, 1, p1) == 50000.0 + sort_cpu_cost(10, 1, p1)


def test_block_config_guards():
    with pytest.raises(ConfigError):
        BlockConfig(4096, 1)
    with pytest.raises(ConfigError, match=r"^block_bytes must be >= 1$"):
        BlockConfig(0, 10)
    # fields are ints, not floats or bools
    for kwargs in ({"block_bytes": True}, {"memory_blocks": True}, {"block_bytes": 4096.0}, {"memory_blocks": 4.0}):
        with pytest.raises(ConfigError):
            BlockConfig(**kwargs)
    with pytest.raises(ConfigError):
        full_sort_cost(10, 100, 1, CostParams(cfg=BlockConfig(4096, 2)))


def test_cost_params_guards():
    # rates are finite floats or ints in [0, 2**53] (a bool is not an int
    # here), the flag is a bool and cfg a BlockConfig whose ints are at most
    # 2**53, as load_params reads them
    rates = ("cpu_per_comparison_io_equiv", "mergejoin_per_tuple_io_equiv", "hash_per_block_io_equiv")
    for name in rates:
        for value in (-1e-6, -1, math.nan, math.inf, -math.inf, True, False, "3", None, 10**400, 2**53 + 1):
            with pytest.raises(ConfigError, match=name):
                CostParams(**{name: value})
    for value in ("no", 1, 0, None):
        with pytest.raises(ConfigError, match="hashjoin_enabled"):
            CostParams(hashjoin_enabled=value, hash_per_block_io_equiv=0.01)
    for value in (None, (4096, 10), BlockConfig(block_bytes=10**400), BlockConfig(memory_blocks=2**53 + 1)):
        with pytest.raises(ConfigError, match="cfg"):
            CostParams(cfg=value)
    assert CostParams(BlockConfig(2**53, 2**53), 2**53).cpu_per_comparison_io_equiv == 2**53
    p = CostParams(BlockConfig(512, 3), 0, 2, True, 0.5)
    assert (p.cpu_per_comparison_io_equiv, p.mergejoin_per_tuple_io_equiv, p.hashjoin_enabled) == (0, 2, True)


def _lineitem_like_catalog():
    return load_catalog(
        {
            "relations": [
                {
                    "name": "li",
                    "row_count": 6_000_000,
                    "tuple_bytes": 8,
                    "columns": ["suppkey", "partkey"],
                    "clustering_order": [],
                    "distincts": {"suppkey": 10000, "partkey": 200000},
                }
            ],
            "indices": [],
        }
    )


def test_enforce_cost_cases():
    catalog = _lineitem_like_catalog()
    e = lx.Scan("li")
    p = _params()
    want = order("suppkey", "partkey")
    # already satisfied
    assert enforce_cost(e, want, want, p, catalog) == 0.0
    assert enforce_cost(e, order("suppkey", "partkey", "x"), want, p, catalog) == 0.0
    # no usable prefix: exactly the full sort
    stats = expr_stats(e, catalog)
    b = expr_blocks(e, catalog, p.cfg)
    assert enforce_cost(e, EMPTY, want, p, catalog) == full_sort_cost(stats.rows, b, 2, p)
    # known prefix: segments sorted independently, CPU-only when they fit
    got = enforce_cost(e, order("suppkey"), want, p, catalog)
    expected = 10000 * full_sort_cost(6_000_000 / 10000, b / 10000, 1, p)
    assert got == pytest.approx(expected)
    assert got == pytest.approx(10000 * sort_cpu_cost(600, 1, p))  # in-memory segments
    assert got < enforce_cost(e, EMPTY, want, p, catalog)


def test_partial_sort_cost_zero_cases():
    p = _params()
    assert partial_sort_cost(0, 0, 1, 2, p) == 0.0
    assert partial_sort_cost(100, 10, 5, 0, p) == 0.0
    # the segment count is clamped to the rows, then to at least one
    p = CostParams()
    assert partial_sort_cost(0.5, 1, 3.0, 2, p) == 0.5 * full_sort_cost(1.0, 2.0, 2, p) == 1e-06
    assert partial_sort_cost(10.0, 4, 0.25, 2, p) == full_sort_cost(10.0, 4, 2, p)


def _random_order_pair(rng, attrs):
    def rand_order():
        k = rng.randint(0, len(attrs))
        return SortOrder(tuple(rng.sample(attrs, k)))

    return rand_order(), rand_order()


def test_partial_never_costs_more_than_full():
    rng = random.Random(11)
    for _ in range(200):
        catalog, query, params = random_catalog_and_join(rng)
        e = query.root
        attrs = sorted(schema(e, catalog))
        have, want = _random_order_pair(rng, attrs)
        full = enforce_cost(e, EMPTY, want, params, catalog)
        part = enforce_cost(e, have, want, params, catalog)
        assert part <= full + 1e-9
        assert part >= 0.0 and math.isfinite(part)


def test_longer_known_prefix_never_costs_more():
    rng = random.Random(12)
    for _ in range(200):
        catalog, query, params = random_catalog_and_join(rng)
        e = query.root
        attrs = sorted(schema(e, catalog))
        want = SortOrder(tuple(rng.sample(attrs, rng.randint(1, len(attrs)))))
        cut1 = rng.randint(0, len(want))
        cut2 = rng.randint(cut1, len(want))
        shorter, longer = want[:cut1], want[:cut2]
        assert enforce_cost(e, longer, want, params, catalog) <= (
            enforce_cost(e, shorter, want, params, catalog) + 1e-9
        )


def test_operator_costs():
    p = _params()
    assert merge_join_cost(0, 0, p) == 0.0
    assert hash_join_cost(10, 20, p) == 90.0


def test_covering_index_scan_beats_table_scan_when_narrower():
    catalog, query = load_pair("tpch_catalog.json", "q2_query.json")
    p = _params()
    scan = lx.Scan("lineitem")
    table = access_paths(scan, catalog, frozenset(["suppkey", "partkey"]), p)
    paths = {kind: cost for (kind, _), cost in table.items()}
    assert paths["covering_index_scan"] < paths["table_scan"]


def test_load_params():
    p = load_params({"cost_params": {}})
    assert p.cpu_per_comparison_io_equiv == 1e-6
    assert p.mergejoin_per_tuple_io_equiv == 1e-7
    assert p.hashjoin_enabled is False
    with pytest.raises(ValidationError):
        load_params({"cost_params": {"bogus": 1}})
    with pytest.raises(ValidationError):
        load_params({"something": {}})
