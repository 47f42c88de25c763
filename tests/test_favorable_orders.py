import logging
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ordopt.favorable_orders as fo
import ordopt.logical_expr as lx
from ordopt import (
    CostParams,
    EMPTY,
    FavorableOrderIndex,
    TooLarge,
    enforce_cost,
    index_for_query,
    load_catalog,
    QuerySpec,
    SortOrder,
    order,
    restrict_orders,
)
from ordopt.oracle import OracleGuard, brute_best_plan, exact_minimal_favorable_orders
from ordopt.order_algebra import lcp_with_set

from conftest import load_pair, random_catalog_and_join, random_chain_query, schema
from test_order_algebra import attr_sets, orders


def _example1_index():
    catalog, query = load_pair("example1_catalog.json", "example1_query.json")
    return catalog, query, index_for_query(query, catalog)


def test_example1_base_relation_orders():
    catalog, query, index = _example1_index()
    top = query.root
    lower = top.left
    assert index.orders_for(lower.left) == frozenset({order("year")})
    assert index.orders_for(lower.right) == frozenset({order("make")})
    assert index.orders_for(top.right) == frozenset({order("make")})


def test_example1_join_orders_contain_published_extensions():
    catalog, query, index = _example1_index()
    top = query.root
    lower = top.left
    lower_orders = index.orders_for(lower)
    # The year- and make-led extensions over the four join attributes
    # (middle attributes are the deterministic canonical choice).
    assert order("year", "city", "color", "make") in lower_orders
    assert order("make", "city", "color", "year") in lower_orders
    # Input orders are kept as well; pinned exact set:
    assert lower_orders == frozenset(
        {
            order("year"),
            order("make"),
            order("year", "city", "color", "make"),
            order("make", "city", "color", "year"),
            order("city", "color", "make", "year"),
        }
    )
    top_orders = index.orders_for(top)
    assert order("year", "make") in top_orders
    assert order("make", "year") in top_orders
    assert top_orders == lower_orders | frozenset({order("make", "year"), order("year", "make")})


def test_scan_without_access_paths_has_no_orders():
    catalog = load_catalog(
        {
            "relations": [
                {
                    "name": "bare",
                    "row_count": 10,
                    "tuple_bytes": 8,
                    "columns": ["a", "b"],
                    "clustering_order": [],
                    "distincts": {},
                }
            ],
            "indices": [],
        }
    )
    index = FavorableOrderIndex(catalog, frozenset(["a", "b"]))
    assert index.orders_for(lx.Scan("bare")) == frozenset()


def test_project_rule_cuts_orders():
    catalog = load_catalog(
        {
            "relations": [
                {
                    "name": "r",
                    "row_count": 10,
                    "tuple_bytes": 8,
                    "columns": ["a", "b"],
                    "clustering_order": ["a", "b"],
                    "distincts": {},
                }
            ],
            "indices": [],
        }
    )
    index = FavorableOrderIndex(catalog, frozenset(["a", "b"]))
    scan = lx.Scan("r")
    assert index.orders_for(lx.Project(scan, frozenset("a"))) == frozenset({order("a")})
    assert index.orders_for(lx.Select(scan, 0.5, frozenset())) == index.orders_for(scan)


def test_scan_orders_reverse_lookup_to_access_paths():
    # a scan's favorable orders are exactly the non-empty orders of its access paths
    from ordopt import CostParams, access_paths

    rng = random.Random(17)
    params = CostParams()
    for _ in range(25):
        catalog, query, _ = random_catalog_and_join(rng)
        attrs = lx.query_attrs(query, catalog)
        index = FavorableOrderIndex(catalog, attrs)
        for scan in (s for s in lx.preorder(query.root) if isinstance(s, lx.Scan)):
            produced = {o for _, o in access_paths(scan, catalog, attrs, params)}
            assert index.orders_for(scan) == produced - {EMPTY}


def test_restrict_orders_examples():
    got = restrict_orders({order("year", "color", "city", "make")}, frozenset(["year", "make"]))
    assert got == frozenset({order("year")})
    assert restrict_orders(set(), frozenset("ab")) == frozenset()
    assert restrict_orders({order("make", "year")}, frozenset(["make", "year"])) == frozenset(
        {order("make", "year")}
    )


@given(st.frozensets(orders, max_size=8), attr_sets)
def test_restrict_orders_is_the_set_of_nonempty_longest_prefixes(some_orders, s):
    got = restrict_orders(some_orders, s)
    assert got == {lcp_with_set(o, s) for o in some_orders} - {EMPTY}
    assert all(type(o) is SortOrder for o in got)


def test_join_set_size_bound_and_lcp_call_count(monkeypatch):
    """A join's set has at most two members per input order, plus one, and
    computing it takes at most one step of `restrict_orders`' loop (one
    longest prefix within the join attributes) per input order.  The steps
    are counted by feeding that loop through a counting iterator."""
    rng = random.Random(3)
    real = fo.restrict_orders
    steps = [0]

    def counting(orders, s):
        def each():
            for o in orders:
                steps[0] += 1
                yield o

        return real(each(), s)

    monkeypatch.setattr(fo, "restrict_orders", counting)
    for _ in range(30):
        catalog, query, _ = random_catalog_and_join(rng)
        join = query.root
        index = FavorableOrderIndex(catalog, schema(join, catalog))
        left = index.orders_for(join.left)
        right = index.orders_for(join.right)
        steps[0] = 0
        got = index.orders_for(join)  # children already cached; count this node only
        assert len(got) <= 2 * (len(left) + len(right)) + 1
        assert steps[0] <= len(left) + len(right) + 1


def test_the_pass_does_not_recurse_on_a_chain_three_times_the_recursion_limit():
    """The chain is built as expressions, beneath the parser's depth guard."""
    catalog = load_catalog(
        {
            "relations": [
                {"name": f"r{i}", "row_count": 100, "tuple_bytes": 8, "columns": ["a", "b", "c"],
                 "clustering_order": ["c"] if i % 2 else []}
                for i in range(3)
            ]
        }
    )
    joins = 3 * sys.getrecursionlimit()
    e = lx.Scan("r0")
    for i in range(1, joins + 1):
        e = lx.Join(e, lx.Scan(f"r{i % 3}"), frozenset("ab" if i % 2 else "bc"))
    index = FavorableOrderIndex(catalog, frozenset("abc"))
    got = index.orders_for(e)
    assert order("c") in got and order("a", "b") in got
    assert index.orders_for(e.left.left) <= got


def _single_relation_catalog(clustering, indices):
    return load_catalog(
        {
            "relations": [
                {
                    "name": "r",
                    "row_count": 2000,
                    "tuple_bytes": 24,
                    "columns": ["a", "b", "c"],
                    "clustering_order": clustering,
                    "distincts": {"a": 50, "b": 40, "c": 30},
                }
            ],
            "indices": indices,
        }
    )


def test_exact_minimal_orders_single_clustering():
    catalog = _single_relation_catalog(["a"], [])
    got = exact_minimal_favorable_orders(lx.Scan("r"), catalog, CostParams())
    assert got == frozenset({order("a")})


def test_exact_minimal_orders_clustering_plus_covering_index():
    catalog = _single_relation_catalog(
        ["a"],
        [{"relation": "r", "key_order": ["b"], "included_columns": ["a", "c"], "kind": "secondary"}],
    )
    got = exact_minimal_favorable_orders(lx.Scan("r"), catalog, CostParams())
    assert got == frozenset({order("a"), order("b")})


def test_exact_minimal_orders_no_access_paths():
    catalog = _single_relation_catalog([], [])
    got = exact_minimal_favorable_orders(lx.Scan("r"), catalog, CostParams())
    assert got == frozenset()


def test_exact_minimal_orders_guard():
    catalog = load_catalog(
        {
            "relations": [
                {
                    "name": "wide",
                    "row_count": 10,
                    "tuple_bytes": 8,
                    "columns": list("abcdefg"),
                    "clustering_order": [],
                    "distincts": {},
                }
            ],
            "indices": [],
        }
    )
    with pytest.raises(TooLarge):
        exact_minimal_favorable_orders(lx.Scan("wide"), catalog, CostParams())


def test_large_order_sets_neither_logged_nor_pruned(monkeypatch, caplog):
    monkeypatch.setattr(fo, "SET_SIZE_FLAG", 2)
    catalog, query = load_pair("example1_catalog.json", "example1_query.json")
    with caplog.at_level(logging.DEBUG, logger="ordopt"):
        index = index_for_query(query, catalog)
        got = index.orders_for(query.root)
    assert len(got) > 2  # nothing was pruned
    assert caplog.records == []


def test_empty_order_never_stored():
    rng = random.Random(19)
    for _ in range(20):
        catalog, query, _ = random_catalog_and_join(rng)
        index = FavorableOrderIndex(catalog, schema(query.root, catalog))
        for node in lx.preorder(query.root):
            assert EMPTY not in index.orders_for(node)


def test_exact_minimal_orders_have_positive_benefit():
    rng = random.Random(21)
    guard = OracleGuard()
    checked = 0
    for _ in range(20):
        catalog, query, params = random_catalog_and_join(rng)
        for side in (query.root.left, query.root.right):
            base = brute_best_plan(side, EMPTY, catalog, params, guard)
            for o in exact_minimal_favorable_orders(side, catalog, params, guard):
                benefit = base + enforce_cost(side, EMPTY, o, params, catalog) - brute_best_plan(
                    side, o, catalog, params, guard
                )
                assert benefit > 0
                checked += 1
    assert checked > 10


_FIXTURE_PAIRS = (
    ("example1_catalog.json", "example1_query.json"),
    ("postopt_catalog.json", "postopt_query.json"),
    ("tpch_catalog.json", "q2_query.json"),
    ("tpch_catalog.json", "q3_query.json"),
    ("q4_catalog.json", "q4_query.json"),
    ("q5_catalog.json", "q5_query.json"),
)


def _property_queries(rng):
    """Single joins, chains of up to five relations (half of them under a
    group-by) and the fixture pairs, as (catalog, query)."""
    out = [random_catalog_and_join(rng)[:2] for _ in range(20)]
    while len(out) < 50:
        got = random_chain_query(rng, rng.randint(2, 5))
        if got is None:
            continue
        catalog, query, _ = got
        if rng.random() < 0.5:
            sch = sorted(schema(query.root, catalog))
            keys = frozenset(rng.sample(sch, rng.randint(1, len(sch))))
            query = QuerySpec(lx.GroupBy(query.root, keys, 8), EMPTY)
        out.append((catalog, query))
    return out + [load_pair(cat, qry) for cat, qry in _FIXTURE_PAIRS]


def _per_member_orders(index, e):
    """A join's or group-by's favorable orders by the per-member formula:
    every input order and the empty one, cut to its prefix within the
    attribute set and extended in name order; a join also keeps its inputs'
    orders."""
    if isinstance(e, lx.Join):
        s, inputs = e.join_attrs, index.orders_for(e.left) | index.orders_for(e.right)
        out = set(inputs)
    else:
        s, inputs = e.keys, index.orders_for(e.input)
        out = set()
    for o in inputs | {EMPTY}:
        head = lcp_with_set(o, s)
        out.add(SortOrder(head + tuple(sorted(s - head.attr_set()))))
    out.discard(EMPTY)
    return frozenset(out)


def _ancestor_sets(root):
    """(node, attribute set) for every node and every join or group-by
    attribute set strictly above it."""
    pairs = []
    stack = [(root, ())]
    while stack:
        e, above = stack.pop()
        pairs += [(e, s) for s in above]
        if isinstance(e, lx.Join):
            above = above + (e.join_attrs,)
        elif isinstance(e, lx.GroupBy):
            above = above + (e.keys,)
        stack += [(c, above) for c in lx.children(e)]
    return pairs


def test_restricted_sets_equal_restricting_the_full_sets():
    rng = random.Random(31)
    checked = 0
    for catalog, query in _property_queries(rng):
        index = index_for_query(query, catalog)
        pairs = _ancestor_sets(query.root)
        rng.shuffle(pairs)  # fill any cache in no particular order
        for e, s in pairs:
            got = index.restricted(e, s)
            assert got == restrict_orders(index.orders_for(e), s)
            assert index.restricted(e, s) == got
            checked += 1
        for e in lx.preorder(query.root):
            if isinstance(e, (lx.Join, lx.GroupBy)):
                assert index.orders_for(e) == _per_member_orders(index, e)
                s = e.join_attrs if isinstance(e, lx.Join) else e.keys
                assert index.usable(e) == frozenset().union(
                    *(restrict_orders(index.orders_for(c), s) for c in lx.children(e))
                )
    assert checked > 200
