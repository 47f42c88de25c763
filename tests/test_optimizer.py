import copy
import hashlib
import itertools
import json
import random

import pytest

import ordopt.logical_expr as lx
from ordopt import (
    CostParams,
    EMPTY,
    FavorableOrderIndex,
    Optimizer,
    OrdoptError,
    QuerySpec,
    SortOrder,
    TooLarge,
    ValidationError,
    enforce_cost,
    format_plan,
    index_for_query,
    interesting_orders,
    is_prefix,
    lcp,
    lcp_with_set,
    load_catalog,
    load_plan_document,
    optimize_query,
    order,
    parse_query,
    plan_document,
    query_to_dict,
    refine_with,
)
from ordopt.optimizer import _SORTS
from ordopt.order_refinement import refine_plan

from conftest import load_pair, random_catalog_and_join, random_chain_query


def _optimize(cat, qry, **kw):
    catalog, query = load_pair(cat, qry)
    params = kw.pop("params", CostParams())
    opt = Optimizer(catalog, params, query, **kw)
    plan = opt.optimize()
    return catalog, query, params, opt, plan


def test_a1_plan_exploits_partial_sort():
    catalog, query, params, _, plan = _optimize("tpch_catalog.json", "q2_query.json")
    ops = [p.op for p in plan.walk()]
    assert "covering_index_scan" in ops
    assert "partial_sort" in ops
    assert "full_sort" not in ops
    # cost inequality against the sort-everything route
    scan = lx.Scan("lineitem")
    full_route = (
        164063  # table scan blocks
        + enforce_cost(scan, EMPTY, order("suppkey", "partkey"), params, catalog)
    )
    assert plan.total_cost < full_route


def test_empty_goal_is_plain_access_path():
    catalog, _ = load_pair("tpch_catalog.json", "q2_query.json")
    query = parse_query(
        {"expr": {"op": "scan", "relation": "partsupp"}, "order_by": []}, catalog
    )
    plan = optimize_query(catalog, CostParams(), query)
    assert plan.op in ("table_scan", "covering_index_scan")
    assert plan.children == ()


def test_q3_plan_structure():
    _, _, _, _, plan = _optimize("tpch_catalog.json", "q3_query.json")
    nodes = list(plan.walk())
    gb = [p for p in nodes if p.op == "sort_group_by"]
    assert gb, "expected a sort-based group-by"
    join = [p for p in nodes if p.op == "merge_join"]
    assert join
    # the group-by consumes an order extending the join's order
    assert is_prefix(join[0].produced_order, gb[0].children[0].produced_order)

    def lineitem_subtree(p):
        for n in p.walk():
            if n.op == "covering_index_scan" and n.expr.relation == "lineitem":
                return True
        return False

    side = [c for c in join[0].children if lineitem_subtree(c)]
    assert side
    ops_above = [n.op for n in side[0].walk()]
    assert "partial_sort" in ops_above and "full_sort" not in ops_above


def test_example1_joins_share_prefix():
    _, _, _, _, plan = _optimize("example1_catalog.json", "example1_query.json")
    joins = [p for p in plan.walk() if p.op == "merge_join"]
    assert len(joins) == 2
    shared = lcp(joins[0].produced_order, joins[1].produced_order)
    assert shared == ("make", "year")


def test_interesting_orders_examples():
    catalog, query = load_pair("example1_catalog.json", "example1_query.json")
    index = index_for_query(query, catalog)
    top = query.root
    lower = top.left
    got_top = interesting_orders(top, query.required_output_order, index)
    assert got_top == {order("make", "year"), order("year", "make")}
    # union over the two sub-goals the top join generates: four orders
    union = interesting_orders(lower, order("make", "year"), index) | interesting_orders(
        lower, order("year", "make"), index
    )
    assert union == {
        order("make", "year", "city", "color"),
        order("year", "make", "city", "color"),
        order("year", "city", "color", "make"),
        order("make", "city", "color", "year"),
    }


def test_interesting_orders_fallback_to_canonical():
    catalog, query = load_pair("q4_catalog.json", "q4_query.json")
    index = index_for_query(query, catalog)
    lower = query.root.left
    got = interesting_orders(lower, EMPTY, index)
    assert got == {order("c3", "c4", "c5")}


class _Substituted(FavorableOrderIndex):
    """An index whose sets come from another index, through `orders_for` alone."""

    def __init__(self, index):
        super().__init__(index.catalog, index.query_attrs)
        self.index = index

    def orders_for(self, e):
        return self.index.orders_for(e)


def test_a_substituted_orders_for_gives_the_default_plan():
    rng = random.Random(37)
    cases = [load_pair(cat, qry) + (CostParams(),) for cat, qry in (
        ("example1_catalog.json", "example1_query.json"),
        ("tpch_catalog.json", "q3_query.json"),
        ("q4_catalog.json", "q4_query.json"),
        ("q5_catalog.json", "q5_query.json"),
    )]
    cases += [random_catalog_and_join(rng) for _ in range(15)]
    cases += [c for c in (random_chain_query(rng, rng.randint(3, 5)) for _ in range(15)) if c is not None]
    for catalog, query, params in cases:
        default = optimize_query(catalog, params, query)
        source = _Substituted(index_for_query(query, catalog))
        got = optimize_query(catalog, params, query, order_source=source)
        assert got == default
        assert plan_document(got, catalog, params, query) == plan_document(default, catalog, params, query)


def test_memo_idempotence_and_enforcer_dominance():
    catalog, query, params, opt, plan = _optimize("tpch_catalog.json", "q3_query.json")
    again = opt.optimize()
    assert again.total_cost == plan.total_cost
    for (e, want), node in opt.memo.items():
        if not want:
            continue
        base = opt.memo.get((e, EMPTY))
        assert base is not None
        bound = base.total_cost + enforce_cost(e, EMPTY, want, params, catalog)
        assert node.total_cost <= bound + 1e-9


def test_enforcer_dominance_on_random_catalogs():
    rng = random.Random(88)
    for _ in range(40):
        catalog, query, params = random_catalog_and_join(rng)
        opt = Optimizer(catalog, params, query)
        opt.optimize()
        for (e, want), node in opt.memo.items():
            if not want:
                continue
            base = opt.memo[(e, EMPTY)]
            bound = base.total_cost + enforce_cost(e, EMPTY, want, params, catalog)
            assert node.total_cost <= bound + 1e-9


FIXTURE_PAIRS = [
    ("example1_catalog.json", "example1_query.json"),
    ("tpch_catalog.json", "q2_query.json"),
    ("tpch_catalog.json", "q3_query.json"),
    ("q4_catalog.json", "q4_query.json"),
    ("q5_catalog.json", "q5_query.json"),
    ("postopt_catalog.json", "postopt_query.json"),
]


@pytest.mark.parametrize("cat,qry", FIXTURE_PAIRS)
def test_produced_order_soundness(cat, qry):
    from conftest import assert_plan_sound

    catalog, query = load_pair(cat, qry)
    plan = optimize_query(catalog, CostParams(), query)
    assert_plan_sound(plan, query, catalog)


def test_unknown_heuristic_is_rejected():
    catalog, query = load_pair("example1_catalog.json", "example1_query.json")
    with pytest.raises(ValidationError, match="unknown heuristic 'greedy'; expected one of "):
        Optimizer(catalog, CostParams(), query, heuristic="greedy")


def test_a_code_built_query_gets_the_error_of_its_document():
    """A session checks a query built in code as `parse_query` checks its
    document: same error type, message and path."""
    catalog, query = load_pair("example1_catalog.json", "example1_query.json")
    root, inner, by = query.root, query.root.left, query.required_output_order
    roots = [
        # the query cases of tests/test_cli_inputs.py that a query built in code can have
        lx.Select(root, True, frozenset()),
        lx.Join(lx.Join(lx.Scan("zz"), inner.right, inner.join_attrs), root.right, root.join_attrs),
        lx.Join(lx.Join(inner.left, inner.right, frozenset(["make", "breakdowns"])), root.right, root.join_attrs),
        lx.Join(inner, root.right, frozenset(["make", "sellreason"])),
        lx.Join(lx.Select(inner, 1.0, frozenset(["zz"])), root.right, root.join_attrs),
        lx.Project(root, frozenset(["make", "zz"])),
        lx.Join(inner, lx.GroupBy(root.right, frozenset(["zz"]), 8), root.join_attrs),
        lx.Select(root, 2.0, frozenset()),
        lx.Select(root, 0.0, frozenset()),
        lx.Project(root, frozenset(["nope"])),
        # faults of form
        lx.Join(inner, root.right, frozenset()),
        lx.Join(inner, root.right, root.join_attrs, "x"),
        lx.GroupBy(root, frozenset(by), 8.5),
    ]
    cases = [(catalog, QuerySpec(r, by)) for r in roots] + [(catalog, QuerySpec(root, SortOrder(("zz",))))]
    # q3's order as a plain tuple: a duplicate, an empty name, a name outside the output schema
    q3_catalog, q3 = load_pair("tpch_catalog.json", "q3_query.json")
    cases += [(q3_catalog, QuerySpec(q3.root, o)) for o in (("partkey", "partkey"), ("",), ("zz",))]
    for cat, q in cases:
        with pytest.raises(OrdoptError) as parsed:
            parse_query(query_to_dict(q), cat)
        with pytest.raises(OrdoptError) as planned:
            Optimizer(cat, CostParams(), q)
        assert (type(planned.value), str(planned.value)) == (type(parsed.value), str(parsed.value))
    # a tuple of names plans as the parsed order does; any other value is rejected, not coerced
    params = CostParams()
    built = QuerySpec(q3.root, ("partkey",))
    assert plan_document(Optimizer(q3_catalog, params, built).optimize(), q3_catalog, params, built) == plan_document(
        Optimizer(q3_catalog, params, q3).optimize(), q3_catalog, params, q3
    )
    for o in (["partkey"], "partkey"):
        with pytest.raises(ValidationError, match="^order_by: "):
            Optimizer(q3_catalog, params, QuerySpec(q3.root, o))


def test_sessions_check_only_the_order_of_a_parsed_query(monkeypatch):
    """Parsing a query checks its nodes and caches their statistics on the
    catalog, so a planning session checks its order alone."""
    from ordopt import _doc

    catalog, query = load_pair("q5_catalog.json", "q5_query.json")
    checked, plain = [], _doc.within

    def counting(attrs, available, path, where):
        checked.append(path)
        return plain(attrs, available, path, where)

    monkeypatch.setattr(_doc, "within", counting)
    for _ in range(4):
        Optimizer(catalog, CostParams(), query)
    assert checked == ["order_by"] * 4


def test_exhaustive_guard():
    cols = list("abcdefg")
    catalog = load_catalog(
        {
            "relations": [
                {"name": n, "row_count": 100, "tuple_bytes": 56, "columns": cols,
                 "clustering_order": [], "distincts": {}}
                for n in ("x", "y")
            ],
            "indices": [],
        }
    )
    query = parse_query(
        {
            "expr": {
                "op": "join",
                "left": {"op": "scan", "relation": "x"},
                "right": {"op": "scan", "relation": "y"},
                "join_attrs": cols,
            },
            "order_by": [],
        },
        catalog,
    )
    with pytest.raises(TooLarge):
        optimize_query(catalog, CostParams(), query, heuristic="exhaustive")
    # the default heuristic handles the same query fine
    optimize_query(catalog, CostParams(), query)


def test_exhaustive_never_loses_to_other_heuristics():
    rng = random.Random(77)
    for _ in range(40):
        catalog, query, params = random_catalog_and_join(rng)
        costs = {
            h: optimize_query(catalog, params, query, heuristic=h).total_cost
            for h in ("exhaustive", "favorable", "postgres", "arbitrary")
        }
        for h in ("favorable", "postgres", "arbitrary"):
            assert costs["exhaustive"] <= costs[h] + 1e-9


def test_hash_join_competes_when_enabled():
    catalog, query = load_pair("q4_catalog.json", "q4_query.json")
    params = CostParams(hashjoin_enabled=True, hash_per_block_io_equiv=0.001)
    plan = optimize_query(catalog, params, query)
    assert any(p.op == "hash_join" for p in plan.walk())
    params = CostParams(hashjoin_enabled=True, hash_per_block_io_equiv=1000.0)
    plan = optimize_query(catalog, params, query)
    assert not any(p.op == "hash_join" for p in plan.walk())
    # disabled by default
    plan = optimize_query(catalog, CostParams(), query)
    assert not any(p.op.startswith("hash") for p in plan.walk())


def test_plan_document_round_trip():
    from conftest import assert_plan_sound

    catalog, query, params, _, plan = _optimize("tpch_catalog.json", "q3_query.json")
    doc = plan_document(plan, catalog, params, query)
    catalog2, params2, query2, plan2 = load_plan_document(doc)
    assert plan2.total_cost == plan.total_cost
    assert [p.op for p in plan2.walk()] == [p.op for p in plan.walk()]
    assert query2 == query
    assert_plan_sound(plan2, query2, catalog2)


@pytest.mark.parametrize("cat,qry", FIXTURE_PAIRS + [("bushy_catalog.json", "bushy_query.json")])
def test_every_order_is_an_exact_tuple(cat, qry):
    """An order is a plain tuple of names: the one a parsed query requires,
    and those that search, refinement and the loader put on plan nodes."""
    catalog, query, params, planner, plan = _optimize(cat, qry)
    refined = refine_with(planner, plan)
    _, _, query2, loaded = load_plan_document(plan_document(refined, catalog, params, query))
    assert type(query.required_output_order) is tuple and type(query2.required_output_order) is tuple
    for p in (plan, refined, loaded):
        for n in p.walk():
            assert type(n.produced_order) is tuple
            assert n.input_order is None or type(n.input_order) is tuple


def test_plan_document_writes_the_first_id_of_equal_subtrees():
    """A node may name any preorder position of an equal subtree; writing the
    loaded plan back gives every node the first one, as optimize does."""
    from test_cli_golden import SELF_JOIN_QUERY

    catalog, _ = load_pair("example1_catalog.json", "example1_query.json")
    query = parse_query(SELF_JOIN_QUERY, catalog)
    params = CostParams()
    doc = plan_document(optimize_query(catalog, params, query), catalog, params, query)
    renumbered = copy.deepcopy(doc)
    stack = [renumbered["plan"]["children"][1]]
    while stack:  # the right half: ids 1, 2, 3 name its own positions 4, 5, 6
        node = stack.pop()
        node["expr_id"] += 3
        stack.extend(node["children"])
    assert renumbered != doc
    catalog2, params2, query2, plan2 = load_plan_document(renumbered)
    assert plan_document(plan2, catalog2, params2, query2) == doc


def test_deterministic_across_sessions():
    a = _optimize("q5_catalog.json", "q5_query.json")[4]
    b = _optimize("q5_catalog.json", "q5_query.json")[4]
    assert [(p.op, p.produced_order, p.total_cost) for p in a.walk()] == [
        (p.op, p.produced_order, p.total_cost) for p in b.walk()
    ]


def _deep_plan():
    """A plan of 5000 levels: 4999 selects over a table scan."""
    catalog, query = load_pair("example1_catalog.json", "example1_query.json")
    builder = Optimizer(catalog, CostParams(), query)
    e = lx.Scan("rating")
    plan = builder._operator("table_scan", e, (), catalog.relation("rating").clustering_order)
    for _ in range(4999):
        e = lx.Select(e, 1.0, frozenset())
        plan = builder._operator("select", e, (plan,))
    return plan


def test_node_count_of_a_deep_plan_is_stored():
    plan = _deep_plan()
    assert plan.node_count == 5000
    assert sum(1 for _ in plan.walk()) == 5000


def test_a_deep_plan_is_written_and_printed_without_recursion():
    """The plan writer and the text printer keep an explicit stack, so a
    plan far deeper than the interpreter's recursion limit goes through."""
    from ordopt.optimizer import _node_fields, _plan_node_to_dict

    plan = _deep_plan()
    nodes = list(plan.walk())
    ids = {p.expr: i for i, p in enumerate(nodes)}
    d = _plan_node_to_dict(plan, ids)
    for i, p in enumerate(nodes):
        assert {k: v for k, v in d.items() if k != "children"} == _node_fields(p, i)
        assert len(d["children"]) == len(p.children)
        d = d["children"][0] if p.children else None
    lines = format_plan(plan).split("\n")
    assert len(lines) == 5000
    assert all(line.startswith("  " * i + p.op + " ") for i, (line, p) in enumerate(zip(lines, nodes)))
    assert lines[-1] == "  " * 4999 + format_plan(nodes[-1])


def test_sort_group_by_reads_its_sorted_input_for_free():
    catalog, query = load_pair("example1_catalog.json", "example1_query.json")
    params = CostParams()
    builder = Optimizer(catalog, params, query)
    e = lx.Scan("rating")
    scan = builder._operator("table_scan", e, (), catalog.relation("rating").clustering_order)
    make = order("make")
    sorted_scan = builder._best(e, make, [(scan, scan.produced_order)])
    plan = builder._operator("sort_group_by", lx.GroupBy(e, frozenset(["make"]), 8), (sorted_scan,), make)
    assert (plan.op_cost, plan.total_cost, plan.produced_order) == (0.0, sorted_scan.total_cost, make)


def _long_chain(joins: int):
    """A left-deep chain of relations with four of eight columns, each
    sharing at least one with the one before, joined on up to three shared
    columns, with a covering index on every third relation and a required
    output order."""
    rng = random.Random(7)
    cols = [f"a{i}" for i in range(8)]
    rels, indices = [], []
    for i in range(joins + 1):
        shared = [rng.choice(rels[-1]["columns"])] if rels else []
        mine = sorted(shared + rng.sample([c for c in cols if c not in shared], 4 - len(shared)))
        rows = rng.choice([1000, 20000, 300000])
        rels.append({
            "name": f"r{i}", "row_count": rows, "tuple_bytes": 64, "columns": mine,
            "clustering_order": mine[:rng.randint(0, 2)], "distincts": {c: rng.choice([300, 1000]) for c in mine},
        })
        if i % 3 == 0:
            indices.append({"relation": f"r{i}", "key_order": mine[1:3], "included_columns": [mine[0], mine[3]]})
    catalog = load_catalog({"relations": rels, "indices": indices})
    expr, schema = lx.Scan("r0"), set(rels[0]["columns"])
    for i in range(1, joins + 1):
        common = sorted(schema & set(rels[i]["columns"]))
        expr = lx.Join(expr, lx.Scan(f"r{i}"), frozenset(rng.sample(common, min(len(common), rng.randint(1, 3)))))
        schema |= set(rels[i]["columns"])
    return catalog, lx.QuerySpec(expr, order("a1", "a0"))


#: Candidates ranked on the 64-join chain, without and with hash operators.
_CANDIDATES = {False: 912, True: 1105}


@pytest.mark.parametrize("hashjoin,nodes,sorts", [(False, 462, 190), (True, 526, 190)])
def test_search_builds_each_node_once_and_costs_each_sort_once(hashjoin, nodes, sorts, monkeypatch):
    """Search counts pinned on a 64-join chain: how many plan nodes it
    builds; one `sort_cost` call per (expression, known attribute set,
    rest length), the arguments it takes; and how many candidates it ranks,
    the (operator, order) pairs of each goal plus its fallback sort over the
    best unordered plan, so the winner's sort is built from its candidate's
    price."""
    from ordopt import cost_model
    from ordopt.optimizer import Optimizer

    catalog, query = _long_chain(64)
    params = CostParams(hashjoin_enabled=hashjoin, hash_per_block_io_equiv=0.5)
    built, costed, ranked = [], [], []
    plain_node, plain_cost, plain_choices = Optimizer._node, cost_model.sort_cost, Optimizer._choices

    def counting_node(self, *args, **kwargs):
        built.append(None)
        return plain_node(self, *args, **kwargs)

    def counting_cost(e, known, rest_len, params, catalog, data_blocks):
        costed.append((e, known, rest_len))
        return plain_cost(e, known, rest_len, params, catalog, data_blocks)

    def counting_choices(self, e, want):
        choices = plain_choices(self, e, want)
        ranked.append(len(choices) + bool(want))
        return choices

    monkeypatch.setattr(Optimizer, "_node", counting_node)
    monkeypatch.setattr(cost_model, "sort_cost", counting_cost)
    monkeypatch.setattr(Optimizer, "_choices", counting_choices)
    plan = optimize_query(catalog, params, query)
    assert len(costed) == len(set(costed))
    assert (len(built), len(costed)) == (nodes, sorts)
    assert sum(ranked) == _CANDIDATES[hashjoin]
    assert any(p.op == "merge_join" for p in plan.walk())


def _search_cases():
    chain = _long_chain(64)
    for hashjoin in (False, True):
        params = CostParams(hashjoin_enabled=hashjoin, hash_per_block_io_equiv=0.5)
        yield pytest.param(*chain, params, id=f"chain64-hashjoin={hashjoin}")
    for cat, qry in FIXTURE_PAIRS + [("bushy_catalog.json", "bushy_query.json")]:
        yield pytest.param(*load_pair(cat, qry), CostParams(), id=qry.removesuffix("_query.json"))


@pytest.mark.parametrize("catalog,query,params", _search_cases())
def test_search_prices_every_goal_as_sort_does(catalog, query, params):
    """Search, refinement and the loader price and place their sorts with
    `_best`: a plan whose root is a sort is what a fresh session's `_best`
    rebuilds over its input, from the prefix the sort relies on; any other
    memo plan delivers its goal's order itself, and comes back as itself."""
    planner = Optimizer(catalog, params, query)
    planner.optimize()
    fresh = Optimizer(catalog, params, query)
    sorts = 0
    for (e, want), node in planner.memo.items():
        if node.op not in _SORTS:
            assert planner._best(e, want, [(node, node.produced_order)]) is node
            continue
        sorts += 1
        assert node.produced_order == want
        assert fresh._best(e, want, [(node.children[0], node.input_order)]) == node
    assert sorts > 0


def _overflow_grid():
    """144 cost parameters, from the defaults' scale to the edge of float range."""
    from ordopt.catalog_stats import BlockConfig

    rates = (1e-7, 1e300, 1e306, 1.7976931348623157e308)
    hashing = ((False, 3.0), (True, 1e300), (True, 1.7e308))
    for block_bytes, memory_blocks in ((1, 3), (1, 10), (16, 3)):
        for cpu, merge, (hashjoin, per_block) in itertools.product(rates, rates, hashing):
            yield CostParams(BlockConfig(block_bytes, memory_blocks), cpu, merge, hashjoin, per_block)


def test_search_and_refinement_keep_their_costs_and_errors_over_an_overflow_grid():
    """Search, then refinement in its session, on the seven fixture pairs
    and the 64-join chain over `_overflow_grid`: each pair's error (type and
    message) or final costs are pinned, as is how many pairs fail."""
    cases = [load_pair(cat, qry) for cat, qry in FIXTURE_PAIRS + [("bushy_catalog.json", "bushy_query.json")]]
    cases.append(_long_chain(64))
    outcomes, failed = [], 0
    for catalog, query in cases:
        for params in _overflow_grid():
            try:
                planner = Optimizer(catalog, params, query)
                plan = planner.optimize()
                outcomes.append(f"{plan.total_cost!r} {refine_with(planner, plan).total_cost!r}")
            except OrdoptError as exc:
                outcomes.append(f"{type(exc).__name__}: {exc}")
                failed += 1
    assert (len(outcomes), failed) == (1152, 994)
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == "eafe08e1c293182eba51894282ad0a5fe7d2a60fcce59029223735f800fd746d"


@pytest.mark.parametrize("case,calls", [("postopt", 5), ("chain64", 101)])
def test_search_ranks_candidate_orders_once_per_requirement_prefix(case, calls, monkeypatch):
    """`interesting_orders` reads a goal's required order only through its
    prefix on the join attributes resp. grouping keys, so search calls it once
    per (expression, prefix): pinned on the postopt fixture and a 64-join
    chain (193 calls before the list was cached)."""
    from ordopt import optimizer

    catalog, query = _long_chain(64) if case == "chain64" else load_pair("postopt_catalog.json", "postopt_query.json")
    seen = []
    plain = optimizer.interesting_orders

    def counting(e, want, source):
        seen.append((e, lcp_with_set(want, lx.sort_attrs(e))))
        return plain(e, want, source)

    monkeypatch.setattr(optimizer, "interesting_orders", counting)
    plan = optimize_query(catalog, CostParams(), query)
    assert len(seen) == len(set(seen)) == calls
    monkeypatch.setattr(optimizer, "interesting_orders", plain)
    assert plan == optimize_query(catalog, CostParams(), query)


@pytest.mark.parametrize("cat,qry", FIXTURE_PAIRS)
def test_loading_a_plan_document_builds_each_node_once(cat, qry, monkeypatch):
    """Work counts of reloading each fixture's refined plan document: one
    node built per document node, one `sort_cost` call per sort node, and
    each distinct expression's statistics derived once on the new catalog."""
    from ordopt import catalog_stats, cost_model

    catalog, query = load_pair(cat, qry)
    params = CostParams()
    plan = refine_plan(optimize_query(catalog, params, query), query, catalog, params, index_for_query(query, catalog))
    doc = json.loads(json.dumps(plan_document(plan, catalog, params, query)))
    built, costed, derived = [], [], []
    plain_node, plain_cost, plain_stats = Optimizer._node, cost_model.sort_cost, catalog_stats._compute_stats

    def counting_node(self, *args, **kwargs):
        built.append(None)
        return plain_node(self, *args, **kwargs)

    def counting_cost(*args):
        costed.append(None)
        return plain_cost(*args)

    def counting_stats(e, catalog):
        derived.append(e)
        return plain_stats(e, catalog)

    monkeypatch.setattr(Optimizer, "_node", counting_node)
    monkeypatch.setattr(cost_model, "sort_cost", counting_cost)
    monkeypatch.setattr(catalog_stats, "_compute_stats", counting_stats)
    _, _, query2, plan2 = load_plan_document(doc)
    nodes = list(plan2.walk())
    assert len(built) == len(nodes) == sum(1 for _ in plan.walk())
    assert len(costed) == sum(1 for p in nodes if p.op in _SORTS) > 0
    assert len(derived) == len(set(derived)) == len(set(lx.preorder(query2.root)))


def test_a_sort_on_attributes_outside_its_input_is_rejected():
    """q4 has no ORDER BY, so only the sort's own check stands between a
    document and a plan sorted on attributes its expression lacks."""
    catalog, query = load_pair("q4_catalog.json", "q4_query.json")
    params = CostParams()
    doc = json.loads(json.dumps(plan_document(optimize_query(catalog, params, query), catalog, params, query)))
    root = doc["plan"]
    names = ["zz", "yy"]
    doc["plan"] = {
        "op": "full_sort", "expr_id": root["expr_id"], "order": names, "target_order": names, "input_order": [],
        "children": [root],
    }
    with pytest.raises(ValidationError, match=r"^plan\.order: attributes \['yy', 'zz'\] not in the input's schema$"):
        load_plan_document(doc)
