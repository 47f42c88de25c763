import copy
import gc
import hashlib
import json
import pickle
import random

import pytest

import ordopt.logical_expr as lx
from ordopt import (
    EMPTY,
    Catalog,
    OrdoptError,
    ParseError,
    UnknownRelation,
    ValidationError,
    expr_stats,
    load_catalog,
    order,
    parse_query,
    query_attrs,
    query_to_dict,
)

from conftest import fixture_path, load_pair, perfbench_workloads, schema


def test_schema_rules():
    # An expression's output attributes are the keys of its distinct counts.
    catalog, query = load_pair("tpch_catalog.json", "q3_query.json")
    scan = lx.Scan("partsupp")
    assert schema(scan, catalog) == frozenset(["partkey", "suppkey", "availqty"])
    proj = lx.Project(scan, frozenset(["availqty"]))
    assert schema(proj, catalog) == frozenset(["availqty"])
    join = query.root.input
    assert schema(join, catalog) == (
        schema(join.left, catalog) | schema(join.right, catalog)
    )
    assert lx.AGG_ATTR in schema(query.root, catalog)


def test_parse_q3_analog_shape():
    catalog, query = load_pair("tpch_catalog.json", "q3_query.json")
    gb = query.root
    assert isinstance(gb, lx.GroupBy)
    assert gb.keys == frozenset(["availqty", "partkey", "suppkey"])
    join = gb.input
    assert isinstance(join, lx.Join)
    assert join.join_attrs == frozenset(["suppkey", "partkey"])
    assert isinstance(join.left, lx.Scan) and join.left.relation == "partsupp"
    assert isinstance(join.right, lx.Select)
    assert join.right.selectivity == 0.5
    assert query.required_output_order == order("partkey")


def test_parse_rejects_empty_join_attrs():
    catalog, _ = load_pair("tpch_catalog.json", "q3_query.json")
    doc = {
        "expr": {
            "op": "join",
            "left": {"op": "scan", "relation": "partsupp"},
            "right": {"op": "scan", "relation": "lineitem"},
            "join_attrs": [],
        },
        "order_by": [],
    }
    with pytest.raises(ValidationError) as err:
        parse_query(doc, catalog)
    assert "expr.join_attrs" in str(err.value)


def test_parse_rejects_order_by_outside_schema():
    catalog, _ = load_pair("tpch_catalog.json", "q3_query.json")
    doc = {
        "expr": {
            "op": "project",
            "input": {"op": "scan", "relation": "lineitem"},
            "cols": ["suppkey"],
        },
        "order_by": ["partkey"],
    }
    with pytest.raises(ValidationError) as err:
        parse_query(doc, catalog)
    assert "order_by" in str(err.value)


def test_parse_errors():
    catalog, _ = load_pair("tpch_catalog.json", "q3_query.json")
    with pytest.raises(ParseError):
        parse_query(b"{nope", catalog)
    with pytest.raises(UnknownRelation):
        parse_query({"expr": {"op": "scan", "relation": "ghost"}}, catalog)
    with pytest.raises(ValidationError):
        parse_query({"expr": {"op": "scan", "relation": "lineitem", "x": 1}}, catalog)
    with pytest.raises(ValidationError):
        parse_query(
            {
                "expr": {
                    "op": "select",
                    "input": {"op": "scan", "relation": "lineitem"},
                    "selectivity": 1.5,
                    "touched": [],
                }
            },
            catalog,
        )


@pytest.mark.parametrize(
    "cat,qry",
    [
        ("example1_catalog.json", "example1_query.json"),
        ("tpch_catalog.json", "q2_query.json"),
        ("tpch_catalog.json", "q3_query.json"),
        ("q4_catalog.json", "q4_query.json"),
        ("q5_catalog.json", "q5_query.json"),
        ("postopt_catalog.json", "postopt_query.json"),
    ],
)
def test_parse_serialize_round_trip(cat, qry):
    catalog, query = load_pair(cat, qry)
    doc = query_to_dict(query)
    again = parse_query(json.dumps(doc), catalog)
    assert again == query


def test_query_attrs_gathers_everything():
    catalog, query = load_pair("tpch_catalog.json", "q3_query.json")
    used = query_attrs(query, catalog)
    assert {"suppkey", "partkey", "availqty", "linestatus"} <= used
    assert lx.AGG_ATTR not in used


def _reference_query_attrs(q, catalog):
    """The definition: the output schema, the required order and every
    attribute a node names, without the aggregate column."""
    used = set(q.required_output_order) | schema(q.root, catalog)
    for node in lx.preorder(q.root):
        if isinstance(node, lx.Select):
            used |= node.touched
        elif isinstance(node, lx.Project):
            used |= node.cols
        elif isinstance(node, lx.Join):
            used |= node.join_attrs
        elif isinstance(node, lx.GroupBy):
            used |= node.keys
    used.discard(lx.AGG_ATTR)
    return frozenset(used)


def test_query_attrs_match_the_definition():
    """On the fixtures, the benchmark's first 200 seed-0 chain queries, and
    projects and group-bys stacked over each other and over joins."""
    pairs = [load_pair(c, q) for c, q in perfbench_workloads().FIXTURE_PAIRS]
    for catalog_text, query_text, _ in perfbench_workloads().chain_inputs(0, 200):
        catalog = load_catalog(catalog_text)
        pairs.append((catalog, parse_query(query_text, catalog)))
    catalog, _ = load_pair("tpch_catalog.json", "q3_query.json")
    join = lx.Join(lx.Scan("partsupp"), lx.Scan("lineitem"), frozenset(["partkey"]))
    inner = lx.GroupBy(join, frozenset(["partkey", "suppkey"]), 8)
    for root in (
        lx.Project(join, frozenset(["partkey"])),
        lx.GroupBy(inner, frozenset(["partkey", lx.AGG_ATTR]), 8),
        lx.Select(lx.Project(inner, frozenset([lx.AGG_ATTR, "suppkey"])), 0.5, frozenset(["suppkey"])),
    ):
        pairs.append((catalog, lx.QuerySpec(root, order(lx.AGG_ATTR))))
    for catalog, query in pairs:
        assert query_attrs(query, catalog) == _reference_query_attrs(query, catalog)


def test_preorder_lists_each_node_before_its_inputs_left_to_right():
    """The positions are the plan document's expression ids."""

    def reference(e):
        return [e] + [n for c in lx.children(e) for n in reference(c)]

    roots = [load_pair(c, q)[1].root for c, q in perfbench_workloads().FIXTURE_PAIRS]
    for catalog_text, query_text, _ in perfbench_workloads().chain_inputs(0, 40):
        roots.append(parse_query(query_text, load_catalog(catalog_text)).root)
    for root in roots:
        assert list(map(id, lx.preorder(root))) == list(map(id, reference(root)))


def test_full_outer_join_parses():
    catalog, query = load_pair("q4_catalog.json", "q4_query.json")
    assert query.root.full_outer
    assert query.required_output_order == EMPTY


def test_hashing_a_deep_expression_does_not_recurse():
    def chain():
        e = lx.Scan("r")
        for _ in range(5000):
            e = lx.Select(e, 0.5, frozenset())
        return e

    a = chain()
    assert {a: 1}[chain()] == 1


def test_writing_a_deep_query_does_not_recurse():
    # parsing stops at MAX_QUERY_DEPTH, so the chain is built in code
    e = lx.Scan("r")
    for i in range(5000):
        e = lx.Select(e, 0.5, frozenset(["a"] if i % 2 else []))
    doc = query_to_dict(lx.QuerySpec(e, EMPTY))
    assert list(doc) == ["expr", "order_by"] and doc["order_by"] == []
    d = doc["expr"]
    for i in reversed(range(5000)):
        assert list(d) == ["op", "input", "selectivity", "touched"]
        assert (d["op"], d["selectivity"], d["touched"]) == ("select", 0.5, ["a"] if i % 2 else [])
        d = d["input"]
    assert d == {"op": "scan", "relation": "r"}


def test_checking_a_deep_query_built_in_code_does_not_recurse():
    # the depth guard is for documents only: check_query takes any depth
    catalog, _ = load_pair("tpch_catalog.json", "q3_query.json")
    for relation in ("lineitem", "zz"):
        e = lx.Scan(relation)
        for _ in range(5000):
            e = lx.Select(e, 0.5, frozenset(["partkey"]))
        if relation == "zz":
            with pytest.raises(UnknownRelation, match=r"^expr(\.input){5000}: unknown relation 'zz'$"):
                lx.check_query(lx.QuerySpec(e, EMPTY), catalog)
        else:
            lx.check_query(lx.QuerySpec(e, order("partkey")), catalog)
            assert expr_stats(e, catalog).rows == 0.0  # 0.5**5000 of lineitem's rows



def test_a_value_that_is_no_expression_is_a_type_error():
    """`postorder` rejects any node it meets that is not an expression, so
    statistics, a planning session and the favorable-order index all do."""
    from ordopt import CostParams, Optimizer, index_for_query

    catalog, query = load_pair("tpch_catalog.json", "q3_query.json")
    index = index_for_query(query, catalog)
    for call in (
        lambda: expr_stats("x", catalog),
        lambda: expr_stats(lx.Select("x", 0.5, frozenset()), catalog),
        lambda: Optimizer(catalog, CostParams(), lx.QuerySpec("x", EMPTY)),
        lambda: index.orders_for("x"),
    ):
        with pytest.raises(TypeError, match=r"^not a logical expression: 'x'$"):
            call()

def test_two_parses_of_one_query_give_the_identical_root():
    for catalog_name, query_name in perfbench_workloads().FIXTURE_PAIRS:
        catalog, query = load_pair(catalog_name, query_name)
        again = parse_query(json.dumps(query_to_dict(query)), load_catalog(fixture_path(catalog_name).read_text()))
        assert again.root is query.root
        assert again == query


def test_deepcopy_and_pickle_give_back_the_same_node():
    _, query = load_pair("q5_catalog.json", "q5_query.json")
    for node in lx.preorder(query.root):
        assert copy.deepcopy(node) is node
        assert copy.copy(node) is node
        assert pickle.loads(pickle.dumps(node)) is node


def test_assigning_a_field_raises():
    j = lx.Join(lx.Scan("a"), lx.Scan("b"), frozenset(["x"]))
    for name in ("left", "full_outer", "surprise"):
        with pytest.raises(AttributeError):
            setattr(j, name, lx.Scan("c"))
        with pytest.raises(AttributeError):
            delattr(j, name)
    assert j.left is lx.Scan("a") and not j.full_outer


def test_repr_is_unchanged():
    j = lx.Join(lx.Scan("a"), lx.Scan("b"), frozenset(["x"]))
    assert repr(j) == "Join(left=Scan(relation='a'), right=Scan(relation='b'), join_attrs=frozenset({'x'}), full_outer=False)"
    g = lx.GroupBy(lx.Project(lx.Select(j, 0.5, frozenset()), frozenset(["x"])), frozenset(["x"]), 8)
    assert repr(g) == (
        "GroupBy(input=Project(input=Select(input=" + repr(j) + ", selectivity=0.5, touched=frozenset()), "
        "cols=frozenset({'x'})), keys=frozenset({'x'}), agg_width_bytes=8)"
    )


def test_numbers_and_flags_of_different_types_never_share_a_node():
    """They compare and hash alike, but a plan document prints each as given."""
    a, b, x = lx.Scan("a"), lx.Scan("b"), frozenset(["x"])
    pairs = [
        (lx.Join(a, b, x, False), lx.Join(a, b, x, 0)),
        (lx.Join(a, b, x, True), lx.Join(a, b, x, 1)),
        (lx.Select(a, 1.0, x), lx.Select(a, 1, x)),
        (lx.GroupBy(a, x, 1), lx.GroupBy(a, x, True)),
    ]
    for first, second in pairs:
        assert first is not second and first != second
        assert repr(first) != repr(second)
    assert lx.Join(a, b, x) is lx.Join(a, b, x, False)


def test_the_intern_table_forgets_dropped_queries():
    gc.collect()
    before = len(lx._interned)
    queries = []
    for catalog_text, query_text, _ in perfbench_workloads().chain_inputs(0, 200):
        queries.append(parse_query(query_text, load_catalog(catalog_text)))
    assert len(lx._interned) > before + 200
    del queries
    gc.collect()
    assert len(lx._interned) == before


def test_parsing_a_chain_walks_each_schema_once(monkeypatch):
    # Each join checks its attributes against both input schemas; re-deriving
    # them per join made parsing quadratic in the depth of the chain.
    joins = 120
    catalog = load_catalog(
        {
            "relations": [
                {"name": f"r{i}", "row_count": 10, "tuple_bytes": 16, "columns": ["a", "b"], "distincts": {}}
                for i in range(joins + 1)
            ],
            "indices": [],
        }
    )
    expr = {"op": "scan", "relation": "r0"}
    for i in range(1, joins + 1):
        expr = {"op": "join", "left": expr, "right": {"op": "scan", "relation": f"r{i}"}, "join_attrs": ["a"]}
    calls = 0
    real_relation = Catalog.relation

    def counted(self, name):
        nonlocal calls
        calls += 1
        return real_relation(self, name)

    # A parse that re-derived a subtree's schema would read each scan's
    # relation once per join above it.
    monkeypatch.setattr(Catalog, "relation", counted)
    query = parse_query({"expr": expr, "order_by": ["b"]}, catalog)
    assert len(lx.preorder(query.root)) == 2 * joins + 1
    assert calls <= joins + 1


#: The fixture pairs: a catalog and a query over it.
FIXTURE_PAIRS = (
    ("bushy_catalog.json", "bushy_query.json"),
    ("example1_catalog.json", "example1_query.json"),
    ("postopt_catalog.json", "postopt_query.json"),
    ("q4_catalog.json", "q4_query.json"),
    ("q5_catalog.json", "q5_query.json"),
    ("tpch_catalog.json", "q2_query.json"),
    ("tpch_catalog.json", "q3_query.json"),
)

#: The attribute field of each operator that names attributes of its input.
ATTR_FIELDS = {"join": "join_attrs", "select": "touched", "project": "cols", "group_by": "keys"}


def _node_docs(expr) -> list:
    """(node document, its op) for every node of a query expression document."""
    out, stack = [], [expr]
    while stack:
        node = stack.pop()
        out.append((node, node["op"]))
        stack += [node[k] for k in ("input", "left", "right") if k in node]
    return out


def _add_fault(rng, nodes, faults: int = 6) -> None:
    """Give a node drawn by `rng` one of the first `faults` faults: an unknown
    relation, "zz" added to its attribute field, selectivity 2.0, an unknown
    op, an extra field, `touched` not a list; then `full_outer` "x" or [1],
    and `agg_width_bytes` 0 or {"a": 1}."""
    while True:
        fault = rng.randrange(faults)
        ops = {0: ("scan",), 1: tuple(ATTR_FIELDS), 2: ("select",), 5: ("select",)}.get(fault)
        if fault >= 6:
            ops = ("join",) if fault < 8 else ("group_by",)
        candidates = [(node, op) for node, op in nodes if ops is None or op in ops]
        if candidates:
            break
    node, op = rng.choice(candidates)
    if fault == 0:
        node["relation"] = "zz"
    elif fault == 1:
        value = node.get(ATTR_FIELDS[op], [])
        node[ATTR_FIELDS[op]] = (value if isinstance(value, list) else []) + ["zz"]
    elif fault == 2:
        node["selectivity"] = 2.0
    elif fault == 3:
        node["op"] = "bogus"
    elif fault == 4:
        node["zz"] = 1
    elif fault == 5:
        node["touched"] = "x"
    else:
        field = "full_outer" if op == "join" else "agg_width_bytes"
        node[field] = {6: "x", 7: [1], 8: 0, 9: {"a": 1}}[fault]


def test_two_fault_query_documents_keep_their_first_error():
    """Which of two faults a query document reports: the pinned digest covers
    the type and message of each document's first error."""
    rng = random.Random(5)
    parsed, errors = 0, []
    for catalog_name, query_name in FIXTURE_PAIRS:
        catalog = load_catalog(fixture_path(catalog_name).read_text())
        base = json.loads(fixture_path(query_name).read_text())
        for _ in range(300):
            doc = copy.deepcopy(base)
            nodes = _node_docs(doc["expr"])
            _add_fault(rng, nodes)
            _add_fault(rng, nodes)
            try:
                parse_query(doc, catalog)
            except OrdoptError as exc:
                errors.append(f"{type(exc).__name__}: {exc}")
            else:
                parsed += 1
    digest = hashlib.sha256("\n".join(errors).encode()).hexdigest()
    assert (parsed, len(errors), len(set(errors))) == (0, 2100, 79)
    assert digest == "2ca5a484b5d09b35c0f7671aacd3541950057b4ca6950dc0814f60f085b7e92a"


def test_two_fault_query_documents_with_scalar_faults_keep_their_first_error():
    """As above, with four more faults, in the fields a join or group-by reads
    after its attributes: `full_outer` "x" or [1], `agg_width_bytes` 0 or
    {"a": 1}."""
    rng = random.Random(7)
    parsed, errors = 0, []
    for catalog_name, query_name in FIXTURE_PAIRS:
        catalog = load_catalog(fixture_path(catalog_name).read_text())
        base = json.loads(fixture_path(query_name).read_text())
        for _ in range(600):
            doc = copy.deepcopy(base)
            nodes = _node_docs(doc["expr"])
            _add_fault(rng, nodes, 10)
            _add_fault(rng, nodes, 10)
            try:
                parse_query(doc, catalog)
            except OrdoptError as exc:
                errors.append(f"{type(exc).__name__}: {exc}")
            else:
                parsed += 1
    digest = hashlib.sha256("\n".join(errors).encode()).hexdigest()
    assert (parsed, len(errors), len(set(errors))) == (0, 4200, 104)
    assert digest == "441369ce89db5b8ee1438e6766138420a9462e8e2035b6f2d860cf9ce9ff3c4b"
