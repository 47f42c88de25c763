"""Bad input documents reach the CLI user as one error line, never as a
traceback: exit 1 with `ordopt: error: <path>: ...` for invalid input, exit 2
with `ordopt: guard violation: ...` for input beyond a guard."""

import contextlib
import copy
import io
import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordopt import load_catalog, optimize_query, parse_query, plan_document
from ordopt.cli import main
from ordopt.cost_model import CostParams
from ordopt.logical_expr import MAX_QUERY_DEPTH

from conftest import fixture_path

CATALOG = json.loads(fixture_path("example1_catalog.json").read_text())
QUERY = json.loads(fixture_path("example1_query.json").read_text())
PARAMS = {"cost_params": {}}


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured.out, captured.err


def _write(tmp_path, name, doc) -> str:
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def _optimize_argv(tmp_path, catalog=CATALOG, query=QUERY, params=PARAMS):
    return [
        "optimize",
        "--catalog", _write(tmp_path, "catalog.json", catalog),
        "--query", _write(tmp_path, "query.json", query),
        "--params", _write(tmp_path, "params.json", params),
    ]


def _plan_document(capsys, tmp_path):
    code, out, _ = _run(capsys, *_optimize_argv(tmp_path), "--json")
    assert code == 0
    return json.loads(out)


def _set(*path_and_value):
    *path, value = path_and_value

    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        if isinstance(node, list) and path[-1] == len(node):
            node.append(value)
        else:
            node[path[-1]] = value

    return mutate


def _del(*path):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]

    return mutate


def _wrap(*path, **node):
    """Put the query expression at `path` under a new `node`."""

    def mutate(doc):
        holder = doc
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = {**node, "input": holder[path[-1]]}

    return mutate


def _sort_over(*path):
    """Put the plan node at `path` under a partial sort to the order it
    already delivers."""

    def mutate(doc):
        holder = doc
        for key in path[:-1]:
            holder = holder[key]
        node = holder[path[-1]]
        order = node["order"]
        holder[path[-1]] = {
            "op": "partial_sort", "expr_id": node["expr_id"], "order": order,
            "input_order": order, "target_order": order, "children": [node],
        }

    return mutate


def _lift_root_input(doc):
    """Replace the plan's root with its (only) input."""
    doc["plan"] = doc["plan"]["children"][0]


def _all(*mutations):
    def mutate(doc):
        for m in mutations:
            m(doc)

    return mutate


def _nested_selects(depth, selectivity=0.5):
    """The query under `depth` selects, as JSON text: deep documents are
    beyond what json.dumps can write."""

    def mutate(doc):
        head = f'{{"op": "select", "selectivity": {json.dumps(selectivity)}, "touched": [], "input": '
        return '{"expr": ' + head * depth + json.dumps(doc["expr"]) + "}" * depth + ', "order_by": []}'

    return mutate


#: An extra relation whose clustering order is a string of its column names.
ABC_RELATION = {
    "name": "x", "row_count": 1, "tuple_bytes": 1, "columns": ["a", "b", "c"], "clustering_order": "abc",
}

# (document, mutation, exit code, the message after the prefix: all of it for
# plan documents, its start for the others); the one case that exits 0 must
# print what the unmodified document prints.  Where a plan document has
# several faults, the message pins which one is reported.
CASES = {
    "catalog-clustering-string": (
        "catalog", _set("relations", 3, ABC_RELATION),
        1, "relations[3].clustering_order:",
    ),
    "catalog-column-not-a-name": (
        "catalog", _set("relations", 0, "columns", [["x"], "a"]),
        1, "relations[0].columns:",
    ),
    # the synthetic aggregate column of a group-by is no catalog column
    "catalog-column-reserved-agg": (
        "catalog", _set("relations", 0, "columns", 5, "__agg__"),
        1, "relations[0].columns: '__agg__' is reserved",
    ),
    "catalog-distinct-count-zero": (
        "catalog", _set("relations", 0, "distincts", "make", 0),
        1, "relations[0].distincts.make: expected an integer in [1, 2000000], got 0",
    ),
    "catalog-relations-not-a-list": ("catalog", _set("relations", 5), 1, "relations:"),
    "catalog-duplicate-relation": (
        "catalog", _set("relations", 3, {"name": "catalog1", "row_count": 1, "tuple_bytes": 1, "columns": ["a"]}),
        1, "relations[3]: duplicate relation 'catalog1'",
    ),
    "catalog-duplicate-column": (
        "catalog", _set("relations", 0, "columns", 5, "make"), 1, "relations[0].columns: duplicate attribute",
    ),
    "catalog-index-column-outside-the-relation": (
        "catalog", _set("indices", 1, {"relation": "rating", "key_order": ["make"], "included_columns": ["zz"]}),
        1, "indices[1]: index attributes outside the relation's columns",
    ),
    "catalog-index-kind-bogus": (
        "catalog", _set("indices", 1, {"relation": "rating", "key_order": ["make"], "kind": "bogus"}),
        1, "indices[1].kind: expected clustering|secondary, got 'bogus'",
    ),
    "catalog-included-not-a-list": (
        "catalog", _set("indices", 0, "included_columns", 5),
        1, "indices[0].included_columns:",
    ),
    "catalog-row-count-bool": (
        "catalog", _set("relations", 0, "row_count", True),
        1, "relations[0].row_count:",
    ),
    "catalog-row-count-huge": (
        "catalog", _set("relations", 0, "row_count", 10**400),
        1, "relations[0].row_count:",
    ),
    "params-block-bytes-string": (
        "params", _set("cost_params", "block_bytes", "4096"),
        1, "cost_params.block_bytes:",
    ),
    "params-memory-blocks-float": (
        "params", _set("cost_params", "memory_blocks", 2.5),
        1, "cost_params.memory_blocks:",
    ),
    "params-memory-blocks-one": (
        "params", _set("cost_params", "memory_blocks", 1),
        1, "cost_params.memory_blocks: expected an integer in [2, ",
    ),
    "params-memory-blocks-two": (
        "params", _set("cost_params", "memory_blocks", 2),
        1, "cost_params.memory_blocks: external sorting needs memory_blocks >= 3",
    ),
    "params-hashjoin-string": (
        "params", _set("cost_params", "hashjoin_enabled", "no"),
        1, "cost_params.hashjoin_enabled:",
    ),
    "params-cpu-bool": (
        "params", _set("cost_params", "cpu_per_comparison_io_equiv", True),
        1, "cost_params.cpu_per_comparison_io_equiv:",
    ),
    "params-cpu-nan": (
        "params", _set("cost_params", "cpu_per_comparison_io_equiv", float("nan")),
        1, "cost_params.cpu_per_comparison_io_equiv:",
    ),
    "params-cost-overflow": (
        "params",
        _set("cost_params", {"block_bytes": 1, "memory_blocks": 3, "mergejoin_per_tuple_io_equiv": 1.7976931348623157e308}),
        2, "cost estimate",
    ),
    "query-selectivity-bool": ("query", _nested_selects(1, selectivity=True), 1, "expr.selectivity:"),
    "query-unknown-relation-below-a-join": (
        "query", _set("expr", "left", "left", "relation", "zz"), 1, "expr.left.left: unknown relation 'zz'",
    ),
    "query-join-attribute-outside-the-left-schema": (
        "query", _set("expr", "left", "join_attrs", ["make", "breakdowns"]),
        1, "expr.left.join_attrs: attributes ['breakdowns'] not in left schema",
    ),
    "query-join-attribute-outside-the-right-schema": (
        "query", _set("expr", "join_attrs", ["make", "sellreason"]),
        1, "expr.join_attrs: attributes ['sellreason'] not in right schema",
    ),
    "query-touched-outside-the-input": (
        "query", _wrap("expr", "left", op="select", touched=["zz"]),
        1, "expr.left.touched: attributes ['zz'] not in input schema",
    ),
    "query-cols-outside-the-input": (
        "query", _wrap("expr", op="project", cols=["make", "zz"]),
        1, "expr.cols: attributes ['zz'] not in input schema",
    ),
    "query-keys-outside-the-input": (
        "query", _wrap("expr", "right", op="group_by", keys=["zz"]),
        1, "expr.right.keys: attributes ['zz'] not in input schema",
    ),
    "query-nested-900": ("query", _nested_selects(900), 2, "query"),
    "query-nested-2000": ("query", _nested_selects(2000), 2, "query"),
    "plan-total-cost-zero": ("plan", _set("plan", "total_cost", 0), 0, None),
    "plan-op-bogus": (
        "plan", _set("plan", "op", "bogus"), 1, "plan.op: expected one of merge_join, hash_join, got 'bogus'",
    ),
    "plan-children-not-a-list": ("plan", _set("plan", "children", 5), 1, "plan.children: expected a list, got 5"),
    "plan-sort-with-two-inputs": (
        "plan", _set("plan", "children", 1, {}), 1, "plan.children: expected 1 input plans, got 2",
    ),
    "plan-root-sort-dropped": ("plan", _lift_root_input, 1, "plan: delivers (make,year), not the query's order_by"),
    "plan-merge-join-on-a-scan": (
        "plan", _set("plan", "children", 0, "children", 0, "expr_id", 2),
        1, "plan.children[0].children[0].expr_id: node 2 is not the expression computed here",
    ),
    "plan-index-key-of-no-index": (
        "plan", _set("plan", "children", 0, "children", 1, "children", 0, "index_key", ["year"]),
        1, "plan.children[0].children[1].children[0].index_key: no covering index of 'rating' has key ['year']",
    ),
    "plan-merge-join-input-order-null": (
        "plan", _set("plan", "children", 0, "input_order", None),
        1, "plan.children[0].input_order: a merge_join node has no such field",
    ),
    "plan-merge-join-target-order-null": (
        "plan", _set("plan", "children", 0, "target_order", None),
        1, "plan.children[0].target_order: a merge_join node has no such field",
    ),
    "plan-merge-join-relation-null": (
        "plan", _set("plan", "children", 0, "relation", None),
        1, "plan.children[0].relation: a merge_join node has no such field",
    ),
    "plan-table-scan-index-key-null": (
        "plan", _set("plan", "children", 0, "children", 0, "children", 0, "children", 0, "index_key", None),
        1, "plan.children[0].children[0].children[0].children[0].index_key: a table_scan node has no such field",
    ),
    "plan-expr-id-bool": (
        "plan", _set("plan", "expr_id", True), 1, "plan.expr_id: expected an integer in [0, 4], got True",
    ),
    "plan-order-string": (
        "plan", _set("plan", "order", "abc"), 1, "plan.order: expected a list of non-empty attribute names",
    ),
    "plan-rows-string": (
        "plan", _set("plan", "rows", "x"), 1, "plan.rows: expected a finite number in [0, inf], got 'x'",
    ),
    # a sort its input makes redundant rebuilds as its input, which is not a sort
    "plan-redundant-sort": (
        "plan", _sort_over("plan", "children", 0, "children", 0),
        1, "plan.children[0].children[0].op: expected 'merge_join', got 'partial_sort'",
    ),
    "plan-unknown-field": ("plan", _set("surprise", 1), 1, "plan file: unknown fields ['surprise']"),
    "plan-sort-on-attributes-outside-the-schema": (
        "plan", _all(_set("plan", "order", ["make", "zz"]), _set("plan", "target_order", ["make", "zz"])),
        1, "plan.order: attributes ['zz'] not in the input's schema",
    ),
    "plan-sort-input-order-not-a-list": (
        "plan", _set("plan", "input_order", 5), 1, "plan.input_order: expected a list of non-empty attribute names",
    ),
    "plan-merge-join-on-a-prefix-of-its-attributes": (
        "plan",
        _all(
            _set("plan", "children", 0, "children", 0, "order", ["make"]),
            _set("plan", "children", 0, "children", 0, "children", 0, "order", ["make"]),
            _set("plan", "children", 0, "children", 0, "children", 0, "target_order", ["make"]),
        ),
        1,
        "plan.children[0].children[0].order: expected an order of ['city', 'color', 'make', 'year'] every input delivers",
    ),
    "plan-unknown-field-and-bad-expr-id": (
        "plan", _all(_set("plan", "children", 0, "surprise", 1), _set("plan", "children", 0, "expr_id", 99)),
        1, "plan.children[0]: unknown fields ['surprise']",
    ),
    "plan-bad-child-and-bad-parent-order": (
        "plan",
        _all(
            _set("plan", "children", 0, "children", 0, "order", ["make"]),
            _set("plan", "children", 0, "children", 0, "children", 1, "input_order", ["year"]),
        ),
        1, "plan.children[0].children[0].children[1].input_order: the input delivers (make)",
    ),
    "plan-bool-total-cost-and-bad-index-key": (
        "plan",
        _all(
            _set("plan", "children", 0, "children", 1, "children", 0, "total_cost", True),
            _set("plan", "children", 0, "children", 1, "children", 0, "index_key", ["year"]),
        ),
        1, "plan.children[0].children[1].children[0].total_cost: expected a finite number in [0, inf], got True",
    ),
    # children are checked before a node's output-only fields, unless one of these is a bool
    "plan-string-rows-and-bad-child-expr-id": (
        "plan", _all(_set("plan", "rows", "x"), _set("plan", "children", 0, "expr_id", 99)),
        1, "plan.children[0].expr_id: expected an integer in [0, 4], got 99",
    ),
    "plan-negative-op-cost-and-bool-child-total-cost": (
        "plan", _all(_set("plan", "op_cost", -1), _set("plan", "children", 0, "total_cost", True)),
        1, "plan.children[0].total_cost: expected a finite number in [0, inf], got True",
    ),
    "plan-scan-relation-missing": (
        "plan", _del("plan", "children", 0, "children", 0, "children", 0, "children", 0, "relation"),
        1, "plan.children[0].children[0].children[0].children[0].relation: a table_scan node needs this field",
    ),
    "plan-scan-order-missing": (
        "plan", _del("plan", "children", 0, "children", 0, "children", 0, "children", 0, "order"),
        1, "plan.children[0].children[0].children[0].children[0].order: a table_scan node needs this field",
    ),
    "plan-scan-children-missing": (
        "plan", _del("plan", "children", 0, "children", 0, "children", 0, "children", 0, "children"),
        1, "plan.children[0].children[0].children[0].children[0].children: a table_scan node needs this field",
    ),
    "plan-sort-target-order-missing": (
        "plan", _del("plan", "target_order"), 1, "plan.target_order: a partial_sort node needs this field",
    ),
    "plan-sort-input-order-missing": (
        "plan", _del("plan", "input_order"), 1, "plan.input_order: a partial_sort node needs this field",
    ),
    "plan-sort-input-order-and-order-not-lists": (
        "plan", _all(_set("plan", "input_order", 5), _set("plan", "order", "abc")),
        1, "plan.input_order: expected a list of non-empty attribute names",
    ),
    # rating is stored in no order, so an index on make cannot be its clustering index
    "catalog-clustering-index-off-the-clustering-order": (
        "catalog", _set("indices", 1, {"relation": "rating", "key_order": ["make"], "kind": "clustering"}),
        1, "indices[1].key_order: a clustering index's key must be a prefix of the clustering_order [] of 'rating'",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_document_exits_cleanly(case, capsys, tmp_path):
    kind, mutate, want_code, want_msg = CASES[case]
    docs = {"catalog": copy.deepcopy(CATALOG), "query": copy.deepcopy(QUERY), "params": copy.deepcopy(PARAMS)}
    want_out = ""
    if kind == "plan":
        doc = _plan_document(capsys, tmp_path)
        if want_code == 0:
            want_out = _run(capsys, "refine", "--plan", _write(tmp_path, "plan.json", doc), "--json")[1]
        mutate(doc)
        argv = ["refine", "--plan", _write(tmp_path, "plan.json", doc), "--json"]
    else:
        docs[kind] = mutate(docs[kind]) or docs[kind]
        argv = _optimize_argv(tmp_path, **docs)
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (want_code, want_out)
    if want_code:
        prefix = "ordopt: guard violation: " if want_code == 2 else "ordopt: error: "
        if kind == "plan":
            assert err == prefix + want_msg + "\n"
        else:
            assert err.startswith(prefix + want_msg), err


@pytest.mark.parametrize(
    "flag,content,message",
    [
        ("--catalog", b"\xff\xfe{", "{file}: not UTF-8 text"),
        ("--query", b"\xff\xfe{", "{file}: not UTF-8 text"),
        ("--plan", b"\xff\xfe{", "{file}: not UTF-8 text"),
        ("--plan", b"{not json", "malformed plan JSON"),
        ("--catalog", None, "{file}: No such file or directory"),
        ("--catalog", "dir", "{file}: Is a directory"),
        ("--query", None, "{file}: No such file or directory"),
        ("--query", "dir", "{file}: Is a directory"),
        ("--params", None, "{file}: No such file or directory"),
        ("--params", "dir", "{file}: Is a directory"),
        ("--plan", None, "{file}: No such file or directory"),
        ("--plan", "dir", "{file}: Is a directory"),
    ],
)
def test_unreadable_file_exits_1(flag, content, message, capsys, tmp_path):
    """`content` None leaves the file missing, "dir" makes it a directory."""
    bad = tmp_path / "bad.json"
    if content == "dir":
        bad.mkdir()
    elif content is not None:
        bad.write_bytes(content)
    if flag == "--plan":
        argv = ["refine", "--plan", bad]
    else:
        argv = _optimize_argv(tmp_path)
        argv[argv.index(flag) + 1] = bad
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("ordopt: error: " + message.format(file=bad)), err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["bench", "a3", "--rows", "0"], "--rows must be >= 1"),
        (["bench", "a3", "--rows", "-3"], "--rows must be >= 1"),
        (["bench", "a3", "--rows", "200", "--payload", "100", "--mem-blocks", "2"],
         "--mem-blocks: external merging needs memory_blocks >= 3"),
        (["bench", "a3", "--rows", "10", "--keys", "1"], "--prefix-len must be in [0, --keys)"),
        (["bench", "a3", "--rows", "10", "--keys", "0"], "--keys must be >= 1"),
        (["sort", "--rows", "10", "--algo", "mrs", "--keys", "1"], "--prefix-len must be in [0, --keys)"),
        (["sort", "--rows", "10", "--algo", "mrs", "--prefix-len", "-1"], "--prefix-len must be in [0, --keys)"),
        (["sort", "--rows", "10", "--algo", "srs", "--keys", "0"], "--keys must be >= 1"),
        (["sort", "--rows", "10", "--algo", "mrs", "--segment-rows", "0"], "--segment-rows must be >= 1"),
        (["sort", "--rows", "-1", "--algo", "mrs"], "--rows must be >= 0"),
        (["sort", "--rows", "10", "--algo", "mrs", "--payload", "0"], "--payload must be >= 1"),
        (["sort", "--rows", "10", "--algo", "srs", "--mem-blocks", "1"], "--mem-blocks must be >= 2"),
        (["sort", "--rows", "10", "--algo", "srs", "--block-bytes", "0"], "--block-bytes must be >= 1"),
        (["bench", "a3", "--rows", "10", "--payload", "0"], "--payload must be >= 1"),
        (["bench", "a3", "--rows", "10", "--mem-blocks", "1"], "--mem-blocks must be >= 2"),
        (["bench", "a3", "--rows", "10", "--block-bytes", "0"], "--block-bytes must be >= 1"),
        (["sort", "--rows", "3000", "--algo", "srs", "--mem-blocks", "2", "--block-bytes", "1024"],
         "--mem-blocks: external merging needs memory_blocks >= 3"),
        (["sort", "--rows", "3000", "--algo", "mrs", "--segment-rows", "3000", "--mem-blocks", "2",
          "--block-bytes", "1024"], "--mem-blocks: external merging needs memory_blocks >= 3"),
    ],
)
def test_bad_bench_flags_write_no_csv(argv, message, capsys):
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("ordopt: error: " + message), err


def _chain(joins: int, alternate: bool, row_count: int = 10, distincts=None):
    """A left-deep chain of joins; with `alternate`, neighbouring joins use
    different attributes, so every join output is sorted again."""
    relations = [
        {"name": f"r{i}", "row_count": row_count, "tuple_bytes": 16, "columns": ["a", "b"],
         "distincts": distincts or {}}
        for i in range(joins + 1)
    ]
    expr = {"op": "scan", "relation": "r0"}
    for i in range(1, joins + 1):
        attr = "ab"[i % 2] if alternate else "a"
        expr = {"op": "join", "left": expr, "right": {"op": "scan", "relation": f"r{i}"}, "join_attrs": [attr]}
    return {"relations": relations, "indices": []}, {"expr": expr, "order_by": []}


def test_estimate_overflow_is_a_guard_violation(capsys, tmp_path):
    catalog, query = _chain(25, alternate=False, row_count=2**53, distincts={"a": 1})
    code, out, err = _run(capsys, *_optimize_argv(tmp_path, catalog, query))
    assert (code, out) == (2, "")
    assert err.startswith("ordopt: guard violation: size estimate"), err


MERGE_OVERFLOW = {"block_bytes": 1, "memory_blocks": 3, "mergejoin_per_tuple_io_equiv": 1.7976931348623157e308}
SORT_OVERFLOW = {
    "block_bytes": 1, "memory_blocks": 3, "cpu_per_comparison_io_equiv": 1e306, "mergejoin_per_tuple_io_equiv": 1e300
}


@pytest.mark.parametrize(
    "fixture,params,op",
    [
        ("example1", MERGE_OVERFLOW, "merge_join"),
        ("q4", MERGE_OVERFLOW, "merge_join"),
        ("q5", MERGE_OVERFLOW, "merge_join"),
        ("postopt", MERGE_OVERFLOW, "merge_join"),
        ("example1", SORT_OVERFLOW, "full_sort"),
        ("q4", SORT_OVERFLOW, "full_sort"),
        ("q5", SORT_OVERFLOW, "full_sort"),
        ("postopt", SORT_OVERFLOW, "partial_sort"),
    ],
)
def test_cost_overflow_names_the_first_overflowing_operator(fixture, params, op, capsys, tmp_path):
    """Search meets its candidates in a fixed order; the first whose total
    overflows names the operator."""
    catalog = json.loads(fixture_path(f"{fixture}_catalog.json").read_text())
    query = json.loads(fixture_path(f"{fixture}_query.json").read_text())
    argv = _optimize_argv(tmp_path, catalog, query, {"cost_params": params})
    assert _run(capsys, *argv) == (2, "", f"ordopt: guard violation: cost estimate of a {op} plan overflows\n")


@pytest.mark.parametrize("alternate", [False, True])
def test_chain_at_the_depth_guard(alternate, capsys, tmp_path):
    catalog, query = _chain(MAX_QUERY_DEPTH - 1, alternate)
    argv = _optimize_argv(tmp_path, catalog, query)
    code, plan_json, _ = _run(capsys, *argv, "--refine", "--json")
    assert code == 0
    assert _run(capsys, *argv)[0] == 0
    code, again, _ = _run(capsys, "refine", "--plan", _write(tmp_path, "plan.json", plan_json), "--json")
    assert (code, again) == (0, plan_json)

    catalog, query = _chain(MAX_QUERY_DEPTH, alternate)
    code, out, err = _run(capsys, *_optimize_argv(tmp_path, catalog, query))
    assert (code, out) == (2, "")
    assert err.startswith("ordopt: guard violation: query expression nests deeper"), err


# --- fuzzing ------------------------------------------------------------------


def _fixture_docs(catalog_name: str, query_name: str) -> dict:
    catalog_doc = json.loads(fixture_path(catalog_name).read_text())
    query_doc = json.loads(fixture_path(query_name).read_text())
    catalog = load_catalog(catalog_doc)
    query = parse_query(query_doc, catalog)
    plan = plan_document(optimize_query(catalog, CostParams(), query), catalog, CostParams(), query)
    return {"catalog": catalog_doc, "query": query_doc, "params": PARAMS, "plan": plan}


FUZZ_BASES = [
    _fixture_docs("example1_catalog.json", "example1_query.json"),
    _fixture_docs("tpch_catalog.json", "q3_query.json"),
]

SPECIAL_VALUES = [True, "abc", 5, [], {}, float("inf"), float("nan"), 10**400, -1, 0, None, ["a", "a"]]
NEW_KEYS = ["op", "order", "relation", "children", "expr_id", "kind", "row_count", "memory_blocks", "zz"]
json_values = st.recursive(
    st.sampled_from(SPECIAL_VALUES) | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _slots(doc):
    """Every (container, key) pair of a document, outermost first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield doc, key
        yield from _slots(value)


@st.composite
def mutated_documents(draw):
    docs = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    kind = draw(st.sampled_from(sorted(docs)))
    holder = [docs[kind]]  # so that the whole document can be replaced too
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(list(_slots(holder))))
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            container[key] = draw(json_values)
        elif action == "delete" and isinstance(container, dict):
            del container[key]
        elif isinstance(container, dict):
            container[draw(st.sampled_from(NEW_KEYS))] = draw(json_values)
    docs[kind] = holder[0]
    return kind, docs


@settings(derandomize=True, deadline=None, max_examples=300)
@given(mutated_documents())
def test_fuzzed_documents_never_escape_main(case):
    kind, docs = case
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, doc in docs.items():
            files[name] = f"{tmp}/{name}.json"
            with open(files[name], "w") as fh:
                json.dump(doc, fh)
        if kind == "plan":
            argv = ["refine", "--plan", files["plan"], "--json"]
        else:
            argv = ["optimize", "--refine", "--json"]
            argv += [x for name in ("catalog", "query", "params") for x in (f"--{name}", files[name])]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
