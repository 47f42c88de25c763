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

# (document, mutation, exit code, start of the message after the prefix); the
# one case that exits 0 must print what the unmodified document prints.
CASES = {
    "catalog-clustering-string": (
        "catalog", _set("relations", 3, ABC_RELATION),
        1, "relations[3].clustering_order:",
    ),
    "catalog-column-not-a-name": (
        "catalog", _set("relations", 0, "columns", [["x"], "a"]),
        1, "relations[0].columns:",
    ),
    "catalog-relations-not-a-list": ("catalog", _set("relations", 5), 1, "relations:"),
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
    "query-selectivity-bool": ("query", _nested_selects(1, selectivity=True), 1, "expr.selectivity:"),
    "query-nested-900": ("query", _nested_selects(900), 2, "query"),
    "query-nested-2000": ("query", _nested_selects(2000), 2, "query"),
    "plan-total-cost-zero": ("plan", _set("plan", "total_cost", 0), 0, None),
    "plan-op-bogus": ("plan", _set("plan", "op", "bogus"), 1, "plan.op:"),
    "plan-children-not-a-list": ("plan", _set("plan", "children", 5), 1, "plan.children:"),
    "plan-merge-join-on-a-scan": (
        "plan", _set("plan", "children", 0, "children", 0, "expr_id", 2),
        1, "plan.children[0].children[0].expr_id:",
    ),
    "plan-index-key-of-no-index": (
        "plan", _set("plan", "children", 0, "children", 1, "children", 0, "index_key", ["year"]),
        1, "plan.children[0].children[1].children[0].index_key:",
    ),
    "plan-expr-id-bool": ("plan", _set("plan", "expr_id", True), 1, "plan.expr_id:"),
    "plan-order-string": ("plan", _set("plan", "order", "abc"), 1, "plan.order:"),
    "plan-rows-string": ("plan", _set("plan", "rows", "x"), 1, "plan.rows:"),
    "plan-unknown-field": ("plan", _set("surprise", 1), 1, "plan file:"),
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
        assert err.startswith(prefix + want_msg), err


@pytest.mark.parametrize(
    "flag,content,message",
    [
        ("--catalog", b"\xff\xfe{", "{file}: not UTF-8 text"),
        ("--query", b"\xff\xfe{", "{file}: not UTF-8 text"),
        ("--plan", b"\xff\xfe{", "{file}: not UTF-8 text"),
        ("--plan", b"{not json", "malformed plan JSON"),
    ],
)
def test_unreadable_file_exits_1(flag, content, message, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    if flag == "--plan":
        argv = ["refine", "--plan", bad]
    else:
        argv = _optimize_argv(tmp_path)
        argv[argv.index(flag) + 1] = bad
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("ordopt: error: " + message.format(file=bad)), err


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
