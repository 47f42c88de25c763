import importlib.util
import os
import pathlib
import random

import pytest

import ordopt
import ordopt.logical_expr as lx
from ordopt import OracleGuard, QuerySpec, SortOrder, expr_stats, load_catalog, load_params, parse_query

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURES / name


def child_env() -> dict:
    """The environment for a child interpreter that imports this checkout's ordopt."""
    src = str(pathlib.Path(ordopt.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def perfbench_workloads():
    """The benchmark's seeded input generator, `perfbench/workloads.py`."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", FIXTURES.parent / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_pair(catalog_name: str, query_name: str):
    catalog = load_catalog(fixture_path(catalog_name).read_text())
    query = parse_query(fixture_path(query_name).read_text(), catalog)
    return catalog, query


def schema(e, catalog):
    """The output attributes of e: the keys of its distinct counts."""
    return frozenset(expr_stats(e, catalog).distinct)


# --- randomized instance generators (seed-driven, deterministic) -------------

_POOL = ["a", "b", "c", "d", "e", "f"]


def random_catalog_and_join(rng: random.Random):
    """Two relations sharing up to four join attributes, random statistics,
    clusterings, and covering/secondary indices; a single-join query with a
    random required order."""
    ns = rng.randint(1, 4)
    shared = _POOL[:ns]
    rels = []
    for idx, name in enumerate(("r1", "r2")):
        extras = _POOL[ns + idx: ns + idx + rng.randint(0, 1)]
        cols = sorted(set(shared) | set(extras))
        rows = rng.choice([100, 1000, 5000, 20000])
        distincts = {c: min(rng.choice([1, 2, 5, 10, 50, rows]), rows) for c in cols}
        clus = rng.sample(cols, rng.randint(1, len(cols))) if rng.random() < 0.8 else []
        rels.append(
            {
                "name": name,
                "row_count": rows,
                "tuple_bytes": rng.choice([16, 64, 200]),
                "columns": cols,
                "clustering_order": clus,
                "distincts": distincts,
            }
        )
    indices = []
    for rel in rels:
        if rng.random() < 0.5:
            key = rng.sample(rel["columns"], rng.randint(1, len(rel["columns"])))
            inc = [c for c in rel["columns"] if c not in key and rng.random() < 0.7]
            indices.append(
                {"relation": rel["name"], "key_order": key, "included_columns": inc, "kind": "secondary"}
            )
    catalog = load_catalog({"relations": rels, "indices": indices})

    def side(relname):
        e = lx.Scan(relname)
        if rng.random() < 0.4:
            e = lx.Select(e, rng.choice([0.1, 0.5, 1.0]), frozenset())
        return e

    join = lx.Join(side("r1"), side("r2"), frozenset(shared), False)
    sch = sorted(schema(join, catalog))
    req = tuple(rng.sample(sch, rng.randint(1, min(3, len(sch))))) if rng.random() < 0.7 else ()
    query = QuerySpec(join, SortOrder(req))
    params = load_params(
        {
            "cost_params": {
                "block_bytes": 512,
                "memory_blocks": rng.choice([4, 16, 100]),
                "cpu_per_comparison_io_equiv": 1e-5,
            }
        }
    )
    return catalog, query, params


def random_chain_query(rng: random.Random, n_rels: int = 3):
    """A left-deep chain of joins over relations with overlapping columns,
    for refinement trials."""
    cols_all = _POOL
    rels = []
    for i in range(n_rels):
        cols = sorted(rng.sample(cols_all, rng.randint(2, 4)))
        rows = rng.choice([1000, 10000, 50000])
        distincts = {c: min(rng.choice([5, 20, 100]), rows) for c in cols}
        clus = rng.sample(cols, rng.randint(0, min(2, len(cols))))
        rels.append(
            {
                "name": f"c{i}",
                "row_count": rows,
                "tuple_bytes": 16 * len(cols),
                "columns": cols,
                "clustering_order": clus,
                "distincts": distincts,
            }
        )
    catalog = load_catalog({"relations": rels, "indices": []})
    expr = lx.Scan("c0")
    for i in range(1, n_rels):
        left_schema = schema(expr, catalog)
        common = sorted(left_schema & frozenset(rels[i]["columns"]))
        if not common:
            return None
        s = frozenset(rng.sample(common, rng.randint(1, len(common))))
        expr = lx.Join(expr, lx.Scan(f"c{i}"), s, rng.random() < 0.3)
    sch = sorted(schema(expr, catalog))
    req = tuple(rng.sample(sch, rng.randint(0, 2)))
    query = QuerySpec(expr, SortOrder(req))
    params = load_params({"cost_params": {"block_bytes": 1024, "memory_blocks": 32}})
    return catalog, query, params


def assert_plan_sound(plan, query, catalog) -> None:
    """Structural soundness: every operator computes a node of the query (a
    sort its input's), its produced order is consistent with its semantics,
    and the root satisfies the required output order."""
    from ordopt import EMPTY, is_prefix

    nodes = set(lx.preorder(query.root))
    for p in plan.walk():
        e = p.expr
        assert e in nodes
        if p.op == "merge_join":
            assert frozenset(p.produced_order) == e.join_attrs
            for c in p.children:
                assert is_prefix(p.produced_order, c.produced_order)
        elif p.op in ("full_sort", "partial_sort"):
            assert e == p.children[0].expr
            if p.op == "partial_sort":
                assert p.input_order and is_prefix(p.input_order, p.produced_order)
                assert len(p.input_order) < len(p.produced_order)
            else:
                assert p.input_order == EMPTY
        elif p.op == "select":
            assert p.produced_order == p.children[0].produced_order
        elif p.op == "project":
            assert frozenset(p.produced_order) <= e.cols
            assert is_prefix(p.produced_order, p.children[0].produced_order)
        elif p.op == "sort_group_by":
            assert frozenset(p.produced_order) == e.keys
            assert is_prefix(p.produced_order, p.children[0].produced_order)
        elif p.op in ("hash_join", "hash_group_by"):
            assert p.produced_order == EMPTY
        assert p.total_cost == pytest.approx(
            p.op_cost + sum(c.total_cost for c in p.children)
        )
    assert is_prefix(query.required_output_order, plan.produced_order)


def random_labeled_path(rng: random.Random, max_nodes: int = 7, max_set: int = 3):
    from ordopt import LabeledTree

    n = rng.randint(1, max_nodes)
    sets = [frozenset(rng.sample(_POOL, rng.randint(0, max_set))) for _ in range(n)]
    edges = tuple((i, i + 1) for i in range(n - 1))
    return LabeledTree(tuple(sets), edges)


def random_labeled_tree(rng: random.Random, max_nodes: int = 9, max_set: int = 3):
    """Random binary tree whose assignment space stays inside the oracle guard."""
    from math import factorial

    from ordopt import LabeledTree

    while True:
        n = rng.randint(1, max_nodes)
        sets = [frozenset(rng.sample(_POOL, rng.randint(0, max_set))) for _ in range(n)]
        work = 1
        for s in sets:
            work *= factorial(len(s))
        if work > OracleGuard().max_assignments:
            continue
        edges = []
        kid_count = [0] * n
        for v in range(1, n):
            parents = [p for p in range(v) if kid_count[p] < 2]
            p = rng.choice(parents)
            kid_count[p] += 1
            edges.append((p, v))
        return LabeledTree(tuple(sets), tuple(edges))
