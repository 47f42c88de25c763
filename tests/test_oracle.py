import itertools
import pathlib
import random
import subprocess
import sys

import pytest

import ordopt.logical_expr as lx
from ordopt import (
    CostParams,
    LabeledTree,
    OracleGuard,
    Record,
    TooLarge,
    brute_best_plan,
    brute_tree_benefit,
    optimize_query,
    reference_sort,
)

from conftest import child_env, load_pair, random_labeled_tree


def _cross_product_benefit(tree: LabeledTree) -> int:
    """Independent re-implementation: enumerate full assignment tuples."""
    perms = [list(itertools.permutations(sorted(s))) for s in tree.node_sets]
    best = 0
    for combo in itertools.product(*perms):
        total = 0
        for p, c in tree.edges:
            a, b = combo[p], combo[c]
            n = 0
            for x, y in zip(a, b):
                if x != y:
                    break
                n += 1
            total += n
        best = max(best, total)
    return best


def test_tree_benefit_examples():
    t = LabeledTree((frozenset("ab"), frozenset("ab")), ((0, 1),))
    assert brute_tree_benefit(t) == 2
    star = LabeledTree(
        (frozenset(), frozenset("a"), frozenset("b")),
        ((0, 1), (0, 2)),
    )
    assert brute_tree_benefit(star) == 0


def test_tree_benefit_matches_cross_product():
    rng = random.Random(55)
    for _ in range(40):
        tree = random_labeled_tree(rng, max_nodes=4, max_set=3)
        assert brute_tree_benefit(tree) == _cross_product_benefit(tree)


def test_tree_benefit_guard():
    big = LabeledTree(
        tuple(frozenset("abcdef") for _ in range(3)),
        ((0, 1), (1, 2)),
    )
    # 720^3 > 1e7, the default bound; a larger guard lifts it
    with pytest.raises(TooLarge):
        brute_tree_benefit(big)
    lifted = OracleGuard(max_assignments=720**3)
    assert brute_tree_benefit(big, lifted) == 12  # identical sets: both edges share all six


def test_reference_sort():
    assert reference_sort([]) == []
    recs = [Record((3, 1), 10), Record((1, 2), 10), Record((1, 1), 10)]
    assert [r.keys for r in reference_sort(recs)] == [(1, 1), (1, 2), (3, 1)]
    assert reference_sort(recs) == reference_sort(reference_sort(recs))
    with pytest.raises(TooLarge):
        reference_sort([Record((0,), 1)] * 10, OracleGuard(max_rows=5))


@pytest.mark.parametrize(
    "cat,qry",
    [
        ("example1_catalog.json", "example1_query.json"),
        ("tpch_catalog.json", "q3_query.json"),
        ("q4_catalog.json", "q4_query.json"),
        ("q5_catalog.json", "q5_query.json"),
    ],
)
def test_brute_matches_exhaustive_optimizer(cat, qry):
    # two independent recursions over the same algebra must agree
    catalog, query = load_pair(cat, qry)
    params = CostParams()
    plan = optimize_query(catalog, params, query, heuristic="exhaustive")
    brute = brute_best_plan(query.root, query.required_output_order, catalog, params)
    assert plan.total_cost == pytest.approx(brute, rel=1e-12)
    # a guard one below the widest join or group-by stops the oracle's enumeration
    widest = max(len(lx.sort_attrs(e)) for e in lx.preorder(query.root) if isinstance(e, (lx.Join, lx.GroupBy)))
    with pytest.raises(TooLarge, match=f"^{widest} attributes exceed guard {widest - 1}$"):
        brute_best_plan(query.root, query.required_output_order, catalog, params, OracleGuard(max_attrs=widest - 1))


def test_brute_matches_exhaustive_with_hash_operators():
    import dataclasses

    from conftest import random_catalog_and_join

    rng = random.Random(999)
    for _ in range(30):
        catalog, query, params = random_catalog_and_join(rng)
        params = dataclasses.replace(
            params, hashjoin_enabled=True, hash_per_block_io_equiv=rng.choice([0.1, 1.0, 5.0])
        )
        plan = optimize_query(catalog, params, query, heuristic="exhaustive")
        brute = brute_best_plan(query.root, query.required_output_order, catalog, params)
        assert plan.total_cost == pytest.approx(brute, rel=1e-12)
    # fixtures with group-bys, so the oracle prices hash group-bys too; q5's
    # cheapest plan at the lowest hash rate has one
    for cat, qry in (("tpch", "q2"), ("tpch", "q3"), ("q5", "q5")):
        catalog, query = load_pair(f"{cat}_catalog.json", f"{qry}_query.json")
        for rate in (0.001, 0.1, 1.0, 5.0):
            params = dataclasses.replace(CostParams(), hashjoin_enabled=True, hash_per_block_io_equiv=rate)
            plan = optimize_query(catalog, params, query, heuristic="exhaustive")
            assert plan.total_cost == brute_best_plan(query.root, query.required_output_order, catalog, params)
            if (qry, rate) == ("q5", 0.001):
                assert "hash_group_by" in [p.op for p in plan.walk()]
                assert round(plan.total_cost, 3) == 39078.233  # 39128.581 without hash operators


def test_brute_covering_test_sees_selection_columns():
    # a projection at the root must not let the oracle treat an index as
    # covering when the selection still touches a dropped column
    from ordopt import load_catalog, parse_query

    catalog = load_catalog(
        {
            "relations": [
                {
                    "name": "li2",
                    "row_count": 100000,
                    "tuple_bytes": 24,
                    "columns": ["a", "b", "f"],
                    "clustering_order": [],
                    "distincts": {"a": 100, "b": 1000, "f": 2},
                }
            ],
            "indices": [
                {"relation": "li2", "key_order": ["a"], "included_columns": ["b"], "kind": "secondary"}
            ],
        }
    )
    query = parse_query(
        {
            "expr": {
                "op": "project",
                "input": {
                    "op": "select",
                    "input": {"op": "scan", "relation": "li2"},
                    "selectivity": 0.5,
                    "touched": ["f"],
                },
                "cols": ["a", "b"],
            },
            "order_by": ["a", "b"],
        },
        catalog,
    )
    params = CostParams()
    plan = optimize_query(catalog, params, query, heuristic="exhaustive")
    assert not any(p.op == "covering_index_scan" for p in plan.walk())
    brute = brute_best_plan(query.root, query.required_output_order, catalog, params)
    assert plan.total_cost == pytest.approx(brute, rel=1e-12)


def test_brute_matches_favorable_on_covering_index_fixture():
    catalog, query = load_pair("tpch_catalog.json", "q2_query.json")
    params = CostParams()
    plan = optimize_query(catalog, params, query, heuristic="favorable")
    brute = brute_best_plan(query.root, query.required_output_order, catalog, params)
    assert plan.total_cost == pytest.approx(brute, rel=1e-12)


def test_merge_cost_is_permutation_independent():
    # symmetric inputs, no indices: every join permutation costs the same
    from ordopt import load_catalog, parse_query

    catalog = load_catalog(
        {
            "relations": [
                {"name": n, "row_count": 5000, "tuple_bytes": 24,
                 "columns": ["a", "b", "c"], "clustering_order": [],
                 "distincts": {"a": 10, "b": 10, "c": 10}}
                for n in ("m1", "m2")
            ],
            "indices": [],
        }
    )
    query = parse_query(
        {
            "expr": {
                "op": "join",
                "left": {"op": "scan", "relation": "m1"},
                "right": {"op": "scan", "relation": "m2"},
                "join_attrs": ["a", "b", "c"],
            },
            "order_by": [],
        },
        catalog,
    )
    params = CostParams()
    import ordopt.oracle as oracle

    planner = oracle.BrutePlanner(catalog, params, frozenset(['a', 'b', 'c']), OracleGuard())
    from ordopt import EMPTY, SortOrder, enforce_cost
    from ordopt.cost_model import merge_join_cost
    import ordopt.catalog_stats as cs

    join = query.root
    lstat = cs.expr_stats(join.left, catalog)
    rstat = cs.expr_stats(join.right, catalog)
    costs = set()
    for perm in itertools.permutations(("a", "b", "c")):
        io = SortOrder(perm)
        pc = (
            planner.cost(join.left, io)
            + planner.cost(join.right, io)
            + merge_join_cost(lstat.rows, rstat.rows, params)
            + enforce_cost(join, io, EMPTY, params, catalog)
        )
        costs.add(round(pc, 9))
    assert len(costs) == 1
    with pytest.raises(TypeError, match="^not a logical expression: 'm1'$"):
        planner.cost("m1", EMPTY)


def test_oracle_module_never_imports_heuristics():
    import ordopt.oracle as oracle

    src = pathlib.Path(oracle.__file__).read_text()
    import_lines = [
        line for line in src.splitlines() if line.strip().startswith(("import ", "from "))
    ]
    for banned in ("optimizer", "favorable_orders", "order_refinement"):
        assert not any(banned in line for line in import_lines), (
            f"oracle must not depend on {banned}"
        )


def test_import_ordopt_leaves_the_oracles_uncompiled():
    script = (
        "import sys, ordopt\n"
        "assert 'ordopt.oracle' not in sys.modules, 'import ordopt imported the oracles'\n"
        "from ordopt import brute_best_plan, reference_sort\n"
        "import ordopt.oracle as oracle\n"
        "assert brute_best_plan is oracle.brute_best_plan and reference_sort is oracle.reference_sort\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=child_env(), timeout=120)
    assert done.returncode == 0, done.stderr
