import hashlib
import random
import sys

import pytest

import ordopt.logical_expr as lx
from ordopt import (
    CostParams,
    LabeledTree,
    Optimizer,
    ValidationError,
    assignment_benefit,
    brute_tree_benefit,
    canonical_permutation,
    index_for_query,
    join_prefix_benefit,
    load_catalog,
    optimize_query,
    order,
    order_str,
    path_order,
    refine_plan,
    tree_approx,
)

from conftest import load_pair, random_chain_query, random_labeled_path, random_labeled_tree


def _path_tree(sets):
    sets = [frozenset(s) for s in sets]
    return LabeledTree(tuple(sets), tuple((i, i + 1) for i in range(len(sets) - 1)))


def test_benefit_examples():
    t = _path_tree(["ab", "ab"])
    assert assignment_benefit(t, [order("a", "b"), order("a", "b")]) == 2
    t = _path_tree(["ab", "cd"])
    assert assignment_benefit(t, [order("a", "b"), order("c", "d")]) == 0
    t = _path_tree(["a", "a", "a"])
    assert assignment_benefit(t, [order("a")] * 3) == 2


def test_benefit_rejects_non_permutation():
    t = _path_tree(["ab", "ab"])
    with pytest.raises(ValidationError):
        assignment_benefit(t, [order("a"), order("a", "b")])


def test_benefit_rejects_an_assignment_of_the_wrong_length():
    t = _path_tree(["a", "a"])
    for assignment in ([order("a")], [order("a")] * 3):
        with pytest.raises(ValidationError, match=f"{len(assignment)} orders for 2 nodes"):
            assignment_benefit(t, assignment)


def test_path_order_examples():
    sets = [frozenset("ab"), frozenset("ab")]
    got = path_order(sets)
    assert assignment_benefit(_path_tree(sets), got) == 2
    sets = [frozenset("a"), frozenset("b")]
    got = path_order(sets)
    assert assignment_benefit(_path_tree(sets), got) == 0
    assert path_order([]) == []
    assert path_order([frozenset("ba")]) == [order("a", "b")]


def test_path_order_matches_brute_force():
    rng = random.Random(100)
    for _ in range(150):
        tree = random_labeled_path(rng)
        got = path_order(list(tree.node_sets))
        assert assignment_benefit(tree, got) == brute_tree_benefit(tree)


def _uncut_path_order(sets):
    """The segment DP over the whole path, without cuts: the reference."""
    sets = [frozenset(s) for s in sets]
    n = len(sets)
    if n == 0:
        return []
    commons = [[frozenset()] * n for _ in range(n)]
    benefit = [[0] * n for _ in range(n)]
    split = [[-1] * n for _ in range(n)]
    for i in range(n):
        commons[i][i] = sets[i]
    for span in range(1, n):
        for i in range(n - span):
            j = i + span
            common = commons[i][j - 1] & sets[j]
            best_k, best_v = i, -1
            for k in range(i, j):
                v = benefit[i][k] + benefit[k + 1][j]
                if v > best_v:
                    best_k, best_v = k, v
            commons[i][j] = common
            benefit[i][j] = best_v + len(common)
            split[i][j] = best_k

    prefixes = [[] for _ in range(n)]

    def emit(i, j, removed):
        block = commons[i][j] - removed
        perm = canonical_permutation(block)
        for k in range(i, j + 1):
            prefixes[k].extend(perm)
        if i == j:
            return
        taken = removed | block
        emit(i, split[i][j], taken)
        emit(split[i][j] + 1, j, taken)

    emit(0, n - 1, frozenset())
    return [order(*p) for p in prefixes]


def test_path_cut_at_disjoint_neighbours_returns_the_uncut_orders():
    # Few attributes and small sets make many ties, empty sets and disjoint
    # neighbours, so the smallest-split tie-break is exercised across cuts.
    rng = random.Random(105)
    cuts = 0
    for _ in range(3000):
        sets = [frozenset(rng.sample("abcde", rng.randint(0, 3))) for _ in range(rng.randint(1, 12))]
        cuts += any(not (x & y) for x, y in zip(sets, sets[1:]))
        assert path_order(sets) == _uncut_path_order(sets), sets
    assert cuts > 1000


def test_tree_approx_single_node_and_paths():
    t = LabeledTree((frozenset("ba"),), ())
    assert tree_approx(t) == [canonical_permutation(frozenset("ab"))]
    rng = random.Random(101)
    for _ in range(60):
        tree = random_labeled_path(rng)
        got = tree_approx(tree)
        assert assignment_benefit(tree, got) == brute_tree_benefit(tree)


def test_tree_approx_empty_tree():
    assert tree_approx(LabeledTree((), ())) == []


def test_tree_approx_output_bytes():
    """Pins the orders of paths and trees of 1-14 nodes with sets of up to
    four attributes: the path branch, both parity splits, and the 43 trees
    where the two splits score the same with different orders, so the first
    split must win the tie."""
    rng = random.Random(107)
    digest = hashlib.sha256()
    for _ in range(500):
        for tree in (random_labeled_path(rng, 14, 4), random_labeled_tree(rng, 14, 4)):
            digest.update(" ".join(map(order_str, tree_approx(tree))).encode() + b"\n")
    assert digest.hexdigest() == "f64629b401e8a64ab4196ddd85c4a0c84abb6b60e5cddc898e6aa9400f852b9f"


def test_tree_approx_half_bound():
    rng = random.Random(102)
    for _ in range(150):
        tree = random_labeled_tree(rng)
        got = tree_approx(tree)
        assert 2 * assignment_benefit(tree, got) >= brute_tree_benefit(tree)


def test_benefit_invariant_under_renaming():
    rng = random.Random(103)
    names = list("abcdef")
    for _ in range(40):
        tree = random_labeled_tree(rng, max_nodes=6)
        assignment = tree_approx(tree)
        got = assignment_benefit(tree, assignment)
        perm = names[:]
        rng.shuffle(perm)
        mapping = dict(zip(names, perm))
        renamed_tree = LabeledTree(
            tuple(frozenset(mapping[a] for a in s) for s in tree.node_sets), tree.edges
        )
        renamed_assignment = [
            order(*(mapping[a] for a in o)) for o in assignment
        ]
        assert assignment_benefit(renamed_tree, renamed_assignment) == got
        # and the exact path optimum is itself invariant
        path = random_labeled_path(rng, max_nodes=5)
        renamed_path = LabeledTree(
            tuple(frozenset(mapping[a] for a in s) for s in path.node_sets), path.edges
        )
        assert brute_tree_benefit(path) == brute_tree_benefit(renamed_path)


def test_labeled_tree_validation():
    with pytest.raises(ValidationError, match=r"bad edge \(0, 2\)"):
        LabeledTree((frozenset(), frozenset()), ((0, 2),))  # no node 2
    with pytest.raises(ValidationError, match=r"bad edge \(0, 0\)"):
        LabeledTree((frozenset(),), ((0, 0),))  # a self-loop
    with pytest.raises(ValidationError):
        LabeledTree((frozenset(), frozenset()), ())  # disconnected
    with pytest.raises(ValidationError):
        LabeledTree(
            (frozenset(), frozenset(), frozenset(), frozenset()),
            ((0, 1), (0, 2), (0, 3)),  # ternary
        )
    with pytest.raises(ValidationError):
        LabeledTree((frozenset(), frozenset(), frozenset()), ((0, 2), (1, 2)))  # two parents
    ab = frozenset("ab")
    with pytest.raises(ValidationError, match="connected and acyclic"):
        LabeledTree((frozenset("a"), ab, ab), ((1, 2), (2, 1)))  # a cycle beside the root


def _refined(cat, qry):
    catalog, query = load_pair(cat, qry)
    params = CostParams()
    plan = optimize_query(catalog, params, query)
    index = index_for_query(query, catalog)
    return plan, refine_plan(plan, query, catalog, params, index)


def test_refinement_strictly_improves_postopt_fixture():
    plan, refined = _refined("postopt_catalog.json", "postopt_query.json")
    assert join_prefix_benefit(refined) > join_prefix_benefit(plan)
    assert refined.total_cost < plan.total_cost
    orders = sorted(tuple(p.produced_order) for p in refined.walk() if p.op == "merge_join")
    assert orders == [("a", "z", "b"), ("a", "z", "d"), ("a", "z", "e")]


def test_single_join_plan_unchanged():
    plan, refined = _refined("tpch_catalog.json", "q3_query.json")
    assert refined is plan


def test_plan_with_fully_pinned_orders_unchanged():
    # every join order equals an input favorable order: nothing is free
    doc = {
        "relations": [
            {
                "name": n,
                "row_count": 1000,
                "tuple_bytes": 16,
                "columns": ["a", "b"],
                "clustering_order": ["a", "b"],
                "distincts": {"a": 10, "b": 10},
            }
            for n in ("u1", "u2", "u3")
        ],
        "indices": [],
    }
    from ordopt import load_catalog, parse_query

    catalog = load_catalog(doc)
    query = parse_query(
        {
            "expr": {
                "op": "join",
                "left": {
                    "op": "join",
                    "left": {"op": "scan", "relation": "u1"},
                    "right": {"op": "scan", "relation": "u2"},
                    "join_attrs": ["a", "b"],
                },
                "right": {"op": "scan", "relation": "u3"},
                "join_attrs": ["a", "b"],
            },
            "order_by": [],
        },
        catalog,
    )
    params = CostParams()
    plan = optimize_query(catalog, params, query)
    refined = refine_plan(plan, query, catalog, params, index_for_query(query, catalog))
    assert refined is plan


def test_group_by_between_joins_breaks_refinement_edges():
    from ordopt import load_catalog, parse_query

    catalog = load_catalog(
        {
            "relations": [
                {"name": "ga", "row_count": 10000, "tuple_bytes": 16,
                 "columns": ["a", "b"], "clustering_order": ["a"],
                 "distincts": {"a": 50, "b": 100}},
                {"name": "gb", "row_count": 10000, "tuple_bytes": 16,
                 "columns": ["a", "b"], "clustering_order": ["a"],
                 "distincts": {"a": 50, "b": 100}},
                {"name": "gc", "row_count": 5000, "tuple_bytes": 16,
                 "columns": ["a", "k"], "clustering_order": [],
                 "distincts": {"a": 50, "k": 500}},
            ],
            "indices": [],
        }
    )
    query = parse_query(
        {
            "expr": {
                "op": "join",
                "left": {
                    "op": "group_by",
                    "input": {
                        "op": "join",
                        "left": {"op": "scan", "relation": "ga"},
                        "right": {"op": "scan", "relation": "gb"},
                        "join_attrs": ["a", "b"],
                    },
                    "keys": ["a", "b"],
                    "agg_width_bytes": 8,
                },
                "right": {"op": "scan", "relation": "gc"},
                "join_attrs": ["a"],
            },
            "order_by": [],
        },
        catalog,
    )
    params = CostParams()
    plan = optimize_query(catalog, params, query)
    assert sum(1 for p in plan.walk() if p.op == "merge_join") == 2
    assert join_prefix_benefit(plan) == 0  # the group-by severs the edge
    refined = refine_plan(plan, query, catalog, params, index_for_query(query, catalog))
    assert refined is plan


def test_refinement_never_increases_cost_and_stays_sound():
    from conftest import assert_plan_sound

    rng = random.Random(104)
    trials = 0
    while trials < 60:
        made = random_chain_query(rng, n_rels=rng.choice([2, 3, 4]))
        if made is None:
            continue
        catalog, query, params = made
        plan = optimize_query(catalog, params, query)
        refined = refine_plan(plan, query, catalog, params, index_for_query(query, catalog))
        assert refined.total_cost <= plan.total_cost + 1e-9
        assert_plan_sound(refined, query, catalog)
        trials += 1


def test_refined_fixture_plan_is_sound():
    from conftest import assert_plan_sound

    catalog, query = load_pair("postopt_catalog.json", "postopt_query.json")
    params = CostParams()
    plan = optimize_query(catalog, params, query)
    refined = refine_plan(plan, query, catalog, params, index_for_query(query, catalog))
    assert_plan_sound(refined, query, catalog)


@pytest.mark.xfail(
    strict=True,
    reason="the rebuilder passes a wanted order through selects, so q5's sorts land on the unfiltered scans",
)
def test_a_rebuild_that_changes_no_join_order_keeps_the_plan_cost():
    """Rebuilding q5's plan with no join order changed should price it as
    search did (39128.58).  It gives 39170.37: each select's full sort, on
    400,000 and 300,000 rows, becomes a partial sort of the 1,000,000-row
    scan below it."""
    catalog, query = load_pair("q5_catalog.json", "q5_query.json")
    params = CostParams()
    plan = optimize_query(catalog, params, query)
    builder = Optimizer(catalog, params, query)
    rebuilt = builder.rebuild(plan, query.required_output_order, {})
    assert rebuilt.total_cost == plan.total_cost


@pytest.mark.parametrize("heuristic", ["favorable", "arbitrary"])
def test_search_and_refinement_fit_a_550_join_chain_in_the_default_stack(heuristic):
    """Plan search recurses one interpreter frame per join level (`_goal`
    calls itself through `map`), and so does refinement's rebuild; the
    favorable-order pass does not recurse.  At CPython's default limit of
    1000 they reach 987 joins outside pytest on 3.10.13 and 3.11.7 and 989 on
    3.13.0, but 747 on 3.12.1, whose C recursion limit stops search first.
    Two frames per level stop them at 494 joins (373 on 3.12.1), so 550
    fails then on every interpreter.  The chain is built as expressions,
    beneath the parser's depth guard, and each call gets a fresh
    favorable-order index, so the pass runs at the depth of search and of
    refinement in turn.  On the arbitrary plan refinement reorders a join
    and keeps the rebuilt plan."""
    joins = 550
    rels = [
        {"name": f"r{i}", "row_count": 1000 * (1 + i % 3), "tuple_bytes": 64,
         "columns": ["a", "b", "c"], "clustering_order": ["c"] if i % 2 else []}
        for i in range(joins + 1)
    ]
    catalog = load_catalog({"relations": rels})
    e = lx.Scan("r0")
    for i in range(1, joins + 1):
        e = lx.Join(e, lx.Scan(f"r{i}"), frozenset("ab" if i % 2 else "bc"))
    query = lx.QuerySpec(e, order("b"))
    params = CostParams()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        plan = optimize_query(catalog, params, query, heuristic=heuristic)
        refined = refine_plan(plan, query, catalog, params, index_for_query(query, catalog))
    finally:
        sys.setrecursionlimit(limit)
    assert sum(p.op == "merge_join" for p in refined.walk()) == joins
    assert refined.total_cost <= plan.total_cost
    assert (refined is plan) == (heuristic == "favorable")
