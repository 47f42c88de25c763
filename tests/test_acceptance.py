"""Acceptance criteria, one test per criterion.

Each test prints one `ACCEPTANCE <n>: PASS|FAIL` line (visible with -s or on
failure) and asserts the criterion at its stated tolerance.
"""

import random
import time

from ordopt import (
    BlockConfig,
    CostParams,
    FavorableOrderIndex,
    OracleGuard,
    SortSpec,
    assignment_benefit,
    brute_best_plan,
    brute_tree_benefit,
    exact_minimal_favorable_orders,
    gen_segmented_input,
    index_for_query,
    is_prefix,
    join_prefix_benefit,
    optimize_query,
    path_order,
    query_attrs,
    reference_sort,
    refine_plan,
    sort_mrs,
    sort_srs,
    tree_approx,
)

from conftest import (
    load_pair,
    random_catalog_and_join,
    random_chain_query,
    random_labeled_path,
    random_labeled_tree,
)


def _report(n: int, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_path_order_exact():
    rng = random.Random(1001)
    t0 = time.time()
    for _ in range(500):
        tree = random_labeled_path(rng, max_nodes=7, max_set=3)
        got = assignment_benefit(tree, path_order(list(tree.node_sets)))
        want = brute_tree_benefit(tree)
        if got != want:
            _report(1, False, f"path benefit {got} != optimum {want} on {tree.node_sets}")
    elapsed = time.time() - t0
    _report(1, elapsed < 30, f"500 paths exact, {elapsed:.1f}s")


def test_criterion_2_tree_approximation_bound():
    rng = random.Random(1002)
    t0 = time.time()
    for _ in range(500):
        tree = random_labeled_tree(rng, max_nodes=9, max_set=3)
        got = assignment_benefit(tree, tree_approx(tree))
        want = brute_tree_benefit(tree)
        if 2 * got < want:
            _report(2, False, f"2*{got} < optimum {want} on {tree.node_sets}")
    elapsed = time.time() - t0
    _report(2, elapsed < 60, f"500 trees within half of optimum, {elapsed:.1f}s")


def test_criterion_3_mrs_zero_io_lattice():
    checked = 0
    for segment_rows, payload in ((1, 64), (10, 64), (100, 128), (400, 50)):
        for mem_blocks in (8, 16, 64, 128):
            cfg = BlockConfig(block_bytes=4096, memory_blocks=mem_blocks)
            if segment_rows * payload > cfg.memory_bytes:
                continue
            spec = SortSpec(2, 1, cfg)
            rows = segment_rows * 20
            out, met = sort_mrs(gen_segmented_input(rows, segment_rows, 2, payload, 7), spec)
            list(out)
            if met.run_blocks_written or met.run_blocks_read:
                _report(3, False, f"I/O at segment_rows={segment_rows} mem={mem_blocks}")
            checked += 1
    _report(3, checked >= 16, f"{checked} in-memory-segment specs, all zero I/O")


def test_criterion_4_early_output():
    cfg = BlockConfig(block_bytes=4096, memory_blocks=64)
    rows, segment = 100_000, 1_000
    out, met = sort_mrs(gen_segmented_input(rows, segment, 2, 200, 7), SortSpec(2, 1, cfg))
    list(out)
    out, met_srs = sort_srs(gen_segmented_input(rows, segment, 2, 200, 7), SortSpec(2, 0, cfg))
    list(out)
    ok = met.tuples_in_before_first_out == segment and met_srs.tuples_in_before_first_out == rows
    _report(4, ok, f"mrs first out after {met.tuples_in_before_first_out}, srs after {met_srs.tuples_in_before_first_out}")


def test_criterion_5_a3_shape():
    t0 = time.time()
    cfg = BlockConfig(block_bytes=4096, memory_blocks=64)
    rows = 100_000
    srs_written, mrs_written = [], []
    sizes = [1, 10, 100, 1_000, 10_000, 100_000]
    for segment_rows in sizes:
        out, met = sort_srs(gen_segmented_input(rows, segment_rows, 2, 200, 1), SortSpec(2, 0, cfg))
        list(out)
        srs_written.append(met.run_blocks_written)
        out, met = sort_mrs(gen_segmented_input(rows, segment_rows, 2, 200, 1), SortSpec(2, 1, cfg))
        list(out)
        mrs_written.append(met.run_blocks_written)
    elapsed = time.time() - t0

    fits = [s * 200 <= cfg.memory_bytes for s in sizes]
    ok = all(w > 0 for w in srs_written)
    ok = ok and max(srs_written) <= 1.01 * min(srs_written)  # constant up to run rounding
    for i, s in enumerate(sizes):
        if fits[i]:
            ok = ok and mrs_written[i] == 0
        else:
            ok = ok and mrs_written[i] > 0
    spilled = [w for w in mrs_written if w > 0]
    ok = ok and all(a <= b for a, b in zip(spilled, spilled[1:]))  # monotone rise
    ok = ok and abs(mrs_written[-1] - srs_written[-1]) <= 0.05 * srs_written[-1]
    ok = ok and elapsed < 120
    _report(5, ok, f"srs={srs_written} mrs={mrs_written} {elapsed:.1f}s")


def test_criterion_6_sort_equivalence():
    rng = random.Random(1006)
    for trial in range(100):
        rows = rng.choice([200, 500, 1000])
        segment = rng.choice([1, 10, 50, rows])
        payload = rng.choice([40, 100, 300])
        mem = rng.choice([3, 4, 8, 32])
        keys = rng.choice([2, 3])
        seed = rng.randrange(1 << 30)
        cfg = BlockConfig(block_bytes=1024, memory_blocks=mem)
        ref = [r.keys for r in reference_sort(gen_segmented_input(rows, segment, keys, payload, seed))]
        out, _ = sort_srs(gen_segmented_input(rows, segment, keys, payload, seed), SortSpec(keys, 0, cfg))
        if [r.keys for r in out] != ref:
            _report(6, False, f"srs mismatch at trial {trial}")
        out, _ = sort_mrs(gen_segmented_input(rows, segment, keys, payload, seed), SortSpec(keys, 1, cfg))
        if [r.keys for r in out] != ref:
            _report(6, False, f"mrs mismatch at trial {trial}")
    _report(6, True, "100 seeded streams equal the reference sort for both algorithms")


def _fixture_costs(cat, qry):
    catalog, query = load_pair(cat, qry)
    params = CostParams()
    costs = {
        h: optimize_query(catalog, params, query, heuristic=h).total_cost
        for h in ("arbitrary", "postgres", "exhaustive")
    }
    plan = optimize_query(catalog, params, query, heuristic="favorable")
    index = index_for_query(query, catalog)
    refined = refine_plan(plan, query, catalog, params, index)
    costs["favorable"] = refined.total_cost  # the full two-phase approach
    return costs


def test_criterion_7_heuristic_ordering():
    fixtures = {
        "example1": ("example1_catalog.json", "example1_query.json"),
        "q3": ("tpch_catalog.json", "q3_query.json"),
        "q4": ("q4_catalog.json", "q4_query.json"),
        "q5": ("q5_catalog.json", "q5_query.json"),
    }
    details = []
    ok = True
    for name, (cat, qry) in fixtures.items():
        c = _fixture_costs(cat, qry)
        ok = ok and c["exhaustive"] <= c["favorable"] + 1e-9
        ok = ok and c["favorable"] <= c["postgres"] + 1e-9
        ok = ok and c["favorable"] <= c["arbitrary"] + 1e-9
        if name in ("q3", "q4"):
            ok = ok and c["favorable"] <= 1.01 * c["exhaustive"]
        details.append(f"{name}: exh={c['exhaustive']:.1f} fav={c['favorable']:.1f} pg={c['postgres']:.1f} arb={c['arbitrary']:.1f}")
    _report(7, ok, "; ".join(details))


class _ExactOrders(FavorableOrderIndex):
    """The exact minimal favorable orders in place of the bottom-up sets."""

    def __init__(self, catalog, params, query, guard):
        super().__init__(catalog, query_attrs(query, catalog))
        self.params = params
        self.guard = guard

    def orders_for(self, e):
        if e not in self._cache:
            self._cache[e] = exact_minimal_favorable_orders(
                e, self.catalog, self.params, self.guard, query_attrs=self.query_attrs
            )
        return self._cache[e]


def test_criterion_8_exact_favorable_orders_optimal():
    rng = random.Random(1008)
    guard = OracleGuard()
    worst = 0.0
    for _ in range(200):
        catalog, query, params = random_catalog_and_join(rng)
        plan = optimize_query(catalog, params, query, order_source=_ExactOrders(catalog, params, query, guard))
        brute = brute_best_plan(query.root, query.required_output_order, catalog, params, guard)
        rel = abs(plan.total_cost - brute) / max(abs(brute), 1e-12)
        worst = max(worst, rel)
        if rel > 1e-9:
            _report(8, False, f"cost {plan.total_cost} vs optimum {brute} (rel {rel:.2e})")
    _report(8, True, f"200 catalogs, worst relative gap {worst:.2e}")


def test_criterion_9_refinement_safety_and_efficacy():
    # efficacy on the post-optimization fixture
    catalog, query = load_pair("postopt_catalog.json", "postopt_query.json")
    params = CostParams()
    plan = optimize_query(catalog, params, query)
    refined = refine_plan(plan, query, catalog, params, index_for_query(query, catalog))
    ok = join_prefix_benefit(refined) > join_prefix_benefit(plan)
    ok = ok and refined.total_cost < plan.total_cost
    detail = (
        f"fixture benefit {join_prefix_benefit(plan)}->{join_prefix_benefit(refined)}, "
        f"cost {plan.total_cost:.1f}->{refined.total_cost:.1f}"
    )
    # safety everywhere
    for cat, qry in (
        ("example1_catalog.json", "example1_query.json"),
        ("tpch_catalog.json", "q2_query.json"),
        ("tpch_catalog.json", "q3_query.json"),
        ("q4_catalog.json", "q4_query.json"),
        ("q5_catalog.json", "q5_query.json"),
    ):
        c2, q2 = load_pair(cat, qry)
        p2 = optimize_query(c2, params, q2)
        r2 = refine_plan(p2, q2, c2, params, index_for_query(q2, c2))
        ok = ok and r2.total_cost <= p2.total_cost + 1e-9
    rng = random.Random(1009)
    trials = 0
    while trials < 100:
        made = random_chain_query(rng, n_rels=rng.choice([2, 3, 4]))
        if made is None:
            continue
        c3, q3, p3 = made
        plan3 = optimize_query(c3, p3, q3)
        refined3 = refine_plan(plan3, q3, c3, p3, index_for_query(q3, c3))
        if refined3.total_cost > plan3.total_cost + 1e-9:
            _report(9, False, f"refinement regressed on random trial {trials}")
        trials += 1
    _report(9, ok, detail + "; never regressed on fixtures or 100 random trials")


def test_criterion_10_q3_plan_structure():
    catalog, query = load_pair("tpch_catalog.json", "q3_query.json")
    plan = optimize_query(catalog, CostParams(), query)
    nodes = list(plan.walk())
    joins = [p for p in nodes if p.op == "merge_join"]
    gbs = [p for p in nodes if p.op == "sort_group_by"]
    ok = bool(joins) and bool(gbs)

    def lineitem_side(p):
        return any(n.op == "covering_index_scan" and n.expr.relation == "lineitem" for n in p.walk())

    side = [c for c in joins[0].children if lineitem_side(c)] if ok else []
    ok = ok and bool(side)
    if ok:
        ops = [n.op for n in side[0].walk()]
        ok = "partial_sort" in ops and "full_sort" not in ops
    ok = ok and is_prefix(joins[0].produced_order, gbs[0].children[0].produced_order)
    _report(10, ok, "partial sort above lineitem entries; group-by consumes the join order")
