"""Brute-force reference computations used to adjudicate the heuristics:
exhaustive plan costing, exact minimal favorable orders, exhaustive
tree-labeling benefit, and a trusted in-memory sort.

This module deliberately depends only on the value types, the catalog, and
the cost model, never on the heuristic modules it judges.  Guards fail
loudly; a caller lifts one by passing a larger ``OracleGuard``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import catalog_stats as cs
from . import cost_model as cm
from . import logical_expr as lx
from .errors import TooLarge
from .order_algebra import EMPTY, AttrSet, SortOrder, is_prefix


@dataclass(frozen=True)
class OracleGuard:
    max_attrs: int = 6
    max_assignments: int = 10**7
    max_rows: int = 10**6


class BrutePlanner:
    """Exhaustive plan costing with a memo shared across goals.

    Same physical algebra as the optimizer, but every permutation is tried at
    every order-sensitive node.
    """

    def __init__(self, catalog: cs.Catalog, params: cm.CostParams, query_attrs, guard: OracleGuard | None = None):
        self.catalog = catalog
        self.params = params
        self.guard = guard or OracleGuard()
        self.query_attrs = frozenset(query_attrs)
        self._memo: dict[tuple, float] = {}

    def _perms_of(self, attrs) -> list[SortOrder]:
        if len(attrs) > self.guard.max_attrs:
            raise TooLarge(f"{len(attrs)} attributes exceed guard {self.guard.max_attrs}")
        return [SortOrder(p) for p in itertools.permutations(sorted(attrs))]

    def cost(self, node: lx.LogicalExpr, want: SortOrder) -> float:
        key = (node, want)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        catalog, params = self.catalog, self.params
        cands: list[float] = []

        if isinstance(node, lx.Scan):
            for (_, produced), cost in cm.access_paths(node, catalog, self.query_attrs, params).items():
                cands.append(cost + cm.enforce_cost(node, produced, want, params, catalog))
        elif isinstance(node, (lx.Select, lx.Project)):
            cands.append(self.cost(node.input, want))
        elif isinstance(node, lx.Join):
            lstat = cs.expr_stats(node.left, catalog)
            rstat = cs.expr_stats(node.right, catalog)
            join_cost = cm.merge_join_cost(lstat.rows, rstat.rows, params)
            for io in self._perms_of(node.join_attrs):
                cands.append(
                    self.cost(node.left, io)
                    + self.cost(node.right, io)
                    + join_cost
                    + cm.enforce_cost(node, io, want, params, catalog)
                )
            if params.hashjoin_enabled:
                cands.append(
                    self.cost(node.left, EMPTY)
                    + self.cost(node.right, EMPTY)
                    + cm.hash_join_cost(
                        cs.expr_blocks(node.left, catalog, params.cfg),
                        cs.expr_blocks(node.right, catalog, params.cfg),
                        params,
                    )
                    + cm.enforce_cost(node, EMPTY, want, params, catalog)
                )
        elif isinstance(node, lx.GroupBy):
            for io in self._perms_of(node.keys):
                cands.append(self.cost(node.input, io) + cm.enforce_cost(node, io, want, params, catalog))
            if params.hashjoin_enabled:
                cands.append(
                    self.cost(node.input, EMPTY)
                    + cm.hash_group_cost(cs.expr_blocks(node.input, catalog, params.cfg), params)
                    + cm.enforce_cost(node, EMPTY, want, params, catalog)
                )
        else:
            raise TypeError(f"not a logical expression: {node!r}")

        if want:
            cands.append(self.cost(node, EMPTY) + cm.enforce_cost(node, EMPTY, want, params, catalog))
        best = min(cands)
        self._memo[key] = best
        return best


def brute_best_plan(
    e: lx.LogicalExpr,
    required: SortOrder,
    catalog: cs.Catalog,
    params: cm.CostParams,
    guard: OracleGuard | None = None,
    query_attrs=None,
) -> float:
    """Minimum plan cost over every permutation at every order-sensitive
    node, in the same physical algebra as the optimizer.

    `query_attrs` is the attribute set the whole query references (the
    coverage requirement for secondary indices); it defaults to the one the
    optimizer would derive for the goal treated as a complete query.
    """
    if query_attrs is None:
        query_attrs = lx.query_attrs(lx.QuerySpec(e, required), catalog)
    return BrutePlanner(catalog, params, query_attrs, guard).cost(e, required)


def _orders_over(attrs: AttrSet) -> list[SortOrder]:
    out = []
    for k in range(1, len(attrs) + 1):
        for combo in itertools.permutations(sorted(attrs), k):
            out.append(SortOrder(combo))
    return out


def exact_minimal_favorable_orders(
    e: lx.LogicalExpr,
    catalog: cs.Catalog,
    params: cm.CostParams,
    guard: OracleGuard | None = None,
    query_attrs: AttrSet | None = None,
) -> frozenset[SortOrder]:
    """The smallest set of positive-benefit orders that accounts for every
    positive-benefit order, either directly, as an extendable prefix of it at
    equal cost, or as an equal-cost extension of it.

    Exhaustively enumerates orders over the schema; guarded by schema width.
    Exact set-cover minimization for small favorable sets, greedy beyond
    (coverage, which downstream consumers rely on, always holds).
    `query_attrs` fixes the index-coverage requirement of the enclosing
    query; by default the expression is treated as the whole query.
    """
    guard = guard or OracleGuard()
    attrs = frozenset(cs.expr_stats(e, catalog).distinct)  # keyed by e's output attributes
    if len(attrs) > guard.max_attrs:
        raise TooLarge(f"schema of {len(attrs)} attributes exceeds guard {guard.max_attrs}")
    if query_attrs is None:
        query_attrs = lx.query_attrs(lx.QuerySpec(e, EMPTY), catalog)

    candidates = _orders_over(attrs)
    planner = BrutePlanner(catalog, params, query_attrs, guard)
    cbp: dict[SortOrder, float] = {o: planner.cost(e, o) for o in [EMPTY] + candidates}

    def coster(have: SortOrder, want: SortOrder) -> float:
        return cm.enforce_cost(e, have, want, params, catalog)

    def close(a: float, b: float) -> bool:
        return abs(a - b) <= max(1e-9 * max(abs(a), abs(b)), 1e-12)

    ford = sorted(o for o in candidates if cbp[EMPTY] + coster(EMPTY, o) - cbp[o] > 1e-9)
    if not ford:
        return frozenset()

    n = len(ford)
    # covers[i] = bitmask of ford members that member i accounts for.
    covers = []
    for i, m in enumerate(ford):
        mask = 1 << i
        for j, o in enumerate(ford):
            if i == j:
                continue
            if is_prefix(m, o) and close(cbp[m] + coster(m, o), cbp[o]):
                mask |= 1 << j
            elif is_prefix(o, m) and close(cbp[m], cbp[o]):
                mask |= 1 << j
        covers.append(mask)
    full = (1 << n) - 1

    if n <= 14:
        for size in range(1, n + 1):
            for combo in itertools.combinations(range(n), size):
                mask = 0
                for i in combo:
                    mask |= covers[i]
                if mask == full:
                    return frozenset(ford[i] for i in combo)

    chosen: list[int] = []
    covered = 0
    while covered != full:
        best_i = max(range(n), key=lambda i: bin(covers[i] | covered).count("1"))
        chosen.append(best_i)
        covered |= covers[best_i]
    kept = list(chosen)
    for i in list(kept):
        mask = 0
        for j in kept:
            if j != i:
                mask |= covers[j]
        if mask == full:
            kept.remove(i)
    return frozenset(ford[i] for i in kept)


def _prefix_len(a: tuple, b: tuple) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def brute_tree_benefit(tree, guard: OracleGuard | None = None) -> int:
    """Exact maximum of the shared-prefix benefit over all per-node
    permutations of a labeled tree.

    Exhaustive over per-node permutations, organized as a tree DP so edges
    are scored pairwise.
    """
    guard = guard or OracleGuard()
    sets = [frozenset(s) for s in tree.node_sets]
    edges = list(tree.edges)
    work = 1.0
    for s in sets:
        work *= math.factorial(len(s))
    if work > guard.max_assignments:
        raise TooLarge(f"assignment space of {work:.3g} exceeds guard {guard.max_assignments}")

    n = len(sets)
    kids: list[list[int]] = [[] for _ in range(n)]
    has_parent = [False] * n
    for p, c in edges:
        kids[p].append(c)
        has_parent[c] = True
    roots = [v for v in range(n) if not has_parent[v]]

    perms = [sorted(itertools.permutations(sorted(s))) for s in sets]
    memo: dict[tuple[int, tuple], int] = {}

    def best(v: int, perm: tuple) -> int:
        key = (v, perm)
        if key in memo:
            return memo[key]
        total = 0
        for c in kids[v]:
            total += max(best(c, cp) + _prefix_len(perm, cp) for cp in perms[c])
        memo[key] = total
        return total

    return sum(max(best(r, p) for p in perms[r]) for r in roots)


def reference_sort(records, guard: OracleGuard | None = None) -> list:
    """Trusted in-memory sort by the full key vector."""
    guard = guard or OracleGuard()
    out = list(records)
    if len(out) > guard.max_rows:
        raise TooLarge(f"{len(out)} rows exceed guard {guard.max_rows}")
    out.sort(key=lambda r: r.keys)
    return out
