"""Memoizing cost-based plan search over (expression, required order) goals.

For every goal the candidates are: native access paths with a (partial) sort
enforcer on top where their order falls short, a full sort over the cheapest
unordered plan, and for joins and group-bys one merge/sort alternative per
interesting order.  Interesting orders for a join are the usable prefixes of
the inputs' favorable orders plus the downstream order requirement, each
extended to a full permutation of the join attributes; group-bys reuse the
same machinery over their grouping keys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import catalog_stats as cs
from . import cost_model as cm
from . import favorable_orders as fo
from . import logical_expr as lx
from .errors import TooLarge, Unsatisfiable, ValidationError
from .order_algebra import (
    EMPTY,
    SortOrder,
    canonical_permutation,
    concat,
    is_prefix,
    lcp,
    lcp_with_set,
)

HEURISTICS = ("favorable", "arbitrary", "postgres", "exhaustive")

#: Permutation guard for the exhaustive heuristic.
EXHAUSTIVE_MAX_ATTRS = 6


@dataclass(frozen=True)
class PhysicalPlan:
    """One operator of a physical plan; costs are subtree totals in io units."""

    op: str
    expr_id: int
    produced_order: SortOrder
    op_cost: float
    total_cost: float
    est_rows: float
    est_blocks: int
    children: tuple["PhysicalPlan", ...] = ()
    relation: str | None = None
    index_key: SortOrder | None = None
    input_order: SortOrder | None = None
    target_order: SortOrder | None = None

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()

    @property
    def node_count(self) -> int:
        return 1 + sum(c.node_count for c in self.children)


def prune_prefixes(orders) -> set[SortOrder]:
    """Drop every order that is a (possibly empty) prefix of another one."""
    out = set(orders)
    return {o for o in out if not any(o != other and is_prefix(o, other) for other in out)}


def interesting_orders(
    e: lx.Join,
    required: SortOrder,
    source,
) -> set[SortOrder]:
    """Candidate input orders for a merge join: usable prefixes of both
    inputs' favorable orders plus the downstream requirement, prefix-pruned,
    then extended to full permutations of the join attributes."""
    s = e.join_attrs
    t = set(fo.restrict_orders(source(e.left), s))
    t |= fo.restrict_orders(source(e.right), s)
    t.add(lcp_with_set(required, s))
    kept = prune_prefixes(t) or {EMPTY}
    return {concat(o, canonical_permutation(s - o.attr_set())) for o in kept}


def _heuristic_orders(attrs, required: SortOrder, heuristic: str) -> set[SortOrder]:
    if heuristic == "arbitrary":
        return {canonical_permutation(attrs)}
    if heuristic == "postgres":
        return {
            concat(SortOrder((a,)), canonical_permutation(attrs - {a}))
            for a in sorted(attrs)
        }
    if heuristic == "exhaustive":
        if len(attrs) > EXHAUSTIVE_MAX_ATTRS:
            raise TooLarge(
                f"exhaustive enumeration over {len(attrs)} attributes exceeds "
                f"guard {EXHAUSTIVE_MAX_ATTRS}"
            )
        return {SortOrder(p) for p in itertools.permutations(sorted(attrs))}
    raise ValidationError(f"unknown heuristic {heuristic!r}")


class _PlanBuilder:
    """Builds and costs plan nodes over one catalog and set of cost
    parameters; the optimizer and plan refinement both build through it."""

    def __init__(self, catalog: cs.Catalog, params: cm.CostParams):
        self.catalog = catalog
        self.params = params

    def _node(self, op, e, expr_id, produced, op_cost, children, **extra) -> PhysicalPlan:
        stats = cs.expr_stats(e, self.catalog)
        return PhysicalPlan(
            op=op,
            expr_id=expr_id,
            produced_order=produced,
            op_cost=op_cost,
            total_cost=op_cost + sum(c.total_cost for c in children),
            est_rows=stats.rows,
            est_blocks=cs.expr_blocks(e, self.catalog, self.params.cfg),
            children=tuple(children),
            **extra,
        )

    def _enforced(self, plan: PhysicalPlan, e, want: SortOrder, have: SortOrder | None = None) -> PhysicalPlan:
        """`plan` itself if it delivers `want`; otherwise a (partial) sort on
        top of it that relies on what `have` (by default the plan's own
        order) shares with `want`."""
        have = plan.produced_order if have is None else have
        if is_prefix(want, have):
            return plan
        known = lcp(want, have)
        cost = cm.enforce_cost(e, have, want, self.params, self.catalog)
        op = "partial_sort" if known else "full_sort"
        return self._node(op, e, plan.expr_id, want, cost, (plan,), input_order=known, target_order=want)


class Optimizer(_PlanBuilder):
    """One optimization session: a fresh memo over one catalog and query.

    `order_source` maps a subexpression to the favorable orders assumed for
    it; it defaults to the bottom-up approximate sets and can be replaced
    (e.g. by exact favorable orders) without touching the search.
    """

    def __init__(self, catalog: cs.Catalog, params: cm.CostParams, heuristic: str = "favorable", order_source=None):
        if heuristic not in HEURISTICS:
            raise ValidationError(f"unknown heuristic {heuristic!r}; expected one of {HEURISTICS}")
        super().__init__(catalog, params)
        self.heuristic = heuristic
        self._source = order_source
        self.memo: dict[tuple[lx.LogicalExpr, SortOrder], PhysicalPlan] = {}
        self._open: set[tuple[lx.LogicalExpr, SortOrder]] = set()
        self._expr_ids: dict[lx.LogicalExpr, int] = {}
        self._query_attrs = frozenset()
        self._query: lx.QuerySpec | None = None

    # -- session entry ------------------------------------------------------

    def optimize(self, query: lx.QuerySpec) -> PhysicalPlan:
        if self._query is None:
            self._query = query
        elif query != self._query:
            raise ValidationError("one optimization session per Optimizer instance")
        for i, node in enumerate(lx.preorder(query.root)):
            self._expr_ids.setdefault(node, i)
        self._query_attrs = lx.query_attrs(query, self.catalog)
        if self._source is None:
            index = fo.FavorableOrderIndex(self.catalog, self._query_attrs)
            self._source = index.orders_for
        return self._goal(query.root, query.required_output_order)

    # -- goal expansion -----------------------------------------------------

    def _goal(self, e: lx.LogicalExpr, want: SortOrder) -> PhysicalPlan:
        key = (e, want)
        done = self.memo.get(key)
        if done is not None:
            return done
        if key in self._open:
            raise Unsatisfiable(f"cyclic optimization goal for {type(e).__name__}")
        self._open.add(key)

        cands: list[PhysicalPlan] = []
        if isinstance(e, lx.Scan):
            cands.extend(self._scan_candidates(e, want))
        elif isinstance(e, lx.Select):
            child = self._goal(e.input, want)
            cands.append(self._node("select", e, self._id(e), child.produced_order, 0.0, (child,)))
        elif isinstance(e, lx.Project):
            child = self._goal(e.input, want)
            produced = lcp_with_set(child.produced_order, e.cols)
            cands.append(self._node("project", e, self._id(e), produced, 0.0, (child,)))
        elif isinstance(e, lx.Join):
            cands.extend(self._join_candidates(e, want))
        elif isinstance(e, lx.GroupBy):
            cands.extend(self._group_candidates(e, want))
        else:
            raise TypeError(f"not a logical expression: {e!r}")

        if want:
            cands.append(self._enforced(self._goal(e, EMPTY), e, want, have=EMPTY))

        best = min(cands, key=lambda p: (p.total_cost, p.produced_order.attrs, p.node_count))
        self._open.discard(key)
        self.memo[key] = best
        return best

    def _scan_candidates(self, e: lx.Scan, want: SortOrder):
        for kind, produced, cost, idx in self._access_paths(e):
            node = self._node(
                kind,
                e,
                self._id(e),
                produced,
                cost,
                (),
                relation=e.relation,
                index_key=idx.key_order if idx is not None else None,
            )
            yield self._enforced(node, e, want)

    def _join_candidates(self, e: lx.Join, want: SortOrder):
        if self.heuristic == "favorable":
            orders = interesting_orders(e, want, self._source)
        else:
            orders = _heuristic_orders(e.join_attrs, want, self.heuristic)
        lstat = cs.expr_stats(e.left, self.catalog)
        rstat = cs.expr_stats(e.right, self.catalog)
        for io in sorted(orders, key=lambda o: o.attrs):
            left = self._goal(e.left, io)
            right = self._goal(e.right, io)
            cost = cm.merge_join_cost(lstat.rows, rstat.rows, self.params)
            node = self._node("merge_join", e, self._id(e), io, cost, (left, right))
            yield self._enforced(node, e, want)
        if self.params.hashjoin_enabled:
            left = self._goal(e.left, EMPTY)
            right = self._goal(e.right, EMPTY)
            cost = cm.hash_join_cost(
                cs.expr_blocks(e.left, self.catalog, self.params.cfg),
                cs.expr_blocks(e.right, self.catalog, self.params.cfg),
                self.params,
            )
            node = self._node("hash_join", e, self._id(e), EMPTY, cost, (left, right))
            yield self._enforced(node, e, want)

    def _group_orders(self, e: lx.GroupBy, want: SortOrder) -> set[SortOrder]:
        if self.heuristic != "favorable":
            return _heuristic_orders(e.keys, want, self.heuristic)
        t = set(fo.restrict_orders(self._source(e.input), e.keys))
        t.add(lcp_with_set(want, e.keys))
        kept = prune_prefixes(t) or {EMPTY}
        return {concat(o, canonical_permutation(e.keys - o.attr_set())) for o in kept}

    def _group_candidates(self, e: lx.GroupBy, want: SortOrder):
        for io in sorted(self._group_orders(e, want), key=lambda o: o.attrs):
            child = self._goal(e.input, io)
            node = self._node("sort_group_by", e, self._id(e), io, 0.0, (child,))
            yield self._enforced(node, e, want)
        if self.params.hashjoin_enabled:
            child = self._goal(e.input, EMPTY)
            cost = cm.hash_group_cost(cs.expr_blocks(e.input, self.catalog, self.params.cfg), self.params)
            node = self._node("hash_group_by", e, self._id(e), EMPTY, cost, (child,))
            yield self._enforced(node, e, want)

    # -- node construction ----------------------------------------------------

    def _access_paths(self, e: lx.Scan):
        return cm.access_paths(e, self.catalog, self._query_attrs, self.params)

    def _id(self, e: lx.LogicalExpr) -> int:
        return self._expr_ids.get(e, -1)


def optimize_query(
    catalog: cs.Catalog,
    params: cm.CostParams,
    query: lx.QuerySpec,
    heuristic: str = "favorable",
    order_source=None,
) -> PhysicalPlan:
    """Convenience wrapper: one fresh optimization session."""
    return Optimizer(catalog, params, heuristic, order_source).optimize(query)


# --- plan (de)serialization ---------------------------------------------------


def _plan_node_to_dict(p: PhysicalPlan) -> dict:
    d = {
        "op": p.op,
        "expr_id": p.expr_id,
        "order": list(p.produced_order.attrs),
        "op_cost": p.op_cost,
        "total_cost": p.total_cost,
        "rows": p.est_rows,
        "blocks": p.est_blocks,
        "children": [_plan_node_to_dict(c) for c in p.children],
    }
    if p.relation is not None:
        d["relation"] = p.relation
    if p.index_key is not None:
        d["index_key"] = list(p.index_key.attrs)
    if p.input_order is not None:
        d["input_order"] = list(p.input_order.attrs)
    if p.target_order is not None:
        d["target_order"] = list(p.target_order.attrs)
    return d


def plan_document(plan: PhysicalPlan, catalog: cs.Catalog, params: cm.CostParams, query: lx.QuerySpec) -> dict:
    """Self-contained plan JSON: embeds catalog, query, and cost parameters."""
    return {
        "format": "ordopt-plan/1",
        "catalog": cs.catalog_to_dict(catalog),
        "query": lx.query_to_dict(query),
        **cm.params_to_dict(params),
        "plan": _plan_node_to_dict(plan),
    }


def _plan_node_from_dict(d: dict, nodes: list[lx.LogicalExpr]) -> PhysicalPlan:
    if not isinstance(d, dict) or "op" not in d:
        raise ValidationError("plan: expected an operator object")
    expr_id = d.get("expr_id", -1)
    if not isinstance(expr_id, int) or not (0 <= expr_id < len(nodes)):
        raise ValidationError(f"plan: bad expr_id {expr_id!r}")
    return PhysicalPlan(
        op=d["op"],
        expr_id=expr_id,
        produced_order=SortOrder(tuple(d.get("order", []))),
        op_cost=float(d.get("op_cost", 0.0)),
        total_cost=float(d.get("total_cost", 0.0)),
        est_rows=float(d.get("rows", 0.0)),
        est_blocks=int(d.get("blocks", 0)),
        children=tuple(_plan_node_from_dict(c, nodes) for c in d.get("children", [])),
        relation=d.get("relation"),
        index_key=SortOrder(tuple(d["index_key"])) if "index_key" in d else None,
        input_order=SortOrder(tuple(d["input_order"])) if "input_order" in d else None,
        target_order=SortOrder(tuple(d["target_order"])) if "target_order" in d else None,
    )


def load_plan_document(doc: dict):
    """Parse a plan document back into (catalog, params, query, plan)."""
    if not isinstance(doc, dict) or doc.get("format") != "ordopt-plan/1":
        raise ValidationError("plan file: expected an ordopt-plan/1 document")
    catalog = cs.load_catalog(doc.get("catalog", {}))
    params = cm.load_params({"cost_params": doc.get("cost_params", {})})
    query = lx.parse_query(doc.get("query", {}), catalog)
    nodes = lx.preorder(query.root)
    plan = _plan_node_from_dict(doc.get("plan", {}), nodes)
    return catalog, params, query, plan


def format_plan(p: PhysicalPlan, indent: int = 0) -> str:
    """Human-readable plan tree, one operator per line."""
    parts = [p.op]
    if p.relation:
        parts.append(p.relation)
    if p.index_key is not None:
        parts.append(f"key={p.index_key}")
    if p.op in ("partial_sort", "full_sort"):
        parts.append(f"{p.input_order}->{p.target_order}")
    parts.append(f"order={p.produced_order}")
    parts.append(f"rows={p.est_rows:.6g}")
    parts.append(f"blocks={p.est_blocks}")
    parts.append(f"cost={p.op_cost:.6g}")
    parts.append(f"total={p.total_cost:.6g}")
    line = "  " * indent + " ".join(parts)
    return "\n".join([line] + [format_plan(c, indent + 1) for c in p.children])
