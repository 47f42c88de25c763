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

from . import _doc
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
    parameters; the optimizer, refinement and the plan loader build with it."""

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
            est_blocks=cs.blocks(stats.rows, stats.width, self.params.cfg),
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

    def _access(self, e: lx.Scan, expr_id: int, path) -> PhysicalPlan:
        """The scan node of one of `cm.access_paths(e, ...)`."""
        kind, produced, cost, idx = path
        index_key = idx.key_order if idx is not None else None
        return self._node(kind, e, expr_id, produced, cost, (), relation=e.relation, index_key=index_key)

    def _operator(self, op, e, expr_id, kids, order: SortOrder = EMPTY) -> PhysicalPlan:
        """Operator `op` computing e over `kids`, the plans of e's inputs.  A
        merge join or sort-based group-by produces `order`, which its inputs
        must deliver; select and project pass their input's order on (up to
        a project's first dropped column); hash operators produce none."""
        first, last = kids[0], kids[-1]
        if op == "select":
            order = first.produced_order
        elif op == "project":
            order = lcp_with_set(first.produced_order, e.cols)
        elif op in ("hash_join", "hash_group_by"):
            order = EMPTY
        cost = cm.operator_cost(
            op, self.params, left_rows=first.est_rows, right_rows=last.est_rows,
            left_blocks=first.est_blocks, right_blocks=last.est_blocks, input_blocks=first.est_blocks,
        )
        return self._node(op, e, expr_id, order, cost, kids)


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
            for path in cm.access_paths(e, self.catalog, self._query_attrs, self.params):
                cands.append(self._enforced(self._access(e, self._id(e), path), e, want))
        elif isinstance(e, lx.Select):
            cands.append(self._operator("select", e, self._id(e), (self._goal(e.input, want),)))
        elif isinstance(e, lx.Project):
            cands.append(self._operator("project", e, self._id(e), (self._goal(e.input, want),)))
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

    def _join_candidates(self, e: lx.Join, want: SortOrder):
        if self.heuristic == "favorable":
            orders = interesting_orders(e, want, self._source)
        else:
            orders = _heuristic_orders(e.join_attrs, want, self.heuristic)
        for io in sorted(orders, key=lambda o: o.attrs):
            kids = (self._goal(e.left, io), self._goal(e.right, io))
            yield self._enforced(self._operator("merge_join", e, self._id(e), kids, io), e, want)
        if self.params.hashjoin_enabled:
            kids = (self._goal(e.left, EMPTY), self._goal(e.right, EMPTY))
            yield self._enforced(self._operator("hash_join", e, self._id(e), kids), e, want)

    def _group_orders(self, e: lx.GroupBy, want: SortOrder) -> set[SortOrder]:
        if self.heuristic != "favorable":
            return _heuristic_orders(e.keys, want, self.heuristic)
        t = set(fo.restrict_orders(self._source(e.input), e.keys))
        t.add(lcp_with_set(want, e.keys))
        kept = prune_prefixes(t) or {EMPTY}
        return {concat(o, canonical_permutation(e.keys - o.attr_set())) for o in kept}

    def _group_candidates(self, e: lx.GroupBy, want: SortOrder):
        for io in sorted(self._group_orders(e, want), key=lambda o: o.attrs):
            node = self._operator("sort_group_by", e, self._id(e), (self._goal(e.input, io),), io)
            yield self._enforced(node, e, want)
        if self.params.hashjoin_enabled:
            node = self._operator("hash_group_by", e, self._id(e), (self._goal(e.input, EMPTY),))
            yield self._enforced(node, e, want)

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


def _node_fields(p: PhysicalPlan) -> dict:
    """The document fields of one plan node, children left out."""
    d = {
        "op": p.op,
        "expr_id": p.expr_id,
        "order": list(p.produced_order.attrs),
        "op_cost": p.op_cost,
        "total_cost": p.total_cost,
        "rows": p.est_rows,
        "blocks": p.est_blocks,
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


def _plan_node_to_dict(p: PhysicalPlan) -> dict:
    return {**_node_fields(p), "children": [_plan_node_to_dict(c) for c in p.children]}


def plan_document(plan: PhysicalPlan, catalog: cs.Catalog, params: cm.CostParams, query: lx.QuerySpec) -> dict:
    """Self-contained plan JSON: embeds catalog, query, and cost parameters."""
    return {
        "format": "ordopt-plan/1",
        "catalog": cs.catalog_to_dict(catalog),
        "query": lx.query_to_dict(query),
        **cm.params_to_dict(params),
        "plan": _plan_node_to_dict(plan),
    }


_SORTS = ("full_sort", "partial_sort")
#: The operators that may compute each kind of expression.
_OPS = {
    lx.Scan: ("table_scan", "covering_index_scan"),
    lx.Select: ("select",),
    lx.Project: ("project",),
    lx.Join: ("merge_join", "hash_join"),
    lx.GroupBy: ("sort_group_by", "hash_group_by"),
}
#: Plan-node fields that loading recomputes; a document's values are only type-checked.
_OUTPUT_ONLY = ("op_cost", "total_cost", "rows", "blocks")
_NODE_KEYS = {
    "op", "expr_id", "order", "children", "relation", "index_key", "input_order", "target_order", *_OUTPUT_ONLY
}


def _order(d: dict, key: str, path: str) -> SortOrder:
    return SortOrder(_doc.attr_list(d.get(key, []), f"{path}.{key}"))


class _PlanLoader(_PlanBuilder):
    """Rebuilds the operator tree of a plan document through the builder, so
    every node is checked against the expression it computes and re-costed."""

    def __init__(self, catalog: cs.Catalog, params: cm.CostParams, query: lx.QuerySpec):
        super().__init__(catalog, params)
        self.exprs = lx.preorder(query.root)
        self.query_attrs = lx.query_attrs(query, catalog)

    def load(self, d, path: str, e: lx.LogicalExpr, sort_ok: bool = True) -> PhysicalPlan:
        """Rebuild plan node `d`, which computes e; no sort sits on a sort."""
        _doc.fields(d, path, _NODE_KEYS)
        for key in _OUTPUT_ONLY:  # a bool would pass for 0 or 1 in the comparison below
            if type(d.get(key)) is bool:
                _doc.number(d[key], f"{path}.{key}", 0.0)
        expr_id = _doc.integer(d.get("expr_id"), path + ".expr_id", 0, len(self.exprs) - 1)
        if self.exprs[expr_id] != e:
            raise _doc.fail(path + ".expr_id", f"node {expr_id} is not the expression computed here")
        op = d.get("op")
        is_sort = op in _SORTS and sort_ok
        if not is_sort and op not in _OPS[type(e)]:
            raise _doc.fail(path + ".op", f"expected one of {', '.join(_OPS[type(e)])}, got {op!r}")
        docs = _doc.array(d.get("children", []), path + ".children")
        inputs = (e,) if is_sort else lx.children(e)
        if len(docs) != len(inputs):
            raise _doc.fail(path + ".children", f"expected {len(inputs)} input plans, got {len(docs)}")
        paths = [f"{path}.children[{i}]" for i in range(len(docs))]
        # map adds no interpreter frame per level, unlike a comprehension
        kids = tuple(map(self.load, docs, paths, inputs, [not is_sort] * len(docs)))

        if is_sort:
            have = _order(d, "input_order", path)
            if not is_prefix(have, kids[0].produced_order):
                raise _doc.fail(path + ".input_order", f"the input delivers {kids[0].produced_order}")
            node = self._enforced(kids[0], e, _order(d, "order", path), have)
        elif isinstance(e, lx.Scan):
            key = d.get("index_key")
            found = [
                p
                for p in cm.access_paths(e, self.catalog, self.query_attrs, self.params)
                if p[0] == op and (p[3] is None or list(p[3].key_order.attrs) == key)
            ]
            if not found:
                raise _doc.fail(path + ".index_key", f"no covering index of {e.relation!r} has key {key!r}")
            # Of several indices with this key the optimizer picks the cheapest.
            node = self._access(e, expr_id, min(found, key=lambda p: p[2]))
        elif op in ("merge_join", "sort_group_by"):
            order = _order(d, "order", path)
            attrs = e.join_attrs if op == "merge_join" else e.keys
            if order.attr_set() != attrs or not all(is_prefix(order, k.produced_order) for k in kids):
                raise _doc.fail(path + ".order", f"expected an order of {sorted(attrs)} every input delivers")
            node = self._operator(op, e, expr_id, kids, order)
        else:  # the order of any other operator is derived, and checked below
            node = self._operator(op, e, expr_id, kids)

        rebuilt = _node_fields(node)
        rebuilt["children"] = docs
        if d != rebuilt:  # not exactly as ordopt writes this node: check field by field
            for key, value in d.items():
                if key in _OUTPUT_ONLY:
                    _doc.number(value, f"{path}.{key}", 0.0)
                elif value != rebuilt.get(key):
                    raise _doc.fail(f"{path}.{key}", f"expected {rebuilt.get(key)!r}, got {value!r}")
        return node


def load_plan_document(source):
    """Parse a plan document (dict, JSON text, or bytes) into (catalog, params,
    query, plan); the plan is rebuilt, and its costs, rows and blocks recomputed."""
    doc = _doc.read_json(source, "plan")
    _doc.fields(doc, "plan file", {"format", "catalog", "query", "cost_params", "plan"})
    if doc.get("format") != "ordopt-plan/1":
        raise ValidationError("plan file: expected an ordopt-plan/1 document")
    catalog = cs.load_catalog(doc.get("catalog", {}))
    params = cm.load_params({"cost_params": doc.get("cost_params", {})})
    query = lx.parse_query(doc.get("query", {}), catalog)
    plan = _PlanLoader(catalog, params, query).load(doc.get("plan"), "plan", query.root)
    if not is_prefix(query.required_output_order, plan.produced_order):
        raise _doc.fail("plan", f"delivers {plan.produced_order}, not the query's order_by")
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
