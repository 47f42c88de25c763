"""Memoizing cost-based plan search over (expression, required order) goals.

For every goal the candidates are a full sort over the cheapest unordered
plan and the (operator, order) pairs of `Optimizer._choices`, with a (partial)
sort on top where their order falls short: a scan's access paths, the keys of
its one access-path table; a select or project over its input's plan for the
goal's order; for joins and group-bys one merge join resp. sort-based group-by
per candidate order, then the hash variant.  Both accept any order of their
attributes (join attributes resp. grouping keys) that every input delivers,
so one path makes both: the candidates are the usable prefixes of the inputs'
favorable orders plus the downstream requirement, each extended to a full
permutation of those attributes, or a heuristic's fixed orders.  `_OPS` names
the operators that compute each kind of expression, for search and the plan
loader alike.

A join's or group-by's pairs read the goal's required order only through
its prefix on their attributes, so they are derived and sorted once per
(expression, prefix), for every heuristic.  One loop in `Optimizer._goal`
builds each pair's operator once per query, over its inputs' memoized
goals, and every goal of its expression shares it; it calls `_goal` through
`map`, so search takes one interpreter frame per join level.  One rule prices
and places every sort: `Optimizer._best` ranks a goal's candidates with no
function call per candidate, pricing each from its node's fields and its
sort from a per-session cache, and builds only the winner's sort; the plan
loader and refinement's rebuild place their sorts through it too.  Plan
nodes are immutable tuples; `Optimizer._node`, in the one planning session
of a query, builds every one of them for search, refinement and the plan
loader.  Expressions are interned (`logical_expr`), so every table here keys
on the expression node itself, hashed and compared by identity.

A plan document is untrusted: `read_plan_document` rebuilds each node in a
session of its query (`Optimizer.load`), so every cost is recomputed.
It checks a node in one pass, in a fixed order that decides which error a
document with several faults gets.  Each check is made once, by a `_doc`
reader, with a lazy path that is spelled out only for an error; one
comparison of the whole node with the fields its rebuilt node writes stands
in for the field-by-field checks, which run only when it fails, and which
also name a field the node lacks.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from . import _doc
from . import catalog_stats as cs
from . import cost_model as cm
from . import favorable_orders as fo
from . import logical_expr as lx
from .errors import TooLarge, ValidationError
from .order_algebra import (
    EMPTY,
    AttrSet,
    SortOrder,
    _derived,
    canonical_permutation,
    concat,
    extend_to,
    is_prefix,
    lcp_with_set,
)

HEURISTICS = ("favorable", "arbitrary", "postgres", "exhaustive")

#: Permutation guard for the exhaustive heuristic.
EXHAUSTIVE_MAX_ATTRS = 6

_SORTS = ("full_sort", "partial_sort")
#: The operators that may compute each kind of expression; for joins and
#: group-bys the order-based operator comes first, then the hash one.
_OPS = {
    lx.Scan: ("table_scan", "covering_index_scan"),
    lx.Select: ("select",),
    lx.Project: ("project",),
    lx.Join: ("merge_join", "hash_join"),
    lx.GroupBy: ("sort_group_by", "hash_group_by"),
}


class PhysicalPlan(NamedTuple):
    """One operator of a physical plan and the logical expression `expr` it
    computes (a sort computes its input's); `op_cost` is the operator's own
    cost, `total_cost` its subtree's, in io units, and `node_count` is the
    number of operators in the subtree.  A sort's `input_order` is the prefix
    it relies on; other operators have None.  A covering index scan's key is
    the order it produces.

    Nodes are shared by every goal and plan that reaches them, so they are
    immutable: a tuple, built in C, by `Optimizer._node` alone."""

    op: str
    expr: lx.LogicalExpr
    produced_order: SortOrder
    op_cost: float
    total_cost: float
    est_rows: float
    est_blocks: int
    children: tuple[PhysicalPlan, ...]
    input_order: SortOrder | None
    node_count: int

    def walk(self):
        """Every node in preorder, with an explicit stack: no frame per level."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


def prune_prefixes(orders) -> set[SortOrder]:
    """Drop every order that is a (possibly empty) prefix of another one.

    In name order, the orders that extend o directly follow it, so o is a
    prefix of another order iff it is one of the next."""
    ranked = sorted(set(orders))
    return {o for o, nxt in zip(ranked, ranked[1:]) if not is_prefix(o, nxt)} | set(ranked[-1:])


def interesting_orders(
    e: lx.Join | lx.GroupBy,
    required: SortOrder,
    index: fo.FavorableOrderIndex,
) -> set[SortOrder]:
    """Candidate input orders for a merge join or a sort-based group-by:
    usable prefixes of the inputs' favorable orders in `index` plus the
    downstream requirement, prefix-pruned, then extended to full permutations
    of the join attributes resp. grouping keys."""
    s = lx.sort_attrs(e)
    t = index.usable(e) | {lcp_with_set(required, s)}
    return {extend_to(o, s) for o in prune_prefixes(t)}


def _heuristic_orders(e: lx.Join | lx.GroupBy, heuristic: str) -> set[SortOrder]:
    attrs = lx.sort_attrs(e)
    if heuristic == "arbitrary":
        return {canonical_permutation(attrs)}
    if heuristic == "postgres":
        # no attributes (a global aggregate): the one empty order, as for the others
        return {
            concat(SortOrder((a,)), canonical_permutation(attrs - {a}))
            for a in sorted(attrs)
        } or {EMPTY}
    # exhaustive: Optimizer.__init__ admits no other heuristic
    if len(attrs) > EXHAUSTIVE_MAX_ATTRS:
        raise TooLarge(
            f"exhaustive enumeration over {len(attrs)} attributes exceeds "
            f"guard {EXHAUSTIVE_MAX_ATTRS}"
        )
    return {SortOrder(p) for p in itertools.permutations(sorted(attrs))}


_new_plan = tuple.__new__
_OVERFLOW = "cost estimate of a {} plan overflows"


class Optimizer:
    """The planning session of one query over one catalog and set of cost
    parameters.  `_node` builds each plan node, `_best` prices and places
    every sort, and `_access_paths` holds each scan's table, cached for those
    inputs only.  Search (`optimize`, with a memo of the best plan per goal)
    builds a goal's candidates with `_operator` and ranks them with `_best`;
    refinement builds with `rebuild`, the loader with `load`.

    `order_source`, kept as `index`, is the `favorable_orders.FavorableOrderIndex`
    of the favorable orders that search and refinement assume for each
    subexpression; its `query_attrs` decide the indices that cover a scan.  It
    defaults to `favorable_orders.index_for_query`, the bottom-up approximate
    sets; a subclass of the index can substitute exact ones, say.
    """

    def __init__(
        self,
        catalog: cs.Catalog,
        params: cm.CostParams,
        query: lx.QuerySpec,
        heuristic: str = "favorable",
        order_source=None,
    ):
        if heuristic not in HEURISTICS:
            raise ValidationError(f"unknown heuristic {heuristic!r}; expected one of {HEURISTICS}")
        lx.check_query(query, catalog)
        self.catalog = catalog
        self.params = params
        self.query = query
        self.heuristic = heuristic
        self.index = fo.index_for_query(query, catalog) if order_source is None else order_source
        self._sizes: dict[lx.LogicalExpr, tuple[float, int]] = {}
        self._sort_costs: dict[tuple[lx.LogicalExpr, AttrSet, int], float] = {}
        self._paths: dict[lx.Scan, dict[tuple[str, SortOrder], float]] = {}
        self.memo: dict[tuple[lx.LogicalExpr, SortOrder], PhysicalPlan] = {}
        # operators built once per (op, expression, order), for every goal
        self._shared: dict[tuple[str, lx.LogicalExpr, SortOrder], PhysicalPlan] = {}
        # `_choices` per (join or group-by, prefix of want on its sort attributes)
        self._orders: dict[tuple[lx.LogicalExpr, SortOrder], list[tuple[str, SortOrder]]] = {}

    def optimize(self) -> PhysicalPlan:
        """The cheapest plan of the query that delivers its required order."""
        return self._goal(self.query.root, self.query.required_output_order)

    def _access_paths(self, e: lx.Scan) -> dict[tuple[str, SortOrder], float]:
        """e's `cm.access_paths` table, (kind, produced order) -> cost, cached."""
        table = self._paths.get(e)
        if table is None:
            table = self._paths[e] = cm.access_paths(e, self.catalog, self.index.query_attrs, self.params)
        return table

    def _node(self, op, e, produced, op_cost, children, input_order=None) -> PhysicalPlan:
        size = self._sizes.get(e)
        if size is None:
            stats = cs.expr_stats(e, self.catalog)
            size = self._sizes[e] = (stats.rows, cs.blocks(stats.rows, stats.width, self.params.cfg))
        rows, blocks = size
        below, count = 0.0, 1
        for _, _, _, _, child_total, _, _, _, _, child_count in children:
            below += child_total
            count += child_count
        total = op_cost + below
        if not math.isfinite(total):
            raise TooLarge(_OVERFLOW.format(op))
        # the fields in PhysicalPlan's order, built in C without its Python __new__
        fields = (op, e, produced, op_cost, total, rows, blocks, tuple(children), input_order, count)
        return _new_plan(PhysicalPlan, fields)

    def _operator(self, op, e, kids, order: SortOrder = EMPTY) -> PhysicalPlan:
        """Operator `op` computing e over `kids`, the plans of e's inputs, with
        its order and own cost.  An access path (no kids), a merge join or a
        sort-based group-by produces `order`, which a join's or group-by's
        inputs must deliver; select and project pass their input's order on
        (up to a project's first dropped column); hash operators produce none.
        Access paths cost what their table says, merge joins per input tuple
        and hash operators per input block; the others cost nothing."""
        if not kids:
            return self._node(op, e, order, self._access_paths(e)[op, order], ())
        first, last = kids[0], kids[-1]
        cost = 0.0
        if op == "select":
            order = first.produced_order
        elif op == "project":
            order = lcp_with_set(first.produced_order, e.cols)
        elif op == "merge_join":
            cost = cm.merge_join_cost(first.est_rows, last.est_rows, self.params)
        elif op == "hash_join":
            order = EMPTY
            cost = cm.hash_join_cost(first.est_blocks, last.est_blocks, self.params)
        elif op == "hash_group_by":
            order = EMPTY
            cost = cm.hash_group_cost(first.est_blocks, self.params)
        return self._node(op, e, order, cost, kids)

    def rebuild(self, p: PhysicalPlan, want: SortOrder, orders) -> PhysicalPlan:
        """`p` rebuilt to deliver `want`, each merge join in its order in
        `orders` (id(plan node) -> SortOrder), if any.  Sorts are re-derived
        and access paths reused; any other operator asks its inputs for the
        order it is built with, as in search: `want` through a select or
        project, else its own."""
        while p.op in _SORTS:
            p = p.children[0]
        if p.children:
            io = want if p.op in ("select", "project") else orders.get(id(p), p.produced_order)
            # map adds no interpreter frame per level, unlike a comprehension
            kids = tuple(map(self.rebuild, p.children, itertools.repeat(io), itertools.repeat(orders)))
            p = self._operator(p.op, p.expr, kids, io)
        return self._best(p.expr, want, [(p, p.produced_order)])

    def load(self, d, where, e: lx.LogicalExpr, exprs, sort_ok: bool = True) -> PhysicalPlan:
        """Rebuild plan node `d` at document path `where` (a lazy `_doc`
        path), which computes e; `exprs` are the query's expressions by
        `expr_id`.  No sort sits on a sort.  The checks run in a fixed order,
        which picks the error of a node with several faults: field names and
        any bool among the output-only fields; `expr_id`, `op`, `children`;
        the inputs; own orders and index key; last all else, with any other
        bad output-only value (a string, null, negative or infinite)."""
        get = _doc.fields(d, where, _NODE_KEYS).get
        # a bool would pass for 0 or 1 in the whole-node comparison below
        if bool in map(type, map(get, _OUTPUT_ONLY)):
            for key in _OUTPUT_ONLY:
                if type(get(key)) is bool:
                    _doc.number(d[key], (where, key), 0.0)
        expr_id = _doc.integer(get("expr_id"), (where, "expr_id"), 0, len(exprs) - 1)
        if exprs[expr_id] is not e:
            raise _doc.fail((where, "expr_id"), f"node {expr_id} is not the expression computed here")
        op = get("op")
        is_sort = sort_ok and op in _SORTS
        if not is_sort and op not in _OPS[type(e)]:
            raise _doc.fail((where, "op"), f"expected one of {', '.join(_OPS[type(e)])}, got {op!r}")
        below = (where, "children")
        docs = _doc.array(get("children", []), below)
        inputs = (e,) if is_sort else lx.children(e)
        if len(docs) != len(inputs):
            raise _doc.fail(below, f"expected {len(inputs)} input plans, got {len(docs)}")
        kids = []
        for i, (kid_doc, kid_expr) in enumerate(zip(docs, inputs)):
            kids.append(self.load(kid_doc, (below, i), kid_expr, exprs, not is_sort))

        if is_sort:
            delivered = kids[0].produced_order
            have = _derived(_doc.attr_list(get("input_order", []), (where, "input_order")))
            if not is_prefix(have, delivered):
                raise _doc.fail((where, "input_order"), f"the input delivers {delivered}")
            want = _derived(_doc.attr_list(get("order", []), (where, "order")))
            schema = cs.expr_stats(e, self.catalog).distinct.keys()  # keyed by e's output attributes
            _doc.within(want.attr_set(), schema, (where, "order"), "the input's schema")
            node = self._best(e, want, [(kids[0], have)])
        elif isinstance(e, lx.Scan):
            key = get("index_key")
            # the one table scan, or the covering index scan in the order of its key
            found = [o for kind, o in self._access_paths(e) if kind == op and (op == "table_scan" or list(o) == key)]
            if not found:
                raise _doc.fail((where, "index_key"), f"no covering index of {e.relation!r} has key {key!r}")
            node = self._operator(op, e, (), found[0])
        elif op in ("merge_join", "sort_group_by"):
            attrs = lx.sort_attrs(e)
            order = _derived(_doc.attr_list(get("order", []), (where, "order")))
            if order.attr_set() != attrs or not all(is_prefix(order, k.produced_order) for k in kids):
                raise _doc.fail((where, "order"), f"expected an order of {sorted(attrs)} every input delivers")
            node = self._operator(op, e, kids, order)
        else:  # the order of any other operator is derived, and checked below
            node = self._operator(op, e, kids)

        rebuilt = _node_fields(node, expr_id)
        rebuilt["children"] = docs
        if d != rebuilt:  # not exactly as ordopt writes this node: check field by field
            # a sort the input makes redundant rebuilds as its input, with other fields
            for key in (_SORT_FIELDS if is_sort else rebuilt):
                if key not in d and key not in _OUTPUT_ONLY:
                    raise _doc.fail((where, key), f"a {op} node needs this field")
            for key, value in d.items():
                if key in _OUTPUT_ONLY:
                    _doc.number(value, (where, key), 0.0)
                elif key not in rebuilt:
                    raise _doc.fail((where, key), f"a {node.op} node has no such field")
                elif value != rebuilt[key]:
                    raise _doc.fail((where, key), f"expected {rebuilt[key]!r}, got {value!r}")
        return node

    # -- goal expansion -----------------------------------------------------

    def _goal(self, e: lx.LogicalExpr, want: SortOrder) -> PhysicalPlan:
        # Goals recurse only into child expressions, or into (e, EMPTY) when
        # want is non-empty, so no goal can reach itself.
        done = self.memo.get((e, want))
        if done is not None:
            return done

        # Build each operator once, over its inputs' goals: map adds no
        # interpreter frame per level.
        candidates = []
        inputs = lx.children(e)
        for op, io in self._choices(e, want):
            node = self._shared.get((op, e, io))
            if node is None:
                kids = tuple(map(self._goal, inputs, [io] * len(inputs)))
                node = self._shared[op, e, io] = self._operator(op, e, kids, io)
            candidates.append((node, node[2]))
        if want:  # last, a full sort over the best unordered plan
            candidates.append((self._goal(e, EMPTY), EMPTY))
        plan = self.memo[e, want] = self._best(e, want, candidates)
        return plan

    def _best(self, e: lx.LogicalExpr, want: SortOrder, candidates) -> PhysicalPlan:
        """The cheapest of `candidates`, (plan of e, the order it is taken to
        deliver) pairs, each with a (partial) sort to `want` on top where that
        order falls short, relying on the prefix it shares with `want`.  One
        loop prices them, with no call per candidate, so the first overflowing
        sort names itself; `<` keeps the first of equal keys (total, order,
        node count), and only the winner's sort is built."""
        best = base = known = sort_cost = None
        width = len(want)
        for node, have in candidates:
            _, _, _, _, total, _, blocks, _, _, count = node
            if have[:width] == want:
                key, n, cost = (total, have, count), None, None
            else:
                n = 0
                for a, b in zip(want, have):
                    if a != b:
                        break
                    n += 1
                cost_key = (e, frozenset(want[:n]), width - n)
                cost = self._sort_costs.get(cost_key)
                if cost is None:
                    cost = self._sort_costs[cost_key] = cm.sort_cost(*cost_key, self.params, self.catalog, blocks)
                total = cost + total
                if not math.isfinite(total):
                    raise TooLarge(_OVERFLOW.format("partial_sort" if n else "full_sort"))
                key = (total, want, count + 1)
            if best is None or key < best:
                best, base, known, sort_cost = key, node, n, cost
        if known is None:
            return base
        return self._node("partial_sort" if known else "full_sort", e, want, sort_cost, (base,), _derived(want[:known]))

    def _choices(self, e: lx.LogicalExpr, want: SortOrder):
        """The (operator, order) pairs that may compute e, in ranking order: a
        scan's access-path table; a select or project over its input's plan
        for `want`; a merge join resp. sort-based group-by per sorted order,
        then the hash variant over unordered inputs.  Those read `want` only
        through its prefix on the sort attributes, so goals share the list."""
        if isinstance(e, lx.Scan):
            return self._access_paths(e)
        if isinstance(e, (lx.Select, lx.Project)):
            return ((_OPS[type(e)][0], want),)
        by_prefix = (e, lcp_with_set(want, lx.sort_attrs(e)))
        choices = self._orders.get(by_prefix)
        if choices is None:
            favorable = self.heuristic == "favorable"
            orders = interesting_orders(e, want, self.index) if favorable else _heuristic_orders(e, self.heuristic)
            sort_op, hash_op = _OPS[type(e)]
            choices = self._orders[by_prefix] = [(sort_op, io) for io in sorted(orders)]
            if self.params.hashjoin_enabled:
                choices.append((hash_op, EMPTY))
        return choices


def optimize_query(
    catalog: cs.Catalog,
    params: cm.CostParams,
    query: lx.QuerySpec,
    heuristic: str = "favorable",
    order_source=None,
) -> PhysicalPlan:
    """The cheapest plan of `query`, searched by a fresh `Optimizer`."""
    return Optimizer(catalog, params, query, heuristic, order_source).optimize()


# --- plan (de)serialization ---------------------------------------------------


def _node_fields(p: PhysicalPlan, expr_id: int) -> dict:
    """The document fields of one plan node with id `expr_id`, children left out."""
    # unpacked in one step: Python 3.11 reads a NamedTuple's fields by name slowly
    op, e, produced, op_cost, total, rows, blocks, children, input_order, _ = p
    d = {
        "op": op,
        "expr_id": expr_id,
        "order": list(produced),
        "op_cost": op_cost,
        "total_cost": total,
        "rows": rows,
        "blocks": blocks,
    }
    if not children:
        d["relation"] = e.relation
    if op == "covering_index_scan":
        d["index_key"] = list(produced)
    if input_order is not None:  # a sort
        d["input_order"] = list(input_order)
        d["target_order"] = list(produced)
    return d


def _plan_node_to_dict(plan: PhysicalPlan, ids: dict) -> dict:
    """The document of `plan`, built with an explicit stack: no frame per level."""
    root = _node_fields(plan, ids[plan.expr])
    stack = [(plan, root)]
    while stack:
        p, d = stack.pop()
        d["children"] = kids = []
        for c in p.children:
            kids.append(_node_fields(c, ids[c.expr]))
            stack.append((c, kids[-1]))
    return root


def plan_document(plan: PhysicalPlan, catalog: cs.Catalog, params: cm.CostParams, query: lx.QuerySpec) -> dict:
    """Self-contained plan JSON: embeds catalog, query, and cost parameters.
    A node's `expr_id` is the first preorder position of its expression in
    the query, so equal subtrees share one id."""
    ids: dict[lx.LogicalExpr, int] = {}
    for i, node in enumerate(lx.preorder(query.root)):
        ids.setdefault(node, i)
    return {
        "format": "ordopt-plan/1",
        "catalog": cs.catalog_to_dict(catalog),
        "query": lx.query_to_dict(query),
        **cm.params_to_dict(params),
        "plan": _plan_node_to_dict(plan, ids),
    }


#: Plan-node fields that loading recomputes; a document's values are only type-checked.
_OUTPUT_ONLY = ("op_cost", "total_cost", "rows", "blocks")
_NODE_KEYS = {
    "op", "expr_id", "order", "children", "relation", "index_key", "input_order", "target_order", *_OUTPUT_ONLY
}
#: The fields a sort node must have; the output-only ones may be left out.
_SORT_FIELDS = ("op", "expr_id", "order", "input_order", "target_order", "children")


def read_plan_document(source) -> tuple[Optimizer, PhysicalPlan]:
    """Parse a plan document (dict, JSON text, or bytes) into the planning
    session of its catalog, cost parameters and query, and its plan, rebuilt
    by that session: its costs, rows and blocks are recomputed."""
    doc = _doc.read_json(source, "plan")
    _doc.fields(doc, "plan file", {"format", "catalog", "query", "cost_params", "plan"})
    if doc.get("format") != "ordopt-plan/1":
        raise ValidationError("plan file: expected an ordopt-plan/1 document")
    catalog = cs.load_catalog(doc.get("catalog", {}))
    params = cm.load_params({"cost_params": doc.get("cost_params", {})})
    query = lx.parse_query(doc.get("query", {}), catalog)
    planner = Optimizer(catalog, params, query)
    plan = planner.load(doc.get("plan"), "plan", query.root, lx.preorder(query.root))
    if not is_prefix(query.required_output_order, plan.produced_order):
        raise _doc.fail("plan", f"delivers {plan.produced_order}, not the query's order_by")
    return planner, plan


def load_plan_document(source):
    """The (catalog, params, query, plan) of `read_plan_document`."""
    planner, plan = read_plan_document(source)
    return planner.catalog, planner.params, planner.query, plan


def format_plan(p: PhysicalPlan) -> str:
    """Human-readable plan tree, one operator per line; no frame per level."""
    lines = []
    stack = [(p, 0)]
    while stack:
        p, indent = stack.pop()
        parts = [p.op]
        if not p.children:
            parts.append(p.expr.relation)
        if p.op == "covering_index_scan":
            parts.append(f"key={p.produced_order}")
        if p.op in _SORTS:
            parts.append(f"{p.input_order}->{p.produced_order}")
        parts.append(f"order={p.produced_order}")
        parts.append(f"rows={p.est_rows:.6g}")
        parts.append(f"blocks={p.est_blocks}")
        parts.append(f"cost={p.op_cost:.6g}")
        parts.append(f"total={p.total_cost:.6g}")
        lines.append("  " * indent + " ".join(parts))
        stack.extend((c, indent + 1) for c in reversed(p.children))
    return "\n".join(lines)
