"""Favorable orders: sort orders an expression can produce more cheaply than
by fully sorting an unordered result.

The sets are approximate, computed bottom-up in one pass over the expression
tree; `oracle.exact_minimal_favorable_orders` computes the exact minimal sets
of small schemas to judge them.

Every consumer of a set (the pass itself at the parent join or group-by,
plan search, refinement) reads only the prefixes of its orders within one
join's or group-by's attribute set.  Those restricted sets are cached per
(expression, attribute set), so each is computed once per query and shared
by whoever holds the index.
"""

from __future__ import annotations

import logging

from . import catalog_stats as cs
from . import logical_expr as lx
from .order_algebra import (
    EMPTY,
    AttrSet,
    SortOrder,
    extend_to,
    lcp_with_set,
)

log = logging.getLogger(__name__)

#: Nodes whose favorable-order set grows past this are logged, not pruned.
SET_SIZE_FLAG = 64

FavorableOrderSet = frozenset  # of SortOrder; the empty order is implicit


def restrict_orders(orders, s: AttrSet) -> FavorableOrderSet:
    """Restrict each order to its longest prefix within s, dropping empties:
    the orders that do not start with an attribute of s are skipped."""
    return frozenset(lcp_with_set(o, s) for o in orders if o and o[0] in s)


class OrderSource:
    """Favorable-order sets of one query's subexpressions, from the callable
    `orders_for` or a subclass's method of that name, and their restrictions
    to attribute sets, each computed once per (expression, attribute set)."""

    def __init__(self, orders_for=None):
        if orders_for is not None:
            self.orders_for = orders_for
        self._restricted = {}

    def restricted(self, e: lx.LogicalExpr, s: AttrSet) -> FavorableOrderSet:
        """restrict_orders(self.orders_for(e), s), cached."""
        key = (e, s)
        got = self._restricted.get(key)
        if got is None:
            got = self._restricted[key] = restrict_orders(self.orders_for(e), s)
        return got

    def usable(self, e: lx.Join | lx.GroupBy, s: AttrSet) -> FavorableOrderSet:
        """The union of e's inputs' sets restricted to s: the prefixes a merge
        join or group-by on s can use.  `_compute` avoids it, a frame per level."""
        inputs = lx.children(e)
        return frozenset().union(*map(self.restricted, inputs, [s] * len(inputs)))


def as_order_source(source) -> OrderSource:
    """`source` itself if it is an OrderSource (a FavorableOrderIndex, say),
    else the callable `source` wrapped in one."""
    return source if isinstance(source, OrderSource) else OrderSource(source)


def _extensions(heads, s: AttrSet) -> set[SortOrder]:
    """The empty order and each head, extended to a full permutation of s."""
    out = {extend_to(h, s) for h in heads | {EMPTY}}
    out.discard(EMPTY)  # the extension of anything over an empty s
    return out


class FavorableOrderIndex(OrderSource):
    """Per-node favorable orders for one query, computed bottom-up and cached.

    Scans contribute their clustering order and the keys of secondary indices
    that cover the query; selections pass orders through; projections cut
    orders to surviving prefixes; joins keep their inputs' orders; joins and
    group-bys extend their inputs' usable prefixes to full permutations of
    the join attributes resp. grouping keys (leftover attributes in
    deterministic name order).
    """

    def __init__(self, catalog: cs.Catalog, query_attrs: AttrSet):
        super().__init__()
        self.catalog = catalog
        self.query_attrs = query_attrs
        self._cache = {}

    def orders_for(self, e: lx.LogicalExpr) -> FavorableOrderSet:
        cached = self._cache.get(e)
        if cached is not None:
            return cached
        orders = self._compute(e)
        if len(orders) > SET_SIZE_FLAG:
            log.warning("favorable-order set of %s has %d members", type(e).__name__, len(orders))
        self._cache[e] = orders
        return orders

    def _compute(self, e: lx.LogicalExpr) -> FavorableOrderSet:
        if isinstance(e, lx.Scan):
            rel = self.catalog.relation(e.relation)
            out = {rel.clustering_order}
            needed = self.query_attrs & rel.columns
            for idx in cs.covering_indices(rel, needed, self.catalog):
                out.add(idx.key_order)
            out.discard(EMPTY)
            return frozenset(out)

        if isinstance(e, lx.Select):
            return self.orders_for(e.input)

        if isinstance(e, lx.Project):
            return self.restricted(e.input, e.cols)

        # An extension depends only on the prefix of an order within the
        # attribute set, so each distinct prefix is extended once.
        if isinstance(e, lx.Join):
            s = e.join_attrs
            out = _extensions(self.restricted(e.left, s) | self.restricted(e.right, s), s)
            return frozenset(out.union(self.orders_for(e.left), self.orders_for(e.right)))

        if isinstance(e, lx.GroupBy):
            return frozenset(_extensions(self.restricted(e.input, e.keys), e.keys))

        raise TypeError(f"not a logical expression: {e!r}")


def index_for_query(q: lx.QuerySpec, catalog: cs.Catalog) -> FavorableOrderIndex:
    return FavorableOrderIndex(catalog, lx.query_attrs(q, catalog))
