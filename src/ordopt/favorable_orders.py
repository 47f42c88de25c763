"""Favorable orders: sort orders an expression can produce more cheaply than
by fully sorting an unordered result.

The sets are approximate, computed bottom-up in one pass over the expression
tree; `oracle.exact_minimal_favorable_orders` computes the exact minimal sets
of small schemas to judge them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from . import catalog_stats as cs
from . import logical_expr as lx
from .order_algebra import (
    EMPTY,
    AttrSet,
    SortOrder,
    canonical_permutation,
    concat,
    lcp_with_set,
)

log = logging.getLogger(__name__)

#: Nodes whose favorable-order set grows past this are logged, not pruned.
SET_SIZE_FLAG = 64

FavorableOrderSet = frozenset  # of SortOrder; the empty order is implicit


def restrict_orders(orders, s: AttrSet) -> FavorableOrderSet:
    """Restrict each order to its longest prefix within s, dropping empties."""
    out = {lcp_with_set(o, s) for o in orders}
    out.discard(EMPTY)
    return frozenset(out)


def _extend_over(o: SortOrder, s: AttrSet) -> SortOrder:
    """Prefix of o within s, extended to a full permutation of s."""
    head = lcp_with_set(o, s)
    return concat(head, canonical_permutation(s - head.attr_set()))


@dataclass
class FavorableOrderIndex:
    """Per-node favorable orders for one query, computed bottom-up and cached.

    Scans contribute their clustering order and the keys of secondary indices
    that cover the query; selections pass orders through; projections cut
    orders to surviving prefixes; joins and group-bys keep input orders and
    extend their usable prefixes to full permutations of the join attributes
    resp. grouping keys (leftover attributes in deterministic name order).
    """

    catalog: cs.Catalog
    query_attrs: AttrSet
    _cache: dict = field(default_factory=dict)

    def orders_for(self, e: lx.LogicalExpr) -> FavorableOrderSet:
        cached = self._cache.get(e)
        if cached is not None:
            return cached
        orders = self._compute(e)
        if len(orders) > SET_SIZE_FLAG:
            log.warning("favorable-order set of %s has %d members", type(e).__name__, len(orders))
        self._cache[e] = orders
        return orders

    def restricted(self, e: lx.LogicalExpr, s: AttrSet) -> FavorableOrderSet:
        return restrict_orders(self.orders_for(e), s)

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
            return restrict_orders(self.orders_for(e.input), e.cols)

        if isinstance(e, lx.Join):
            base = self.orders_for(e.left) | self.orders_for(e.right)
            out = set(base)
            for o in sorted(base | {EMPTY}, key=lambda o: o.attrs):
                out.add(_extend_over(o, e.join_attrs))
            out.discard(EMPTY)
            return frozenset(out)

        if isinstance(e, lx.GroupBy):
            out = set()
            for o in sorted(self.orders_for(e.input) | {EMPTY}, key=lambda o: o.attrs):
                out.add(_extend_over(o, e.keys))
            out.discard(EMPTY)
            return frozenset(out)

        raise TypeError(f"not a logical expression: {e!r}")


def index_for_query(q: lx.QuerySpec, catalog: cs.Catalog) -> FavorableOrderIndex:
    return FavorableOrderIndex(catalog, lx.query_attrs(q, catalog))
