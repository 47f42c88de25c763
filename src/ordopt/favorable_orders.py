"""Favorable orders: sort orders an expression can produce more cheaply than
by fully sorting an unordered result.

The sets are approximate, computed bottom-up in one pass over the expression
tree: a loop over the nodes in postorder (`lx.postorder`), each node's set
made from its children's, with no recursion.
`oracle.exact_minimal_favorable_orders` computes the exact minimal sets of
small schemas to judge them.

Every consumer of a set (the pass itself at the parent join or group-by,
plan search, refinement) reads only the prefixes of its orders within one
join's or group-by's attribute set.  Those restricted sets are cached per
(expression, attribute set), so each is computed once per query and shared
by whoever holds the index.
"""

from __future__ import annotations

from . import catalog_stats as cs
from . import logical_expr as lx
from .order_algebra import (
    EMPTY,
    AttrSet,
    SortOrder,
    _derived,
    extend_to,
)

#: A set larger than this is neither pruned nor reported by the pass;
#: perfbench's `favorable_orders.sets_over_flag` counts them.
SET_SIZE_FLAG = 64

FavorableOrderSet = frozenset  # of SortOrder; the empty order is implicit


def restrict_orders(orders, s: AttrSet) -> FavorableOrderSet:
    """Restrict each order to its longest prefix within s, dropping empties:
    the orders that do not start with an attribute of s are skipped.  One
    loop step per order; only the distinct prefixes become SortOrders."""
    prefixes = set()
    for o in orders:
        n = 0
        for a in o:
            if a not in s:
                break
            n += 1
        if n:
            prefixes.add(o[:n])
    return frozenset(map(_derived, prefixes))


def _extensions(heads, s: AttrSet) -> set[SortOrder]:
    """The empty order and each head, extended to a full permutation of s.
    An extension depends only on the prefix of an order within s, so the
    heads are restricted sets and each distinct prefix is extended once."""
    out = {extend_to(h, s) for h in heads | {EMPTY}}
    out.discard(EMPTY)  # the extension of anything over an empty s
    return out


class FavorableOrderIndex:
    """Per-node favorable orders for one query, computed bottom-up and cached,
    and their restrictions to attribute sets, cached per (expression,
    attribute set).  A subclass that overrides `orders_for` substitutes other
    sets (exact ones, say) for search and refinement alike.

    Scans contribute the orders of their access paths (`cs.scan_paths`, the
    table of search's scan candidates): the clustering order and the keys of
    secondary indices that cover the query.  Selections pass orders through;
    projections cut orders to surviving prefixes; joins keep their inputs'
    orders; joins and group-bys extend their inputs' usable prefixes to full
    permutations of the join attributes resp. grouping keys (leftover
    attributes in deterministic name order).
    """

    def __init__(self, catalog: cs.Catalog, query_attrs: AttrSet):
        self.catalog = catalog
        self.query_attrs = query_attrs
        self._cache = {}
        self._restricted = {}

    def orders_for(self, e: lx.LogicalExpr) -> FavorableOrderSet:
        """e's set.  A miss computes every node of e's subtree not yet cached,
        children first (`lx.postorder`), so no call recurses."""
        cache = self._cache
        got = cache.get(e)
        if got is not None:
            return got
        usable = self.usable
        for node, _ in lx.postorder(e, cache):
            kind = type(node)
            if kind is lx.Join:
                got = cache[node.left].union(cache[node.right], _extensions(usable(node), node.join_attrs))
            elif kind is lx.Scan:
                got = self._scan_orders(node)
            elif kind is lx.Select:
                got = cache[node.input]
            elif kind is lx.Project:
                got = self.restricted(node.input, node.cols)
            else:  # a group-by
                got = frozenset(_extensions(usable(node), node.keys))
            cache[node] = got
        return cache[e]

    def restricted(self, e: lx.LogicalExpr, s: AttrSet) -> FavorableOrderSet:
        """restrict_orders(self.orders_for(e), s), cached."""
        key = (e, s)
        got = self._restricted.get(key)
        if got is None:
            got = self._restricted[key] = restrict_orders(self.orders_for(e), s)
        return got

    def usable(self, e: lx.Join | lx.GroupBy) -> FavorableOrderSet:
        """The union of e's inputs' sets restricted to e's join attributes
        resp. grouping keys: the prefixes its merge join or sort-based
        group-by can use."""
        s = lx.sort_attrs(e)
        if type(e) is lx.Join:
            return self.restricted(e.left, s) | self.restricted(e.right, s)
        return self.restricted(e.input, s)

    def _scan_orders(self, e: lx.Scan) -> FavorableOrderSet:
        """The non-empty orders of e's access paths (`cs.scan_paths`)."""
        paths = cs.scan_paths(self.catalog.relation(e.relation), self.query_attrs, self.catalog)
        return frozenset(o for _, o, _ in paths if o)


def index_for_query(q: lx.QuerySpec, catalog: cs.Catalog) -> FavorableOrderIndex:
    return FavorableOrderIndex(catalog, lx.query_attrs(q, catalog))
