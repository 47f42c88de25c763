"""Post-optimization order refinement.

A plan's merge joins each carry a chosen key permutation; attributes of that
permutation not pinned down by any input favorable order are free.  This
module maximizes the shared-prefix benefit between adjacent joins over those
free attributes: exactly on paths (dynamic programming over segments), within
a factor of two on binary trees (split edges by level parity, solve each
parity class of paths exactly, keep the better half), and applies the result
to a plan, re-deriving and re-costing the sort enforcers.  A refined plan is
kept only if it does not cost more.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import catalog_stats as cs
from . import cost_model as cm
from . import logical_expr as lx
from .errors import ValidationError
from .optimizer import PhysicalPlan, _PlanBuilder
from .order_algebra import (
    EMPTY,
    AttrSet,
    SortOrder,
    canonical_permutation,
    concat,
    lcp,
    subtract,
)


@dataclass(frozen=True)
class LabeledTree:
    """Binary tree with an attribute set per node; edges are (parent, child)
    index pairs."""

    node_sets: tuple[AttrSet, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = len(self.node_sets)
        seen_child = set()
        kid_count = [0] * n
        for p, c in self.edges:
            if not (0 <= p < n and 0 <= c < n) or p == c:
                raise ValidationError(f"bad edge ({p}, {c})")
            if c in seen_child:
                raise ValidationError(f"node {c} has two parents")
            seen_child.add(c)
            kid_count[p] += 1
            if kid_count[p] > 2:
                raise ValidationError(f"node {p} has more than two children")
        if n and len(self.edges) != n - 1:
            raise ValidationError("tree must be connected and acyclic")

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.node_sets]
        for p, c in self.edges:
            kids[p].append(c)
        return kids

    def root(self) -> int:
        is_child = {c for _, c in self.edges}
        roots = [i for i in range(len(self.node_sets)) if i not in is_child]
        if len(roots) != 1:
            raise ValidationError("tree must have exactly one root")
        return roots[0]


def assignment_benefit(tree: LabeledTree, assignment) -> int:
    """Sum over tree edges of the common-prefix length of the two endpoint
    orders; each order must be a permutation of its node's attribute set."""
    for s, o in zip(tree.node_sets, assignment):
        if o.attr_set() != frozenset(s):
            raise ValidationError(f"order {o} is not a permutation of {sorted(s)}")
    return sum(len(lcp(assignment[p], assignment[c])) for p, c in tree.edges)


def path_order(sets) -> list[SortOrder]:
    """Benefit-maximal orders for a path of attribute sets.

    Segment DP: the best value of a segment is the best split of it plus the
    number of attributes common to the whole segment; those common attributes
    become a shared prefix block of every node in the segment, recursively.
    Ties break toward the smallest split index.
    """
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

    prefixes: list[list[str]] = [[] for _ in range(n)]

    def emit(i: int, j: int, removed: frozenset) -> None:
        block = commons[i][j] - removed
        perm = canonical_permutation(block).attrs
        for k in range(i, j + 1):
            prefixes[k].extend(perm)
        if i == j:
            return
        taken = removed | block
        emit(i, split[i][j], taken)
        emit(split[i][j] + 1, j, taken)

    emit(0, n - 1, frozenset())
    return [SortOrder(tuple(p)) for p in prefixes]


def _is_path(tree: LabeledTree) -> bool:
    return all(len(k) <= 1 for k in tree.children())


def _parity_components(tree: LabeledTree, parity: int):
    """Maximal paths formed by the edges whose level has the given parity.

    An edge's level is the depth of its child node (a root's outgoing edges
    are level 1).  Edges of one parity incident to a common node always share
    that node as the parent, so each component is  child - parent - child  or
    a single edge, i.e. a path.
    """
    kids = tree.children()
    depth = [0] * len(tree.node_sets)
    stack = [tree.root()]
    while stack:
        v = stack.pop()
        for c in kids[v]:
            depth[c] = depth[v] + 1
            stack.append(c)
    comps = []
    for v in range(len(tree.node_sets)):
        chosen = [c for c in kids[v] if depth[c] % 2 == parity]
        if not chosen:
            continue
        if len(chosen) == 1:
            comps.append([v, chosen[0]])
        else:
            comps.append([chosen[0], v, chosen[1]])
    return comps


def tree_approx(tree: LabeledTree) -> list[SortOrder]:
    """Orders with total benefit at least half the optimum for a binary tree.

    Paths are solved exactly.  Otherwise edges are split by level parity into
    two collections of short paths; each collection is solved exactly and the
    better one kept, remaining nodes getting arbitrary (canonical) orders.
    """
    n = len(tree.node_sets)
    if n == 0:
        return []
    if _is_path(tree):
        kids = tree.children()
        chain = [tree.root()]
        while kids[chain[-1]]:
            chain.append(kids[chain[-1]][0])
        orders = path_order([tree.node_sets[v] for v in chain])
        out: list[SortOrder] = [EMPTY] * n
        for v, o in zip(chain, orders):
            out[v] = o
        return out

    best_assignment, best_score = None, -1
    for parity in (1, 0):
        assignment = [canonical_permutation(s) for s in tree.node_sets]
        score = 0
        for comp in _parity_components(tree, parity):
            orders = path_order([tree.node_sets[v] for v in comp])
            for v, o in zip(comp, orders):
                assignment[v] = o
            score += sum(len(lcp(a, b)) for a, b in zip(orders, orders[1:]))
        if score > best_score:
            best_assignment, best_score = assignment, score
    return best_assignment


# --- plan refinement ----------------------------------------------------------

_TRANSPARENT = ("full_sort", "partial_sort", "select", "project")


def _join_edges(plan: PhysicalPlan):
    """Merge-join nodes of a plan and the parent-child pairs among them whose
    connecting path is order-transparent (enforcers, selects, projects)."""
    joins: list[PhysicalPlan] = []
    edges: list[tuple[int, int]] = []

    def visit(p: PhysicalPlan, ancestor: int | None) -> None:
        if p.op == "merge_join":
            me = len(joins)
            joins.append(p)
            if ancestor is not None:
                edges.append((ancestor, me))
            nxt = me
        elif p.op in _TRANSPARENT:
            nxt = ancestor
        else:
            nxt = None
        for c in p.children:
            visit(c, nxt)

    visit(plan, None)
    return joins, edges


def join_prefix_benefit(plan: PhysicalPlan) -> int:
    """Sum of shared-prefix lengths between adjacent merge joins of a plan."""
    joins, edges = _join_edges(plan)
    return sum(len(lcp(joins[p].produced_order, joins[c].produced_order)) for p, c in edges)


class _Rebuilder(_PlanBuilder):
    def __init__(self, catalog, params, exprs, new_orders):
        super().__init__(catalog, params)
        self.exprs = exprs  # preorder list of logical nodes
        self.new_orders = new_orders  # id(plan node) -> SortOrder

    def rebuild(self, p: PhysicalPlan, want: SortOrder) -> PhysicalPlan:
        if p.op in ("full_sort", "partial_sort"):
            return self.rebuild(p.children[0], want)
        e = self.exprs[p.expr_id]
        if not p.children:  # access paths: reuse verbatim, re-enforce on top
            return self._enforced(p, e, want)
        order = self.new_orders.get(id(p), p.produced_order)
        inner = {"merge_join": order, "sort_group_by": order, "select": want, "project": want}.get(p.op, EMPTY)
        # map adds no interpreter frame per level, unlike a comprehension
        kids = tuple(map(self.rebuild, p.children, [inner] * len(p.children)))
        return self._enforced(self._operator(p.op, e, p.expr_id, kids, order), e, want)


def refine_plan(
    plan: PhysicalPlan,
    query: lx.QuerySpec,
    catalog: cs.Catalog,
    params: cm.CostParams,
    favorable_index,
) -> PhysicalPlan:
    """Rework the free-attribute suffixes of a plan's merge-join orders.

    For each join: the longest prefix shared with some input favorable order
    stays; the remaining (free) attributes are reordered by the tree
    approximation so adjacent joins agree on longer prefixes.  Enforcers are
    re-derived and the whole plan re-costed; the original plan wins ties.
    """
    joins, edges = _join_edges(plan)
    if not edges:
        return plan
    exprs = lx.preorder(query.root)

    prefixes: list[SortOrder] = []
    free_sets: list[AttrSet] = []
    for j in joins:
        e = exprs[j.expr_id]
        inputs = sorted(
            favorable_index.orders_for(e.left) | favorable_index.orders_for(e.right),
            key=lambda o: o.attrs,
        )
        best_q = EMPTY
        best_len = 0
        for q in inputs:
            n = len(lcp(j.produced_order, q))
            if n > best_len:
                best_q, best_len = q, n
        head = lcp(j.produced_order, best_q)
        prefixes.append(head)
        free_sets.append(subtract(j.produced_order, head).attr_set())

    # Solve each connected component of the join adjacency separately.
    new_orders: dict[int, SortOrder] = {}
    parent = {c: p for p, c in edges}
    comp_of: dict[int, int] = {}
    for i in range(len(joins)):
        r = i
        while r in parent:
            r = parent[r]
        comp_of[i] = r
    for root in sorted(set(comp_of.values())):
        members = [i for i in range(len(joins)) if comp_of[i] == root]
        local = {g: l for l, g in enumerate(members)}
        tree = LabeledTree(
            tuple(free_sets[g] for g in members),
            tuple((local[p], local[c]) for p, c in edges if p in local and c in local),
        )
        assignment = tree_approx(tree)
        for g in members:
            refined = concat(prefixes[g], assignment[local[g]])
            if refined != joins[g].produced_order:
                new_orders[id(joins[g])] = refined

    if not new_orders:
        return plan
    rebuilt = _Rebuilder(catalog, params, exprs, new_orders).rebuild(
        plan, query.required_output_order
    )
    return rebuilt if rebuilt.total_cost <= plan.total_cost else plan
