"""Post-optimization order refinement.

A plan's merge joins each carry a chosen key permutation; attributes of that
permutation not pinned down by any input favorable order are free.  This
module maximizes the shared-prefix benefit between adjacent joins over those
free attributes: exactly on paths (dynamic programming over segments, on each
piece between neighbours that share no attribute), within a factor of two on
binary trees (two splits into short paths by the parity of a node's depth,
each solved exactly, the better one kept), and applies the result to a plan
(`refine_with`) through the planning session that searched or loaded it:
its rebuild (`Optimizer.rebuild`) re-derives and re-costs the sort
enforcers, reusing the prices the session already holds.  A refined plan is
kept only if it does not cost more.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import catalog_stats as cs
from . import cost_model as cm
from . import logical_expr as lx
from .errors import ValidationError
from .optimizer import _PASS_ORDER, _SORTS, Optimizer, PhysicalPlan
from .order_algebra import AttrSet, SortOrder, canonical_permutation, concat, lcp, order_str, subtract


@dataclass(frozen=True)
class LabeledTree:
    """Binary tree with an attribute set per node; edges are (parent, child)
    index pairs.  Construction checks the shape and keeps what the check
    derives: `kids`, each node's children in edge order, and `walk`, every
    node in the order a walk down from the root reaches it."""

    node_sets: tuple[AttrSet, ...]
    edges: tuple[tuple[int, int], ...]
    kids: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    walk: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.node_sets)
        kids: list[list[int]] = [[] for _ in range(n)]
        seen_child = set()
        for p, c in self.edges:
            if not (0 <= p < n and 0 <= c < n) or p == c:
                raise ValidationError(f"bad edge ({p}, {c})")
            if c in seen_child:
                raise ValidationError(f"node {c} has two parents")
            seen_child.add(c)
            kids[p].append(c)
            if len(kids[p]) > 2:
                raise ValidationError(f"node {p} has more than two children")
        # With one parent per child, the nodes form one tree exactly when a
        # walk down from the first parentless node reaches all of them.
        walk = [i for i in range(n) if i not in seen_child][:1]
        for v in walk:  # the walk grows as it goes
            walk.extend(kids[v])
        if len(walk) != n:
            raise ValidationError("tree must be connected and acyclic")
        object.__setattr__(self, "kids", tuple(map(tuple, kids)))
        object.__setattr__(self, "walk", tuple(walk))


def assignment_benefit(tree: LabeledTree, assignment) -> int:
    """Sum over tree edges of the common-prefix length of the two endpoint
    orders; each order must be a permutation of its node's attribute set."""
    if len(assignment) != len(tree.node_sets):
        raise ValidationError(f"{len(assignment)} orders for {len(tree.node_sets)} nodes")
    for s, o in zip(tree.node_sets, assignment):
        if frozenset(o) != frozenset(s):
            raise ValidationError(f"order {order_str(o)} is not a permutation of {sorted(s)}")
    return sum(len(lcp(assignment[p], assignment[c])) for p, c in tree.edges)


def path_order(sets) -> list[SortOrder]:
    """Benefit-maximal orders for a path of attribute sets.

    Neighbours with disjoint sets share no prefix under any orders, so the
    path is cut between them and each piece solved alone by `_piece_order`;
    the orders are the ones the segment DP returns over the whole path.
    """
    sets = [frozenset(s) for s in sets]
    orders: list[SortOrder] = []
    start = 0
    for end in range(1, len(sets) + 1):
        if end == len(sets) or not sets[end - 1] & sets[end]:
            orders += _piece_order(sets[start:end])
            start = end
    return orders


def _piece_order(sets: list[frozenset]) -> list[SortOrder]:
    """Segment DP: the best value of a segment is the best split of it plus
    the number of attributes common to the whole segment; those common
    attributes become a shared prefix block of every node in the segment,
    recursively.  Ties break toward the smallest split index."""
    n = len(sets)
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

    # A segment's block follows the blocks of every segment around it.
    prefixes: list[list[str]] = [[] for _ in range(n)]
    stack = [(0, n - 1, frozenset())]
    while stack:
        i, j, removed = stack.pop()
        block = commons[i][j] - removed
        perm = canonical_permutation(block)
        for k in range(i, j + 1):
            prefixes[k].extend(perm)
        if i < j:
            taken = removed | block
            stack.append((i, split[i][j], taken))
            stack.append((split[i][j] + 1, j, taken))
    return [SortOrder(p) for p in prefixes]


def tree_approx(tree: LabeledTree) -> list[SortOrder]:
    """Orders with total benefit at least half the optimum for a binary tree.

    A path is one piece.  Any other tree has two candidate splits into
    pieces, each node with its children as  [v, c]  or  [c0, v, c1]:  under
    the nodes of even depth, then under those of odd depth.  Each piece is a
    path, solved exactly; the split whose pieces share the most prefix wins,
    the first on a tie, and nodes in no piece get canonical orders.
    """
    splits = ([list(tree.walk)],)
    if any(len(k) == 2 for k in tree.kids):
        splits = ([], [])
        depth = [0] * len(tree.node_sets)
        for v in tree.walk:
            k = tree.kids[v]
            for c in k:
                depth[c] = depth[v] + 1
            if k:
                splits[depth[v] % 2].append([v, k[0]] if len(k) == 1 else [k[0], v, k[1]])

    best_assignment, best_score = None, -1
    for pieces in splits:
        assignment = [canonical_permutation(s) for s in tree.node_sets]
        score = 0
        for piece in pieces:
            orders = path_order([tree.node_sets[v] for v in piece])
            for v, o in zip(piece, orders):
                assignment[v] = o
            score += sum(len(lcp(a, b)) for a, b in zip(orders, orders[1:]))
        if score > best_score:
            best_assignment, best_score = assignment, score
    return best_assignment


# --- plan refinement ----------------------------------------------------------

_TRANSPARENT = (*_SORTS, *_PASS_ORDER)


def _join_trees(plan: PhysicalPlan) -> list[tuple[list[PhysicalPlan], list[tuple[int, int]]]]:
    """The trees of merge joins in a plan, in preorder of their roots.  Two
    joins are adjacent when the path between them is order-transparent
    (enforcers, selects, projects).  Each tree is its joins in preorder and
    its (parent, child) edges as indices into them."""
    trees = []
    stack = [(plan, None, None)]  # (plan node, tree of the join above it, that join's index)
    while stack:
        p, tree, above = stack.pop()
        if p.op == "merge_join":
            if tree is None:
                tree = ([], [])
                trees.append(tree)
            joins, edges = tree
            if above is not None:
                edges.append((above, len(joins)))
            above = len(joins)
            joins.append(p)
        elif p.op not in _TRANSPARENT:
            tree = above = None
        stack.extend((c, tree, above) for c in reversed(p.children))
    return trees


def join_prefix_benefit(plan: PhysicalPlan) -> int:
    """Sum of shared-prefix lengths between adjacent merge joins of a plan."""
    return sum(
        len(lcp(joins[p].produced_order, joins[c].produced_order))
        for joins, edges in _join_trees(plan)
        for p, c in edges
    )


def refine_with(planner: Optimizer, plan: PhysicalPlan) -> PhysicalPlan:
    """Rework the free-attribute suffixes of the merge-join orders of `plan`,
    a plan of the query of `planner`, such as the one its search found.

    For each join: the longest prefix shared with some input favorable order
    in `planner.index` stays; the remaining (free) attributes are reordered by
    the tree approximation so adjacent joins agree on longer prefixes.
    `planner` re-derives the enforcers and re-costs the whole plan; the rebuilt
    plan is returned unless it costs more than the original, so it wins ties.
    """
    trees = _join_trees(plan)
    if not any(edges for _, edges in trees):
        return plan

    # A join's order is a permutation of its attributes, so its common prefix
    # with an input favorable order is its common prefix with that order's
    # restriction to the attributes.
    def head(j: PhysicalPlan) -> SortOrder:
        usable = planner.index.usable(j.expr)
        return j.produced_order[: max((len(lcp(j.produced_order, q)) for q in usable), default=0)]

    # Each tree of adjacent joins is solved separately.
    new_orders: dict[int, SortOrder] = {}
    for joins, edges in trees:
        heads = [head(j) for j in joins]
        free_sets = tuple(frozenset(subtract(j.produced_order, h)) for j, h in zip(joins, heads))
        for j, h, free in zip(joins, heads, tree_approx(LabeledTree(free_sets, tuple(edges)))):
            refined = concat(h, free)
            if refined != j.produced_order:
                new_orders[id(j)] = refined

    if not new_orders:
        return plan
    rebuilt = planner.rebuild(plan, planner.query.required_output_order, new_orders)
    return rebuilt if rebuilt.total_cost <= plan.total_cost else plan


def refine_plan(
    plan: PhysicalPlan,
    query: lx.QuerySpec,
    catalog: cs.Catalog,
    params: cm.CostParams,
    favorable_index,
) -> PhysicalPlan:
    """`refine_with` on a fresh session of `query` over its `favorable_index`."""
    return refine_with(Optimizer(catalog, params, query, order_source=favorable_index), plan)
