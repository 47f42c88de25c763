"""Logical expression trees (scan/select/project/join/group-by) and their
ingestion from query files.

Join predicates are conjunctive equalities; equated attribute pairs carry a
single shared name, so a join is fully described by its attribute set.  Join
order is taken as given by the query file.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from . import _doc
from .errors import TooLarge, UnknownRelation
from .order_algebra import AttrSet, SortOrder

#: Name of the synthetic column holding aggregate results below a group-by.
AGG_ATTR = "__agg__"


class _Expr:
    """Base of the expression nodes.  A node hashes the tuple of its fields,
    as a frozen dataclass does, but once, at construction: nodes are built
    bottom-up, so each hash is O(1) and hashing a deep tree does not recurse.
    The value sits in a slot, outside the fields, vars(), eq and repr."""

    __slots__ = ("_hash",)

    def __post_init__(self) -> None:
        # vars() holds exactly the fields, in field order
        object.__setattr__(self, "_hash", hash(tuple(vars(self).values())))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), tuple(vars(self).values())


def _expr_class(cls):
    """`cls` as a frozen dataclass with the stored hash of `_Expr`."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = _Expr.__hash__
    return cls


@_expr_class
class Scan(_Expr):
    relation: str


@_expr_class
class Select(_Expr):
    input: "LogicalExpr"
    selectivity: float
    touched: AttrSet


@_expr_class
class Project(_Expr):
    input: "LogicalExpr"
    cols: AttrSet


@_expr_class
class Join(_Expr):
    left: "LogicalExpr"
    right: "LogicalExpr"
    join_attrs: AttrSet
    full_outer: bool = False


@_expr_class
class GroupBy(_Expr):
    input: "LogicalExpr"
    keys: AttrSet
    agg_width_bytes: int


LogicalExpr = Scan | Select | Project | Join | GroupBy


@dataclass(frozen=True)
class QuerySpec:
    root: LogicalExpr
    required_output_order: SortOrder


def children(e: LogicalExpr) -> tuple[LogicalExpr, ...]:
    if isinstance(e, Scan):
        return ()
    if isinstance(e, Join):
        return (e.left, e.right)
    return (e.input,)


def preorder(e: LogicalExpr) -> list[LogicalExpr]:
    """Nodes in preorder; positions serve as stable node ids in plan files."""
    out: list[LogicalExpr] = []
    stack = [e]
    while stack:
        node = stack.pop()
        out.append(node)
        kind = type(node)  # children(node), pushed in reverse, without a call per node
        if kind is Join:
            stack += (node.right, node.left)
        elif kind is not Scan:
            stack.append(node.input)
    return out


def schema(e: LogicalExpr, catalog) -> AttrSet:
    """The attribute set of the output of e."""
    if isinstance(e, Scan):
        return catalog.relation(e.relation).columns
    if isinstance(e, Select):
        return schema(e.input, catalog)
    if isinstance(e, Project):
        return e.cols
    if isinstance(e, Join):
        return schema(e.left, catalog) | schema(e.right, catalog)
    if isinstance(e, GroupBy):
        return e.keys | frozenset([AGG_ATTR])
    raise TypeError(f"not a logical expression: {e!r}")


def query_attrs(q: QuerySpec, catalog) -> AttrSet:
    """Every attribute the query references anywhere.

    Used as the coverage requirement for secondary indices: an index covers
    the query when it contains all attributes of its relation that appear in
    this set.
    """
    used: set[str] = set(q.required_output_order)
    # One walk; `out` marks nodes whose output columns reach the root's
    # schema: no project or group-by lies above them.
    stack = [(q.root, True)]
    while stack:
        node, out = stack.pop()
        kind = type(node)
        if kind is Scan:
            if out:
                used |= catalog.relation(node.relation).columns
        elif kind is Join:
            used |= node.join_attrs
            stack += ((node.left, out), (node.right, out))
        else:
            used |= node.touched if kind is Select else node.cols if kind is Project else node.keys
            stack.append((node.input, out and kind is Select))
    used.discard(AGG_ATTR)
    return frozenset(used)


# --- parsing ---------------------------------------------------------------

#: Nesting guard for query expressions, which keeps every recursion inside
#: the interpreter's default limit of 1000 frames.  The deepest is the
#: favorable-order pass that search and refinement start: three frames per
#: query level (`restricted`, `orders_for`, `_compute`).  Search itself takes
#: two per join level, and plan output one per plan level, where a plan can
#: be twice as deep as its query (a sort over every operator).
#: `test_search_and_refinement_fit_a_290_join_chain_in_the_default_stack`
#: (tests/test_order_refinement.py) pins a 290-join chain through search and
#: refinement.
MAX_QUERY_DEPTH = 128

#: Document name of each expression type; a node document's other fields are
#: the fields of its dataclass.
_OP_NAMES = {Scan: "scan", Select: "select", Project: "project", Join: "join", GroupBy: "group_by"}
_NODE_FIELDS = {op: {"op", *(f.name for f in dataclasses.fields(t))} for t, op in _OP_NAMES.items()}


def _parse_node(doc, catalog, path: str, depth: int = 1) -> tuple[LogicalExpr, AttrSet]:
    """The expression of `doc` and its output schema, which the checks of the
    node above read, so parsing stays linear in the size of the query."""
    if depth > MAX_QUERY_DEPTH:
        raise TooLarge(f"query expression nests deeper than {MAX_QUERY_DEPTH} levels")
    if not isinstance(doc, dict):
        raise _doc.fail(path, "expected an object")
    op = doc.get("op")
    if not isinstance(op, str) or op not in _NODE_FIELDS:
        raise _doc.fail(path, f"unknown op {op!r}")
    _doc.fields(doc, path, _NODE_FIELDS[op])

    if op == "scan":
        rel = _doc.name(doc.get("relation"), path + ".relation")
        if not catalog.has_relation(rel):
            raise UnknownRelation(f"{path}: unknown relation {rel!r}")
        return Scan(rel), catalog.relation(rel).columns

    if op == "join":
        left, left_schema = _parse_node(doc.get("left"), catalog, path + ".left", depth + 1)
        right, right_schema = _parse_node(doc.get("right"), catalog, path + ".right", depth + 1)
        attrs = frozenset(_doc.attr_list(doc.get("join_attrs"), path + ".join_attrs", nonempty=True))
        _require_within(attrs, left_schema, path + ".join_attrs", "left schema")
        _require_within(attrs, right_schema, path + ".join_attrs", "right schema")
        full_outer = _doc.boolean(doc.get("full_outer", False), path + ".full_outer")
        return Join(left, right, attrs, full_outer), left_schema | right_schema

    node, node_schema = _parse_node(doc.get("input"), catalog, path + ".input", depth + 1)
    if op == "select":
        sel = _doc.number(doc.get("selectivity", 1.0), path + ".selectivity", 0.0, 1.0, lo_open=True)
        touched = frozenset(_doc.attr_list(doc.get("touched", []), path + ".touched"))
        _require_within(touched, node_schema, path + ".touched")
        return Select(node, float(sel), touched), node_schema

    if op == "project":
        cols = frozenset(_doc.attr_list(doc.get("cols"), path + ".cols", nonempty=True))
        _require_within(cols, node_schema, path + ".cols")
        return Project(node, cols), cols

    # group_by
    keys = frozenset(_doc.attr_list(doc.get("keys", []), path + ".keys"))
    _require_within(keys, node_schema, path + ".keys")
    width = _doc.integer(doc.get("agg_width_bytes", 8), path + ".agg_width_bytes")
    return GroupBy(node, keys, width), keys | frozenset([AGG_ATTR])


def _require_within(attrs: AttrSet, available: AttrSet, path: str, where: str = "input schema") -> None:
    missing = attrs - available
    if missing:
        raise _doc.fail(path, f"attributes {sorted(missing)} not in {where}")


def parse_query(source, catalog) -> QuerySpec:
    """Parse and validate a query document (dict, JSON text, or bytes)."""
    doc = _doc.fields(_doc.read_json(source, "query"), "query", {"expr", "order_by"})
    root, root_schema = _parse_node(doc.get("expr"), catalog, "expr")
    out_order = SortOrder(_doc.attr_list(doc.get("order_by", []), "order_by"))
    _require_within(out_order.attr_set(), root_schema, "order_by", "output schema")
    return QuerySpec(root, out_order)


def _node_to_dict(e: LogicalExpr) -> dict:
    d = {"op": _OP_NAMES[type(e)]}
    for name, value in vars(e).items():
        if type(value) in _OP_NAMES:
            value = _node_to_dict(value)
        elif isinstance(value, frozenset):
            value = sorted(value)
        d[name] = value
    return d


def query_to_dict(q: QuerySpec) -> dict:
    return {"expr": _node_to_dict(q.root), "order_by": list(q.required_output_order)}
