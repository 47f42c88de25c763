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


@dataclass(frozen=True)
class Scan:
    relation: str


@dataclass(frozen=True)
class Select:
    input: "LogicalExpr"
    selectivity: float
    touched: AttrSet


@dataclass(frozen=True)
class Project:
    input: "LogicalExpr"
    cols: AttrSet


@dataclass(frozen=True)
class Join:
    left: "LogicalExpr"
    right: "LogicalExpr"
    join_attrs: AttrSet
    full_outer: bool = False


@dataclass(frozen=True)
class GroupBy:
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
        stack.extend(reversed(children(node)))
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
    used: set[str] = set(q.required_output_order.attrs)
    used |= schema(q.root, catalog)
    for node in preorder(q.root):
        if isinstance(node, Select):
            used |= node.touched
        elif isinstance(node, Project):
            used |= node.cols
        elif isinstance(node, Join):
            used |= node.join_attrs
        elif isinstance(node, GroupBy):
            used |= node.keys
    used.discard(AGG_ATTR)
    return frozenset(used)


# --- parsing ---------------------------------------------------------------

#: Nesting guard for query expressions.  A plan can be twice as deep as its
#: query (a sort over every operator), and search, refinement and JSON plan
#: output recurse about twice per plan level; this keeps all of them inside
#: the interpreter's default recursion limit of 1000.
MAX_QUERY_DEPTH = 128

#: Document name of each expression type; a node document's other fields are
#: the fields of its dataclass.
_OP_NAMES = {Scan: "scan", Select: "select", Project: "project", Join: "join", GroupBy: "group_by"}
_NODE_FIELDS = {op: {"op", *(f.name for f in dataclasses.fields(t))} for t, op in _OP_NAMES.items()}


def _parse_node(doc, catalog, path: str, depth: int = 1) -> LogicalExpr:
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
        return Scan(rel)

    if op == "join":
        left = _parse_node(doc.get("left"), catalog, path + ".left", depth + 1)
        right = _parse_node(doc.get("right"), catalog, path + ".right", depth + 1)
        attrs = frozenset(_doc.attr_list(doc.get("join_attrs"), path + ".join_attrs", nonempty=True))
        _require_within(attrs, left, catalog, path + ".join_attrs", "left schema")
        _require_within(attrs, right, catalog, path + ".join_attrs", "right schema")
        full_outer = _doc.boolean(doc.get("full_outer", False), path + ".full_outer")
        return Join(left, right, attrs, full_outer)

    node = _parse_node(doc.get("input"), catalog, path + ".input", depth + 1)
    if op == "select":
        sel = _doc.number(doc.get("selectivity", 1.0), path + ".selectivity", 0.0, 1.0, lo_open=True)
        touched = frozenset(_doc.attr_list(doc.get("touched", []), path + ".touched"))
        _require_within(touched, node, catalog, path + ".touched")
        return Select(node, float(sel), touched)

    if op == "project":
        cols = frozenset(_doc.attr_list(doc.get("cols"), path + ".cols", nonempty=True))
        _require_within(cols, node, catalog, path + ".cols")
        return Project(node, cols)

    # group_by
    keys = frozenset(_doc.attr_list(doc.get("keys", []), path + ".keys"))
    _require_within(keys, node, catalog, path + ".keys")
    width = _doc.integer(doc.get("agg_width_bytes", 8), path + ".agg_width_bytes")
    return GroupBy(node, keys, width)


def _require_within(attrs: AttrSet, e: LogicalExpr, catalog, path: str, where: str = "input schema") -> None:
    missing = attrs - schema(e, catalog)
    if missing:
        raise _doc.fail(path, f"attributes {sorted(missing)} not in {where}")


def parse_query(source, catalog) -> QuerySpec:
    """Parse and validate a query document (dict, JSON text, or bytes)."""
    doc = _doc.fields(_doc.read_json(source, "query"), "query", {"expr", "order_by"})
    root = _parse_node(doc.get("expr"), catalog, "expr")
    out_order = SortOrder(_doc.attr_list(doc.get("order_by", []), "order_by"))
    _require_within(out_order.attr_set(), root, catalog, "order_by", "output schema")
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
    return {"expr": _node_to_dict(q.root), "order_by": list(q.required_output_order.attrs)}
