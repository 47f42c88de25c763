"""Logical expression trees (scan/select/project/join/group-by) and their
ingestion from query files.

Join predicates are conjunctive equalities; equated attribute pairs carry a
single shared name, so a join is fully described by its attribute set.  Join
order is taken as given by the query file.

Expressions are hash-consed: a constructor returns the node already built
from the same class and fields, if one is alive, so equal expressions are one
object.  Identity is therefore equality, and nodes hash and compare by
identity, in C: the memo, statistics and favorable-order tables of search key
on the node itself.  The intern table holds its nodes weakly, so an
expression lives exactly as long as something else refers to it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from . import _doc
from . import catalog_stats as cs
from .errors import TooLarge, UnknownRelation
from .order_algebra import AttrSet, SortOrder

#: Name of the synthetic column holding aggregate results below a group-by.
AGG_ATTR = "__agg__"

#: The intern table: a weak reference to every live node, keyed by its class,
#: its field values and then the types of its number and flag fields, so that
#: `0` and `False`, or `1` and `1.0`, which compare and hash alike but print
#: differently, never share a node.  A node's children are interned before
#: it, so its key hashes in O(1) and never recurses.  Not locked: build
#: expressions from one thread.
_interned: dict[tuple, _Entry] = {}


class _Entry(weakref.ref):
    """The table's reference to a node, which drops its entry when the node
    dies.  It adds no `__new__` or `__init__`, so it is built in C."""

    __slots__ = ("key",)


def _forget(entry: _Entry) -> None:
    if _interned.get(entry.key) is entry:  # else a new node took the key
        del _interned[entry.key]


def _intern(key: tuple):
    """The live node of `key`, a class and its field values (see `_interned`),
    or a new one."""
    entry = _interned.get(key)
    if entry is not None:
        node = entry()
        if node is not None:
            return node
    cls = key[0]
    node = object.__new__(cls)
    for put, value in zip(cls._put, key[1:]):
        put(node, value)
    entry = _interned[key] = _Entry(node, _forget)
    entry.key = key
    return node


class _Expr:
    """Base of the expression nodes: immutable, interned, and equal only to
    themselves.  A subclass's `__slots__` are its fields, in order; its
    constructor interns them through `_intern`.  `copy.deepcopy` and
    `pickle` give back the node itself, or the one equal node alive in the
    loading process."""

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls):
        # the slot setters, which bypass __setattr__, for _intern
        cls._put = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # pickle rebuilds through the constructor, which interns
        return type(self), self._values()

    def __deepcopy__(self, memo):
        return self


class Scan(_Expr):
    __slots__ = ("relation",)

    def __new__(cls, relation: str):
        return _intern((cls, relation))


class Select(_Expr):
    __slots__ = ("input", "selectivity", "touched")

    def __new__(cls, input: LogicalExpr, selectivity: float, touched: AttrSet):
        return _intern((cls, input, selectivity, touched, type(selectivity)))


class Project(_Expr):
    __slots__ = ("input", "cols")

    def __new__(cls, input: LogicalExpr, cols: AttrSet):
        return _intern((cls, input, cols))


class Join(_Expr):
    __slots__ = ("left", "right", "join_attrs", "full_outer")

    def __new__(cls, left: LogicalExpr, right: LogicalExpr, join_attrs: AttrSet, full_outer: bool = False):
        return _intern((cls, left, right, join_attrs, full_outer, type(full_outer)))


class GroupBy(_Expr):
    __slots__ = ("input", "keys", "agg_width_bytes")

    def __new__(cls, input: LogicalExpr, keys: AttrSet, agg_width_bytes: int):
        return _intern((cls, input, keys, agg_width_bytes, type(agg_width_bytes)))


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


def sort_attrs(e: Join | GroupBy) -> AttrSet:
    """The attributes a merge join or sort-based group-by sorts its inputs
    on: the join attributes resp. grouping keys."""
    return e.join_attrs if type(e) is Join else e.keys


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


def postorder(e: LogicalExpr, done):
    """(node, lazy `_doc` path from `expr`) for e's subtree, inputs first, left first,
    skipping each node in `done` with its subtree; the caller adds each node it gets.
    A value met in the walk that is no expression raises TypeError."""
    stack = [(e, "expr", False)]  # (node, path, inputs pushed)
    while stack:
        node, path, up = stack.pop()
        if up:
            yield node, path
        elif node not in done:
            kind = type(node)
            if kind not in _OP_NAMES:
                raise TypeError(f"not a logical expression: {node!r}")
            stack.append((node, path, True))
            if kind is Join:
                stack += ((node.right, (path, "right"), False), (node.left, (path, "left"), False))
            elif kind is not Scan:
                stack.append((node.input, (path, "input"), False))


def query_attrs(q: QuerySpec, catalog) -> AttrSet:
    """Every attribute the query references anywhere.

    Used as the coverage requirement for secondary indices: an index covers
    the query when it contains all attributes of its relation that appear in
    this set.
    """
    used = set(q.required_output_order)
    used.update(cs.expr_stats(q.root, catalog).distinct)  # the root's output schema
    for node in preorder(q.root):
        if type(node) is not Scan:
            used |= getattr(node, _ATTRS[type(node)])
    used.discard(AGG_ATTR)
    return frozenset(used)


# --- checking and parsing --------------------------------------------------

#: Nesting guard for query documents.  Reading, checking and writing queries and
#: deriving their statistics do not recurse, but search and refinement's rebuild
#: take a frame per join (987 joins fit on Python 3.10 and 3.11, 747 on 3.12.1),
#: and `json.dumps` stops near 497 nested plan levels, up to twice a query's depth.
MAX_QUERY_DEPTH = 128

#: Document name of each expression type; a node document's other fields are
#: the fields of its class, of which the one in `_ATTRS` names what it reads.
_OP_NAMES = {Scan: "scan", Select: "select", Project: "project", Join: "join", GroupBy: "group_by"}
_NODE_FIELDS = {op: {"op", *t.__slots__} for t, op in _OP_NAMES.items()}
_KINDS = {op: t for t, op in _OP_NAMES.items()}
_ATTRS = {Scan: "relation", Select: "touched", Project: "cols", Join: "join_attrs", GroupBy: "keys"}


def _read(kind, get, inputs, catalog, path) -> tuple:
    """A `kind` node's fields but its inputs (which end `inputs` and have cached
    statistics), read by `get(name, default)` in the order that picks the error
    of a node with several faults: selectivity, `_ATTRS` field, flag or width."""
    field = _ATTRS[kind]
    if kind is Scan:
        name = _doc.name(get(field), (path, field))
        if name not in catalog.relations:
            raise UnknownRelation(f"{_doc.spell(path)}: unknown relation {name!r}")
        return (name,)
    if kind is Select:
        sel = float(_doc.number(get("selectivity", 1.0), (path, "selectivity"), 0.0, 1.0, lo_open=True))
    nonempty = kind is Join or kind is Project  # a list that must name an attribute
    attrs = frozenset(_doc.attr_list(get(field, None if nonempty else []), (path, field), nonempty=nonempty))
    schema = catalog._stats_cache[inputs[-1]].distinct.keys()
    if kind is Join:
        _doc.within(attrs, catalog._stats_cache[inputs[-2]].distinct.keys(), (path, field), "left schema")
        _doc.within(attrs, schema, (path, field), "right schema")
        return attrs, _doc.boolean(get("full_outer", False), (path, "full_outer"))
    _doc.within(attrs, schema, (path, field), "input schema")
    if kind is GroupBy:
        return attrs, _doc.integer(get("agg_width_bytes", 8), (path, "agg_width_bytes"))
    return (sel, attrs) if kind is Select else (attrs,)


def check_node(e: LogicalExpr, path, catalog) -> None:
    """Raise what `parse_query` raises on e's document at `path`; see `_read`."""
    fields = {name: sorted(v) if isinstance(v, frozenset) else v for name, v in zip(e.__slots__, e._values())}
    _read(type(e), fields.get, children(e), catalog, path)


def check_query(q: QuerySpec, catalog) -> None:
    """Raise what `parse_query` raises on q's document, whose order_by is the
    list of q's order, a tuple.  `cs.expr_stats` checks the nodes, once per
    catalog: a parsed query costs one lookup here."""
    schema = cs.expr_stats(q.root, catalog).distinct.keys()
    by = q.required_output_order
    if type(by) is not tuple:
        raise _doc.fail("order_by", f"expected a tuple of attribute names, got {by!r}")
    _doc.within(frozenset(_doc.attr_list(list(by), "order_by")), schema, "order_by", "output schema")


def parse_query(source, catalog) -> QuerySpec:
    """Parse and validate a query document (dict, JSON text, or bytes): each
    node's form on the way down, its fields (`_read`) and statistics on the way up."""
    doc = _doc.fields(_doc.read_json(source, "query"), "query", {"expr", "order_by"})
    exprs = []  # the expression of each node read
    stack = [(doc.get("expr"), "expr", 1)]  # (node, path, depth); depth 0 on the way up
    while stack:
        node, path, depth = stack.pop()
        if depth:
            if depth > MAX_QUERY_DEPTH:
                raise TooLarge(f"query expression nests deeper than {MAX_QUERY_DEPTH} levels")
            if not isinstance(node, dict):
                raise _doc.fail(path, "expected an object")
            op = node.get("op")
            if not isinstance(op, str) or op not in _NODE_FIELDS:
                raise _doc.fail(path, f"unknown op {op!r}")
            _doc.fields(node, path, _NODE_FIELDS[op])
            if op != "scan":  # a scan has no inputs: it is read at once
                stack.append((node, path, 0))
                for step in ("right", "left") if op == "join" else ("input",):
                    stack.append((node.get(step), (path, step), depth + 1))
                continue
        kind = _KINDS[node["op"]]
        start = len(exprs) - (2 if kind is Join else 0 if kind is Scan else 1)  # where its inputs start
        exprs[start:] = [kind(*exprs[start:], *_read(kind, node.get, exprs, catalog, path))]
        if exprs[-1] not in catalog._stats_cache:
            catalog._stats_cache[exprs[-1]] = cs._compute_stats(exprs[-1], catalog)
    query = QuerySpec(exprs[0], _doc.attr_list(doc.get("order_by", []), "order_by"))
    check_query(query, catalog)
    return query


def query_to_dict(q: QuerySpec) -> dict:
    """The query document, built with an explicit stack: no frame per level."""
    doc = {"expr": {}, "order_by": list(q.required_output_order)}
    stack = [(q.root, doc["expr"])]
    while stack:
        e, d = stack.pop()
        d["op"] = _OP_NAMES[type(e)]
        for name, value in zip(e.__slots__, e._values()):
            if type(value) in _OP_NAMES:
                d[name] = {}
                stack.append((value, d[name]))
            else:
                d[name] = sorted(value) if isinstance(value, frozenset) else value
    return doc
