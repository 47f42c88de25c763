"""Sort orders and attribute sets: the value types everything else consumes.

A sort order is a plain tuple of distinct, non-empty attribute names; sort
direction is deliberately not represented.  An order hashes, compares,
slices and sorts as a tuple does, and a slice of an order is an order.
`SortOrder` and `order` check the names (annotations use `SortOrder` as the
name of the type, too); `order_str` prints an order.  Attribute sets are
plain frozensets of names.  All operations here are pure.
"""

from __future__ import annotations

from .errors import DuplicateAttribute, NotAPrefix

AttrSet = frozenset  # of attribute name strings


def SortOrder(attrs) -> tuple[str, ...]:
    """The order of `attrs`, which must be distinct, non-empty names."""
    o = tuple(attrs)
    if len(set(o)) != len(o):
        raise DuplicateAttribute(f"duplicate attribute in order {o}")
    if "" in o:
        raise DuplicateAttribute("empty attribute name in sort order")
    return o


EMPTY = ()


def order(*names: str) -> SortOrder:
    return SortOrder(names)


def order_str(o: SortOrder) -> str:
    """`(a,b)`, or `eps` for the empty order."""
    return "(" + ",".join(o) + ")" if o else "eps"


def is_prefix(o1: SortOrder, o2: SortOrder) -> bool:
    """True iff o1 equals the first len(o1) elements of o2."""
    return o2[: len(o1)] == o1


def lcp(o1: SortOrder, o2: SortOrder) -> SortOrder:
    """Longest common prefix of two orders."""
    n = 0
    for a, b in zip(o1, o2):
        if a != b:
            break
        n += 1
    return o1[:n]


def concat(o1: SortOrder, o2: SortOrder) -> SortOrder:
    """o1 followed by o2; the operands must not share attributes."""
    return SortOrder(o1 + o2)


def subtract(o1: SortOrder, o2: SortOrder) -> SortOrder:
    """The unique suffix s with concat(o2, s) == o1; o2 must be a prefix."""
    if not is_prefix(o2, o1):
        raise NotAPrefix(f"{order_str(o2)} is not a prefix of {order_str(o1)}")
    return o1[len(o2):]


def lcp_with_set(o: SortOrder, s: AttrSet) -> SortOrder:
    """Longest prefix of o whose attributes all belong to s."""
    n = 0
    for a in o:
        if a not in s:
            break
        n += 1
    return o[:n]


def extend_to(o: SortOrder, s: AttrSet) -> SortOrder:
    """o followed by the attributes of s it lacks, in ascending name order: a
    permutation of s when o lies within s.  Duplicate-free by construction,
    so it needs no check."""
    return o + tuple(sorted(s.difference(o)))


def canonical_permutation(s: AttrSet) -> SortOrder:
    """Deterministic permutation of an attribute set: ascending name order."""
    return SortOrder(sorted(s))
