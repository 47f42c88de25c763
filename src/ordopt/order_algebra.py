"""Sort orders and attribute sets: the value types everything else consumes.

A sort order is a duplicate-free tuple of attribute names; sort direction is
deliberately not represented.  Being a tuple, an order hashes, compares and
slices in C, and sorts like the tuple of its names; a slice is a plain
tuple, which `_derived` makes an order again.  Attribute sets are plain
frozensets of names.  All operations here are pure.
"""

from __future__ import annotations

from .errors import DuplicateAttribute, NotAPrefix

AttrSet = frozenset  # of attribute name strings


class SortOrder(tuple):
    """An ordered, duplicate-free tuple of attribute names."""

    __slots__ = ()

    def __new__(cls, attrs) -> "SortOrder":
        self = tuple.__new__(cls, attrs)
        if len(set(self)) != len(self):
            raise DuplicateAttribute(f"duplicate attribute in order {tuple(self)}")
        if "" in self:
            raise DuplicateAttribute("empty attribute name in sort order")
        return self

    def __str__(self) -> str:
        return "(" + ",".join(self) + ")" if self else "eps"

    def attr_set(self) -> AttrSet:
        return frozenset(self)

    def prefix(self, n: int) -> "SortOrder":
        return _derived(self[:n])


def _derived(attrs: tuple[str, ...]) -> SortOrder:
    """A SortOrder over names already checked to be distinct and non-empty (a
    slice of an order, or a list `_doc.attr_list` read), so the check is skipped."""
    return tuple.__new__(SortOrder, attrs)


EMPTY = SortOrder(())


def order(*names: str) -> SortOrder:
    return SortOrder(names)


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
    return _derived(o1[:n])


def concat(o1: SortOrder, o2: SortOrder) -> SortOrder:
    """o1 followed by o2; the operands must not share attributes."""
    return SortOrder(o1 + o2)


def subtract(o1: SortOrder, o2: SortOrder) -> SortOrder:
    """The unique suffix s with concat(o2, s) == o1; o2 must be a prefix."""
    if not is_prefix(o2, o1):
        raise NotAPrefix(f"{o2} is not a prefix of {o1}")
    return _derived(o1[len(o2):])


def lcp_with_set(o: SortOrder, s: AttrSet) -> SortOrder:
    """Longest prefix of o whose attributes all belong to s."""
    n = 0
    for a in o:
        if a not in s:
            break
        n += 1
    return _derived(o[:n])


def extend_to(o: SortOrder, s: AttrSet) -> SortOrder:
    """o followed by the attributes of s it lacks, in ascending name order: a
    permutation of s when o lies within s.  Duplicate-free by construction,
    so the check is skipped."""
    return _derived(o + tuple(sorted(s.difference(o))))


def canonical_permutation(s: AttrSet) -> SortOrder:
    """Deterministic permutation of an attribute set: ascending name order."""
    return SortOrder(sorted(s))
