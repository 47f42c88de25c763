"""Sort orders and attribute sets: the value types everything else consumes.

A sort order is a duplicate-free sequence of attribute names; sort direction
is deliberately not represented.  Attribute sets are plain frozensets of
names.  All operations here are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import DuplicateAttribute, NotAPrefix

AttrSet = frozenset  # of attribute name strings


@dataclass(frozen=True)
class SortOrder:
    """An ordered, duplicate-free sequence of attribute names."""

    attrs: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.attrs)) != len(self.attrs):
            raise DuplicateAttribute(f"duplicate attribute in order {self.attrs}")
        for a in self.attrs:
            if not a:
                raise DuplicateAttribute("empty attribute name in sort order")

    def __len__(self) -> int:
        return len(self.attrs)

    def __iter__(self) -> Iterator[str]:
        return iter(self.attrs)

    def __bool__(self) -> bool:
        return bool(self.attrs)

    def __str__(self) -> str:
        return "(" + ",".join(self.attrs) + ")" if self.attrs else "eps"

    def attr_set(self) -> AttrSet:
        return frozenset(self.attrs)

    def prefix(self, n: int) -> "SortOrder":
        return _derived(self.attrs[:n])


def _derived(attrs: tuple[str, ...]) -> SortOrder:
    """A SortOrder over a slice of an order that was already checked: a slice
    of a duplicate-free sequence of names is one too, so the check is skipped."""
    o = object.__new__(SortOrder)
    o.__dict__["attrs"] = attrs  # the instance dict: a frozen class refuses setattr
    return o


EMPTY = SortOrder(())


def order(*names: str) -> SortOrder:
    return SortOrder(tuple(names))


def is_prefix(o1: SortOrder, o2: SortOrder) -> bool:
    """True iff o1 equals the first len(o1) elements of o2."""
    return o2.attrs[: len(o1.attrs)] == o1.attrs


def lcp(o1: SortOrder, o2: SortOrder) -> SortOrder:
    """Longest common prefix of two orders."""
    n = 0
    for a, b in zip(o1.attrs, o2.attrs):
        if a != b:
            break
        n += 1
    return _derived(o1.attrs[:n])


def concat(o1: SortOrder, o2: SortOrder) -> SortOrder:
    """o1 followed by o2; the operands must not share attributes."""
    return SortOrder(o1.attrs + o2.attrs)


def subtract(o1: SortOrder, o2: SortOrder) -> SortOrder:
    """The unique suffix s with concat(o2, s) == o1; o2 must be a prefix."""
    if not is_prefix(o2, o1):
        raise NotAPrefix(f"{o2} is not a prefix of {o1}")
    return _derived(o1.attrs[len(o2.attrs):])


def lcp_with_set(o: SortOrder, s: AttrSet) -> SortOrder:
    """Longest prefix of o whose attributes all belong to s."""
    n = 0
    for a in o.attrs:
        if a not in s:
            break
        n += 1
    return _derived(o.attrs[:n])


def extend_to(o: SortOrder, s: AttrSet) -> SortOrder:
    """o followed by the attributes of s it lacks, in ascending name order: a
    permutation of s when o lies within s.  Duplicate-free by construction,
    so the check is skipped."""
    return _derived(o.attrs + tuple(sorted(s.difference(o.attrs))))


def canonical_permutation(s: AttrSet) -> SortOrder:
    """Deterministic permutation of an attribute set: ascending name order."""
    return SortOrder(tuple(sorted(s)))
